"""Record the digests the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Run once at the seed commit, without any time budget, so the digests of
the rungs that stall under the benchmark's budget are recorded too.
Rewrites perfbench/reference.json.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_inputs  # noqa: E402
import bench_poly  # noqa: E402
from purebetti import (  # noqa: E402
    canonical_generator,
    equivariant_diagram,
    poly_to_json,
    schur_gcd_family,
)


def main():
    ladder = {}
    for op in bench_inputs.ladder_ops():
        e = tuple(op["e"])
        name = f"{op['call']}:{bench_inputs.key(e)}"
        if op["call"] == "equivariant_diagram":
            ladder[name] = bench_poly.digest(equivariant_diagram(e).to_json())
        else:
            r, g, cofactors = schur_gcd_family(e)
            ladder[name] = bench_poly.family_digest(
                r, poly_to_json(g), [poly_to_json(c) for c in cofactors])
        print(name, flush=True)
    keys = {tuple(e) for e, _ in bench_inputs.GENERATOR_FAMILIES}
    for e, _, _ in bench_inputs.DECIDE_BLOCKS:
        keys |= {e, tuple(reversed(e))}
    generators = {
        bench_inputs.key(e): bench_poly.digest(canonical_generator(e).to_diagram().to_json())
        for e in sorted(keys)
    }
    text = json.dumps({"ladder": ladder, "generators": generators}, indent=1, sort_keys=True)
    (HERE / "reference.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
