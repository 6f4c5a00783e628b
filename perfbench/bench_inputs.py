"""Seeded input generator; runs in its own process before the timed one.

    python3 perfbench/bench_inputs.py --workload decide --seed 1 --out DIR

Writes DIR/inputs.json: the op list of every pass, each op with the
answer expected by construction, and for `decide` the diagram files the
CLI reads.  The same seed gives the same files.  Generator tuples come
from the package but are only trusted after their digests match the ones
recorded at the seed commit (reference.json); every member, perturbation
and expected cofactor is then built with bench_poly, not with the
package.
"""

import argparse
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_poly  # noqa: E402

# Every e with n <= 3 and entries 1..4, then the larger rungs; (1,2,3,4,5)
# stalls at the seed commit.
LADDER_E = ([e for n in range(1, 4) for e in itertools.product(range(1, 5), repeat=n)]
            + [(1, 2, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5), (1, 1, 1, 1, 1),
               (2, 2, 2, 2, 2), (1, 2, 3, 4, 5)])

# decide, per pass: (e, decompose kinds, further commands).  The wrong-gap
# member belongs to the reversed vector.  Block b decomposes kinds b, b+1,
# ... (mod 4), checks the first and runs hilbert on the first divisible
# one, so every pass has the same mix.  (3,4,5) comes three times so the
# median op falls inside one cluster of like ops; (2,3,4,5) takes only the
# two member kinds so the p90 falls among the (1,2,3,4) ops instead of on
# the edge of the slowest cluster.
DECIDE_KINDS = ("int", "frac", "hk", "gap")
DECIDE_BLOCKS = [((2, 3, 4, 5), 2, ("check",)),
                 ((2, 3), 4, ("check", "hilbert")),
                 ((3, 4, 5), 4, ("check", "hilbert")),
                 ((3, 4, 5), 4, ("check", "hilbert")),
                 ((3, 4, 5), 4, ("check", "hilbert")),
                 ((2, 2, 4), 4, ("check", "hilbert")),
                 ((1, 2, 3, 4), 4, ("check", "hilbert"))]

# generator: (e, number of families per pass); (1,2,3,4) stalls in gcd.
# The p90 falls among the (2,3,4) families, whose cost varies with the
# cofactors, so there are six of them a pass.
GENERATOR_FAMILIES = [((2, 3), 3), ((1, 2), 3), ((3, 4), 3),
                      ((1, 2, 3), 3), ((2, 2, 4), 3), ((1, 1, 2), 3), ((2, 3, 4), 6),
                      ((1, 1, 1, 1), 2), ((1, 1, 1, 2), 2), ((1, 2, 3, 4), 1)]


def ladder_ops():
    ops = []
    for e in LADDER_E:
        ops.append({"call": "equivariant_diagram", "e": list(e)})
        if math.gcd(*e) > 1:
            ops.append({"call": "schur_gcd_family", "e": list(e)})
    return ops


def key(e):
    return ",".join(str(v) for v in e)


class Generators:
    """Canonical generator tuples as dict polynomials, digest-checked."""

    def __init__(self, reference):
        self.reference = reference
        self.cache = {}

    def __call__(self, e):
        e = tuple(e)
        if e not in self.cache:
            from purebetti import canonical_generator

            obj = canonical_generator(e).to_diagram().to_json()
            if bench_poly.digest(obj) != self.reference[key(e)]:
                raise SystemExit(f"canonical_generator{e} differs from the seed commit")
            self.cache[e] = bench_poly.diagram_from_json(obj)
        return self.cache[e]


def coefficients(rng, count, fractional):
    """Nonzero rationals; a fractional set starts with a non-integer, so a
    cofactor's integrality is known by construction."""
    coeffs = [Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))) for _ in range(count)]
    if fractional:
        for i in range(count):
            if i == 0 or rng.random() < 0.5:
                coeffs[i] = Fraction(rng.choice((-1, 1)) * rng.choice((1, 3, 7)),
                                     rng.choice((2, 4, 5)))
    return coeffs


def random_cofactor(rng, n, terms):
    """Homogeneous integer Laurent polynomial with exactly `terms` terms."""
    degree = rng.randint(-2, 3)
    exps = set()
    while len(exps) < terms:
        head = [rng.randint(-2, 3) for _ in range(n - 1)]
        exps.add(tuple(head + [degree - sum(head)]))
    return dict(zip(sorted(exps), coefficients(rng, terms, False)))


def spread_cofactor(rng, n, fractional):
    """Two-term homogeneous cofactor whose exponents differ by (20, -20, 0, ...).

    That is farther apart than any two exponents of a decide generator, so
    p * s has exactly twice the terms of s and an op's cost does not
    depend on the seed.
    """
    first = tuple(rng.randint(-2, 3) for _ in range(n))
    second = (first[0] + 20, first[1] - 20) + first[2:]
    return dict(zip((first, second), coefficients(rng, 2, fractional)))


def hk_perturbation(rng, components):
    """Add one monomial of the right total degree that is not in the support.

    The alternating sum then equals that monomial up to sign at t_1 = 1, so
    the HK equation fails at k = 1 while purity and the gaps are unchanged.
    """
    out = [dict(f) for f in components]
    i = rng.randrange(len(out))
    degree = sum(next(iter(out[i])))
    n = len(out) - 1
    while True:
        head = [rng.randint(-6, 12) for _ in range(n - 1)]
        exp = tuple(head + [degree - sum(head)])
        if exp not in out[i]:
            out[i][exp] = Fraction(rng.choice([-2, -1, 1, 2]))
            return out


def decide_pass(rng, gens, out_dir, p):
    ops = []
    for b, (e, count, commands) in enumerate(DECIDE_BLOCKS):
        n = len(e)
        wrong = tuple(reversed(e))
        kinds = [DECIDE_KINDS[(b + j) % len(DECIDE_KINDS)] for j in range(count)]
        files = {}
        for kind in kinds:
            cof = spread_cofactor(rng, n, kind == "frac")
            comps = [bench_poly.mul(cof, s) for s in gens(wrong if kind == "gap" else e)]
            if kind == "hk":
                comps = hk_perturbation(rng, comps)
            path = out_dir / f"p{p}-b{b}-{kind}.json"
            path.write_text(json.dumps(bench_poly.diagram_to_json(comps)))
            files[kind] = str(path)
            in_space = kind in ("int", "frac")
            ops.append({
                "argv": ["decompose", "--in", str(path), "--e", key(e), "--format", "json"],
                "e": list(e),
                "expect": {
                    "in_space": in_space,
                    "cofactor": bench_poly.poly_to_json(n, cof) if in_space else None,
                    "integral": kind == "int",
                    "reason": {"hk": "hk", "gap": "gap"}.get(kind),
                },
            })
        for command in commands:
            kind = kinds[0] if command == "check" else next(k for k in kinds if k != "hk")
            ops.append({
                "argv": [command, "--in", files[kind], "--format", "json"],
                "e": list(e),
                "expect": {"e": list(wrong if kind == "gap" else e),
                           "hk_pass": kind != "hk", "nvars": n},
            })
    return ops


def generator_pass(rng, gens):
    ops = []
    for e, count in GENERATOR_FAMILIES:
        for f in range(count):
            size = (2, 3)[f] if f < 2 else rng.choice((2, 3))
            members = []
            for _ in range(size):
                cof = random_cofactor(rng, len(e), 2)
                members.append(bench_poly.diagram_to_json(
                    [bench_poly.mul(cof, s) for s in gens(e)]))
            ops.append({"e": list(e), "members": members,
                        "expect": gens.reference[key(e)]})
    return ops


def repeat_share(passes, per_process):
    """Share of ops whose e was already used by an earlier op in the same process."""
    repeats = total = 0
    seen = set()
    for index, ops in enumerate(passes):
        if per_process or index == 0:
            seen = set()
        for op in ops:
            e = tuple(op["e"])
            repeats += e in seen
            total += 1
            seen.add(e)
    return repeats / total


def generate(workload, seed, out_dir, settings, reference):
    rng = random.Random(f"{workload}:{seed}")
    config = settings["workloads"][workload]
    gens = Generators(reference["generators"])
    passes = []
    for p in range(settings["passes_generated"]):
        if workload == "ladder":
            ops = ladder_ops()
            for op in ops:
                op["expect"] = reference["ladder"][f"{op['call']}:{key(op['e'])}"]
        elif workload == "decide":
            ops = decide_pass(rng, gens, out_dir, p)
        else:
            ops = generator_pass(rng, gens)
        if workload != "ladder":  # the ladder keeps one order, small rungs first
            rng.shuffle(ops)
        passes.append(ops)
    return {
        "workload": workload,
        "seed": seed,
        "budget_s": config["budget_s"],
        "reference_kernel_s": settings["reference_kernel_s"],
        "fresh_process_per_pass": config["fresh_process_per_pass"],
        "repeat_share": repeat_share(passes, config["fresh_process_per_pass"]),
        "passes": passes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "decide", "generator"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    settings = json.loads((HERE / "settings.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    inputs = generate(args.workload, args.seed, args.out, settings, reference)
    (args.out / "inputs.json").write_text(json.dumps(inputs))


if __name__ == "__main__":
    main()
