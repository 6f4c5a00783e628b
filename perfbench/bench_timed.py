"""The timed process: one workload's ops in a closed loop, then output checks.

    python3 perfbench/bench_timed.py --inputs DIR/inputs.json --out RESULT.json
        [--first-pass P] [--max-passes K] [--target-s S] [--min-ops N]
        [--trace SPANS.csv]
    python3 perfbench/bench_timed.py --inputs DIR/inputs.json --probe

One client on one thread: each op starts when the previous one returns.
Whole passes run until the summed op time, scaled to the nominal machine
speed, reaches --target-s and at least --min-ops ops ran, or until
--max-passes passes are done.  An op that exceeds the workload's budget
is interrupted by SIGALRM and recorded as a timeout, charged its full
elapsed time.  Between ops the reference kernel (bench_poly) is timed so
the caller can scale op times to a fixed machine speed.  Outputs are
kept and checked only after the timed phase.
--probe stops after the set-up (import and input loading) and prints
`ready`, so the caller can time the set-up from process start.
"""

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_poly  # noqa: E402



class OpTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the package swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def _run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def prepare(inputs):
    """Callables for every op of every pass; looks names up at call time so
    the traced run's wrappers are the ones called."""
    from purebetti import betti, cli, hkspace, schur

    def ladder(op):
        e = tuple(op["e"])
        if op["call"] == "equivariant_diagram":
            return lambda: betti.equivariant_diagram(e)
        return lambda: schur.schur_gcd_family(e)

    def decide(op):
        argv = list(op["argv"])
        return lambda: _run_cli(cli.main, argv)

    def generator(op):
        family = [betti.BettiDiagram.from_json(m).to_tuple() for m in op["members"]]
        return lambda: hkspace.find_generator(family)

    make = {"ladder": ladder, "decide": decide, "generator": generator}[inputs["workload"]]
    return [[make(op) for op in ops] for ops in inputs["passes"]]


def run_loop(passes, budget_s, nominal_kernel_s, first_pass, max_passes, target_s,
             min_ops=0, recorder=None):
    """Closed loop over whole passes; returns one record per op.

    Each record's `seconds` is scaled to the nominal machine speed: its
    wall time (`raw_seconds`) times nominal_kernel_s over the mean of the
    reference kernel timings just before and just after it.  The kernel is
    timed between every two ops because the machine's speed changes within
    a second.  The budget is in scaled seconds: the alarm is stretched on a
    slow machine, and a timed-out op is charged exactly the budget.  Passes
    stop once the scaled time reaches target_s.
    """
    records = []
    kernel = [bench_poly.reference_kernel_s()]
    spent = 0.0
    done = 0
    while done < max_passes and (done == 0 or spent < target_s or len(records) < min_ops):
        p = (first_pass + done) % len(passes)
        for index, call in enumerate(passes[p]):
            root = recorder.begin_op(len(records)) if recorder else None
            output = None
            start = perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL,
                                 budget_s * statistics.median(kernel[-5:]) / nominal_kernel_s)
                try:
                    output = call()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                status = "done"
            except OpTimeout:
                status = "timeout"
            except Exception as exc:  # a raising op is a failed op, not a crash
                status = "error"
                output = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            if recorder:
                recorder.end_op(root)
            kernel.append(bench_poly.reference_kernel_s())
            scaled = (budget_s if status == "timeout"
                      else elapsed * nominal_kernel_s * 2 / (kernel[-2] + kernel[-1]))
            spent += scaled
            records.append({"pass": p, "index": index, "seconds": scaled,
                            "raw_seconds": elapsed, "status": status, "output": output})
        done += 1
    return records, done


# -- output checks -------------------------------------------------------------


def check_ladder(op, output):
    if op["call"] == "equivariant_diagram":
        return bench_poly.digest(output.to_json()) == op["expect"]
    from purebetti import poly_to_json

    r, g, cofactors = output
    return bench_poly.family_digest(
        r, poly_to_json(g), [poly_to_json(c) for c in cofactors]) == op["expect"]


def check_decide(op, output):
    code, text = output
    if code != 0:
        return False
    got = json.loads(text)
    want = op["expect"]
    command = op["argv"][0]
    if command == "decompose":
        if got["in_space"] != want["in_space"] or got["integral"] != want["integral"]:
            return False
        if want["in_space"]:
            return (got["reasons"] == [] and got["cofactor"] is not None
                    and bench_poly.poly_from_json(got["cofactor"])
                    == bench_poly.poly_from_json(want["cofactor"]))
        marker = {"hk": "HK equation", "gap": "gap vector"}[want["reason"]]
        return got["cofactor"] is None and any(marker in r for r in got["reasons"])
    if command == "check":
        return (got["pure"] is True and got["e"] == want["e"]
                and got["hk_pass"] == want["hk_pass"]
                and got["hk_k"] == (None if want["hk_pass"] else 1))
    # hilbert: numerator * prod(1 - t_k) must equal the alternating sum
    if got["divisible"] != want["hk_pass"]:
        return False
    if not got["divisible"]:
        return got["numerator"] is None
    components = bench_poly.diagram_from_json(
        json.loads(Path(op["argv"][2]).read_text()))
    numerator = bench_poly.poly_from_json(got["numerator"])
    return (bench_poly.mul(numerator, bench_poly.one_minus_t_product(want["nvars"]))
            == bench_poly.alternating_sum(components))


def check_generator(op, output):
    return bench_poly.digest(output.to_diagram().to_json()) == op["expect"]


CHECKS = {"ladder": check_ladder, "decide": check_decide, "generator": check_generator}


def check_records(inputs, records):
    """Mark each finished op ok or wrong; a check that raises counts as wrong."""
    check = CHECKS[inputs["workload"]]
    for rec in records:
        if rec["status"] == "done":
            op = inputs["passes"][rec["pass"]][rec["index"]]
            try:
                good = check(op, rec["output"])
            except Exception:  # malformed output is a wrong output
                good = False
            rec["status"] = "ok" if good else "wrong"
        rec.pop("output")
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--first-pass", type=int, default=0)
    parser.add_argument("--max-passes", type=int, default=1)
    parser.add_argument("--target-s", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--trace", type=Path, metavar="SPANS_CSV")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    inputs = json.loads(args.inputs.read_text())
    passes = prepare(inputs)
    if args.probe:
        print("ready", flush=True)
        return 0

    recorder = None
    if args.trace:
        import bench_trace

        recorder = bench_trace.Recorder()
        bench_trace.install(recorder)
    signal.signal(signal.SIGALRM, _on_alarm)
    records, done = run_loop(passes, inputs["budget_s"], inputs["reference_kernel_s"],
                             args.first_pass, args.max_passes, args.target_s,
                             args.min_ops, recorder)
    result = {"passes_run": done, "records": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder:  # before the checks, which call wrapped functions too
        result["layers"] = recorder.metrics()
        recorder.write(args.trace)
    check_records(inputs, records)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
