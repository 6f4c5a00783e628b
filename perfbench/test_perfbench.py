"""Smoke tests for the benchmark runner (fast; no timed runs).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_inputs  # noqa: E402
import bench_poly  # noqa: E402
import bench_timed  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

SETTINGS = json.loads((HERE / "settings.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def small_settings():
    return dict(SETTINGS, passes_generated=1)


def test_same_seed_same_inputs(tmp_path):
    first = bench_inputs.generate("generator", 5, tmp_path, small_settings(), REFERENCE)
    second = bench_inputs.generate("generator", 5, tmp_path, small_settings(), REFERENCE)
    other = bench_inputs.generate("generator", 6, tmp_path, small_settings(), REFERENCE)
    assert first == second
    assert first != other
    assert len(first["passes"][0]) == sum(n for _, n in bench_inputs.GENERATOR_FAMILIES)


@pytest.fixture(scope="module")
def decide_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("decide")
    return bench_inputs.generate("decide", 3, out, small_settings(), REFERENCE)


def test_repeat_share_is_low_on_ladder_and_high_on_decide(tmp_path, decide_inputs):
    ladder = bench_inputs.generate("ladder", 1, tmp_path, small_settings(), REFERENCE)
    assert ladder["repeat_share"] < 0.2
    assert decide_inputs["repeat_share"] > 0.8


def test_decide_answers_hold_by_construction(decide_inputs):
    ops = [op for op in decide_inputs["passes"][0] if op["e"] in ([2, 3], [2, 2, 4])]
    calls = bench_timed.prepare({"workload": "decide", "passes": [ops]})[0]
    records = [{"pass": 0, "index": decide_inputs["passes"][0].index(op),
                "status": "done", "output": call()} for op, call in zip(ops, calls)]
    bench_timed.check_records(decide_inputs, records)
    assert [r["status"] for r in records] == ["ok"] * 12


def test_corrupted_output_counts_as_failed(tmp_path):
    from purebetti import equivariant_diagram

    inputs = {"workload": "ladder", "passes": [[
        {"call": "equivariant_diagram", "e": [2, 3],
         "expect": REFERENCE["ladder"]["equivariant_diagram:2,3"]}] * 2]}
    good = equivariant_diagram((2, 3))
    corrupted = 2 * good
    records = [{"pass": 0, "index": i, "seconds": 0.01, "raw_seconds": 0.01,
                "status": "done", "output": out} for i, out in enumerate((good, corrupted))]
    bench_timed.check_records(inputs, records)
    assert [r["status"] for r in records] == ["ok", "wrong"]
    metrics = run.end_to_end(records * 50, 10.0, 0.1)
    assert metrics["ok_frac"][0] == 0.5


def test_stalled_op_is_a_timeout_and_is_kept():
    def stall():
        while True:
            pass

    previous = signal.signal(signal.SIGALRM, bench_timed._on_alarm)
    try:
        records, done = bench_timed.run_loop(
            [[lambda: 1, stall, lambda: 2]], 0.05, bench_poly.reference_kernel_s(), 0, 1, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert done == 1
    assert [r["status"] for r in records] == ["done", "timeout", "done"]
    assert records[1]["seconds"] == 0.05  # a timeout is charged exactly its budget


def test_percentile_keeps_ten_samples_beyond_p90():
    value, beyond = run.percentile(list(range(1, 109)), 0.9)
    assert (value, beyond) == (98, 10)


def test_recorder_wraps_every_binding_and_derives_self_time():
    from purebetti import cli, hkspace, laurent

    original = laurent._quo_or_none
    rec = bench_trace.Recorder()
    uninstall = bench_trace.install(rec)
    try:
        assert hkspace._quo_or_none is laurent._quo_or_none is not original
        assert cli.membership is hkspace.membership
        root = rec.begin_op(0)
        hkspace.membership(hkspace.canonical_generator((2, 3)), (2, 3))
        rec.end_op(root)
    finally:
        uninstall()
    assert hkspace._quo_or_none is laurent._quo_or_none is original
    metrics = {k: v["value"] for k, v in rec.metrics().items()}
    assert metrics["hkspace.canonical_generator.calls"] == 2
    assert metrics["hkspace.canonical_generator.distinct_ratio"] == 0.5
    assert metrics["hkspace.decompose.calls"] == 1
    assert metrics["laurent.gcd.calls"] == 0
    assert metrics["laurent.div.useful_ratio"] == 1.0
    assert set(metrics) == set(bench_trace.METRICS)
    times = rec.layer_times()
    total = sum(busy for _, busy in times.values())
    assert total == pytest.approx(rec.end[0] - rec.start[0], rel=0.01)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
