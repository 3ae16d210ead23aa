"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench

They run small versions of each workload (``workloads.SMOKE``) through the
same harness the benchmark uses, so they take a few tens of seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import NEGATIVE_CONTROL, SMOKE, WORKLOADS, call_key  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINS = json.loads(run.PINS.read_text(encoding="utf-8"))


def test_every_call_is_pinned():
    for table in (WORKLOADS, SMOKE):
        for calls in table.values():
            for argv in calls:
                assert PINS.get(call_key(argv)), argv


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_pass_emits_every_metric_with_its_unit(workload):
    summary = run.measure(SMOKE[workload], seed=1, seconds=0, trace=True, pins=PINS)
    assert summary["failed_frac"] == 0, summary["problems"]
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.report(SPEC, summary, trace)
        assert result["correct"] and result["attempted"] > 0
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
            (m["name"], m["unit"]) for m in SPEC[kind]
        ]
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
    for m in SPEC["end_to_end"]:
        assert summary["metrics"][m["name"]] > 0


def test_negative_control_fails_records():
    calls = SMOKE["strong"] + [NEGATIVE_CONTROL]
    summary = run.measure(calls, seed=1, seconds=0, trace=False, pins=PINS)
    assert summary["failed_frac"] > 0
    assert not run.report(SPEC, summary, False)["correct"]
    assert any(call_key(NEGATIVE_CONTROL) in why for why in summary["problems"])


def test_weak_record_short_of_its_grid_fails():
    rec = {"id": "x", "p": 5, "mode": "weak", "holds": True, "expected": True,
           "points_checked": 10, "points_skipped": 5, "counterexample": False, "grid": 25}
    assert "of 25 points" in run.record_problem(rec, None)
    assert run.record_problem(dict(rec, points_skipped=15), None) is None
    assert "differs from pin" in run.record_problem(
        dict(rec, points_skipped=15), dict(rec, points_skipped=14)
    )


def test_nonzero_exit_fails_every_record_due():
    pins = {"c": [{"holds": True}, {"holds": True}, {"holds": True}]}
    attempted, failed, _ = run.score([{"argv": ["c"], "rc": 2, "records": []}], pins)
    assert (attempted, failed) == (3, 3)


def test_spans_count_raising_calls_and_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf(fail):
        if fail:
            raise ValueError
        return 1

    leaf_t = tracer.wrap("leaf", leaf)

    def outer():
        for fail in (False, True, True):
            try:
                leaf_t(fail)
            except ValueError:
                pass

    tracer.wrap("outer", outer)()
    assert tracer.span_counts() == {"leaf": 3, "outer": 1}
    own = tracer.self_times()
    starts = np.frombuffer(tracer.span_start, dtype=np.float64)
    ends = np.frombuffer(tracer.span_end, dtype=np.float64)
    assert own["outer"] + own["leaf"] == pytest.approx(ends[0] - starts[0])
    assert own["leaf"] == pytest.approx(float((ends[1:] - starts[1:]).sum()))


def test_refuses_a_directory_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "strong", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
