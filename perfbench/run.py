"""finpolylog benchmark: closed-loop batches of CLI calls, verdicts checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload strong --seed 1 --seconds 40 --trace 0

Each batch runs one workload's CLI calls, one after the other, through
``finpolylog.cli.main`` in a fresh worker interpreter, so ``lru_cache``
tables start cold as they do for every CLI user.  Batches repeat until the
next one would overrun ``--seconds``; timings are medians over batches.
The machine's speed drifts, so a fixed calibration task (``calibrate.py``)
runs before each batch and after the last, and ``wall_s`` and ``setup_s``
are reported in seconds at the reference speed ``CALIBRATION_REF_S``: each
batch's wall time is scaled by the reference over the mean of the
calibration times just before and just after it, and set-up time by the
reference over the run's median calibration time.  The raw times are
printed and kept in the run record.
Every record's verdict is checked against its expectation and against
``pins.json``.  With ``--trace 1`` each untraced batch is followed by a
traced one and the per-layer metrics are printed instead.  The last line
of standard output is one JSON object; a copy of the run, with the sha256
of every CLI report, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import BUDGET, WORKLOADS, call_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
PINS = BENCH / "pins.json"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3  # set-up-only workers before each batch
CALIBRATION_REPS = 3  # calibration repetitions before each batch and after the last
# Median calibration time on a 2-vCPU VM at its usual speed.  Times are
# reported in seconds at that speed; the constant only fixes the unit.
CALIBRATION_REF_S = 0.30
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure: missing program or a dead worker."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env.pop("FINPOLYLOG_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(
    calls, seed: int, trace: bool = False, deadline: float | None = None, spans=None
) -> dict:
    """Run ``calls`` in a fresh interpreter and return its result dict.

    A traced worker writes its spans to ``spans`` when that is given.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        spec_path = Path(work) / "spec.json"
        result_path = Path(work) / "result.json"
        spec = {
            "calls": calls,
            "seed": seed,
            "budget": BUDGET,
            "trace": trace,
            "out_dir": work,
            "result": str(result_path),
            "spans": None if spans is None else str(spans),
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        limit = None if deadline is None else max(1.0, deadline - time.monotonic())
        spawned = repr(time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), spawned, str(spec_path)],
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.DEVNULL,
        )
        try:
            rc = proc.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker overran the {RUN_LIMIT_S:.0f} s run limit")
        if rc != 0:
            raise BenchError(f"worker exited with code {rc}")
        return json.loads(result_path.read_text(encoding="utf-8"))


def calibrate(deadline: float) -> list:
    """Seconds per repetition of the fixed calibration task, run now."""
    limit = max(1.0, deadline - time.monotonic())
    try:
        out = subprocess.run(
            [sys.executable, str(BENCH / "calibrate.py"), str(CALIBRATION_REPS)],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=limit,
            check=True,
        ).stdout
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        raise BenchError(f"calibration failed: {exc}") from exc
    return json.loads(out)


def weak_verdicts(rec: dict) -> list:
    """The weak verdicts of a record: itself, or the one nested by ``derive``."""
    return [v for v in (rec, rec.get("weak")) if v and "grid" in v]


def record_problem(rec, pin) -> str | None:
    """Why one record fails, or None.  ``pin`` is None for unpinned calls."""
    if rec is None:
        return "record missing"
    if "expected" in rec and rec.get("holds", True) != rec["expected"]:
        return f"holds={rec.get('holds')} but expected={rec['expected']}"
    for v in weak_verdicts(rec):
        if v["points_checked"] + v["points_skipped"] != v["grid"]:
            return (
                f"weak check covered {v['points_checked'] + v['points_skipped']}"
                f" of {v['grid']} points"
            )
    if pin is not None and rec != pin:
        return f"verdict {rec} differs from pin {pin}"
    return None


def score(calls, pins: dict):
    """Count records attempted and failed over one batch's calls.

    A call that exits non-zero fails every record it was due to produce.
    """
    attempted = failed = 0
    problems = []
    for call in calls:
        key = call_key(call["argv"])
        expect = pins.get(key)
        got = call["records"]
        due = max(len(expect) if expect is not None else 1, len(got))
        attempted += due
        if call["rc"] != 0:
            failed += due
            problems.append(f"{key}: exit code {call['rc']}")
            continue
        for i in range(due):
            rec = got[i] if i < len(got) else None
            if expect is None:
                why = record_problem(rec, None)
            elif i < len(expect):
                why = record_problem(rec, expect[i])
            else:
                why = "record not in pins"
            if why:
                failed += 1
                problems.append(f"{key} [{i}]: {why}")
    return attempted, failed, problems


def weak_points(calls) -> int:
    """Weak points evaluated, checked or skipped, over one batch."""
    return sum(
        v["points_checked"] + v["points_skipped"]
        for call in calls
        for rec in call["records"]
        for v in weak_verdicts(rec)
    )


def measure(calls, seed: int, seconds: float, trace: bool, pins: dict, spans=None) -> dict:
    """Run batches of ``calls`` for about ``seconds`` and summarise them.

    Traced batches write their spans to ``spans`` when that is given.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    run_worker([], seed, deadline=deadline)  # byte-compiles; users pay it once
    setups, speed, plain, traced = [], [], [], []
    began = time.monotonic()
    while True:
        started = time.monotonic()
        for _ in range(SETUP_PROBES):
            setups.append(run_worker([], seed, deadline=deadline)["setup_s"])
        speed.append(calibrate(deadline))
        plain.append(run_worker(calls, seed, deadline=deadline))
        if trace:
            traced.append(run_worker(calls, seed, True, deadline, spans))
        now = time.monotonic()
        if now - began + (now - started) > seconds:
            break
    speed.append(calibrate(deadline))
    attempted = failed = 0
    problems = []
    for batch in plain + traced:
        a, f, why = score(batch["calls"], pins)
        attempted += a
        failed += f
        problems.extend(why)
    setups.extend(b["setup_s"] for b in plain)
    raw_wall = statistics.median(b["wall_s"] for b in plain)
    raw_setup = statistics.median(setups)
    # Batch i ran between calibration points i and i+1.
    cal = [statistics.median(point) for point in speed]
    scales = [2 * CALIBRATION_REF_S / (cal[i] + cal[i + 1]) for i in range(len(plain))]
    wall = statistics.median(b["wall_s"] * k for b, k in zip(plain, scales))
    setup = raw_setup * CALIBRATION_REF_S / statistics.median(cal)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "batches": len(plain),
        "wall_s_samples": [b["wall_s"] for b in plain],
        "setup_s_samples": setups,
        "calibration_s_samples": speed,
        "speed_scales": scales,
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
        "metrics": {
            "wall_s": wall,
            "setup_s": setup,
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in plain),
        },
        "failed_frac": failed / attempted,
        "points_per_s": weak_points(plain[0]["calls"]) / wall,
        "python": plain[0]["python"],
        "numpy": plain[0]["numpy"],
        "reports_sha256": {call_key(c["argv"]): c.get("sha256") for c in plain[0]["calls"]},
    }
    if trace:
        layers = {
            key: statistics.median(b["layers"][key] for b in traced)
            for key in traced[0]["layers"]
        }
        layers["trace.overhead_frac"] = statistics.median(
            t["wall_s"] / p["wall_s"] - 1.0 for p, t in zip(plain, traced)
        )
        summary["traced_wall_s"] = statistics.median(b["wall_s"] for b in traced)
        summary["layers"] = layers
    return summary


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_checkout(workload: str):
    """Validate the checkout and return (benchmark spec, pins)."""
    if not (ROOT / "src" / "finpolylog" / "cli.py").is_file():
        raise BenchError(f"no finpolylog sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    unpinned = [call_key(c) for c in WORKLOADS[workload] if call_key(c) not in pins]
    if unpinned:
        raise BenchError(f"calls without verdict pins: {unpinned}")
    return spec, pins


def report(spec: dict, summary: dict, trace: bool) -> dict:
    """The result line: every declared metric of the run's kind, with its unit."""
    values = summary["layers"] if trace else summary["metrics"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec, pins = load_checkout(args.workload)
        spans = OUT / f"spans_{args.workload}.npz"
        summary = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), pins, spans
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    result = report(spec, summary, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        **summary,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key, m in result["metrics"].items():
        print(f"{args.workload}.{key} = {m['value']:.6g} {m['unit']}")
    print(
        f"{args.workload}: raw wall_s = {summary['raw_wall_s']:.6g} s, raw setup_s ="
        f" {summary['raw_setup_s']:.6g} s, speed scales ="
        f" {', '.join(f'{k:.3f}' for k in summary['speed_scales'])}"
    )
    print(f"{args.workload}.failed_frac = {summary['failed_frac']:.6g} ratio")
    if summary["points_per_s"]:
        print(f"{args.workload}.points_per_s = {summary['points_per_s']:.6g} 1/s")
    for why in summary["problems"][:20]:
        print(f"FAILED {why}")
    print(f"batches = {summary['batches']}, run record: {OUT / name}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
