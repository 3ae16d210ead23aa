"""One batch of finpolylog CLI calls in a fresh interpreter.

Usage: python3 perfbench/worker.py SPAWNED_AT SPEC_JSON

``SPAWNED_AT`` is the ``time.monotonic()`` reading of the parent just
before it started this process, so ``setup_s`` covers interpreter start-up
and the import of ``finpolylog.cli``, which every CLI user pays.  The spec
names the CLI calls, the seed, whether to trace, and where to write the
result.  A spec with no calls only measures set-up.
"""

import sys
import time

_SPAWNED_AT = float(sys.argv[1])

import os  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _SRC)

import finpolylog.cli as cli  # noqa: E402

_SETUP_S = time.monotonic() - _SPAWNED_AT

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from finpolylog import catalog  # noqa: E402

PINNED = (
    "holds",
    "expected",
    "residual_terms",
    "points_checked",
    "points_skipped",
    "dimension",
    "consistent",
)
IDENTITY = ("id", "p", "mode", "params", "preset", "check", "n")


def verdict(rec: dict, outer: dict | None = None) -> dict:
    """The pinned verdict fields of one report record.

    Weak verdicts also carry ``grid``, the p^nvars points an exhaustive
    check must cover, so a silent fall-back to sampling shows.  ``outer``
    is the enclosing record of a nested verdict (``derive`` reports).
    """
    outer = outer or {}
    p = rec.get("p", outer.get("p"))
    eq_id = rec.get("id", outer.get("id"))
    out = {k: rec[k] for k in IDENTITY + PINNED if k in rec}
    out["counterexample"] = "counterexample" in rec
    if rec.get("mode") == "weak":
        out["grid"] = p ** len(catalog.entry_info(eq_id)["variables"])
    for sub in ("weak", "strong"):
        if isinstance(rec.get(sub), dict):
            out[sub] = verdict(rec[sub], {"p": p, "id": eq_id})
    return out


def run_calls(spec: dict, main) -> dict:
    extra = ["--seed", str(spec["seed"]), "--budget", str(spec["budget"])]
    calls = []
    paths = []
    start = time.perf_counter()
    for i, argv in enumerate(spec["calls"]):
        path = os.path.join(spec["out_dir"], f"report{i}.json")
        paths.append(path)
        try:
            rc = main(argv + extra + ["--output", path])
        except SystemExit as exc:  # argparse rejected the call
            rc = exc.code
        except Exception:  # a crash fails the call's records; keep measuring
            traceback.print_exc()
            rc = None
        calls.append({"argv": argv, "rc": rc})
    wall = time.perf_counter() - start
    for call, path in zip(calls, paths):
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            call["records"] = []
            continue
        call["sha256"] = hashlib.sha256(data).hexdigest()
        call["bytes"] = len(data)
        try:
            records = json.loads(data)["records"]
        except (ValueError, KeyError):
            records = []
        call["records"] = [verdict(r) for r in records]
        os.remove(path)
    return {"wall_s": wall, "calls": calls}


def main() -> None:
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup_s": _SETUP_S, "numpy": np.__version__, "python": sys.version.split()[0]}
    if not os.path.abspath(cli.__file__).startswith(_SRC + os.sep):
        raise SystemExit(f"finpolylog imported from {cli.__file__}, not {_SRC}")
    if spec["calls"]:
        tracer = None
        main_fn = cli.main
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            main_fn = tracing.install(tracer, cli)
        result.update(run_calls(spec, main_fn))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["layers"]["cli.report_bytes"] = sum(
                c.get("bytes", 0) for c in result["calls"]
            )
            if spec["spans"]:
                tracer.save(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
