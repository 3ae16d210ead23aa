"""Regenerate pins.json: the verdict fields of every workload's records.

Usage (from the repository root): python3 perfbench/pin.py

Runs every distinct call of WORKLOADS and SMOKE once and stores, per call,
the verdicts its report records carry.  Refuses to write pins when any
record misses its expectation or a weak check does not cover its grid.
"""

import json
import sys

from run import PINS, record_problem, run_worker
from workloads import SMOKE, WORKLOADS, call_key


def main() -> int:
    calls = {}
    for table in (WORKLOADS, SMOKE):
        for workload_calls in table.values():
            for argv in workload_calls:
                calls.setdefault(call_key(argv), argv)
    result = run_worker(list(calls.values()), seed=0)
    pins = {}
    for call in result["calls"]:
        key = call_key(call["argv"])
        bad = [record_problem(r, None) for r in call["records"]]
        if call["rc"] != 0 or not call["records"] or any(bad):
            print(f"not pinning {key}: exit {call['rc']}, {bad}", file=sys.stderr)
            return 1
        pins[key] = call["records"]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {sum(map(len, pins.values()))} records of {len(pins)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
