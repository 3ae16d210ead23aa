"""The layer tracer of the benchmark patches finpolylog names it looks up
by attribute; renaming or deleting one of them must fail here, not only in
the benchmark's own tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, {perfbench!r})
import tracing
import finpolylog.cli

main = tracing.install(tracing.Tracer(), finpolylog.cli)
sys.exit(main(["verify", "--eq", "feit", "--p", "5", "--mode", "both"]))
"""


SOLVE_SCRIPT = """
import json
import sys
sys.path.insert(0, {perfbench!r})
import tracing
import finpolylog.cli

tracer = tracing.Tracer()
main = tracing.install(tracer, finpolylog.cli)
code = main(["solve", "--preset", {preset!r}, "--p", "7"])
sys.stderr.write(
    json.dumps({{"spans": tracer.span_counts(), "rref_rows": tracer.counts["solver.rref_rows"]}})
)
sys.exit(code)
"""


def run_traced(script, **fields):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script.format(perfbench=str(ROOT / "perfbench"), **fields)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_tracer_installs_on_the_package():
    proc = run_traced(SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert '"holds": true' in proc.stdout


def test_tracer_sees_the_solver_column_path():
    # the solver must call the column builder and the row reduction by the
    # module names the tracer patches, and every reduction must show its
    # row count: FEIT's 54 matrix rows, which reach the RREF in blocks with
    # no dense matrix built, then the side condition's one row, stacked
    # under FEIT's RREF, which is not eliminated again; the target is
    # tested with one product against that RREF, not with a reduction
    proc = run_traced(SOLVE_SCRIPT, preset="FEIT")
    assert proc.returncode == 0, proc.stderr
    assert '"holds": true' in proc.stdout
    traced = json.loads(proc.stderr)
    assert traced["spans"]["solver.columns"] == 1
    assert traced["spans"]["solver.rref"] == 2
    assert traced["spans"]["solver.matrix"] == 0
    assert traced["rref_rows"] == 54 + 1


def test_tracer_counts_a_stacked_reduction():
    # a preset of two constraints: three_term's matrix (8 rows) is
    # reduced, then distribution's matrix (7 rows) is stacked under that
    # RREF in one more traced reduction, and is never reduced alone
    proc = run_traced(SOLVE_SCRIPT, preset="L2_PAIR")
    assert proc.returncode == 0, proc.stderr
    assert '"holds": true' in proc.stdout
    traced = json.loads(proc.stderr)
    assert traced["spans"]["solver.columns"] == 2
    assert traced["spans"]["solver.rref"] == 2
    assert traced["rref_rows"] == 8 + 7
