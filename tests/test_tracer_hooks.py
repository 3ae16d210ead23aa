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
code = main(["solve", "--preset", "FEIT", "--p", "7"])
sys.stderr.write(json.dumps(tracer.span_counts()))
sys.exit(code)
"""


def run_traced(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script.format(perfbench=str(ROOT / "perfbench"))],
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
    # the solver must call the column builder and the matrix builder by
    # the module names the tracer patches
    proc = run_traced(SOLVE_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert '"holds": true' in proc.stdout
    counts = json.loads(proc.stderr)
    assert counts["solver.columns"] == counts["solver.matrix"] == 1
