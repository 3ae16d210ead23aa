"""The layer tracer of the benchmark patches finpolylog names it looks up
by attribute; renaming or deleting one of them must fail here, not only in
the benchmark's own tests."""

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


def test_tracer_installs_on_the_package():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(perfbench=str(ROOT / "perfbench"))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"holds": true' in proc.stdout
