"""The benchmark's tracer still finds every name it wraps.

``perfbench/run.py --trace 1`` times the layers by replacing module
attributes (``install_tracer``); a renamed or deleted function would only
fail there.  Installing the tracer on a fresh interpreter catches that in
about half a second, without running a workload.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_install_tracer_finds_every_name():
    script = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
              "run.install_tracer(run.load_package())")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
