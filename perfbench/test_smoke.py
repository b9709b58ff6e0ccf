"""The benchmark's own test: every workload at its smallest size, checked against the references."""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke_runs_every_workload_correctly():
    done = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("-> ok") == 8
