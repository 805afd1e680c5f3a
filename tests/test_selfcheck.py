"""The benchmark's self-check passes on the current program.

``bench/selfcheck.py`` builds, runs and checks a few units of every
workload, holds the program to the benchmark's reference evaluator, and
reads the series API the workloads use (``LambdaSeries.from_poly`` with a
shift, ``order``, ``+`` and ``render``).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_holds():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run([sys.executable, str(ROOT / "bench" / "selfcheck.py")],
                         cwd=ROOT, env=env, capture_output=True, timeout=120)
    out = res.stdout.decode()
    assert res.returncode == 0, out + res.stderr.decode()
    assert "all self-checks hold" in out
