"""qkoszul benchmark: run one workload (or all of them) and print its metrics.

    python3 bench/run.py --workload star-dense --seed 1 --seconds 12 --trace 0

Each workload runs in a fresh Python process with a fixed PYTHONHASHSEED,
one unit at a time.  Times are times at reference machine speed
(bench/speed.py), and ``--seconds`` is the run's length at that speed.
The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value and
unit): the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The metrics are also printed one per line to standard
error.  ``--workload all`` runs every workload in turn and prints one such
line for each, with its name added.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("star-dense", "reduce-magnetic", "stages-dense", "scenario-suite")
CHILD_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    # the worker imports qkoszul from src/ only; no bytecode cache is
    # written, so the first run in a checkout imports it as every later run
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{name}: malformed worker result")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    if not (ROOT / "src" / "qkoszul" / "__init__.py").is_file():
        print(f"run.py: qkoszul sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            print(f"run.py: {e}", file=sys.stderr)
            return 1
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']} {m['unit']}", file=sys.stderr)
        print(f"{name} attempted = {result['attempted']} failed = {result['failed']} "
              f"correct = {result['correct']}", file=sys.stderr)
        results.append(result)
    for name, result in zip(names, results):
        print(json.dumps(result if len(names) == 1 else {"workload": name, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
