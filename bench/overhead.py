"""Tracing overhead: the same units, untraced and traced, in one process.

    python3 bench/overhead.py --workload <name> --seed 7 --rounds 2

Runs every unit of the given number of rounds twice in a row, once
untraced and once traced (the order flips from unit to unit), each time
with freshly built fixed objects and the warm-up units.  Prints the median
over units of the traced time over the untraced time, minus one, with its
quartiles.  Two runs of one unit a second apart see nearly the same machine
speed, which runs minutes apart on a shared machine do not.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def timed(wl, unit, warm, traced: bool) -> float:
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        fixed = wl.build()
        for u in warm:
            wl.run(fixed, u)
        t = time.perf_counter()
        wl.run(fixed, unit)
        return time.perf_counter() - t
    finally:
        if tracer:
            tracer.uninstall()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]()
    units, warm = wl.units(args.seed, args.rounds), wl.warm_up_units()
    ratios = []
    for i, unit in enumerate(units):
        order = (False, True) if i % 2 == 0 else (True, False)
        times = {traced: timed(wl, unit, warm, traced) for traced in order}
        ratios.append(times[True] / times[False] - 1)
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{args.workload}: tracing overhead {median:.3f} "
          f"(quartiles {q1:.3f}, {q3:.3f}; {len(ratios)} units)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
