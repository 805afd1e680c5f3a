"""One workload run, in its own process (started by ``run.py``).

Prints one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics untraced and the per-layer metrics
traced.  Also writes ``bench/results/<workload>-seed<n>-<run|trace>.json``
with the result, the import and set-up times and the time of every unit,
each at reference speed (speed.py) and as wall time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"   # one detail file per workload, seed and mode
SETUP_REPEATS = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qkoszul" / "__init__.py").is_file():
        print(f"worker: no qkoszul sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # every timed span is also timed at reference machine speed (speed.py);
    # the traced run probes only around spans, so that no probe runs
    # inside a traced call
    import speed
    timer = speed.Timer(0 if args.trace else speed.INTERVAL_S)

    def import_qkoszul():
        for name in [m for m in sys.modules if m.split(".")[0] == "qkoszul"]:
            del sys.modules[name]
        importlib.import_module("qkoszul.cli")   # the package and every module

    # the last import is the one the workload uses
    imports, import_walls = [], []
    for _ in range(SETUP_REPEATS):
        _, wall, scaled = timer.measure(import_qkoszul)
        import_walls.append(wall)
        imports.append(scaled)
    import_s = statistics.median(imports)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    units = wl.units(args.seed, wl.rounds(args.seconds))
    warm = wl.warm_up_units()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    def set_up():
        fixed = wl.build()
        for u in warm:
            wl.run(fixed, u)
        return fixed

    # set-up: fixed objects and the warm-up units, from scratch each time
    setups, setup_walls = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        fixed, wall, scaled = timer.measure(set_up)
        setup_walls.append(wall)
        setups.append(scaled)
    gc.collect()
    print(f"worker: import {import_s:.4f} s (median), set-up " +
          " ".join(f"{x:.4f}" for x in setups) + " s at reference speed",
          file=sys.stderr)

    times, walls, labels, failed, wrong = [], [], [], 0, 0
    for unit in units:
        try:
            out, wall, scaled = timer.measure(lambda: wl.run(fixed, unit))
        except Exception:
            failed += 1
            print(f"worker: unit {unit.label} failed", file=sys.stderr)
            traceback.print_exc()
            continue
        walls.append(wall)
        times.append(scaled)
        labels.append(unit.label)
        if not wl.check(unit, out):
            wrong += 1
            print(f"worker: unit {unit.label} gave a wrong result", file=sys.stderr)

    units_per_s = len(times) / sum(times) if times else 0.0
    if tracer:
        metrics = tracer.metrics(units_per_s)
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "units_per_s": {"value": units_per_s, "unit": "1/s"},
            "unit_s_p50": {"value": statistics.median(times) if times else 0.0,
                           "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024, "unit": "MiB"},
        }
    result = {"correct": wrong == 0, "attempted": len(units), "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    mode = "trace" if tracer else "run"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "result": result, "probe_s": speed.PROBE_S,
              "import_runs_s": imports, "import_runs_wall_s": import_walls,
              "setup_runs_s": setups, "setup_runs_wall_s": setup_walls,
              "units": [[label, t, w] for label, t, w in zip(labels, times, walls)]}
    (RESULTS / f"{args.workload}-seed{args.seed}-{mode}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
