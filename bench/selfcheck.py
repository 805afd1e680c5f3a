"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

- The reference evaluator reproduces the convention facts stated in
  bench/README.md: Weyl q1⋆p1, std p1⋆q1 and Wick z⋆z̄ at order 1.
- The reference evaluator agrees with qkoszul's products on dense inputs
  for all three kinds.
- Each workload's check accepts the program's output and rejects a
  corrupted one: one coefficient changed, or (for the two-route workloads)
  one route's output replaced by the other route's output on another pair.
- The reference-speed timer returns the span's result, probes during the
  span, takes the probe time out of the span's time, and leaves no timer
  armed, also when the span raises.
- BENCHMARK.json names exactly the workloads and metrics the benchmark
  produces.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qkoszul import exact  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def conventions() -> None:
    vars = oracle.variables((1,))
    q = {(1, 0): (Fraction(1), Fraction(0))}
    p = {(0, 1): (Fraction(1), Fraction(0))}
    z = {(1, 0): (Fraction(1), Fraction(0)), (0, 1): (Fraction(0), Fraction(1))}
    zbar = {(1, 0): (Fraction(1), Fraction(0)), (0, 1): (Fraction(0), Fraction(-1))}
    star = {k: oracle.ConstantStar(oracle.kind_matrix(k, 1), 2) for k in workloads.KINDS}

    def order1(kind, f, g):
        return oracle.render_poly(star[kind](f, g, 1)[1], vars)

    want = {k: oracle.render_gauss(v) for k, v in workloads.CONVENTIONS.items()}
    qp, pq = star["weyl"](q, p, 1), star["weyl"](p, q, 1)
    commutator = {e: (c[0] - pq[1].get(e, (0, 0))[0], c[1] - pq[1].get(e, (0, 0))[1])
                  for e, c in qp[1].items()}
    got = {
        "weyl_q_star_p_order1": order1("weyl", q, p),
        "weyl_commutator_q_p_order1": oracle.render_poly(commutator, vars),
        "std_p_star_q_order1": order1("std", p, q),
        "wick_z_star_zbar_order1": order1("wick", z, zbar),
    }
    for k in want:
        expect(got[k] == want[k], f"reference {k} = {want[k]} (got {got[k]})")
    expect(oracle.render_poly(qp[0], vars) == "(1/1)+(0/1)i*q1*p1",
           "reference weyl q1⋆p1 at order 0 is q1 p1")


def against_program() -> None:
    from qkoszul.phase_space import PhaseSpace, StarProduct
    rng = random.Random(7)
    for n in (1, 2):
        labels = tuple(range(1, n + 1))
        space = PhaseSpace(labels)
        for kind in workloads.KINDS:
            u = workloads.pair_unit(rng, "", kind, labels, (2, 1), (1, 1), 4)
            got = getattr(StarProduct, kind)(space).eval_poly(u.f, u.g, 4).render()
            ev = oracle.ConstantStar(oracle.kind_matrix(kind, n), 2 * n)
            ref = oracle.render_series(ev(u.ref_f, u.ref_g, 4), oracle.variables(labels))
            expect(got == ref, f"reference equals qkoszul {kind} on R^{2 * n}")


def corrupt(series, unit):
    """The series with its first order-1 coefficient changed by 1/7."""
    n = len(unit.labels)
    layers = oracle.ConstantStar(oracle.kind_matrix(unit.kind, n), 2 * n)(
        unit.ref_f, unit.ref_g, unit.order)
    e = next(iter(layers[1]))
    bump = exact.MultiPoly(oracle.variables(unit.labels), {e: exact.gr(Fraction(1, 7))})
    return series + exact.LambdaSeries.from_poly(bump, series.order, shift=1)


def workload_checks() -> None:
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        units = wl.units(1, 1)[:2]
        fixed = wl.build()
        outs = [wl.run(fixed, u) for u in units]
        expect(all(wl.check(u, o) for u, o in zip(units, outs)),
               f"{name}: check accepts the program's output")
        u, out = units[0], outs[0]
        if name == "star-dense":
            expect(not wl.check(u, corrupt(out, u)), f"{name}: rejects a changed coefficient")
        elif name == "scenario-suite":
            js, text = out
            report = json.loads(js)
            bad_status = dict(report, status="fail")
            bad_conv = dict(report, conventions=dict(report["conventions"],
                                                     std_p_star_q_order1="(0/1)+(1/1)i"))
            for what, bad in (("status", bad_status), ("conventions", bad_conv)):
                bad_js = json.dumps(bad).encode()
                expect(not wl.check(u, (bad_js, text)), f"{name}: rejects a changed {what}")
            bad_text = text.replace(b"status: pass", b"status: fail")
            expect(not wl.check(u, (js, bad_text)), f"{name}: rejects a changed text status")
            expect(not wl.check(u, outs[1]), f"{name}: rejects another unit's report")
        else:
            first, second = out
            expect(not wl.check(u, (corrupt(first, u), second)),
                   f"{name}: rejects a changed coefficient in the first route")
            expect(not wl.check(u, (first, corrupt(second, u))),
                   f"{name}: rejects a changed coefficient in the second route")
            expect(not wl.check(u, (outs[1][1], second)),
                   f"{name}: rejects the second route's output on another pair "
                   "in place of the first's")
            expect(not wl.check(u, (first, outs[1][0])),
                   f"{name}: rejects the first route's output on another pair "
                   "in place of the second's")


def timer() -> None:
    t = speed.Timer()

    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return "done"

    outer = time.perf_counter()
    out, wall, scaled = t.measure(busy)
    outer = time.perf_counter() - outer
    inside = len(t._probes) - 2
    expect(out == "done" and wall > 0 and scaled > 0, "timer returns the span's result")
    expect(inside >= 5, f"timer probes during the span ({inside} probes in 0.2 s)")
    expect(wall < 0.2 < outer, "timer takes the probe time out of the span's time")
    expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "timer is disarmed after a span")
    try:
        t.measure(lambda: 1 / 0)
        raised = False
    except ZeroDivisionError:
        raised = True
    expect(raised and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
           "timer passes an exception through and is disarmed")


def benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads")
    expect({(m["name"], m["unit"]) for m in spec["per_layer"]}
           == set(tracing.metric_specs()), "BENCHMARK.json lists the per-layer metrics")
    expect({m["name"] for m in spec["end_to_end"]}
           == {"setup_s", "units_per_s", "unit_s_p50", "peak_rss_mib"},
           "BENCHMARK.json lists the end-to-end metrics")


if __name__ == "__main__":
    conventions()
    against_program()
    workload_checks()
    timer()
    benchmark_json()
    print(f"{len(failures)} failed" if failures else "all self-checks hold")
    sys.exit(1 if failures else 0)
