"""The four workloads: their inputs, fixed objects, units and checks.

A workload's run is a fixed list of units made from the workload seed:
``rounds(seconds)`` whole rounds, each the same mix of units with its own
seeded inputs.  The round count follows from the run length and a nominal
round time at reference speed (speed.py), not from the clock, so every
run with the same seed and run length does identical work.

Each workload has

- ``units(seed, rounds)``: the inputs, made by the benchmark (not timed);
- ``build()``: the fixed objects a user would build once (set-up);
- ``warm_up_units()``: one unit through each fixed product, on fixed small
  inputs; set-up runs them untimed, so lazily built state is made there;
- ``run(fixed, unit)``: one timed unit;
- ``check(unit, output)``: an independent check of the unit's output.

Program calls go through module attributes looked up at call time, so the
traced run sees them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Tuple

import oracle
import qkoszul.cli as cli
import qkoszul.exact as exact
import qkoszul.koszul as koszul
import qkoszul.lie as lie
import qkoszul.phase_space as phase_space
import qkoszul.reduction as reduction
import qkoszul.stages as stages

KINDS = ("weyl", "wick", "std")

# Convention facts at order 1 in closed form (README "Conventions"):
# Weyl q1⋆p1 = q1 p1 + (i/2)λ, so [q1, p1]⋆ = iλ; std p1⋆q1 = p1 q1 - iλ;
# Wick z⋆z̄ = z z̄ + 2λ with z = q1 + i p1.
CONVENTIONS = {
    "weyl_q_star_p_order1": (Fraction(0), Fraction(1, 2)),
    "weyl_commutator_q_p_order1": (Fraction(0), Fraction(1)),
    "std_p_star_q_order1": (Fraction(0), Fraction(-1)),
    "wick_z_star_zbar_order1": (Fraction(2), Fraction(0)),
}


@dataclass
class Unit:
    label: str                    # e.g. "weyl R^4 L=5"
    kind: str
    labels: Tuple[int, ...] = ()  # coordinate labels of the inputs' space
    f: Any = None                 # program inputs (MultiPoly)
    g: Any = None
    order: int = 0
    ref_f: Any = None             # the same inputs in the oracle's form
    ref_g: Any = None
    scenario: str = ""
    scenario_seed: int = 0


def to_program(p: oracle.Poly, vars) -> exact.MultiPoly:
    return exact.MultiPoly(vars, {e: exact.gr(re, im) for e, (re, im) in p.items()})


def pair_unit(rng: random.Random, label: str, kind: str, labels, powers_f,
               powers_g, order: int) -> Unit:
    vars = oracle.variables(labels)
    f = oracle.dense_poly(rng, len(vars), powers_f)
    g = oracle.dense_poly(rng, len(vars), powers_g)
    return Unit(label, kind, tuple(labels), to_program(f, vars), to_program(g, vars),
                order, f, g)


class Workload:
    name = ""
    round_s = 1.0   # seconds of one round at reference speed (speed.py)

    def rounds(self, seconds: int) -> int:
        return max(1, round(seconds / self.round_s))


class _PairWorkload(Workload):
    """Shared checking for the workloads whose units are products of a
    polynomial pair: the reference is the same-kind constant-matrix product
    on the unit's variables, computed by ``oracle``."""

    def __init__(self):
        self._refs: Dict[Tuple[str, Tuple[int, ...]], oracle.ConstantStar] = {}

    def reference(self, unit: Unit) -> str:
        key = (unit.kind, unit.labels)
        ev = self._refs.get(key)
        if ev is None:
            n = len(unit.labels)
            ev = oracle.ConstantStar(oracle.kind_matrix(unit.kind, n), 2 * n)
            self._refs[key] = ev
        return oracle.render_series(ev(unit.ref_f, unit.ref_g, unit.order),
                                    oracle.variables(unit.labels))

    def check(self, unit: Unit, out) -> bool:
        """Both routes agree with each other and with the reference."""
        a, b = (x.render() for x in out)
        return a == b == self.reference(unit)


class StarDense(_PairWorkload):
    """One ``StarProduct.eval_poly(f, g, L)`` per unit.  A round is every
    kind on R^4 (35-term × 35-term factors, degree 3) at λ-order 4, 5 and 6,
    and on R^6 (28 × 84 terms, degrees 2 and 3) at λ-order 4 and 6: 15
    units.  The unequal counts put the median unit inside one group of
    similar units (Weyl on R^4) rather than on the edge between two."""

    name = "star-dense"
    round_s = 1.05
    # (n, powers of f's linear forms, powers of g's, λ-orders)
    SHAPES = ((2, (2, 1), (2, 1), (4, 5, 6)), (3, (2,), (2, 1), (4, 6)))

    def units(self, seed: int, rounds: int) -> List[Unit]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for _ in range(rounds):
            for kind in KINDS:
                for n, pf, pg, orders in self.SHAPES:
                    for order in orders:
                        out.append(pair_unit(rng, f"{kind} R^{2 * n} L={order}",
                                              kind, range(1, n + 1), pf, pg, order))
        return out

    def build(self):
        fixed = {}
        for n, *_ in self.SHAPES:
            space = phase_space.PhaseSpace.of_dim(n)
            for kind in KINDS:
                fixed[kind, n] = getattr(phase_space.StarProduct, kind)(space)
        return fixed

    def warm_up_units(self) -> List[Unit]:
        rng = random.Random(0)
        return [pair_unit(rng, "warm-up", kind, range(1, n + 1), (1,), (1,), 4)
                for n, *_ in self.SHAPES for kind in KINDS]

    def run(self, fixed, unit: Unit):
        return fixed[unit.kind, len(unit.labels)].eval_poly(unit.f, unit.g, unit.order)

    def check(self, unit: Unit, out) -> bool:
        return out.render() == self.reference(unit)


class ReduceMagnetic(_PairWorkload):
    """One pair through the homological ``reduced_star`` and the closed-form
    ``knp_reduced_star`` on T*R^4 (n = 4) reduced by the translations in
    directions 1 and 2, with magnetic couplings 1 → q3 and 2 → q4 and a
    nonzero momentum value on both.  A round is one dense degree-3 pair on
    the residual (q3, q4, p3, p4) per kind at λ-order 4: 3 units."""

    name = "reduce-magnetic"
    round_s = 2.1
    ORDER = 4
    labels = (3, 4)
    B = {1: (3, Fraction(1, 2)), 2: (4, Fraction(-2, 3))}
    MU = {1: Fraction(3), 2: Fraction(-1, 4)}

    def units(self, seed: int, rounds: int) -> List[Unit]:
        rng = random.Random(f"{self.name}:{seed}")
        return [pair_unit(rng, kind, kind, self.labels, (2, 1), (2, 1), self.ORDER)
                for _ in range(rounds) for kind in KINDS]

    def build(self):
        fixed = {}
        space = phase_space.PhaseSpace.of_dim(4)
        for kind in KINDS:
            star = getattr(phase_space.StarProduct, kind)(space)
            base = koszul.ReductionContext.canonical(space, (1, 2), star, self.ORDER)
            ctx = reduction.build_shifted_context(base, self.B, self.MU)
            red = reduction.ReducedAlgebra(ctx)
            fixed[kind] = (reduction.reduced_star(red), reduction.knp_reduced_star(red))
        return fixed

    def warm_up_units(self) -> List[Unit]:
        rng = random.Random(0)
        return [pair_unit(rng, "warm-up", kind, self.labels, (1,), (1,), self.ORDER)
                for kind in KINDS]

    def run(self, fixed, unit: Unit):
        homological, closed_form = fixed[unit.kind]
        return (homological.eval_poly(unit.f, unit.g, unit.order),
                closed_form.eval_poly(unit.f, unit.g, unit.order))


def corrected_momentum_map(space, order: int):
    """J = (p1, p2) with the constant imaginary first-order corrections
    iλ/3 and -2iλ/7."""
    J = lie.canonical_momentum_map(lie.TranslationAction(space, (1, 2)))
    L = exact.LambdaSeries
    one = exact.MultiPoly.const(space.vars, 1)
    return lie.QuantumMomentumMap(J.lie, [
        L.from_poly(c, order) + L.from_poly(one.scale(exact.gr(0, a)), order, shift=1)
        for c, a in zip(J.components, (Fraction(1, 3), Fraction(-2, 7)))])


class StagesDense(_PairWorkload):
    """One pair through the two-stage product ``StagePipeline.star_red2``
    and the one-step ``star_red``: T*R^4 reduced by the translations 1 and
    2 with the split (1) | (2), and constant imaginary first-order
    corrections on Jq.  A round is three dense degree-3 pairs on the residual
    (q3, q4, p3, p4), through Weyl, Wick and Weyl again, at λ-order 4.  With
    two kinds in equal numbers the median unit would fall on the edge
    between the two groups; with 2:1 it falls inside the Weyl group."""

    name = "stages-dense"
    round_s = 0.85
    ORDER = 4
    STAGE_KINDS = ("weyl", "wick")
    ROUND = ("weyl", "wick", "weyl")
    labels = (3, 4)

    def units(self, seed: int, rounds: int) -> List[Unit]:
        rng = random.Random(f"{self.name}:{seed}")
        return [pair_unit(rng, kind, kind, self.labels, (2, 1), (2, 1), self.ORDER)
                for _ in range(rounds) for kind in self.ROUND]

    def build(self):
        fixed = {}
        space = phase_space.PhaseSpace.of_dim(4)
        Jq = corrected_momentum_map(space, self.ORDER)
        for kind in self.STAGE_KINDS:
            star = getattr(phase_space.StarProduct, kind)(space)
            ctx = koszul.ReductionContext.canonical(space, (1, 2), star, self.ORDER, Jq=Jq)
            fixed[kind] = stages.StagePipeline(ctx, stages.StageConfig(ctx.action.lie, (1,)))
        return fixed

    def warm_up_units(self) -> List[Unit]:
        rng = random.Random(0)
        return [pair_unit(rng, "warm-up", kind, self.labels, (1,), (1,), self.ORDER)
                for kind in self.STAGE_KINDS]

    def run(self, fixed, unit: Unit):
        pipe = fixed[unit.kind]
        return (pipe.star_red2.eval_poly(unit.f, unit.g, unit.order),
                pipe.star_red.eval_poly(unit.f, unit.g, unit.order))


class ScenarioSuite(Workload):
    """One report per unit: ``run_scenario`` then ``emit_report`` in json and
    text.  A round is the 7 builtin scenarios at their default sample seed,
    2024, as ``qkoszul --scenario <name>`` runs them; the workload seed
    orders the units of the run.

    The sample seed decides which samples a scenario checks, and with them
    its time: one pass over the builtins took 3.1 s to 5.6 s over five
    sample seeds, and the median report moved by half between runs whose
    rounds used different sample seeds.  With one seed, every round makes
    the same seven reports; qkoszul keeps no result between calls."""

    name = "scenario-suite"
    round_s = 3.4
    SAMPLE_SEED = 2024
    WARM_UP = "axioms-weyl"

    def units(self, seed: int, rounds: int) -> List[Unit]:
        out = [Unit(name, "", scenario=name, scenario_seed=self.SAMPLE_SEED)
               for _ in range(rounds) for name in sorted(cli.SCENARIOS)]
        random.Random(f"{self.name}:{seed}").shuffle(out)
        return out

    def build(self):
        return None

    def warm_up_units(self) -> List[Unit]:
        return [Unit("warm-up", "", scenario=self.WARM_UP,
                     scenario_seed=self.SAMPLE_SEED)]

    def run(self, fixed, unit: Unit):
        cfg = cli.builtin_config(unit.scenario)
        cfg.seed = unit.scenario_seed
        report = cli.run_scenario(cfg)
        return cli.emit_report(report, "json"), cli.emit_report(report, "text")

    def check(self, unit: Unit, out) -> bool:
        js, text = out
        report = json.loads(js)
        want = {k: oracle.render_gauss(v) for k, v in CONVENTIONS.items()}
        lines = text.decode().splitlines()
        want_lines = [f"  {k} = {want[k]}" for k in sorted(want)]
        return (report["status"] == "pass"
                and report["scenario"] == unit.scenario
                and report["config"]["seed"] == unit.scenario_seed
                and report["conventions"] == want
                and lines[1] == "status: pass"
                and lines[4:4 + len(want)] == want_lines)


WORKLOADS = {w.name: w for w in (StarDense, ReduceMagnetic, StagesDense, ScenarioSuite)}
