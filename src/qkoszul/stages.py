"""Two-stage quantum phase-space reduction.

Split the acting translation algebra into a subalgebra and a complement,
reduce by the subalgebra first, then reduce the result by the induced
second-stage momentum map, and compare with reducing in one step.  On the
coordinate model both reduced algebras live on the same residual variable
names, so the comparison is literal equality of series.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .exact import AlgebraError, MultiPoly
from .koszul import (
    KoszulChain,
    ReductionContext,
    classical_homotopy,
    prolongation,
    quantum_restriction,
    restriction,
)
from .lie import LieAlgebraData, QuantumMomentumMap, TranslationAction
from .reduction import ReducedAlgebra, reduced_star


class StageConfig:
    """Index partition of the acting algebra into the first-stage subalgebra
    and its complement.

    The subalgebra must be an ideal and the complement must be invariant
    under the whole algebra; both are automatic in the abelian case.  A
    nonabelian algebra without an invariant complement (the Heisenberg
    algebra split at its center, say) is rejected with a diagnostic.
    """

    def __init__(self, lie: LieAlgebraData, first: Sequence[int],
                 second: Optional[Sequence[int]] = None):
        self.lie = lie
        self.first = tuple(sorted(first))
        all_idx = set(range(1, lie.dim + 1))
        if not set(self.first) <= all_idx:
            raise AlgebraError("first-stage indices out of range")
        if second is None:
            second = sorted(all_idx - set(self.first))
        self.second = tuple(sorted(second))
        if set(self.first) | set(self.second) != all_idx or \
                set(self.first) & set(self.second):
            raise AlgebraError("indices do not partition the algebra")
        self._validate()

    def _validate(self) -> None:
        g1, g2 = set(self.first), set(self.second)
        for a in range(1, self.lie.dim + 1):
            for b in self.first:
                bad = [g for g in self.lie.bracket_coeffs(a, b) if g not in g1]
                if bad:
                    raise AlgebraError(
                        f"first-stage subalgebra is not an ideal: "
                        f"[e{a}, e{b}] has components on {sorted(bad)}")
            for b in self.second:
                bad = [g for g in self.lie.bracket_coeffs(a, b) if g not in g2]
                if bad:
                    raise AlgebraError(
                        f"complement is not invariant: [e{a}, e{b}] has "
                        f"components on {sorted(bad)}; no invariant complement "
                        "exists for this split (brackets land on the first stage)")


def restrict_momentum_map(Jq: QuantumMomentumMap, cfg: StageConfig) -> QuantumMomentumMap:
    """First-stage quantum momentum map: the components along the subalgebra."""
    lie1 = LieAlgebraData.abelian(len(cfg.first))
    return QuantumMomentumMap(lie1, [Jq.components[i - 1] for i in cfg.first])


class StagePipeline:
    """Both reduction routes of a split scenario, sharing the one-step
    context.  Immutable after construction."""

    def __init__(self, ctx: ReductionContext, cfg: StageConfig):
        if cfg.lie.dim != ctx.gdim:
            raise AlgebraError("stage split does not match the acting algebra")
        self.ctx = ctx
        self.cfg = cfg
        space = ctx.space
        L = ctx.order

        # stage 1: reduce by the subalgebra
        translated1 = tuple(ctx.action.translated[i - 1] for i in cfg.first)
        action1 = TranslationAction(space, translated1)
        self.ctx1 = ReductionContext(space, action1, ctx.star,
                                     restrict_momentum_map(ctx.Jq, cfg), L)
        self.red1 = ReducedAlgebra(self.ctx1)
        self.star_red1 = reduced_star(self.red1)

        # stage 2: reduce the first quotient by the induced momentum map
        translated2 = tuple(ctx.action.translated[i - 1] for i in cfg.second)
        space2 = self.red1.space
        action2 = TranslationAction(space2, translated2)
        self.Jq2 = induced_second_momentum_map(self)
        self.ctx2 = ReductionContext(space2, action2, self.star_red1, self.Jq2, L)
        self.red2 = ReducedAlgebra(self.ctx2)
        self.star_red2 = reduced_star(self.red2)

        # one-step route
        self.red = ReducedAlgebra(ctx)
        self.star_red = reduced_star(self.red)
        # the identification of the two reduced algebras is the identity on
        # the residual variable names
        if self.red2.space.vars != self.red.space.vars:
            raise AlgebraError("residual variables disagree between routes")


def induced_second_momentum_map(pipe: StagePipeline) -> QuantumMomentumMap:
    """Second-stage quantum momentum map: the first-stage quantum restriction
    of the complement components, read on the first reduced algebra."""
    cfg, ctx = pipe.cfg, pipe.ctx
    lie2 = LieAlgebraData.abelian(len(cfg.second))
    comps = []
    for i in cfg.second:
        full = ctx.Jq.components[i - 1].truncate(ctx.order)
        down = quantum_restriction(full, pipe.ctx1)
        comps.append(pipe.red1.push_down_series(down))
    return QuantumMomentumMap(lie2, comps)


def build_compatible_prolongations(pipe: StagePipeline,
                                   samples: Sequence[MultiPoly]) -> List[dict]:
    """Verify that the stagewise prolongations compose to the one-step ones.

    On the coordinate model every prolongation is a variable inclusion and
    every identification a relabeling, so these are exact operator
    identities; the samples are reduced-algebra and constraint-algebra
    probes.  Returns report entries.
    """
    ctx, ctx1, ctx2 = pipe.ctx, pipe.ctx1, pipe.ctx2
    red, red1, red2 = pipe.red, pipe.red1, pipe.red2
    checks: List[dict] = []

    def entry(name, ok, witness=None):
        e = {"name": name, "status": "pass" if ok else "fail"}
        if witness is not None:
            e["witness"] = witness
        checks.append(e)

    # prol = prol1 ∘ i1* ∘ prol on constraint-algebra probes
    ok, wit = True, None
    for f in samples:
        c = restriction(ctx.series(f), ctx)
        lhs = prolongation(c, ctx)
        rhs = prolongation(restriction(prolongation(c, ctx), ctx1), ctx1)
        if lhs != rhs:
            ok, wit = False, {"f": f.render()}
            break
    entry("one_step_prolongation_factors", ok, wit)

    # (i) pi1* prol2 = i1* prol on second-stage constraint probes
    ok, wit = True, None
    for f in samples:
        c2 = ctx2.constraint_series(f.zero_outside(ctx2.cvars))
        lhs = prolongation(c2, ctx2).map_coeffs(lambda c: c.with_vars(ctx1.cvars))
        rhs = restriction(
            prolongation(c2.map_coeffs(lambda c: c.with_vars(ctx.cvars)), ctx),
            ctx1)
        if lhs != rhs:
            ok, wit = False, {"f": f.render()}
            break
    entry("second_prolongation_compatible", ok, wit)

    # (ii) prol1 pi1* prol2 pi2* = prol pi* on reduced probes
    ok, wit = True, None
    for f in samples:
        phi = red2.space.series(f.zero_outside(red.space.vars), ctx.order)
        via2 = prolongation(
            prolongation(phi.map_coeffs(red2.lift), ctx2)
            .map_coeffs(lambda c: c.with_vars(ctx1.cvars)),
            ctx1)
        direct = prolongation(phi.map_coeffs(red.lift), ctx)
        if via2 != direct:
            ok, wit = False, {"f": f.render()}
            break
    entry("stagewise_prolongation_equals_one_step", ok, wit)

    # (iii) the one-step homotopy kills stagewise prolongations
    ok, wit = True, None
    for f in samples:
        phi = red2.space.series(f.zero_outside(red.space.vars), ctx.order)
        lifted = prolongation(
            prolongation(phi.map_coeffs(red2.lift), ctx2)
            .map_coeffs(lambda c: c.with_vars(ctx1.cvars)),
            ctx1)
        if not classical_homotopy(KoszulChain.of_series(ctx.gdim, lifted), ctx).is_zero():
            ok, wit = False, {"f": f.render()}
            break
    entry("homotopy_kills_stagewise_prolongations", ok, wit)

    # (iv) classical and quantum restriction agree on stagewise prolongations
    ok, wit = True, None
    for f in samples:
        phi = red2.space.series(f.zero_outside(red.space.vars), ctx.order)
        lifted = prolongation(
            prolongation(phi.map_coeffs(red2.lift), ctx2)
            .map_coeffs(lambda c: c.with_vars(ctx1.cvars)),
            ctx1)
        if restriction(lifted, ctx) != quantum_restriction(lifted, ctx):
            ok, wit = False, {"f": f.render()}
            break
    entry("restrictions_agree_on_stagewise_prolongations", ok, wit)

    # j** := i** prol1 satisfies j** i1** = i**
    ok, wit = True, None
    for f in samples:
        fs = ctx.series(f)
        lhs = quantum_restriction(prolongation(quantum_restriction(fs, ctx1), ctx1), ctx)
        if lhs != quantum_restriction(fs, ctx):
            ok, wit = False, {"f": f.render()}
            break
    entry("composite_quantum_restriction_factors", ok, wit)

    # j* pi1* prol2 i2** = j** pi1* on first reduced algebra probes
    ok, wit = True, None
    for f in samples:
        F = red1.space.series(f.zero_outside(red1.space.vars), ctx.order)
        via = prolongation(quantum_restriction(F, ctx2), ctx2)
        lhs = restriction(
            prolongation(via.map_coeffs(lambda c: c.with_vars(ctx1.cvars)), ctx1),
            ctx)
        rhs = quantum_restriction(
            prolongation(F.map_coeffs(lambda c: c.with_vars(ctx1.cvars)), ctx1),
            ctx)
        if lhs != rhs:
            ok, wit = False, {"f": f.render()}
            break
    entry("descended_restriction_identity", ok, wit)

    return checks


def check_stage_equality(pipe: StagePipeline,
                         pairs: Sequence[Tuple[MultiPoly, MultiPoly]]) -> List[dict]:
    """Two-stage versus one-step reduction, literal equality of series."""
    checks: List[dict] = []
    L = pipe.ctx.order
    ok, wit = True, None
    for f, g in pairs:
        two = pipe.star_red2.eval_poly(f, g, L)
        one = pipe.star_red.eval_poly(f, g, L)
        if two != one:
            ok, wit = False, {"f": f.render(), "g": g.render(),
                              "two_stage": two.render(), "one_step": one.render()}
            break
    entry = {"name": "stage_equality", "status": "pass" if ok else "fail"}
    if wit is not None:
        entry["witness"] = wit
    checks.append(entry)
    return checks
