"""Two-stage quantum phase-space reduction.

Split the acting translation algebra into a subalgebra and a complement,
reduce by the subalgebra first, then reduce the result by the induced
second-stage momentum map, and compare with reducing in one step.  On the
coordinate model both reduced algebras live on the same residual variable
names, so the comparison is literal equality of series.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .exact import AlgebraError, LambdaSeries, MultiPoly
from .koszul import (
    KoszulChain,
    ReductionContext,
    classical_homotopy,
    prolongation,
    quantum_correction,
    quantum_restriction,
    restriction,
)
from .lie import LieAlgebraData, QuantumMomentumMap, TranslationAction
from .reduction import ReducedAlgebra, reduced_star
from .report import check, failures


class StageConfig:
    """Index split of the acting algebra into the first-stage directions and
    the rest.  ``StagePipeline`` takes only a split of its context's algebra,
    which is abelian, so every split is an ideal with an invariant complement."""

    def __init__(self, lie: LieAlgebraData, first: Sequence[int]):
        self.lie = lie
        self.first = tuple(sorted(first))
        all_idx = range(1, lie.dim + 1)
        if not set(self.first) <= set(all_idx):
            raise AlgebraError("first-stage indices out of range")
        if len(set(self.first)) < len(self.first):
            raise AlgebraError("a first-stage index is repeated")
        self.second = tuple(i for i in all_idx if i not in self.first)


class StagePipeline:
    """Both reduction routes of a split scenario, sharing the one-step
    context.  Immutable after construction."""

    def __init__(self, ctx: ReductionContext, cfg: StageConfig):
        lie = ctx.action.lie
        if (cfg.lie.dim, cfg.lie.structure) != (lie.dim, lie.structure):
            raise AlgebraError("stage split is not a split of the context's acting algebra")
        self.ctx = ctx
        L = ctx.order

        # stage 1: reduce by the subalgebra, through the components of Jq along it
        translated1 = tuple(ctx.action.translated[i - 1] for i in cfg.first)
        action1 = TranslationAction(ctx.space, translated1)
        Jq1 = QuantumMomentumMap(action1.lie, [ctx.Jq.components[i - 1] for i in cfg.first])
        self.ctx1 = ReductionContext(action1, ctx.star, Jq1, L)
        self.red1 = ReducedAlgebra(self.ctx1)
        self.star_red1 = reduced_star(self.red1)

        # stage 2: reduce the first quotient by the induced momentum map, the
        # first-stage quantum restriction of the complement's components
        translated2 = tuple(ctx.action.translated[i - 1] for i in cfg.second)
        action2 = TranslationAction(self.red1.space, translated2)
        self.Jq2 = QuantumMomentumMap(action2.lie, [
            self.red1.down(quantum_correction(ctx.Jq.components[i - 1], self.ctx1))
            for i in cfg.second])
        self.ctx2 = ReductionContext(action2, self.star_red1, self.Jq2, L)
        self.red2 = ReducedAlgebra(self.ctx2)
        self.star_red2 = reduced_star(self.red2)

        # one-step route
        self.red = ReducedAlgebra(ctx)
        self.star_red = reduced_star(self.red)
        # the identification of the two reduced algebras is the identity on
        # the residual variable names
        if self.red2.space.vars != self.red.space.vars:
            raise AlgebraError("residual variables disagree between routes")


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

    def on_cvars1(s):
        return s.with_vars(ctx1.cvars)

    # each sample as a reduced probe phi, with its stagewise prolongation
    # prol1 pi1* prol2 pi2* phi
    reduced = [red2.space.series(f.zero_outside(red.space.vars), ctx.order) for f in samples]
    stagewise = [prolongation(on_cvars1(red2.up(phi)), ctx1) for phi in reduced]

    # prol = prol1 ∘ i1* ∘ prol on constraint-algebra probes
    def one_step_prolongation_factors(f):
        c = restriction(ctx.series(f), ctx)
        return prolongation(c, ctx) == \
            prolongation(restriction(prolongation(c, ctx), ctx1), ctx1)

    # (i) pi1* prol2 = i1* prol on second-stage constraint probes
    def second_prolongation_compatible(f):
        c2 = LambdaSeries.from_poly(f.zero_outside(ctx2.cvars), ctx.order)
        return on_cvars1(prolongation(c2, ctx2)) == restriction(
            prolongation(c2.with_vars(ctx.cvars), ctx), ctx1)

    # j** := i** prol1 satisfies j** i1** = i**
    def composite_quantum_restriction_factors(f):
        fs = ctx.series(f)
        return quantum_restriction(
            prolongation(quantum_restriction(fs, ctx1), ctx1), ctx) == quantum_restriction(fs, ctx)

    # j* pi1* prol2 i2** = j** pi1* on first reduced algebra probes
    def descended_restriction_identity(f):
        F = red1.space.series(f.zero_outside(red1.space.vars), ctx.order)
        via = prolongation(quantum_restriction(F, ctx2), ctx2)
        return restriction(prolongation(on_cvars1(via), ctx1), ctx) == \
            quantum_restriction(prolongation(on_cvars1(F), ctx1), ctx)

    return [
        check("one_step_prolongation_factors", failures(samples, one_step_prolongation_factors)),
        check("second_prolongation_compatible", failures(samples, second_prolongation_compatible)),
        # (ii) prol1 pi1* prol2 pi2* = prol pi* on reduced probes
        check("stagewise_prolongation_equals_one_step", failures(
            samples, lambda f, phi, s: s == red.up(phi), reduced, stagewise)),
        # (iii) the one-step homotopy kills stagewise prolongations
        check("homotopy_kills_stagewise_prolongations", failures(samples, lambda f, s:
              classical_homotopy(KoszulChain.of_series(ctx.gdim, s), ctx).is_zero(), stagewise)),
        # (iv) classical and quantum restriction agree on stagewise prolongations
        check("restrictions_agree_on_stagewise_prolongations", failures(samples, lambda f, s:
              restriction(s, ctx) == quantum_restriction(s, ctx), stagewise)),
        check("composite_quantum_restriction_factors",
              failures(samples, composite_quantum_restriction_factors)),
        check("descended_restriction_identity", failures(samples, descended_restriction_identity)),
    ]


def check_stage_equality(pipe: StagePipeline,
                         pairs: Sequence[Tuple[MultiPoly, MultiPoly]]) -> List[dict]:
    """Two-stage versus one-step reduction, literal equality of series."""
    L = pipe.ctx.order

    def stage_equality():
        for f, g in pairs:
            two = pipe.star_red2.eval_poly(f, g, L)
            one = pipe.star_red.eval_poly(f, g, L)
            if two != one:
                yield {"f": f.render(), "g": g.render(),
                       "two_stage": two.render(), "one_step": one.render()}

    return [check("stage_equality", stage_equality())]
