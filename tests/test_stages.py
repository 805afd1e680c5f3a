"""Two-stage reduction: stage configuration, induced momentum maps,
compatible prolongations, and equality with one-step reduction."""

from fractions import Fraction

import pytest

from qkoszul import phase_space
from qkoszul.exact import AlgebraError, LambdaSeries, MultiPoly
from qkoszul.koszul import ReductionContext, quantum_restriction, restriction
from qkoszul.lie import (
    LieAlgebraData,
    QuantumMomentumMap,
    TranslationAction,
    canonical_momentum_map,
    check_quantum_momentum_map,
)
from qkoszul.phase_space import PhaseSpace, StarProduct
from qkoszul.reduction import build_shifted_context
from qkoszul.sampling import sample_pairs, sample_polys
from qkoszul.stages import (
    StageConfig,
    StagePipeline,
    build_compatible_prolongations,
    check_stage_equality,
)

L = 4


def s1_ctx(Jq=None) -> ReductionContext:
    sp = PhaseSpace.of_dim(3)
    return ReductionContext.canonical(sp, [1, 2], StarProduct.weyl(sp), L, Jq=Jq)


NOT_THE_ACTING_ALGEBRA = "not a split of the context's acting algebra"


def three_translations() -> ReductionContext:
    sp = PhaseSpace.of_dim(4)
    return ReductionContext.canonical(sp, [1, 2, 3], StarProduct.weyl(sp), 2)


class TestStageConfig:
    def test_partition(self):
        cfg = StageConfig(LieAlgebraData.abelian(3), [2])
        assert cfg.first == (2,) and cfg.second == (1, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(AlgebraError):
            StageConfig(LieAlgebraData.abelian(2), [3])

    def test_repeated_index_rejected(self):
        with pytest.raises(AlgebraError, match="repeated"):
            StageConfig(LieAlgebraData.abelian(3), [1, 1])

    # a context acts by the abelian algebra of its translations, so a split
    # of any other algebra is not a split of the context's: the pipeline
    # rejects it rather than build abelian stages for it
    def test_heisenberg_center_rejected(self):
        with pytest.raises(AlgebraError, match=NOT_THE_ACTING_ALGEBRA):
            StagePipeline(three_translations(), StageConfig(LieAlgebraData.heisenberg(), [3]))

    def test_heisenberg_non_ideal_rejected(self):
        with pytest.raises(AlgebraError, match=NOT_THE_ACTING_ALGEBRA):
            StagePipeline(three_translations(), StageConfig(LieAlgebraData.heisenberg(), [1]))

    def test_split_of_a_non_abelian_algebra_rejected(self):
        # aff(1) ⊕ R, split at the ideal aff(1) with the invariant complement R
        aff_plus_r = LieAlgebraData(3, {(1, 2, 2): Fraction(1), (2, 1, 2): Fraction(-1)})
        with pytest.raises(AlgebraError, match=NOT_THE_ACTING_ALGEBRA):
            StagePipeline(three_translations(), StageConfig(aff_plus_r, [1, 2]))
        # the same index split of the acting algebra is accepted
        pipe = StagePipeline(three_translations(),
                             StageConfig(LieAlgebraData.abelian(3), [1, 2]))
        assert pipe.red2.space.vars == ("q4", "p4")


class TestRestrictedMomentumMap:
    def test_component_selection(self):
        ctx = three_translations()
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1, 3]))
        assert pipe.ctx1.Jq.components == (ctx.Jq.components[0], ctx.Jq.components[2])

    def test_full_subalgebra_is_identity(self):
        ctx = s1_ctx()
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1, 2]))
        assert pipe.ctx1.Jq.components == ctx.Jq.components

    def test_quantum_identities_hold(self):
        ctx = s1_ctx()
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        samples = sample_polys(107, ctx.space.vars, 3, 5)
        checks = {c["name"]: c
                  for c in check_quantum_momentum_map(ctx.star, pipe.ctx1.Jq, samples)}
        assert checks["quantum_hamiltonian_identity"]["status"] == "pass"


class TestInducedSecondStage:
    def test_plain_case(self):
        pipe = StagePipeline(s1_ctx(), StageConfig(LieAlgebraData.abelian(2), [1]))
        sp2 = pipe.red1.space
        assert pipe.Jq2.components == (
            LambdaSeries.from_poly(sp2.p(2), L),)

    def test_alpha_shift_clause(self):
        # with Jq = J + iλ·const the second-stage map picks up exactly the
        # complement part of the constant
        sp = PhaseSpace.of_dim(3)
        J = canonical_momentum_map(TranslationAction(sp, (1, 2)))
        # i/3 and -2i/7
        consts = [(0, 1, 3), (0, -2, 7)]
        Jq = QuantumMomentumMap(J.lie, [
            LambdaSeries.from_poly(c, L) +
            LambdaSeries.from_poly(
                MultiPoly.const(sp.vars, a), L, shift=1)
            for c, a in zip(J.components, consts)])
        pipe = StagePipeline(s1_ctx(Jq=Jq), StageConfig(J.lie, [1]))
        sp2 = pipe.red1.space
        want = LambdaSeries.from_poly(sp2.p(2), L) + LambdaSeries.from_poly(
            MultiPoly.const(sp2.vars, consts[1]), L, shift=1)
        assert pipe.Jq2.components == (want,)

    def test_quantum_identities_for_induced_map(self):
        pipe = StagePipeline(s1_ctx(), StageConfig(LieAlgebraData.abelian(2), [1]))
        samples = sample_polys(109, pipe.red1.space.vars, 3, 5)
        checks = {c["name"]: c for c in check_quantum_momentum_map(
            pipe.star_red1, pipe.Jq2, samples)}
        assert checks["quantum_hamiltonian_identity"]["status"] == "pass"


    @pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
    def test_induced_map_under_magnetic_second_stage(self, kind):
        # a magnetic term on a second-stage direction is a coordinate
        # change: the induced map is a quantum momentum map of the first
        # reduced product
        sp = PhaseSpace.of_dim(3)
        base = ReductionContext.canonical(sp, [1, 2], getattr(StarProduct, kind)(sp), 3)
        ctx = build_shifted_context(base, {2: (3, Fraction(1, 2))}, {})
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        samples = sample_polys(5, pipe.red1.space.vars, 3, 6)
        checks = check_quantum_momentum_map(pipe.star_red1, pipe.Jq2, samples)
        assert [c["status"] for c in checks] == ["pass"] * len(checks)


class TestCompatibleProlongations:
    def test_all_identities(self):
        ctx = s1_ctx()
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        samples = sample_polys(113, ctx.space.vars, 3, 6)
        checks = build_compatible_prolongations(pipe, samples)
        assert all(c["status"] == "pass" for c in checks)
        assert len(checks) == 7

    def test_a_wrong_one_step_lift_fails_at_the_first_reduced_sample(self, monkeypatch):
        # a one-step lift that doubles its input fails only the comparison
        # with the stagewise prolongation, first on the third sample: the
        # first two are zero on the residual variables q3, p3
        ctx = s1_ctx()
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        up = pipe.red.up
        monkeypatch.setattr(pipe.red, "up", lambda phi: up(phi).scale(2))
        checks = build_compatible_prolongations(pipe, sample_polys(113, ctx.space.vars, 3, 6))
        assert [c for c in checks if c["status"] == "fail"] == [
            {"name": "stagewise_prolongation_equals_one_step", "status": "fail",
             "witness": {"f": "(1/1)+(0/1)i*p1*p3 + (3/1)+(0/1)i*p2 + (2/3)+(0/1)i"}}]


class TestStageEquality:
    def test_thirty_pairs(self):
        ctx = s1_ctx()
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        pairs = sample_pairs(127, pipe.red2.space.vars, 3, 30)
        checks = check_stage_equality(pipe, pairs)
        assert checks[0]["status"] == "pass"

    def test_swapped_stage_order(self):
        ctx = s1_ctx()
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [2]))
        pairs = sample_pairs(131, pipe.red2.space.vars, 3, 10)
        assert check_stage_equality(pipe, pairs)[0]["status"] == "pass"

    def test_unit_both_routes(self):
        ctx = s1_ctx()
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        rs = pipe.red2.space
        one = MultiPoly.const(rs.vars, 1)
        f = rs.q(3) * rs.p(3)
        assert pipe.star_red2.eval_poly(one, f, L) == LambdaSeries.from_poly(f, L)
        assert pipe.star_red.eval_poly(one, f, L) == LambdaSeries.from_poly(f, L)

    @pytest.mark.parametrize("kind", ("weyl", "wick"))
    def test_both_routes_walk_the_pair_once(self, kind, monkeypatch):
        # star_red2 reaches the base product through star_red1, star_red
        # directly, on equal inputs; Jq carries first-order corrections
        walks = []
        walk = phase_space.star_exponential
        monkeypatch.setattr(phase_space, "star_exponential",
                            lambda *args: walks.append(args) or walk(*args))
        sp = PhaseSpace.of_dim(4)
        J = canonical_momentum_map(TranslationAction(sp, (1, 2)))
        one = MultiPoly.const(sp.vars, 1)
        Jq = QuantumMomentumMap(J.lie, [
            LambdaSeries.from_poly(c, L) + LambdaSeries.from_poly(one.scale(a), L, shift=1)
            for c, a in zip(J.components, ((0, 1, 3), (0, -2, 7)))])
        ctx = ReductionContext.canonical(sp, (1, 2), getattr(StarProduct, kind)(sp), L, Jq=Jq)
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        (f, g), = sample_pairs(71, pipe.red.space.vars, 3, 1)
        walks.clear()
        assert pipe.star_red2.eval_poly(f, g, L) == pipe.star_red.eval_poly(f, g, L)
        assert len(walks) == 1

    def test_residual_variables_agree(self):
        ctx = s1_ctx()
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        assert pipe.red2.space.vars == pipe.red.space.vars == ("q3", "p3")


# the paper's two theorems, on invariant inputs (no translated q_a, any p_a),
# which the corrections act on: (n, translated, first stage)
THEOREM_SHAPES = ((3, (1, 2), (1,)), (4, (1, 2, 3), (2,)))


def quotient_products(kind: str):
    """Per pair of invariant F and G of degree ≤ 3 over both shapes at order
    3: i**(F ⋆ G), i**F ⋆_red i**G, i2**(i1**F ⋆_red1 i1**G), and whether
    i** ≠ i* on F ⋆ G."""
    for n, translated, first in THEOREM_SHAPES:
        sp = PhaseSpace.of_dim(n)
        ctx = ReductionContext.canonical(sp, translated, getattr(StarProduct, kind)(sp), 3)
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, first))
        invariant = tuple(v for v in sp.vars if v not in {f"q{a}" for a in translated})
        for f, g in sample_pairs(7, invariant, 3, 6):
            F, G = (ctx.series(h.with_vars(sp.vars)) for h in (f, g))
            FG = ctx.star.eval(F, G)
            one_step = pipe.star_red.eval(*(pipe.red.down(quantum_restriction(H, ctx))
                                            for H in (F, G)))
            first_stage = pipe.star_red1.eval(*(pipe.red1.down(quantum_restriction(H, pipe.ctx1))
                                                for H in (F, G)))
            yield (pipe.red.down(quantum_restriction(FG, ctx)), one_step,
                   pipe.red2.down(quantum_restriction(first_stage, pipe.ctx2)),
                   quantum_restriction(FG, ctx) != restriction(FG, ctx))


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
def test_the_reduced_product_is_the_quotient_product_at_one_and_two_stages(kind):
    # i**(F ⋆ G) = i**F ⋆_red i**G = i2**(i1**F ⋆_red1 i1**G)
    corrected = 0
    for whole, one_step, two_stage, differs in quotient_products(kind):
        assert whole == one_step == two_stage
        corrected += differs
    # Wick's P × P block makes T act on F ⋆ G, so the identities read a
    # correction
    assert corrected > 0 or kind != "wick"
