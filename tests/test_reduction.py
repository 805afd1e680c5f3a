"""Reduced brackets and star products; the closed-form reduction; shifted
and magnetic scenarios."""

import re
from fractions import Fraction

import pytest

from qkoszul import koszul, phase_space
from qkoszul.exact import (
    AlgebraError,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    VariableMismatchError,
    invert_unipotent,
)
from qkoszul.koszul import (
    KoszulChain,
    ReductionContext,
    classical_homotopy,
    koszul_boundary,
    prolongation,
    quantum_correction,
    quantum_homotopy,
    quantum_koszul_boundary,
    quantum_restriction,
    restriction,
    series_correction,
    verify_complex_identities,
)
from qkoszul.lie import LieAlgebraData, QuantumMomentumMap
from qkoszul.phase_space import PhaseSpace, StarProduct, check_star_axioms
from qkoszul.reduction import (
    CotangentSplit,
    ReducedAlgebra,
    build_shifted_context,
    elevate_context,
    knp_reduced_star,
    reduced_star,
)
from qkoszul.sampling import sample_pairs, sample_polys
from qkoszul.stages import StageConfig, StagePipeline
from reference_poly import RefSeries, series_product

L = 4


def s1_red() -> ReducedAlgebra:
    sp = PhaseSpace.of_dim(3)
    return ReducedAlgebra(
        ReductionContext.canonical(sp, [1, 2], StarProduct.weyl(sp), L))


def s1p_ctx(order: int = L) -> ReductionContext:
    sp = PhaseSpace.of_dim(2)
    return ReductionContext.canonical(sp, [1], StarProduct.weyl(sp), order)


def s2_ctx() -> ReductionContext:
    return build_shifted_context(s1p_ctx(), {1: (2, Fraction(1, 2))},
                                 {1: Fraction(3)})


def attributes(obj) -> dict:
    """The attributes of ``obj``, each dict among them copied, so that a
    cache filled later shows as a change."""
    return {k: dict(v) if isinstance(v, dict) else v for k, v in vars(obj).items()}


class TestNoHiddenState:
    def test_context_unchanged_by_the_operators(self):
        ctx = s2_ctx()
        before = attributes(ctx)
        fs = ctx.series(ctx.straighten(ctx.space.q(1) * ctx.space.p(1) * ctx.space.p(2)))
        quantum_restriction(fs, ctx)
        assert attributes(ctx) == before
        quantum_homotopy(KoszulChain.of_series(ctx.gdim, fs), ctx)
        assert attributes(ctx) == before

    def test_reduced_products_below_the_order_leave_no_state(self):
        # each is rejected before the context's product runs
        red = s1_red()
        ctx_before, red_before = attributes(red.ctx), attributes(red)
        (f, g), = sample_pairs(59, red.space.vars, 2, 1)
        for star in (reduced_star(red), knp_reduced_star(red)):
            for order in (L - 2, L - 1):
                with pytest.raises(OrderMismatchError, match=f"cannot lower a context of "
                                                             f"order {L} to {order}"):
                    star.eval_poly(f, g, order)
        assert attributes(red.ctx) == ctx_before
        assert attributes(red) == red_before


def lifted(red: ReducedAlgebra, correct, F: LambdaSeries, G: LambdaSeries) -> LambdaSeries:
    """A reduced product as it was once computed: both factors moved up to
    the whole phase space, the context's product and ``correct`` there,
    and the result moved down."""
    ctx = red.ctx
    return red.down(correct(ctx.star.eval(red.up(F), red.up(G)), ctx))


def lifted_two_stage(pipe: StagePipeline, F: LambdaSeries, G: LambdaSeries) -> LambdaSeries:
    """``pipe.star_red2`` as it was once computed: the lift at the second
    stage around the lift at the first."""
    up1 = lifted(pipe.red1, quantum_correction, pipe.red2.up(F), pipe.red2.up(G))
    return pipe.red2.down(quantum_correction(up1, pipe.ctx2))


class TestUpAndDown:
    """A reduced product multiplies its factors over the reduced variables,
    as they are, and neither moves them up nor its result down."""

    CONTEXTS = {
        "canonical": lambda: s1_red().ctx,
        # n = 4 reduced by 1 and 2 with magnetic couplings: the moves have
        # three runs, λ, the kept q's and the kept p's
        "magnetic": lambda: build_shifted_context(
            ReductionContext.canonical(PhaseSpace.of_dim(4), (1, 2),
                                       StarProduct.wick(PhaseSpace.of_dim(4)), L),
            {1: (3, Fraction(1, 2)), 2: (4, Fraction(-2, 3))}, {1: Fraction(3)}),
    }

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_a_reduced_product_rekeys_nothing(self, name, monkeypatch):
        ctx = self.CONTEXTS[name]()
        red = ReducedAlgebra(ctx)
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        assert pipe.red2.space.vars == red.space.vars
        moves = []
        moved = MultiPoly._moved
        monkeypatch.setattr(MultiPoly, "_moved",
                            lambda p, vars: moves.append(vars) or moved(p, vars))
        (f, g), = sample_pairs(61, red.space.vars, 3, 1)
        F, G = (red.space.series(x, L) for x in (f, g))
        for star in (reduced_star(red), knp_reduced_star(red), pipe.star_red2):
            got = star.eval_poly(f, g, L)
            assert not got.is_zero() and got.vars == red.space.vars
            assert moves == []
            # the old route moves both factors up and the result down
            assert got == lifted(red, quantum_correction, F, G) and moves
            moves.clear()

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_a_reduced_product_calls_no_down(self, name, monkeypatch):
        # nor a correction: the product of its factors uses no p_a, which
        # every correction would fix
        ctx = self.CONTEXTS[name]()
        red = ReducedAlgebra(ctx)
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1]))
        calls, fixed = [], []
        down = ReducedAlgebra.down
        monkeypatch.setattr(ReducedAlgebra, "down",
                            lambda r, F: calls.append(F) or down(r, F))
        is_fixed = koszul.fixed_by_corrections
        monkeypatch.setattr(koszul, "fixed_by_corrections",
                            lambda F, c: fixed.append(F) or is_fixed(F, c))
        (f, g), = sample_pairs(73, red.space.vars, 3, 1)
        bracket = reduced_star(red).bracket_poly(f, g)
        for star in (reduced_star(red), knp_reduced_star(red), pipe.star_red2):
            assert not star.eval_poly(f, g, L).is_zero()
            assert star.bracket_poly(f, g) == bracket
        assert calls == [] and fixed == []

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_down_of_a_series_over_a_sub_list_is_over_the_reduced_variables(self, name):
        red = ReducedAlgebra(self.CONTEXTS[name]())
        for f in sample_polys(79, red.space.vars[1:], 3, 4):
            F = LambdaSeries.from_poly(f, L)
            assert red.down(F) == F.with_vars(red.space.vars)
            assert red.down(F).vars == red.space.vars
            assert red.down(f) == f.with_vars(red.space.vars)

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_down_is_the_restriction_on_the_reduced_variables(self, name):
        red = ReducedAlgebra(self.CONTEXTS[name]())
        ctx = red.ctx
        for f in sample_polys(67, red.space.vars, 3, 4):
            F = red.up(red.space.series(f, L))
            # terms with a translated p_a, alone or with a translated q_a,
            # are dropped
            for a in ctx.action.translated:
                F = F + ctx.series(ctx.space.p(a) * (ctx.space.q(a) + f.with_vars(ctx.space.vars)))
            assert red.down(F) == restriction(F, ctx).with_vars(red.space.vars)
            assert red.down(F.poly) == F.poly.zero_outside(ctx.cvars).with_vars(red.space.vars)

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_down_rejects_a_translated_q(self, name):
        red = ReducedAlgebra(self.CONTEXTS[name]())
        ctx = red.ctx
        f = sample_polys(71, red.space.vars, 2, 1)[0].with_vars(ctx.space.vars)
        for a in ctx.action.translated:
            for F in (ctx.series(f + ctx.space.q(a)), ctx.series(f * ctx.space.q(a))):
                with pytest.raises(AlgebraError, match=f"depends on q{a}"):
                    red.down(F)
                with pytest.raises(AlgebraError, match=f"depends on q{a}"):
                    red.down(F.poly)

    def test_up_rejects_an_input_off_the_reduced_algebra(self):
        red = s1_red()
        with pytest.raises(VariableMismatchError, match="reduced algebra"):
            red.up(red.ctx.series(red.ctx.space.q(3)))


class TestReducedBracket:
    def test_canonical_pair(self):
        red = s1_red()
        rs = red.space
        one = MultiPoly.const(rs.vars, 1)
        bracket = reduced_star(red).bracket_poly
        assert bracket(rs.q(3), rs.p(3)) == one
        assert bracket(rs.q(3), rs.q(3)).is_zero()

    def test_inputs_off_the_reduced_variables_raise(self):
        # upstairs operands, and the reduced ones reordered
        red = s1_red()
        up = red.ctx.space.q(3) * red.ctx.space.p(1)
        back = MultiPoly.variable(tuple(reversed(red.space.vars)), "q3")
        for F in (up, back):
            for star in (reduced_star(red), knp_reduced_star(red)):
                with pytest.raises(VariableMismatchError, match=re.escape(str(red.space.vars))):
                    star.eval_poly(F, F, L)
                with pytest.raises(VariableMismatchError, match=re.escape(str(red.space.vars))):
                    star.bracket_poly(F, F)

    def test_jacobi(self):
        red = s1_red()
        bracket = reduced_star(red).bracket_poly
        samples = sample_polys(53, red.space.vars, 3, 8)
        for i in range(len(samples) - 2):
            f, g, h = samples[i], samples[i + 1], samples[i + 2]
            jac = bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) + bracket(h, bracket(f, g))
            assert jac.is_zero()


class TestReducedStar:
    def test_matches_one_dim_weyl(self):
        red = s1_red()
        rs = red.space
        star_red = reduced_star(red)
        direct = StarProduct.weyl(PhaseSpace([3]))
        got = star_red.eval_poly(rs.q(3), rs.p(3), L)
        want = direct.eval_poly(direct.space.q(3), direct.space.p(3), L)
        assert got == want

    def test_unit(self):
        red = s1_red()
        star_red = reduced_star(red)
        one = MultiPoly.const(red.space.vars, 1)
        f = red.space.q(3) * red.space.p(3)
        assert star_red.eval_poly(one, f, L) == LambdaSeries.from_poly(
            f, L)

    def test_axiom_suite(self):
        red = s1_red()
        star_red = reduced_star(red)
        samples = sample_polys(59, red.space.vars, 3, 8)
        checks = check_star_axioms(star_red, samples, L)
        assert all(c["status"] == "pass" for c in checks)

    def test_hermitian_is_read_off_the_matrix_cut_to_the_reduced_variables(self):
        # Weyl's matrix plus C^{pn pn} = i/3 is not Hermitian, but its only
        # entry that breaks conj(C) = Cᵀ lies on the last translated direction
        def weyl_plus_pp(n: int) -> StarProduct:
            sp = PhaseSpace.of_dim(n)
            return StarProduct.constant(sp, {**StarProduct.weyl(sp).matrix,
                                             (2 * n - 1, 2 * n - 1): (0, 1, 3)})

        star = weyl_plus_pp(2)
        red = ReducedAlgebra(ReductionContext.canonical(star.space, [2], star, L))
        assert not star.hermitian
        samples = sample_polys(83, red.space.vars, 3, 6)
        for star_red in (reduced_star(red), knp_reduced_star(red)):
            assert star_red.hermitian
            assert {"name": "hermitian", "status": "pass"} in \
                check_star_axioms(star_red, samples, L)
        # on T*R³ a first stage that keeps p3 is not Hermitian; the second
        # stage and the one-step product are
        star = weyl_plus_pp(3)
        ctx = ReductionContext.canonical(star.space, (2, 3), star, L)
        for first, hermitian1 in (((1,), False), ((2,), True)):
            pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, first))
            assert (pipe.star_red1.hermitian, pipe.star_red2.hermitian,
                    pipe.star_red.hermitian) == (hermitian1, True, True)


class TestResidualProduct:
    # a translation scenario, shifted or not, reduces to the same kind of
    # product on the untranslated directions, by either route; the shifted
    # data are those of s2-magnetic and of the magnetic reduction benchmark
    CASES = (
        pytest.param(3, (1, 2), {}, {}, id="3-translated0"),
        pytest.param(3, (2,), {}, {}, id="3-translated1"),
        pytest.param(2, (1,), {1: (2, Fraction(1, 2))}, {1: Fraction(3)},
                     id="s2-magnetic"),
        pytest.param(4, (1, 2), {1: (3, Fraction(1, 2)), 2: (4, Fraction(-2, 3))},
                     {1: Fraction(3), 2: Fraction(-1, 4)}, id="reduce-magnetic"),
        # translated labels that are not contiguous: the reduced variables
        # are no contiguous block of the upstairs ones, and the lift moves
        # keys in more runs than λ, the kept q's and the kept p's
        pytest.param(4, (1, 3), {}, {}, id="4-translated02"),
        pytest.param(4, (1, 3), {1: (2, Fraction(1, 2))}, {3: Fraction(-2)},
                     id="4-translated02-magnetic"),
    )

    @pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
    @pytest.mark.parametrize("n, translated, b, mu", CASES)
    def test_both_routes_equal_residual_product(self, kind, n, translated, b, mu):
        sp = PhaseSpace.of_dim(n)
        red = ReducedAlgebra(build_shifted_context(ReductionContext.canonical(
            sp, translated, getattr(StarProduct, kind)(sp), L), b, mu))
        direct = getattr(StarProduct, kind)(red.space)
        routes = (reduced_star(red), knp_reduced_star(red))
        for f, g in sample_pairs(137, red.space.vars, 3, 6):
            want = direct.eval_poly(f, g, L)
            assert [r.eval_poly(f, g, L) for r in routes] == [want, want]

    @pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
    @pytest.mark.parametrize("n, translated, b, mu", CASES)
    def test_routes_and_the_two_stage_product_equal_the_lift(self, kind, n, translated, b, mu):
        sp = PhaseSpace.of_dim(n)
        ctx = build_shifted_context(ReductionContext.canonical(
            sp, translated, getattr(StarProduct, kind)(sp), L), b, mu)
        red = ReducedAlgebra(ctx)
        routes = [(reduced_star(red), quantum_correction),
                  (knp_reduced_star(red), series_correction)]
        # a two-stage split needs two translated directions
        pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, [1])) if len(translated) > 1 \
            else None
        # factors at λ^0 to λ^2, so that some of their products pass λ^L
        polys = sample_polys(151, red.space.vars, 2, 12)
        zeros = [MultiPoly.zero(red.space.vars)] * (L - 2)
        for i in range(0, len(polys), 6):
            F = RefSeries(polys[i:i + 3] + zeros).to_series()
            G = RefSeries(polys[i + 3:i + 6] + zeros).to_series()
            for star, correct in routes:
                assert star.eval(F, G) == lifted(red, correct, F, G)
            if pipe is not None:
                want = lifted_two_stage(pipe, F, G)
                assert pipe.star_red2.eval(F, G) == want == lifted(red, quantum_correction, F, G)


class TestOneUpstairsProduct:
    """Both routes start from prol f ⋆ prol g on the context's product and
    differ only in the correction after it; the product keeps its last
    evaluation, so the second route does not walk the pair again."""

    @pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
    @pytest.mark.parametrize("b, mu", (
        pytest.param({}, {}, id="canonical"),
        pytest.param({1: (3, Fraction(1, 2)), 2: (4, Fraction(-2, 3))},
                     {1: Fraction(3), 2: Fraction(-1, 4)}, id="reduce-magnetic"),
    ))
    def test_both_routes_walk_the_pair_once(self, kind, b, mu, monkeypatch):
        walks = []
        walk = phase_space.star_exponential
        monkeypatch.setattr(phase_space, "star_exponential",
                            lambda *args: walks.append(args) or walk(*args))
        sp = PhaseSpace.of_dim(4)
        red = ReducedAlgebra(build_shifted_context(ReductionContext.canonical(
            sp, (1, 2), getattr(StarProduct, kind)(sp), L), b, mu))
        (f, g), = sample_pairs(67, red.space.vars, 3, 1)
        homological = reduced_star(red).eval_poly(f, g, L)
        closed_form = knp_reduced_star(red).eval_poly(f, g, L)
        assert len(walks) == 1
        assert homological == closed_form == \
            getattr(StarProduct, kind)(red.space).eval_poly(f, g, L)


@pytest.mark.parametrize("route", (reduced_star, knp_reduced_star))
@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
class TestReducedSeriesProduct:
    """A reduced product evaluates whole series, which is the path of the
    second stage's boundary through ``star_red1`` and a corrected Jq2."""

    def test_equals_the_pairwise_sum(self, route, kind):
        # both factors carry λ^0 to λ^3 at L = 4, so pairs with r + s > L
        # meet and must drop out
        sp = PhaseSpace.of_dim(3)
        red = ReducedAlgebra(ReductionContext.canonical(
            sp, (1,), getattr(StarProduct, kind)(sp), L))
        star = route(red)
        F = RefSeries(sample_polys(139, red.space.vars, 2, 4) + [MultiPoly.zero(red.space.vars)])
        G = RefSeries(sample_polys(149, red.space.vars, 2, 4) + [MultiPoly.zero(red.space.vars)])
        assert RefSeries.of(star.eval(F.to_series(), G.to_series())) == \
            series_product(star, F, G)

    def test_rejects_an_order_mismatch(self, route, kind):
        sp = PhaseSpace.of_dim(2)
        red = ReducedAlgebra(ReductionContext.canonical(
            sp, (1,), getattr(StarProduct, kind)(sp), L))
        rs = red.space
        with pytest.raises(OrderMismatchError):
            route(red).eval(rs.series(rs.q(2), L), rs.series(rs.p(2), L - 1))


def horizontal(F: MultiPoly, ctx: ReductionContext) -> MultiPoly:
    """The horizontal part prolongation(restriction(F)) of a polynomial."""
    return prolongation(restriction(ctx.series(F), ctx), ctx).coeff(0)


class TestHvSplit:
    def test_purely_vertical(self):
        ctx = s1p_ctx()
        sp = ctx.space
        F = sp.p(1) * sp.p(1)
        assert horizontal(F, ctx).is_zero()
        assert CotangentSplit(ctx).r(1, F) == sp.p(1)

    def test_purely_horizontal(self):
        ctx = s1p_ctx()
        sp = ctx.space
        F = sp.q(1) * sp.q(2)
        assert horizontal(F, ctx) == F
        assert CotangentSplit(ctx).r(1, F).is_zero()

    def test_split_identity(self):
        ctx = ReductionContext.canonical(
            PhaseSpace.of_dim(3), [1, 2],
            StarProduct.weyl(PhaseSpace.of_dim(3)), L)
        split = CotangentSplit(ctx)
        for F in sample_polys(67, ctx.space.vars, 4, 10):
            recon = horizontal(F, ctx)
            for i in range(1, ctx.gdim + 1):
                Ji = ctx.J.components[i - 1]
                recon = recon + split.r(i, F) * Ji
            assert recon == F
            # projections
            hF = horizontal(F, ctx)
            assert horizontal(hF, ctx) == hF
            assert horizontal(F - hF, ctx).is_zero()

    def test_split_identity_shifted(self):
        # the magnetic scenario splits its straightened samples
        ctx = s2_ctx()
        split = CotangentSplit(ctx)
        for f in sample_polys(71, ctx.space.vars, 3, 6):
            F = ctx.straighten(f)
            recon = horizontal(F, ctx)
            for i in range(1, ctx.gdim + 1):
                recon = recon + split.r(i, F) * ctx.J.components[i - 1]
            assert recon == F

    def test_matches_classical_homotopy(self):
        ctx = s1p_ctx()
        split = CotangentSplit(ctx)
        for F in sample_polys(73, ctx.space.vars, 3, 6):
            h = classical_homotopy(
                KoszulChain.of_series(ctx.gdim, ctx.series(F)), ctx)
            assert h == KoszulChain(ctx.gdim, 1, ctx.space.vars, L,
                                    {(1,): ctx.series(split.r(1, F))})


def vertical_difference(F: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """The vertical correction V F = Σ_a r_a(F)·J_a - r_a(F) ⋆ Jq_a of the
    closed-form route (Kowalzig–Neumaier–Pflaum), over the division
    operators; it vanishes at order zero in the parameter whenever the
    quantum momentum map deforms the classical one."""
    split = CotangentSplit(ctx)
    out = LambdaSeries.zero(ctx.space.vars, ctx.order)
    for a, (Ja, Jqa) in enumerate(zip(ctx.J.components, ctx.Jq.components), start=1):
        rF = split.r(a, F)
        out = out + rF * ctx.series(Ja) - ctx.star.eval(rF, Jqa)
    return out


def delta_star(F: LambdaSeries, up: ReductionContext) -> LambdaSeries:
    """The vertical correction V of the closed-form route divided
    exactly by i times the parameter (its order-0 remainder vanishes), for
    ``up`` a context one order above F."""
    assert up.order == F.order + 1
    D = RefSeries.of(vertical_difference(F.truncate(up.order), up))
    assert D.coeffs[0].is_zero()
    return RefSeries(D.coeffs[1:]).to_series().scale((0, -1, 1))


def corrected_s1p_ctx(order: int) -> ReductionContext:
    """T*R² under Weyl, reduced along the first translation with
    Jq_1 = p1 + λ²/3, built at ``order``."""
    sp = PhaseSpace.of_dim(2)
    star = StarProduct.weyl(sp)
    base = ReductionContext.canonical(sp, [1], star, L)
    Jq = QuantumMomentumMap(base.Jq.lie, [base.Jq.components[0] + LambdaSeries.from_poly(
        MultiPoly.const(sp.vars, Fraction(1, 3)), L, shift=2)])
    return ReductionContext.canonical(sp, [1], star, order, Jq=Jq)


class TestElevateContext:
    """A context holds Jq truncated at its own order, and a reduced product
    runs at that order: any other is rejected."""

    def test_a_higher_order_is_rejected(self):
        # built at order 1 the context holds Jq_1 = p1, so a rebuild at L
        # would give i**(p1²) = 0 where the context built at L gives λ⁴/9
        ctx = corrected_s1p_ctx(L)
        p1 = ctx.space.p(1)
        assert quantum_restriction(ctx.series(p1 * p1), ctx).render() == "λ^4: (1/9)+(0/1)i"
        with pytest.raises(OrderMismatchError, match=f"cannot raise a context of order 1 to {L}"):
            elevate_context(corrected_s1p_ctx(1), L)

    def test_a_jq_held_below_the_order_is_rejected(self):
        # Jq_1 = p1 held at order 1: its terms at λ² to λ⁴ are not known to
        # be zero, so no context of order 4 may read them as zero
        sp = PhaseSpace.of_dim(2)
        star = StarProduct.weyl(sp)
        Jq = ReductionContext.canonical(sp, [1], star, 1).Jq
        with pytest.raises(OrderMismatchError, match="held at order 1 cannot serve a "
                                                     "context of order 4"):
            ReductionContext.canonical(sp, [1], star, 4, Jq=Jq)

    def test_a_lower_order_is_rejected(self):
        ctx = corrected_s1p_ctx(L)
        assert elevate_context(ctx, L) is ctx
        with pytest.raises(OrderMismatchError, match=f"cannot lower a context of order {L} to 2"):
            elevate_context(ctx, 2)


class TestDeltaStar:
    def test_zero_on_horizontal(self):
        ctx = s1p_ctx()
        F = ctx.series(ctx.space.q(1) * ctx.space.p(2))
        assert delta_star(F, s1p_ctx(L + 1)).is_zero()

    def test_hand_value(self):
        # q1 p1: the division operator gives q1, and
        # q1·p1 - q1 ⋆ p1 = -(i/2)λ, so the quotient is the constant -1/2
        ctx = s1p_ctx()
        F = ctx.series(ctx.space.q(1) * ctx.space.p(1))
        expected = LambdaSeries.from_poly(
            MultiPoly.const(ctx.space.vars, Fraction(-1, 2)), L)
        assert delta_star(F, s1p_ctx(L + 1)) == expected

    def test_agrees_with_boundary_route(self):
        # Δ⋆ equals the homotopy sandwiched between the two boundaries,
        # with the parameter divided out
        ctx, up = s1p_ctx(), s1p_ctx(L + 1)
        for F in sample_polys(79, ctx.space.vars, 3, 6):
            Fs = ctx.series(F)
            via_op = delta_star(Fs, up)
            h = classical_homotopy(
                KoszulChain.of_series(up.gdim, up.series(F)), up)
            D = RefSeries.of(koszul_boundary(h, up).series() -
                             quantum_koszul_boundary(h, up).series())
            assert D.coeffs[0].is_zero()
            via_boundaries = RefSeries(D.coeffs[1:]).to_series().scale((0, -1, 1))
            assert via_op == via_boundaries


# constant parts c_a of Jq_a = p_a + λc_a, for the first and second translation
# i/3 and -3/4 + i/6
CONSTANT_C = ((0, 1, 3), (-9, 2, 12))


def knp_contexts(kind: str, order: int):
    """(kind of Jq, context) over three shapes of (n, translated): Jq_a = p_a
    + λc_a with c_a zero, a constant, or a multiple of an untranslated q,
    where the context has no T; and the second stage of each shape with two
    translations, whose product is a reduced one."""
    for n, translated in ((2, (1,)), (3, (1, 2)), (4, (1, 3))):
        sp = PhaseSpace.of_dim(n)
        q = sp.q(next(i for i in range(1, n + 1) if i not in translated))
        for jq, c in (("canonical", [MultiPoly.zero(sp.vars)] * 2),
                      ("constant", [MultiPoly.const(sp.vars, 1).scale(x) for x in CONSTANT_C]),
                      ("polynomial", [q, q.scale((0, 1, 1))])):
            Jq = QuantumMomentumMap(LieAlgebraData.abelian(len(translated)), [
                LambdaSeries.from_poly(sp.p(a), order) + LambdaSeries.from_poly(ca, order, shift=1)
                for a, ca in zip(translated, c)])
            ctx = ReductionContext.canonical(sp, translated, getattr(StarProduct, kind)(sp),
                                             order, Jq=Jq)
            assert (ctx.conjugation is None) == (jq == "polynomial")
            yield jq, ctx
            if len(translated) > 1:
                yield "stage 2", StagePipeline(ctx, StageConfig(ctx.action.lie, (1,))).ctx2


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
def test_series_correction_is_the_closed_form(kind):
    # (id - A)^{-1} with A = (∂ - ∂_q)h at grade 0 against (id - V)^{-1}
    # with V written out over the division operators
    corrected = {}
    for order in (2, 4):
        for jq, ctx in knp_contexts(kind, order):
            J = ctx.J.components[-1]
            for f, g in zip(*[iter(sample_polys(227, ctx.space.vars, 3, 6))] * 2):
                for F in (ctx.series(f), ctx.series(f * J * J + g)
                          + LambdaSeries.from_poly(g * J, order, shift=1)):
                    got = series_correction(F, ctx)
                    assert got == invert_unipotent(
                        lambda H: vertical_difference(H, ctx), order)(F)
                    corrected[jq] = corrected.get(jq, 0) + (got != F)
    # std has no C^{i p_a}, so r ⋆ p_a = r·p_a, and V = 0 where every c_a is 0
    assert {jq for jq, count in corrected.items() if count} == \
        {"constant", "polynomial", "stage 2"} | ({"canonical"} if kind != "std" else set())


class TestKnpEquivalence:
    def test_s1p_pairs(self):
        ctx = s1p_ctx()
        red = ReducedAlgebra(ctx)
        star_red = reduced_star(red)
        knp = knp_reduced_star(red)
        for f, g in sample_pairs(83, red.space.vars, 3, 10):
            assert knp.eval_poly(f, g, L) == star_red.eval_poly(f, g, L)

    def test_s2_pairs(self):
        ctx = s2_ctx()
        red = ReducedAlgebra(ctx)
        star_red = reduced_star(red)
        knp = knp_reduced_star(red)
        for f, g in sample_pairs(89, red.space.vars, 3, 10):
            assert knp.eval_poly(f, g, L) == star_red.eval_poly(f, g, L)

    def test_unit_trivial(self):
        red = ReducedAlgebra(s1p_ctx())
        knp = knp_reduced_star(red)
        one = MultiPoly.const(red.space.vars, 1)
        f = red.space.q(2) * red.space.p(2)
        assert knp.eval_poly(one, f, L) == LambdaSeries.from_poly(f, L)


class TestFiberTranslation:
    def test_zero_is_identity(self):
        ctx = build_shifted_context(s1p_ctx(), {1: (2, Fraction(0))}, {1: Fraction(0)})
        sp = ctx.space
        f = sp.p(1) * sp.q(2)
        assert ctx.straighten(f) == f

    def test_inverse(self):
        ctx = build_shifted_context(s1p_ctx(), {1: (2, Fraction(5, 3))}, {})
        sp = ctx.space
        subst = {"p1": sp.p(1) + sp.q(2).scale(Fraction(5, 3))}
        for f in sample_polys(97, sp.vars, 3, 6):
            assert ctx.straighten(f.substitute(subst)) == f
            assert ctx.straighten(f).substitute(subst) == f

    def test_straightens_magnetic_momentum(self):
        # the straightening sends the magnetic momentum component to the
        # plain fiber coordinate, and leaves an unshifted translated one alone
        sp = PhaseSpace.of_dim(3)
        base = ReductionContext.canonical(sp, [1, 2], StarProduct.weyl(sp), L)
        ctx = build_shifted_context(base, {1: (3, Fraction(1, 2))}, {})
        assert ctx.straighten(sp.p(1) + sp.q(3).scale(Fraction(1, 2))) == sp.p(1)
        assert ctx.straighten(sp.p(2)) == sp.p(2)


class TestShiftedContext:
    @pytest.mark.parametrize("b, mu", [({1: (2, 0.1)}, {}), ({}, {1: 0.3}),
                                       ({1: (2, 1)}, {1: 0.0})],
                             ids=["b", "mu", "zero-mu"])
    def test_a_float_constant_is_a_type_error(self, b, mu):
        with pytest.raises(TypeError, match="got float"):
            build_shifted_context(s1p_ctx(), b, mu)

    def test_int_constants_read_as_fractions(self):
        got = build_shifted_context(s1p_ctx(), {1: (2, 1)}, {1: 3})
        want = build_shifted_context(s1p_ctx(), {1: (2, Fraction(1))}, {1: Fraction(3)})
        assert got.straightening == want.straightening != {}

    def test_trivial_shift_equals_base(self):
        base = s1p_ctx()
        samples = [base.series(f) for f in sample_polys(83, base.space.vars, 3, 4)]
        for ctx in (build_shifted_context(base, {}, {}),
                    build_shifted_context(base, {}, {1: Fraction(0)})):
            assert (ctx.action, ctx.star, ctx.order, ctx.straightening) == \
                (base.action, base.star, base.order, {})
            assert ctx.Jq.components == base.Jq.components
            assert [quantum_restriction(F, ctx) for F in samples] == \
                [quantum_restriction(F, base) for F in samples]

    def test_momentum_map_components(self):
        ctx = s2_ctx()
        sp = ctx.space
        component = sp.p(1) + sp.q(2).scale(Fraction(1, 2)) - MultiPoly.const(sp.vars, 3)
        assert ctx.straighten(component) == sp.p(1)

    def test_shifts_compose(self):
        ctx = build_shifted_context(s2_ctx(), {}, {1: Fraction(2)})
        sp = ctx.space
        component = sp.p(1) + sp.q(2).scale(Fraction(1, 2)) - MultiPoly.const(sp.vars, 5)
        assert ctx.straighten(component) == sp.p(1)

    def test_complex_identities_pass(self):
        ctx = s2_ctx()
        samples = [ctx.straighten(f) for f in sample_polys(101, ctx.space.vars, 3, 4)]
        failing = [c for c in verify_complex_identities(ctx, samples)
                   if c["status"] != "pass"]
        assert failing == []

    def test_restriction_is_conjugated(self):
        # i* of a straightened sample is the sample on the constraint set
        # p1 + alpha(q) = 0, alpha = q2/2 - 3
        ctx = s2_ctx()
        sp = ctx.space
        on_constraint = {"p1": MultiPoly.const(sp.vars, 3) - sp.q(2).scale(Fraction(1, 2))}
        for f in sample_polys(103, sp.vars, 3, 6):
            want = f.substitute(on_constraint).with_vars(ctx.cvars)
            assert restriction(ctx.series(ctx.straighten(f)), ctx) == \
                LambdaSeries.from_poly(want, ctx.order)

    def test_invariance_guard(self):
        base = s1p_ctx()
        with pytest.raises(AlgebraError):
            build_shifted_context(base, {1: (1, Fraction(1))}, {})
        with pytest.raises(AlgebraError):
            build_shifted_context(base, {}, {2: Fraction(1)})
