"""The augmented Koszul complex: boundaries, homotopies, quantum restriction.

The closed-form restriction and homotopy are held to the substitution path
they replace: substitute zero for the constrained fiber coordinates, or
scale them by t and integrate t over [0, 1].  The quantum homotopy is held
to the formula it replaces, the classical homotopy composed with the inverse
of h ∂_q + ∂_q h, and where a context has T, its closed form T⁻¹hT to the
series h (id - A)⁻¹.  The quantum restriction is held to the classical
restriction after the operator T that conjugates the quantum complex to the
classical one, written from the product's matrix alone.  Shifted scenarios
feed these their straightened samples.
"""

import importlib.util
import json
import operator
from fractions import Fraction
from functools import reduce
import random
from itertools import combinations, combinations_with_replacement
from math import factorial
from pathlib import Path

import pytest

from qkoszul import cli, koszul
from qkoszul.cli import builtin_config, main, run_scenario
from qkoszul.exact import (
    AlgebraError,
    ConstantOperator,
    ContractViolationError,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    VariableMismatchError,
    gr,
    invert_unipotent,
)
from qkoszul.koszul import (
    KoszulChain,
    ReductionContext,
    ce_boundary,
    classical_homotopy,
    conjugate,
    insert_index,
    koszul_boundary,
    prolongation,
    quantum_homotopy,
    quantum_koszul_boundary,
    quantum_restriction,
    remove_index,
    restriction,
    series_restriction,
    verify_complex_identities,
)
from qkoszul.lie import (
    LieAlgebraData,
    QuantumMomentumMap,
    TranslationAction,
    canonical_momentum_map,
)
from qkoszul.phase_space import PhaseSpace, StarProduct
from qkoszul.reduction import (
    CotangentSplit,
    build_shifted_context,
)
from qkoszul.sampling import sample_polys
from qkoszul.stages import StageConfig, StagePipeline
from reference_poly import RefSeries, is_zero

L = 4


def s1_context() -> ReductionContext:
    sp = PhaseSpace.of_dim(3)
    return ReductionContext.canonical(sp, [1, 2], StarProduct.weyl(sp), L)


class TestWedgeBookkeeping:
    def test_insert_signs(self):
        assert insert_index(1, (2, 3)) == (1, (1, 2, 3))
        assert insert_index(2, (1, 3)) == (-1, (1, 2, 3))
        assert insert_index(3, (1, 2)) == (1, (1, 2, 3))
        assert insert_index(2, (2,)) is None

    def test_remove_signs(self):
        assert remove_index((1, 2, 3), 0) == (1, (2, 3))
        assert remove_index((1, 2, 3), 1) == (-1, (1, 3))

    def test_insert_remove_inverse(self):
        sign_i, key = insert_index(2, (1, 3))
        pos = key.index(2)
        sign_r, back = remove_index(key, pos)
        assert back == (1, 3) and sign_i * sign_r == 1


class TestReductionContext:
    def test_series_takes_only_polynomials_over_the_space(self):
        ctx = s1_context()
        f = ctx.space.q(1) * ctx.space.p(3)
        assert ctx.series(f) == LambdaSeries.from_poly(f, L)
        with pytest.raises(VariableMismatchError):
            ctx.series(f.with_vars(ctx.space.vars + ("x",)))
        with pytest.raises(VariableMismatchError):
            ctx.series(MultiPoly.variable(("q1", "p1"), "q1"))

    def test_order0_remainder_rejected(self):
        # a quantum momentum map whose λ⁰ differs from J is rejected at
        # context construction
        sp = PhaseSpace.of_dim(2)
        ctx = ReductionContext.canonical(sp, [1], StarProduct.weyl(sp), L)
        bad = QuantumMomentumMap(
            ctx.Jq.lie, [LambdaSeries.from_poly(ctx.space.q(1), L)])
        with pytest.raises(AlgebraError):
            ReductionContext(ctx.action, ctx.star, bad, L)

    @pytest.mark.parametrize("action_n, star_n", ((2, 3), (3, 2)))
    def test_a_product_on_another_space_is_rejected(self, action_n, star_n):
        # the larger product would leave the context without T; the smaller
        # one would fail at the first quantum restriction
        action = TranslationAction(PhaseSpace.of_dim(action_n), [1])
        star = StarProduct.weyl(PhaseSpace.of_dim(star_n))
        Jq = QuantumMomentumMap.from_classical(canonical_momentum_map(action), L)
        with pytest.raises(VariableMismatchError) as raised:
            ReductionContext(action, star, Jq, L)
        assert str(star.space.vars) in str(raised.value)
        assert str(action.space.vars) in str(raised.value)


class TestKoszulChain:
    def test_equality_compares_shape(self):
        ctx = s1_context()
        vs = ctx.space.vars
        zero = KoszulChain(ctx.gdim, 1, vs, L, {})
        assert zero == KoszulChain(ctx.gdim, 1, vs, L, {})
        assert zero != KoszulChain(ctx.gdim, 1, vs, L + 1, {})
        assert zero != KoszulChain(ctx.gdim + 1, 1, vs, L, {})
        assert zero != KoszulChain(ctx.gdim, 1, ctx.cvars, L, {})

    @pytest.mark.parametrize("grade, key, message", [
        (2, (2, 1), "bad key (2, 1) for grade 2"),
        (2, (1, 1), "bad key (1, 1) for grade 2"),
        (2, (1,), "bad key (1,) for grade 2"),
        (1, (1, 2), "bad key (1, 2) for grade 1"),
        (1, (0,), "index out of range in (0,)"),
        (2, (1, 3), "index out of range in (1, 3)"),
        (-1, (), "bad key () for grade -1"),
    ])
    def test_bad_keys_rejected(self, grade, key, message):
        # s1 acts by a 2-dimensional algebra
        ctx = s1_context()
        f = ctx.series(ctx.space.q(3))
        with pytest.raises(AlgebraError) as err:
            KoszulChain(ctx.gdim, grade, ctx.space.vars, L, {key: f})
        assert str(err.value) == message

    def test_every_key_of_a_grade_accepted(self):
        ctx = s1_context()
        f = ctx.series(ctx.space.q(3))
        for k in range(3):
            keys = list(combinations(range(1, 3), k))
            x = KoszulChain(ctx.gdim, k, ctx.space.vars, L, dict.fromkeys(keys, f))
            assert sorted(x.terms) == keys


class TestKoszulBoundary:
    def test_grade1_is_momentum_multiplication(self):
        ctx = s1_context()
        f = ctx.series(ctx.space.q(3))
        x = KoszulChain(ctx.gdim, 1, ctx.space.vars, L, {(1,): f})
        out = koszul_boundary(x, ctx)
        assert out.series() == ctx.series(ctx.space.q(3) * ctx.space.p(1))

    def test_squares_to_zero(self):
        ctx = s1_context()
        f = ctx.series(ctx.space.q(1) * ctx.space.p(3))
        x = KoszulChain(ctx.gdim, 2, ctx.space.vars, L, {(1, 2): f})
        assert koszul_boundary(koszul_boundary(x, ctx), ctx).is_zero()

    def test_grade0_rejected(self):
        ctx = s1_context()
        x = KoszulChain.of_series(ctx.gdim, ctx.series(ctx.space.q(1)))
        with pytest.raises(AlgebraError):
            koszul_boundary(x, ctx)


class TestQuantumBoundary:
    def test_reduces_to_classical_at_order0(self):
        ctx = s1_context()
        f = ctx.series(ctx.space.q(1) * ctx.space.q(1) * ctx.space.p(2))
        x = KoszulChain(ctx.gdim, 1, ctx.space.vars, L, {(2,): f})
        qb = quantum_koszul_boundary(x, ctx).series()
        cb = koszul_boundary(x, ctx).series()
        assert qb.coeff(0) == cb.coeff(0)

    def test_squares_to_zero(self):
        ctx = s1_context()
        f = ctx.series(ctx.space.p(1) * ctx.space.q(2))
        x = KoszulChain(ctx.gdim, 2, ctx.space.vars, L, {(1, 2): f})
        assert quantum_koszul_boundary(
            quantum_koszul_boundary(x, ctx), ctx).is_zero()


def adjoint_matrices(lie: LieAlgebraData):
    """The adjoint representation as matrices: entry (g, b) of the a-th is
    the structure constant c(a, b, g)."""
    d = lie.dim
    return [[[lie.c(a, b, g) for b in range(1, d + 1)] for g in range(1, d + 1)]
            for a in range(1, d + 1)]


def matrix_ce_boundary(lie: LieAlgebraData, x):
    """The CE boundary through the adjoint matrices: the oracle for the
    boundary read off the structure constants."""
    rep = adjoint_matrices(lie)
    out = {}

    def add(key, v):
        cur = out.get(key)
        out[key] = tuple(a + b for a, b in zip(cur, v)) if cur else v

    for key, v in x.items():
        for pos, alpha in enumerate(key):
            sign, rest = remove_index(key, pos)
            m = rep[alpha - 1]
            add(rest, tuple(sum(m[i][j] * sign * v[j] for j in range(len(v)))
                            for i in range(len(v))))
        for pos_b, beta in enumerate(key):
            sign_b, key_b = remove_index(key, pos_b)
            for pos_a, alpha in enumerate(key_b):
                sign_a, key_ab = remove_index(key_b, pos_a)
                for gamma in range(1, lie.dim + 1):
                    ins = insert_index(gamma, key_ab)
                    c = lie.c(alpha, beta, gamma)
                    if ins is None or c == 0:
                        continue
                    w = Fraction(-sign_b * sign_a * ins[0], 2) * c
                    add(ins[1], tuple(vi * w for vi in v))
    return {k: v for k, v in out.items() if any(v)}


# a vector of the 3-dimensional algebras below
V = (Fraction(1), Fraction(-2, 3), Fraction(5))
# so(3): [e1, e2] = e3 and cyclic
SO3 = LieAlgebraData(3, {(1, 2, 3): 1, (2, 1, 3): -1, (2, 3, 1): 1, (3, 2, 1): -1,
                         (3, 1, 2): 1, (1, 3, 2): -1})


class TestChevalleyEilenberg:
    def test_heisenberg_adjoint_squares_to_zero(self):
        lie = LieAlgebraData.heisenberg()
        v = tuple(Fraction(k, 3) for k in (1, -2, 5))
        for grade in (2, 3):
            x = {key: v for key in combinations((1, 2, 3), grade)}
            once = ce_boundary(lie, x)
            assert ce_boundary(lie, once) == {}

    @pytest.mark.parametrize("lie", (LieAlgebraData.heisenberg(), SO3,
                                     LieAlgebraData.abelian(3)),
                             ids=("heisenberg", "so3", "abelian"))
    def test_equals_matrix_route(self, lie):
        rng = random.Random(61)
        for grade in (1, 2, 3):
            for _ in range(4):
                x = {key: tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                for _ in range(lie.dim))
                     for key in combinations(range(1, lie.dim + 1), grade)
                     if rng.random() < 0.8}
                assert ce_boundary(lie, x) == matrix_ce_boundary(lie, x)

    def test_grade0_rejected(self):
        lie = LieAlgebraData.heisenberg()
        with pytest.raises(AlgebraError, match="one grade >= 1"):
            ce_boundary(lie, {(): (Fraction(1), Fraction(0), Fraction(0))})

    @pytest.mark.parametrize("x, message", [
        ({(1,): V, (1, 2): V}, "one grade >= 1"),
        ({(4,): V}, r"\(4,\) is not increasing in 1..3"),
        ({(0, 1): V}, r"\(0, 1\) is not increasing in 1..3"),
        ({(2, 1): V}, r"\(2, 1\) is not increasing in 1..3"),
        ({(1, 1): V}, r"\(1, 1\) is not increasing in 1..3"),
        ({(1,): V[:2]}, "a vector of 2 entries at \\(1,\\), not 3"),
        ({(1, 2): V + (Fraction(1),)}, "a vector of 4 entries"),
    ], ids=("mixed-grades", "index-past-dim", "index-0", "unsorted-key",
            "repeated-index", "short-vector", "long-vector"))
    def test_rejects_a_malformed_chain(self, x, message):
        # the grade is read off the keys, so mixed grades, an index that is
        # no basis element and a vector of the wrong length all raise, where
        # a grade argument once let {(4,): v} through as {}
        with pytest.raises(AlgebraError, match=message):
            ce_boundary(LieAlgebraData.heisenberg(), x)

    def test_empty_chain_has_zero_boundary(self):
        assert ce_boundary(LieAlgebraData.heisenberg(), {}) == {}


class TestClassicalHomotopy:
    def test_explicit_value(self):
        # on a single translated direction the grade-0 homotopy divides by
        # the fiber coordinate: p1^2 |-> p1 ⊗ e_1
        sp = PhaseSpace.of_dim(2)
        ctx = ReductionContext.canonical(sp, [1], StarProduct.weyl(sp), L)
        x = KoszulChain.of_series(1, ctx.series(sp.p(1) * sp.p(1)))
        assert classical_homotopy(x, ctx) == \
            KoszulChain(1, 1, sp.vars, L, {(1,): ctx.series(sp.p(1))})

    def test_homotopy_identity_grade1(self):
        ctx = s1_context()
        for f in sample_polys(23, ctx.space.vars, 3, 5):
            x = KoszulChain(ctx.gdim, 1, ctx.space.vars, L,
                            {(1,): ctx.series(f)})
            lhs = classical_homotopy(koszul_boundary(x, ctx), ctx) + \
                koszul_boundary(classical_homotopy(x, ctx), ctx)
            assert lhs == x

    def test_grade0_identity(self):
        ctx = s1_context()
        for f in sample_polys(29, ctx.space.vars, 3, 5):
            fs = ctx.series(f)
            x = KoszulChain.of_series(ctx.gdim, fs)
            recon = prolongation(restriction(fs, ctx), ctx) + \
                koszul_boundary(classical_homotopy(x, ctx), ctx).series()
            assert recon == fs


class TestRestrictionProlongation:
    def test_restriction_sets_fibers_to_zero(self):
        ctx = s1_context()
        sp = ctx.space
        f = ctx.series(sp.p(1) * sp.q(3) + sp.q(1))
        assert restriction(f, ctx) == LambdaSeries.from_poly(
            MultiPoly.variable(ctx.cvars, "q1"), ctx.order)

    def test_prolongation_right_inverse(self):
        ctx = s1_context()
        g = LambdaSeries.from_poly(MultiPoly.variable(ctx.cvars, "q3") *
                                   MultiPoly.variable(ctx.cvars, "p3"), ctx.order)
        assert restriction(prolongation(g, ctx), ctx) == g

    def test_prolongation_rejects_full_inputs(self):
        ctx = s1_context()
        with pytest.raises(VariableMismatchError, match="not the constraint variables"):
            prolongation(ctx.series(ctx.space.p(1)), ctx)


class TestQuantumRestriction:
    def test_classical_limit(self):
        ctx = s1_context()
        for f in sample_polys(31, ctx.space.vars, 3, 5):
            fs = ctx.series(f)
            assert quantum_restriction(fs, ctx).coeff(0) == \
                restriction(fs, ctx).coeff(0)

    def test_kernel_contains_left_ideal(self):
        ctx = s1_context()
        for f in sample_polys(37, ctx.space.vars, 3, 5):
            for a in range(ctx.gdim):
                gen = ctx.star.eval(ctx.series(f), ctx.Jq.components[a])
                assert quantum_restriction(gen, ctx).is_zero()

    def test_nontrivial_correction_value(self):
        # hand-derived: the division operator gives q1^2, and
        # q1^2 * p1 - q1^2 ⋆ p1 = -iλ q1, which survives the restriction
        sp = PhaseSpace.of_dim(2)
        ctx = ReductionContext.canonical(sp, [1], StarProduct.weyl(sp), L)
        f = ctx.series(sp.q(1) * sp.q(1) * sp.p(1))
        expected = LambdaSeries.from_poly(
            MultiPoly.variable(ctx.cvars, "q1").scale(gr(0, -1)), L, shift=1)
        assert quantum_restriction(f, ctx) == expected
        assert restriction(f, ctx).is_zero()


class TestQuantumHomotopy:
    def test_identity_grade0_and_1(self):
        ctx = s1_context()
        for f in sample_polys(41, ctx.space.vars, 3, 4):
            fs = ctx.series(f)
            x0 = KoszulChain.of_series(ctx.gdim, fs)
            lhs = KoszulChain.of_series(
                ctx.gdim, prolongation(quantum_restriction(fs, ctx), ctx)
            ) + quantum_koszul_boundary(quantum_homotopy(x0, ctx), ctx)
            assert lhs == x0
            x1 = KoszulChain(ctx.gdim, 1, ctx.space.vars, L, {(2,): fs})
            lhs1 = quantum_homotopy(quantum_koszul_boundary(x1, ctx), ctx) + \
                quantum_koszul_boundary(quantum_homotopy(x1, ctx), ctx)
            assert lhs1 == x1


class TestFullSuite:
    def test_all_identities_on_s1(self):
        ctx = s1_context()
        samples = sample_polys(43, ctx.space.vars, 3, 4)
        checks = verify_complex_identities(ctx, samples)
        failing = [c for c in checks if c["status"] != "pass"]
        assert failing == []

    def test_suite_with_corrected_momentum_map(self):
        sp = PhaseSpace.of_dim(2)
        star = StarProduct.weyl(sp)
        base = ReductionContext.canonical(sp, [1], star, L)
        corrected = QuantumMomentumMap(base.Jq.lie, [
            base.Jq.components[0] +
            LambdaSeries.from_poly(
                MultiPoly.const(sp.vars, 1).scale(gr(0, Fraction(2, 5))), L, shift=1)
        ])
        ctx = ReductionContext.canonical(sp, [1], star, L, Jq=corrected)
        samples = sample_polys(47, sp.vars, 3, 4)
        failing = [c for c in verify_complex_identities(ctx, samples)
                   if c["status"] != "pass"]
        assert failing == []

    def test_failure_reports_the_first_witness(self, monkeypatch):
        # a boundary that adds λ·q4·x_{12} e_1 to grade-2 inputs breaks d∘d
        # at grades 2 and 3; the check stops at the first failing grade
        sp = PhaseSpace.of_dim(4)
        ctx = ReductionContext.canonical(sp, [1, 2, 3], StarProduct.weyl(sp), 2)
        boundary = koszul.koszul_boundary

        def broken(x, ctx):
            out = boundary(x, ctx)
            if x.grade == 2 and (1, 2) in x.terms:
                extra = x.terms[(1, 2)] * LambdaSeries.from_poly(sp.q(4), ctx.order, shift=1)
                out = out + KoszulChain(ctx.gdim, 1, sp.vars, ctx.order, {(1,): extra})
            return out

        monkeypatch.setattr(koszul, "koszul_boundary", broken)
        checks = {c["name"]: c for c in
                  verify_complex_identities(ctx, sample_polys(5, sp.vars, 2, 3))}
        entry = checks["koszul_d_squared_zero"]
        assert entry["status"] == "fail"
        assert entry["witness"]["grade"] == 2

    def test_order_zero_fault_breaks_the_correction_contract(self, monkeypatch,
                                                             capsys):
        # the series of the grade-0 correction reads the classical boundary
        # on h y, of grade 1, so an order-0 term added there does not let
        # (∂ - ∂_q) h raise the order: an internal error, not a failed check
        boundary = koszul.koszul_boundary

        def broken_at(var, grade):
            def broken(x, ctx):
                out = boundary(x, ctx)
                if x.grade == grade:
                    key = (1,) if grade == 2 else ()
                    out = out + KoszulChain(ctx.gdim, grade - 1, ctx.space.vars, ctx.order,
                                            {key: ctx.series(MultiPoly.variable(
                                                ctx.space.vars, var))})
                return out
            return broken

        sp = PhaseSpace.of_dim(4)
        ctx = ReductionContext.canonical(sp, [1, 2, 3], StarProduct.weyl(sp), 2)
        monkeypatch.setattr(koszul, "koszul_boundary", broken_at("q4", 1))
        with pytest.raises(ContractViolationError):
            verify_complex_identities(ctx, sample_polys(5, sp.vars, 2, 3))
        monkeypatch.setattr(koszul, "koszul_boundary", broken_at("q3", 1))
        assert main(["--scenario", "s1-translation"]) == 3
        assert "internal error: operator did not raise minimal order" in \
            capsys.readouterr().err
        # a fault at grade 2 reached the series only inside the quantum
        # homotopy, which is T⁻¹hT wherever the context has T: it fails the
        # classical checks that read the grade-2 boundary
        monkeypatch.setattr(koszul, "koszul_boundary", broken_at("q3", 2))
        assert main(["--scenario", "s1-translation"]) == 1
        report = json.loads(capsys.readouterr().out)
        failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        assert failing == ["complex.homotopy_identity_positive_grades",
                           "complex.koszul_d_squared_zero"]


# the builtins whose complex suite runs, with their number of monomials of
# degree ≤ 3 on 2n variables: C(2n + 3, 3)
BASIS_SCENARIOS = (("s1-translation", 84), ("s1p-single", 35), ("s2-magnetic", 35))


def monomials(vars: tuple, degree: int) -> list:
    """Every monomial of degree ≤ ``degree`` over ``vars``."""
    xs = [MultiPoly.variable(vars, v) for v in vars]
    return [reduce(operator.mul, m, MultiPoly.const(vars, 1))
            for d in range(degree + 1) for m in combinations_with_replacement(xs, d)]


def monomial_basis(ctx: ReductionContext, degree: int) -> list:
    """Every monomial of degree ≤ ``degree`` on the context's space,
    straightened into the coordinates it computes in."""
    return [ctx.straighten(m) for m in monomials(ctx.space.vars, degree)]


def weight_four_read_as_five(monkeypatch):
    """Make ``MultiPoly.weighted_diff`` divide by 5 where |m|_w + k is 4:
    D/4 - (D/4)/5 = D/5 on those monomials."""
    weighted_diff = MultiPoly.weighted_diff

    def wrong(p, var, weight_vars, k):
        at = [p.vars.index(v) for v in weight_vars]
        four = MultiPoly(p.vars, {e: c for e, c in p.terms.items()
                                  if k + sum(e[i] for i in at) == 4})
        return weighted_diff(p, var, weight_vars, k) - \
            weighted_diff(four, var, weight_vars, k).scale(Fraction(1, 5))

    monkeypatch.setattr(MultiPoly, "weighted_diff", wrong)


@pytest.mark.parametrize("name, size", BASIS_SCENARIOS)
def test_complex_identities_hold_on_the_monomial_basis(name, size):
    # the identities are linear in the sample, so the basis decides them on
    # every polynomial of degree ≤ 3 that the samples only reach a few of
    ctx = cli.build_context(builtin_config(name))
    basis = monomial_basis(ctx, 3)
    assert len(set(basis)) == size
    failing = [c for c in verify_complex_identities(ctx, basis) if c["status"] != "pass"]
    assert failing == []


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
def test_stage_equality_and_reduced_associativity_hold_on_the_monomial_basis(kind):
    # both identities are multilinear, so the 10 monomials of degree ≤ 3 in
    # (q3, p3) decide them on every reduced input of degree ≤ 3
    cfg = cli.parse_config({"name": "s1-translation", **cli.SCENARIOS["s1-translation"],
                            "star": kind, "lambda_order": L})
    ctx = cli.build_context(cfg)
    pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, cfg.stage_first))
    rs = pipe.red.space
    basis = [rs.series(m, L) for m in monomials(rs.vars, 3)]
    assert len(set(basis)) == 10
    one, two = pipe.star_red.eval, pipe.star_red2.eval
    assert [(f, g) for f in basis for g in basis if two(f, g) != one(f, g)] == []
    assert [(f, g, h) for f in basis for g in basis for h in basis
            if one(one(f, g), h) != one(f, one(g, h))] == []


@pytest.mark.parametrize("name", [name for name, _ in BASIS_SCENARIOS])
def test_a_weight_of_four_read_as_five_fails_on_the_monomial_basis(name, monkeypatch):
    # the reports of s1p-single and s2-magnetic pass with this fault
    ctx = cli.build_context(builtin_config(name))
    basis = monomial_basis(ctx, 3)
    weight_four_read_as_five(monkeypatch)
    failing = [c["name"] for c in verify_complex_identities(ctx, basis)
               if c["status"] != "pass"]
    # s1-translation translates two coordinates, so it has a grade 2 as well
    assert failing == ["homotopy_identity_positive_grades", "quantum_homotopy_identity_grade_1"] \
        + ["quantum_homotopy_identity_grade_2"] * (name == "s1-translation")


# ---------------------------------------------------------------------------
# the substitution path, as the oracle for the closed forms
# ---------------------------------------------------------------------------

def t_integral(f: MultiPoly) -> MultiPoly:
    """∫_0^1 dt of a polynomial whose last variable is t: each monomial
    t^m·g contributes g/(m+1)."""
    out = MultiPoly.zero(f.vars[:-1])
    for e, c in f.terms.items():
        out = out + MultiPoly(out.vars, {e[:-1]: c * gr(Fraction(1, e[-1] + 1))})
    return out


def oracle_restriction(c: MultiPoly, ctx: ReductionContext) -> MultiPoly:
    """Substitute zero for the constrained fiber coordinates."""
    zero = {pa: MultiPoly.zero(ctx.space.vars) for pa in ctx.constrained}
    return c.substitute(zero).with_vars(ctx.cvars)


def oracle_homotopy(c: MultiPoly, ctx: ReductionContext, pa: str, k: int) -> MultiPoly:
    """Differentiate along pa, scale every constrained fiber coordinate by
    t, multiply by t^k, integrate t out."""
    vars_t = ctx.space.vars + ("t",)
    t = MultiPoly.variable(vars_t, "t")
    scale = {pb: t * MultiPoly.variable(vars_t, pb) for pb in ctx.constrained}
    g = c.diff(pa).substitute(scale)
    for _ in range(k):
        g = g * t
    return t_integral(g)


def oracle_classical_homotopy(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    out = KoszulChain(ctx.gdim, x.grade + 1, ctx.space.vars, ctx.order, {})
    for key, F in x.terms.items():
        for alpha, pa in enumerate(ctx.constrained, start=1):
            ins = insert_index(alpha, key)
            if ins is not None:
                sign, newkey = ins
                G = RefSeries.of(F).map_coeffs(
                    lambda c: oracle_homotopy(c, ctx, pa, x.grade)).to_series().scale(sign)
                out = out + KoszulChain(ctx.gdim, x.grade + 1, x.vars, x.order,
                                        {newkey: G})
    return out


ORACLE_ORDER = 2
# (n, translated, b, mu): s1-translation, s2-magnetic, and the data of the
# magnetic reduction benchmark
ORACLE_SCENARIOS = {
    "s1-translation": (3, (1, 2), {}, {}),
    "s2-magnetic": (2, (1,), {1: (2, Fraction(1, 2))}, {1: Fraction(3)}),
    "reduce-magnetic": (4, (1, 2), {1: (3, Fraction(1, 2)), 2: (4, Fraction(-2, 3))},
                        {1: Fraction(3), 2: Fraction(-1, 4)}),
}


def oracle_context(scenario: str, kind: str) -> ReductionContext:
    n, translated, b, mu = ORACLE_SCENARIOS[scenario]
    sp = PhaseSpace.of_dim(n)
    base = ReductionContext.canonical(sp, translated, getattr(StarProduct, kind)(sp),
                                      ORACLE_ORDER)
    return build_shifted_context(base, b, mu)


def oracle_series(ctx: ReductionContext, seed: int):
    """Series with a straightened sample at every power of the parameter."""
    polys = [ctx.straighten(f) for f in
             sample_polys(seed, ctx.space.vars, 3, 3 * (ORACLE_ORDER + 1))]
    return [RefSeries(polys[i:i + ORACLE_ORDER + 1]).to_series()
            for i in range(0, len(polys), ORACLE_ORDER + 1)]


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
@pytest.mark.parametrize("scenario", tuple(ORACLE_SCENARIOS))
class TestClosedFormsAgainstSubstitution:
    def test_restriction(self, scenario, kind):
        ctx = oracle_context(scenario, kind)
        for F in oracle_series(ctx, 151):
            want = RefSeries.of(F).map_coeffs(
                lambda c: oracle_restriction(c, ctx)).to_series()
            assert restriction(F, ctx) == want

    def test_homotopy_at_every_grade(self, scenario, kind):
        ctx = oracle_context(scenario, kind)
        series = oracle_series(ctx, 157)
        for k in range(ctx.gdim + 1):
            keys = list(combinations(range(1, ctx.gdim + 1), k))
            x = KoszulChain(ctx.gdim, k, ctx.space.vars, ORACLE_ORDER,
                            {key: series[j % len(series)] for j, key in enumerate(keys)})
            got = classical_homotopy(x, ctx)
            assert got == oracle_classical_homotopy(x, ctx)
            assert k < ctx.gdim or got.is_zero()

    def test_division_operator(self, scenario, kind):
        ctx = oracle_context(scenario, kind)
        split = CotangentSplit(ctx)
        J1 = ctx.J.components[0]
        for f in sample_polys(163, ctx.space.vars, 3, 4):
            # a factor J1² keeps a vertical factor in every output
            F = ctx.straighten(f) * J1 * J1
            for i, pa in enumerate(ctx.constrained, start=1):
                assert split.r(i, F) == oracle_homotopy(F, ctx, pa, 0)


# ---------------------------------------------------------------------------
# the quantum homotopy against the inverse of h ∂_q + ∂_q h
# ---------------------------------------------------------------------------

def oracle_quantum_homotopy(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    """The classical homotopy composed with the inverse of h ∂_q + ∂_q h,
    which deviates from the identity at order one in the parameter; at
    grade 0, h ∂_q is replaced by the projection prol i**."""

    def raiser(y: KoszulChain) -> KoszulChain:
        if x.grade == 0:
            lifted = KoszulChain.of_series(
                ctx.gdim, prolongation(quantum_restriction(y.series(), ctx), ctx))
        else:
            lifted = classical_homotopy(quantum_koszul_boundary(y, ctx), ctx)
        return y - lifted - quantum_koszul_boundary(classical_homotopy(y, ctx), ctx)

    return classical_homotopy(invert_unipotent(raiser, ctx.order)(x), ctx)


# (n, translated, kind, order, Jq corrected by iλ·a/7, b, mu)
HOMOTOPY_CASES = {
    "n2-weyl": (2, (1,), "weyl", 3, False, {}, {}),
    "n2-wick": (2, (1,), "wick", 5, False, {}, {}),
    "n3-std-corrected": (3, (1, 2), "std", 4, True, {}, {}),
    "n4-weyl-corrected": (4, (1, 2, 3), "weyl", 3, True, {}, {}),
    "n3-wick-shifted": (3, (1, 3), "wick", 4, False, {1: (2, Fraction(1, 2))},
                        {3: Fraction(3)}),
}


def homotopy_chains(case: str):
    """A context and chains of every grade from 0 to gdim, each entry a
    straightened sample times J_1² plus λ times the next sample."""
    n, translated, kind, order, corrected, b, mu = HOMOTOPY_CASES[case]
    sp = PhaseSpace.of_dim(n)
    Jq = None
    if corrected:
        Jq = QuantumMomentumMap(LieAlgebraData.abelian(len(translated)), [
            LambdaSeries.from_poly(sp.p(a), order) + LambdaSeries.from_poly(
                MultiPoly.const(sp.vars, 1).scale(gr(0, Fraction(i, 7))), order, shift=1)
            for i, a in enumerate(translated, start=1)])
    base = ReductionContext.canonical(sp, translated, getattr(StarProduct, kind)(sp),
                                      order, Jq=Jq)
    ctx = build_shifted_context(base, b, mu)
    # a factor J_1² keeps vertical degree in h of the leading coefficient
    J1 = ctx.J.components[0]
    polys = [ctx.straighten(f) for f in sample_polys(167 + n, sp.vars, 2, 5)]
    series = [ctx.series(f * J1 * J1) + LambdaSeries.from_poly(g, order, shift=1)
              for f, g in zip(polys, polys[1:])]
    chains = []
    for k in range(ctx.gdim + 1):
        keys = list(combinations(range(1, ctx.gdim + 1), k))
        chains += [KoszulChain(ctx.gdim, k, sp.vars, order,
                               {key: series[(i + j) % len(series)]
                                for j, key in enumerate(keys)})
                   for i in range(len(series))]
    return ctx, chains


@pytest.mark.parametrize("case", tuple(HOMOTOPY_CASES))
class TestQuantumHomotopyAgainstOracle:
    def test_equals_oracle_at_every_grade(self, case):
        ctx, chains = homotopy_chains(case)
        assert {x.grade for x in chains} == set(range(ctx.gdim + 1))
        for x in chains:
            assert quantum_homotopy(x, ctx) == oracle_quantum_homotopy(x, ctx)

    def test_homotopy_squares_to_zero_and_kills_prolongations(self, case):
        # the two facts that make the correction series of the restriction
        # and of the homotopy one series
        ctx, chains = homotopy_chains(case)
        for x in chains:
            assert classical_homotopy(classical_homotopy(x, ctx), ctx).is_zero()
            prolonged = KoszulChain(ctx.gdim, x.grade, x.vars, x.order, {
                key: prolongation(restriction(F, ctx), ctx) for key, F in x.terms.items()})
            assert classical_homotopy(prolonged, ctx).is_zero()


# ---------------------------------------------------------------------------
# the quantum restriction against the conjugating operator T
# ---------------------------------------------------------------------------

def load_bench_oracle():
    """The benchmark's reference module, which imports nothing from qkoszul."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_oracle = load_bench_oracle()


def conjugating_operator(F: LambdaSeries, C, P, c) -> LambdaSeries:
    """T F for T = τ_{-λc} ∘ exp(λX), from the matrix C (keyed by variable
    positions), the positions P of the translated p_a and the constants c_a:

        X = -Σ_a Σ_{i∉P} C^{i p_a} ∂_i∂_{p_a} - ½ Σ_{a,b} C^{p_a p_b} ∂_{p_a}∂_{p_b},
        τ_{-λc} = Σ_k (-λ)^k (c·∂_p)^k / k!.

    With Jq_a = p_a + λc_a, T(f ⋆ Jq_a) = p_a T(f), so i** = i* ∘ T."""
    vs = F.vars

    def d(f, i, j):
        return f.diff(vs[i]).diff(vs[j])

    def X(f):
        out = MultiPoly.zero(vs)
        for a in P:
            for i in range(len(vs)):
                if i not in P and (i, a) in C:
                    out = out - d(f, i, a).scale(C[i, a])
            for b in P:
                if (a, b) in C:
                    out = out - d(f, a, b).scale(C[a, b] * gr(Fraction(1, 2)))
        return out

    def c_dp(f):
        out = MultiPoly.zero(vs)
        for a, ca in zip(P, c):
            out = out + f.diff(vs[a]).scale(ca)
        return out

    def exponential(G, op, sign):
        """Σ_k (sign·λ)^k op^k G / k!, truncated at the order of G."""
        out = [MultiPoly.zero(vs)] * (G.order + 1)
        for r, g in enumerate(RefSeries.of(G).coeffs):
            for k in range(G.order - r + 1):
                out[r + k] = out[r + k] + g.scale(Fraction(sign ** k, factorial(k)))
                g = op(g)
        return RefSeries(out).to_series()

    return exponential(exponential(F, X, 1), c_dp, -1)


# the constants c_a of Jq_a = p_a + λc_a, by translated label
CORRECTIONS = (gr(0, Fraction(1, 3)), gr(0, Fraction(-2, 7)), gr(Fraction(1, 5)),
               gr(Fraction(-3, 4), Fraction(1, 6)))


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
def test_quantum_restriction_is_the_restriction_after_T(kind):
    differ = 0
    for n, translated in ((2, (1,)), (3, (1, 2)), (4, (2, 3))):
        sp = PhaseSpace.of_dim(n)
        C = {ij: gr(re, im) for ij, (re, im) in bench_oracle.kind_matrix(kind, n).items()}
        P = [sp.vars.index(f"p{a}") for a in translated]
        # the identity needs C symmetric on the translated fiber block
        assert all(C.get((a, b)) == C.get((b, a)) for a in P for b in P)
        samples = sample_polys(173 + n, sp.vars, 4, 4)
        for corrected in (False, True):
            c = [CORRECTIONS[a - 1] if corrected else gr(0) for a in translated]
            for order in (3, 4):
                Jq = QuantumMomentumMap(LieAlgebraData.abelian(len(translated)), [
                    LambdaSeries.from_poly(sp.p(a), order) + LambdaSeries.from_poly(
                        MultiPoly.const(sp.vars, 1).scale(ca), order, shift=1)
                    for a, ca in zip(translated, c)])
                ctx = ReductionContext.canonical(
                    sp, translated, getattr(StarProduct, kind)(sp), order, Jq=Jq)
                for f in samples:
                    F = ctx.series(f)
                    got = quantum_restriction(F, ctx)
                    assert got == restriction(conjugating_operator(F, C, P, c), ctx)
                    assert got == series_restriction(F, ctx)
                    differ += got != restriction(F, ctx)
    # the correction is not zero on every input
    assert differ > 0


def corrected_Jq(sp: PhaseSpace, translated, order: int, corrected: bool) -> QuantumMomentumMap:
    """Jq_a = p_a + λc_a, with c_a = 0 unless ``corrected``."""
    return QuantumMomentumMap(LieAlgebraData.abelian(len(translated)), [
        LambdaSeries.from_poly(sp.p(a), order) + LambdaSeries.from_poly(
            MultiPoly.const(sp.vars, 1).scale(CORRECTIONS[a - 1] if corrected else gr(0)),
            order, shift=1)
        for a in translated])


def entrywise(T, x: KoszulChain) -> KoszulChain:
    return KoszulChain(x.gdim, x.grade, x.vars, x.order,
                       {key: T(F) for key, F in x.terms.items()})


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
@pytest.mark.parametrize("corrected", (False, True))
def test_T_conjugates_the_quantum_boundary_to_the_classical_one(kind, corrected):
    # T ∂_q = ∂ T on chains of every grade from 1 to gdim
    n, translated, order = 3, (1, 3), 3
    sp = PhaseSpace.of_dim(n)
    C = {ij: gr(re, im) for ij, (re, im) in bench_oracle.kind_matrix(kind, n).items()}
    P = [sp.vars.index(f"p{a}") for a in translated]
    c = [CORRECTIONS[a - 1] if corrected else gr(0) for a in translated]
    ctx = ReductionContext.canonical(sp, translated, getattr(StarProduct, kind)(sp), order,
                                     Jq=corrected_Jq(sp, translated, order, corrected))

    def T(F):
        return conjugating_operator(F, C, P, c)

    polys = sample_polys(181, sp.vars, 3, 4)
    series = [ctx.series(f) + LambdaSeries.from_poly(g, order, shift=1)
              for f, g in zip(polys, polys[1:])]
    for k in range(1, ctx.gdim + 1):
        keys = list(combinations(range(1, ctx.gdim + 1), k))
        for i in range(len(series)):
            x = KoszulChain(ctx.gdim, k, sp.vars, order,
                            {key: series[(i + j) % len(series)] for j, key in enumerate(keys)})
            lhs = entrywise(T, quantum_koszul_boundary(x, ctx))
            assert lhs == koszul_boundary(entrywise(T, x), ctx)
            assert not lhs.is_zero()


def T_contexts(kind: str, corrected: bool):
    """Contexts whose quantum restriction goes through T: canonical ones on
    T*R^3 and T*R^4, the first stage of two splits, and a magnetic one."""
    order = 4
    for n, translated, first in ((3, (1, 2), (1,)), (4, (1, 2, 4), (1, 3))):
        sp = PhaseSpace.of_dim(n)
        ctx = ReductionContext.canonical(sp, translated, getattr(StarProduct, kind)(sp), order,
                                         Jq=corrected_Jq(sp, translated, order, corrected))
        yield ctx
        yield StagePipeline(ctx, StageConfig(ctx.action.lie, first)).ctx1
    yield build_shifted_context(ctx, {1: (3, Fraction(1, 2))}, {2: Fraction(-2)})


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
@pytest.mark.parametrize("corrected", (False, True))
def test_quantum_restriction_through_T_equals_the_series(kind, corrected):
    differ = 0
    for ctx in T_contexts(kind, corrected):
        assert ctx.conjugation is not None
        polys = [ctx.straighten(f) for f in sample_polys(191, ctx.space.vars, 4, 5)]
        # a factor J_1² keeps p_a in every coefficient of λ
        J1 = ctx.J.components[0]
        for f, g in zip(polys, polys[1:]):
            F = ctx.series(f * J1 * J1 + g) + LambdaSeries.from_poly(
                g * J1 + f, ctx.order, shift=1)
            got = quantum_restriction(F, ctx)
            assert got == series_restriction(F, ctx)
            differ += got != restriction(F, ctx)
    # std has no C^{i p_a}, so without corrections T is the identity
    assert (differ > 0) == (kind != "std" or corrected)


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
@pytest.mark.parametrize("corrected", (False, True))
def test_T_on_unrestricted_series_equals_the_oracle(kind, corrected):
    # T f itself, before any restriction: the corrections of reduced
    # products keep their p_a terms until the result moves down
    differ = 0
    for ctx in T_contexts(kind, corrected):
        vs = ctx.space.vars
        C = {ij: gr(Fraction(r, d), Fraction(m, d)) for ij, (r, m, d) in ctx.star.matrix.items()}
        P = [vs.index(f"p{a}") for a in ctx.action.translated]
        # c_a is the λ^1 constant of Jq_a
        c = [Ja.coeff(1).terms.get((0,) * len(vs), gr(0)) for Ja in ctx.Jq.components]
        assert any(not is_zero(ca) for ca in c) == corrected
        polys = [ctx.straighten(f) for f in sample_polys(229, vs, 3, 4)]
        J1 = ctx.J.components[0]
        for f, g in zip(polys, polys[1:]):
            F = ctx.series(f * J1 * J1 + g) + LambdaSeries.from_poly(g * J1, ctx.order, shift=1)
            got = conjugate(F, ctx)
            assert got == conjugating_operator(F, C, P, c)
            differ += got != F
    # std has no C^{i p_a}, so without corrections T is the identity
    assert (differ > 0) == (kind != "std" or corrected)


@pytest.mark.parametrize("corrected", (False, True))
def test_T_reads_a_matrix_of_no_kind(corrected):
    # C is symmetric on P × P but is none of the three kinds: Weyl's q/p
    # entries, C^{p_1 p_2} = C^{p_2 p_1}, a complex C^{p_1 p_1}, C^{i p_a}
    # from a q and from an untranslated p, and C^{p_1 q_3}, which X ignores
    sp, translated = PhaseSpace.of_dim(3), (1, 2)
    q3, p1, p2, p3 = (sp.vars.index(v) for v in ("q3", "p1", "p2", "p3"))
    C = {ij: gr(re, im) for ij, (re, im) in bench_oracle.kind_matrix("weyl", 3).items()}
    C.update({(p1, p2): gr(Fraction(2, 3)), (p2, p1): gr(Fraction(2, 3)),
              (p1, p1): gr(Fraction(1, 5), Fraction(1, 7)), (q3, p1): gr(Fraction(-3, 4)),
              (p3, p2): gr(0, Fraction(1, 3)), (p1, q3): gr(Fraction(5, 6))})
    ctx = ReductionContext.canonical(sp, translated, StarProduct.constant(sp, C), L,
                                     Jq=corrected_Jq(sp, translated, L, corrected))
    assert ctx.conjugation is not None
    c = [CORRECTIONS[a - 1] if corrected else gr(0) for a in translated]
    J1, J2 = ctx.J.components
    polys = sample_polys(223, sp.vars, 3, 4)
    for f, g in zip(polys, polys[1:]):
        # p_1 p_2 and p_1² in every coefficient of λ
        F = ctx.series(f * J1 * J2 + g * J1 * J1) + LambdaSeries.from_poly(
            g * J1 * J2 + f, L, shift=1)
        got = quantum_restriction(F, ctx)
        assert got == series_restriction(F, ctx)
        assert conjugate(F, ctx) == conjugating_operator(F, C, [p1, p2], c)
        assert got == restriction(conjugating_operator(F, C, [p1, p2], c), ctx)
        assert got != restriction(F, ctx)


def test_T_drops_the_terms_past_the_order():
    # X lowers the degree by 2 and raises the power of λ by 1, so on a λ^r
    # term of degree 2(L - r) + 2 the last power of X lands past λ^L
    sp = PhaseSpace.of_dim(2)
    qp = sp.q(1) * sp.p(1)
    for kind in ("weyl", "wick"):
        for order in (1, 2, 3):
            ctx = ReductionContext.canonical(sp, (1,), getattr(StarProduct, kind)(sp), order)
            F = LambdaSeries.from_poly(qp * qp, order, shift=order - 1) + \
                LambdaSeries.from_poly(qp, order, shift=order)
            assert quantum_restriction(F, ctx) == series_restriction(F, ctx)


def test_contexts_without_T_take_the_series(monkeypatch):
    routes = {"T": [], "series": []}
    for name, attr in (("T", "conjugate"), ("series", "series_correction")):
        monkeypatch.setattr(koszul, attr, lambda f, ctx, route=getattr(koszul, attr),
                            seen=routes[name]: seen.append(ctx) or route(f, ctx))
    sp = PhaseSpace.of_dim(3)
    base = ReductionContext.canonical(sp, (1, 2), StarProduct.weyl(sp), L)
    # the second stage's product is a reduced product, without a matrix
    pipe = StagePipeline(base, StageConfig(base.action.lie, (1,)))
    # Jq_1 - p_1 = λ·q_2 is not a constant
    Jq = QuantumMomentumMap(LieAlgebraData.abelian(1), [
        LambdaSeries.from_poly(sp.p(1), L) + LambdaSeries.from_poly(sp.q(2), L, shift=1)])
    lifted = ReductionContext.canonical(sp, (1,), StarProduct.weyl(sp), L, Jq=Jq)
    # Weyl's matrix with C^{p_1 p_2} = 1 ≠ C^{p_2 p_1}
    C = {ij: gr(re, im) for ij, (re, im) in bench_oracle.kind_matrix("weyl", 3).items()}
    skew = StarProduct.constant(sp, {**C, (3, 4): gr(1)})
    unsymmetric = ReductionContext.canonical(sp, (1, 2), skew, L)
    assert pipe.ctx2.star.matrix is None
    assert base.conjugation is not None and pipe.ctx1.conjugation is not None
    for ctx in (pipe.ctx2, lifted, unsymmetric):
        assert ctx.conjugation is None
        a = ctx.action.translated[0]
        qp = ctx.space.q(a) * ctx.space.p(a)
        F = ctx.series(qp * (qp + sample_polys(197, ctx.space.vars, 3, 1)[0]))
        got = quantum_restriction(F, ctx)
        assert ctx in routes["series"] and ctx not in routes["T"]
        assert got == series_restriction(F, ctx)
        assert got != restriction(F, ctx)
    # the second stage's product restricts through the first stage's T
    assert pipe.ctx1 in routes["T"]


def series_homotopy_contexts(kind: str):
    """Two contexts without T, whose quantum homotopy takes the series: the
    second stage of T*R^3 split (1) | (2), whose product is a reduced one,
    and Jq_1 = p_1 + λq_2, whose λ-term is not a constant."""
    sp = PhaseSpace.of_dim(3)
    star = getattr(StarProduct, kind)(sp)
    base = ReductionContext.canonical(sp, (1, 2), star, L)
    yield StagePipeline(base, StageConfig(base.action.lie, (1,))).ctx2
    Jq = QuantumMomentumMap(LieAlgebraData.abelian(1), [
        LambdaSeries.from_poly(sp.p(1), L) + LambdaSeries.from_poly(sp.q(2), L, shift=1)])
    yield ReductionContext.canonical(sp, (1,), star, L, Jq=Jq)


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
def test_the_series_quantum_homotopy_equals_the_oracle(kind):
    # no run reaches this branch: only a stage-2 context lacks T, and no
    # complex suite runs on one
    differ = 0
    for ctx in series_homotopy_contexts(kind):
        assert ctx.conjugation is None
        chains = list(T_chains(ctx))
        assert {x.grade for x in chains} == set(range(ctx.gdim + 1))
        for x in chains:
            got = quantum_homotopy(x, ctx)
            assert got == oracle_quantum_homotopy(x, ctx)
            differ += got != classical_homotopy(x, ctx)
    # the correction is not zero on every chain
    assert differ > 0


def test_both_routes_reject_a_series_of_another_order():
    sp = PhaseSpace.of_dim(3)
    base = ReductionContext.canonical(sp, (1, 2), StarProduct.weyl(sp), L)
    ctx2 = StagePipeline(base, StageConfig(base.action.lie, (1,))).ctx2
    for ctx in (base, ctx2):
        for f in (ctx.space.q(2), ctx.space.q(2) * ctx.space.p(2)):
            for route in (quantum_restriction, series_restriction):
                with pytest.raises(AlgebraError):
                    route(ctx.space.series(f, L - 1), ctx)


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
def test_corrections_return_a_series_without_constrained_p(kind):
    # h, every entry of T's Y, and every r_a act through the constrained p_a
    # alone, so a series without them comes back as it is; one with p_a but
    # no q_a is still corrected, by Y's first-order entries alone where its
    # second-order ones need a q_a
    sp = PhaseSpace.of_dim(3)
    base = ReductionContext.canonical(sp, (1, 2), getattr(StarProduct, kind)(sp), L,
                                      Jq=corrected_Jq(sp, (1, 2), L, True))
    contexts = [*T_contexts(kind, True),
                StagePipeline(base, StageConfig(base.action.lie, (1,))).ctx2]
    for ctx in contexts:
        a = ctx.action.translated[0]
        one, zero = (MultiPoly.const(ctx.space.vars, c) for c in (1, 0))
        qa, pa = (MultiPoly.variable(ctx.space.vars, f"{x}{a}") for x in "qp")
        f, g = (ctx.straighten(h).zero_outside(ctx.cvars).with_vars(ctx.space.vars) + one
                for h in sample_polys(239, ctx.space.vars, 3, 2))
        free = ctx.series(f * qa)
        assert free.uses(f"q{a}")
        assert koszul.series_correction(free, ctx) is free
        g = g.substitute({f"q{a}": zero})
        F = ctx.series(g * pa + g * pa * pa)
        assert not F.uses(f"q{a}")
        got = series_restriction(F, ctx)
        assert got != restriction(F, ctx)
        if ctx.conjugation is not None:
            assert conjugate(free, ctx) is free and conjugate(free, ctx, -1) is free
            assert got == restriction(conjugate(F, ctx), ctx)


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
def test_corrections_on_a_sub_list_of_the_variables(kind):
    # a series is corrected only over all the context's variables: on a
    # sub-list every correction raises, whether the series uses a p_a or
    # not, and the same series over the context's variables is fixed by its
    # terms alone
    sp = PhaseSpace.of_dim(3)
    base = ReductionContext.canonical(sp, (1, 2), getattr(StarProduct, kind)(sp), L,
                                      Jq=corrected_Jq(sp, (1, 2), L, True))
    contexts = [*T_contexts(kind, True),
                StagePipeline(base, StageConfig(base.action.lie, (1,))).ctx2]
    for ctx in contexts:
        pa = f"p{ctx.action.translated[0]}"
        without = ctx.cvars[1:]
        f, g = sample_polys(241, without, 3, 2)
        F = LambdaSeries.from_poly(f, ctx.order) + LambdaSeries.from_poly(g, ctx.order, shift=1)
        corrections = [koszul.fixed_by_corrections, koszul.series_correction,
                       koszul.quantum_correction]
        if ctx.conjugation is not None:
            corrections += [conjugate, lambda F, ctx: conjugate(F, ctx, -1)]
        on_p = tuple(v for v in ctx.space.vars if v in without or v == pa)
        P = MultiPoly.variable(on_p, pa)
        G = F.with_vars(on_p) * LambdaSeries.from_poly(P * P + P, ctx.order)
        for sub in (F, F.with_vars(on_p), G):
            for correct in corrections:
                with pytest.raises(VariableMismatchError, match="does not match the context's"):
                    correct(sub, ctx)
        whole = F.with_vars(ctx.space.vars)
        assert koszul.fixed_by_corrections(whole, ctx)
        assert all(correct(whole, ctx) is whole for correct in corrections[1:])
        assert not koszul.fixed_by_corrections(G.with_vars(ctx.space.vars), ctx)


@pytest.mark.parametrize("vars, order, error", (
    pytest.param(("q2", "q1"), L, VariableMismatchError, id="reordered"),
    pytest.param(("q1", "x"), L, VariableMismatchError, id="foreign-name"),
    pytest.param(("q1", "q3"), L, VariableMismatchError, id="sub-list"),
    pytest.param(("q1", "q2", "q3", "p1", "p2", "p3", "x"), L, VariableMismatchError,
                 id="superset"),
    pytest.param(("q1", "p3"), L - 1, OrderMismatchError, id="sub-list-at-another-order"),
    pytest.param(("q1", "q2", "q3", "p1", "p2", "p3"), L + 1, OrderMismatchError,
                 id="another-order"),
))
def test_corrections_reject_other_lists_and_orders(vars, order, error):
    ctx = s1_context()
    F = LambdaSeries.from_poly(MultiPoly.variable(vars, "q1"), order)
    for correct in (koszul.fixed_by_corrections, koszul.series_correction,
                    koszul.quantum_correction):
        # both errors are AlgebraErrors, which the CLI reports as internal
        with pytest.raises(error, match="does not match the context's") as raised:
            correct(F, ctx)
        assert isinstance(raised.value, AlgebraError)


def test_series_skips_the_boundaries_on_inputs_without_p(monkeypatch):
    # h y = 0 gives A y = 0 with no boundary taken; the second stage keeps
    # the series, and a reduced product's inputs carry no p_a
    sp = PhaseSpace.of_dim(3)
    base = ReductionContext.canonical(sp, (1, 2), StarProduct.weyl(sp), L)
    ctx2 = StagePipeline(base, StageConfig(base.action.lie, (1,))).ctx2
    calls = []
    boundary = koszul.quantum_koszul_boundary
    monkeypatch.setattr(koszul, "quantum_koszul_boundary",
                        lambda x, ctx: calls.append(x) or boundary(x, ctx))
    f, g = sample_polys(199, ctx2.space.vars, 3, 2)
    q2, q3, p3 = (MultiPoly.variable(ctx2.space.vars, v) for v in ("q2", "q3", "p3"))
    F = ctx2.series(f.zero_outside(ctx2.cvars).with_vars(ctx2.space.vars) + q2 * q3 * p3)
    assert F.uses("q2") and not F.uses("p2")
    assert quantum_restriction(F, ctx2) == restriction(F, ctx2)
    assert calls == []
    # an input with p_2 takes the boundaries
    qp = ctx2.space.q(2) * ctx2.space.p(2)
    G = ctx2.series(qp * (qp + g))
    assert quantum_restriction(G, ctx2) != restriction(G, ctx2)
    assert calls


def test_a_flipped_sign_of_the_first_order_part_of_Y_is_seen_against_the_series(
        monkeypatch):
    # every builtin has c = 0, so no report reads Y's first-order entries;
    # this test does
    conjugation = koszul._conjugation

    def flipped(*args):
        Y = conjugation(*args)
        return ConstantOperator(Y.vars, [(i, j, (-c[0], -c[1], c[2])) if i is None else (i, j, c)
                                         for i, j, c in Y.entries])

    monkeypatch.setattr(koszul, "_conjugation", flipped)
    ctx = next(T_contexts("weyl", True))
    assert any(i is None for i, *_ in ctx.conjugation.entries)
    F = ctx.series(sample_polys(211, ctx.space.vars, 3, 1)[0] * ctx.J.components[0])
    assert quantum_restriction(F, ctx) != series_restriction(F, ctx)


@pytest.mark.parametrize("corrected", (False, True))
def test_T_never_substitutes_nor_truncates(monkeypatch, corrected):
    # T and T⁻¹ are exp(±λY), one pass per power of λ, whatever the c_a
    calls = []
    for cls, name in ((MultiPoly, "substitute"), (LambdaSeries, "truncate")):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name,
                            lambda *args, method=method: calls.append(method) or method(*args))
    for ctx in T_contexts("wick", corrected):
        assert any(i is None for i, *_ in ctx.conjugation.entries) == corrected
        F = ctx.series(sample_polys(227, ctx.space.vars, 3, 1)[0] * ctx.J.components[0])
        want = series_restriction(F, ctx)
        calls.clear()
        got = conjugate(F, ctx)
        assert conjugate(got, ctx, -1) == F
        assert calls == []
        assert restriction(got, ctx) == want != restriction(F, ctx)


# ---------------------------------------------------------------------------
# the quantum homotopy as T⁻¹hT against the series h (id - A)⁻¹
# ---------------------------------------------------------------------------

def T_chains(ctx: ReductionContext):
    """Chains of every grade from 0 to gdim, each entry a straightened
    sample times J_1² plus λ times the next, so that p_a occurs at λ^0."""
    J1 = ctx.J.components[0]
    polys = [ctx.straighten(f) for f in sample_polys(233, ctx.space.vars, 3, 4)]
    series = [ctx.series(f * J1 * J1) + LambdaSeries.from_poly(g * J1 + f, ctx.order, shift=1)
              for f, g in zip(polys, polys[1:])]
    for k in range(ctx.gdim + 1):
        keys = list(combinations(range(1, ctx.gdim + 1), k))
        for i in range(len(series)):
            yield KoszulChain(ctx.gdim, k, ctx.space.vars, ctx.order,
                              {key: series[(i + j) % len(series)] for j, key in enumerate(keys)})


def homotopy_against_the_series(kind: str, corrected: bool):
    """Over ``T_contexts``: the chains on which h_q differs from the
    classical homotopy of the corrected chain, and those on which h_q ≠ h."""
    mismatched = differ = 0
    for ctx in T_contexts(kind, corrected):
        assert ctx.conjugation is not None
        for x in T_chains(ctx):
            got = quantum_homotopy(x, ctx)
            mismatched += got != classical_homotopy(koszul._corrected(x, ctx), ctx)
            differ += got != classical_homotopy(x, ctx)
    return mismatched, differ


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
@pytest.mark.parametrize("corrected", (False, True))
def test_quantum_homotopy_through_T_equals_the_series(kind, corrected):
    mismatched, differ = homotopy_against_the_series(kind, corrected)
    assert mismatched == 0
    # std has no C^{i p_a}, so without corrections X = 0 and T = id
    assert (differ > 0) == (kind != "std" or corrected)


@pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
@pytest.mark.parametrize("corrected", (False, True))
def test_T_inverse_undoes_T_on_unrestricted_series(kind, corrected):
    for ctx in T_contexts(kind, corrected):
        for x in T_chains(ctx):
            for F in x.terms.values():
                assert conjugate(conjugate(F, ctx), ctx, -1) == F
                assert conjugate(conjugate(F, ctx, -1), ctx) == F


def test_unflipped_sign_of_X_in_T_inverse_fails_the_quantum_homotopy(monkeypatch):
    # T⁻¹ taken as T; with c = 0, as in every builtin, Y is X
    exp = ConstantOperator.exp
    monkeypatch.setattr(ConstantOperator, "exp", lambda Y, f, sign: exp(Y, f, 1))
    assert homotopy_against_the_series("weyl", False)[0] > 0
    for name in ("s1-translation", "s1p-single", "s2-magnetic"):
        failing = [c["name"] for c in run_scenario(builtin_config(name))["checks"]
                   if c["status"] == "fail"]
        assert "complex.quantum_homotopy_identity_grade_1" in failing

