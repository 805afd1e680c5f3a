"""Phase spaces, Poisson bracket and the three explicit star products.

The Weyl product is cross-checked against an independently coded one
dimensional Moyal expansion; the product constants come out of the matrix
conventions fixed in the phase_space module and are asserted as frozen
oracles here.  Every kind is also held to the benchmark's reference
evaluator, written apart from qkoszul, and every product's bracket to the
canonical one.
"""

import gc
import itertools
import math
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkoszul import cli, exact, phase_space
from qkoszul.exact import (
    AlgebraError,
    ContractViolationError,
    ExponentOverflowError,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    TermLimitError,
    VariableMismatchError,
)
from qkoszul.phase_space import PhaseSpace, StarProduct, check_star_axioms
from qkoszul.sampling import sample_pairs, sample_polys
from reference_poly import (SKEW, ZERO, RefPoly, RefSeries, add, is_zero, matrix_bracket, mul,
                            oracle, pair, product_of, rank_one_terms, series_product, triple)

KINDS = ("weyl", "wick", "std")


def canonical_bracket(f: MultiPoly, g: MultiPoly, sp: PhaseSpace) -> MultiPoly:
    """Oracle: Σ_i ∂f/∂q_i ∂g/∂p_i - ∂f/∂p_i ∂g/∂q_i, coded by hand."""
    out = MultiPoly.zero(sp.vars)
    for qv, pv in zip(sp.qvars, sp.pvars):
        out = out + f.diff(qv) * g.diff(pv) - f.diff(pv) * g.diff(qv)
    return out


def moyal_1d(f: MultiPoly, g: MultiPoly, order: int) -> LambdaSeries:
    """Independent oracle: the one dimensional Moyal expansion
    sum_r (1/r!)(i/2)^r sum_k binom(r,k)(-1)^k (d_q^{r-k} d_p^k f)(d_p^{r-k} d_q^k g) λ^r
    written with explicit binomials instead of the pair-list engine."""
    vars = f.vars
    out = LambdaSeries.zero(vars, order)

    def d(h, v, k):
        for _ in range(k):
            h = h.diff(v)
        return h

    for r in range(order + 1):
        total = MultiPoly.zero(vars)
        for k in range(r + 1):
            a = d(d(f, "q1", r - k), "p1", k)
            b = d(d(g, "p1", r - k), "q1", k)
            sign = -1 if k % 2 else 1
            total = total + (a * b).scale(Fraction(sign * math.comb(r, k)))
        for _ in range(r):
            total = total.scale((0, 1, 2))
        total = total.scale(Fraction(1, math.factorial(r)))
        out = out + LambdaSeries.from_poly(total, order, shift=r)
    return out


class TestPhaseSpace:
    def test_vars_layout(self):
        sp = PhaseSpace.of_dim(2)
        assert sp.vars == ("q1", "q2", "p1", "p2")

    def test_labels_survive(self):
        sp = PhaseSpace([2, 5])
        assert sp.vars == ("q2", "q5", "p2", "p5")

    @pytest.mark.parametrize("vars", [("q1", "p1"), ("q1", "q2", "p1", "p2", "x"),
                                      ("q2", "q1", "p1", "p2")])
    def test_series_takes_only_polynomials_over_the_space(self, vars):
        # a subset, a superset and a reorder of the variables: none is
        # re-keyed onto the space
        sp = PhaseSpace.of_dim(2)
        assert sp.series(sp.q(1), 2) == LambdaSeries.from_poly(sp.q(1), 2)
        with pytest.raises(VariableMismatchError):
            sp.series(MultiPoly.variable(vars, "q1"), 2)


class TestPoissonBracket:
    """The bracket every product deforms is the canonical one."""

    def test_canonical_pairs(self):
        sp = PhaseSpace.of_dim(2)
        one = MultiPoly.const(sp.vars, 1)
        for kind in KINDS:
            bracket = getattr(StarProduct, kind)(sp).bracket_poly
            assert bracket(sp.q(1), sp.p(1)) == one
            assert bracket(sp.q(1), sp.p(2)).is_zero()
            assert bracket(sp.q(1), sp.q(2)).is_zero()

    def test_jacobi_on_samples(self):
        sp = PhaseSpace.of_dim(2)
        samples = sample_polys(7, sp.vars, 3, 9)
        for kind in KINDS:
            bracket = getattr(StarProduct, kind)(sp).bracket_poly
            for f, g, h in zip(samples, samples[1:], samples[2:]):
                jac = bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) \
                    + bracket(h, bracket(f, g))
                assert jac.is_zero()


class TestWeyl:
    def test_qp_constant(self):
        sp = PhaseSpace.of_dim(1)
        star = StarProduct.weyl(sp)
        res = star.eval_poly(sp.q(1), sp.p(1), 2)
        assert res.coeff(0) == sp.q(1) * sp.p(1)
        assert res.coeff(1) == MultiPoly.const(sp.vars, (0, 1, 2))
        assert res.coeff(2).is_zero()

    def test_canonical_commutator(self):
        sp = PhaseSpace.of_dim(2)
        star = StarProduct.weyl(sp)
        L = 3

        def commutator(f, g):
            f, g = sp.series(f, L), sp.series(g, L)
            return star.eval(f, g) - star.eval(g, f)

        assert commutator(sp.q(1), sp.p(1)) == LambdaSeries.from_poly(
            MultiPoly.const(sp.vars, (0, 1, 1)), L, shift=1)
        assert commutator(sp.q(1), sp.p(2)).is_zero()

    def test_against_independent_moyal(self):
        sp = PhaseSpace.of_dim(1)
        star = StarProduct.weyl(sp)
        samples = sample_polys(11, sp.vars, 4, 8)
        for i in range(len(samples) - 1):
            f, g = samples[i], samples[i + 1]
            assert star.eval_poly(f, g, 5) == moyal_1d(f, g, 5)

    def test_axiom_suite_passes(self):
        sp = PhaseSpace.of_dim(2)
        star = StarProduct.weyl(sp)
        checks = check_star_axioms(star, sample_polys(3, sp.vars, 3, 8), 4)
        assert all(c["status"] == "pass" for c in checks)


class TestWick:
    def test_z_zbar_constant(self):
        sp = PhaseSpace.of_dim(1)
        star = StarProduct.wick(sp)
        z = sp.q(1) + sp.p(1).scale((0, 1, 1))
        zbar = sp.q(1) - sp.p(1).scale((0, 1, 1))
        res = star.eval_poly(z, zbar, 2)
        assert res.coeff(0) == z * zbar
        assert res.coeff(1) == MultiPoly.const(sp.vars, 2)
        assert res.coeff(2).is_zero()
        # opposite order has no correction
        assert star.eval_poly(zbar, z, 2).coeff(1).is_zero()

    def test_axiom_suite_passes(self):
        sp = PhaseSpace.of_dim(2)
        star = StarProduct.wick(sp)
        checks = check_star_axioms(star, sample_polys(5, sp.vars, 3, 8), 4)
        assert all(c["status"] == "pass" for c in checks)


class TestStdOrdered:
    def test_pq_constant(self):
        sp = PhaseSpace.of_dim(1)
        star = StarProduct.std(sp)
        res = star.eval_poly(sp.p(1), sp.q(1), 2)
        assert res.coeff(1) == MultiPoly.const(sp.vars, (0, -1, 1))
        assert star.eval_poly(sp.q(1), sp.p(1), 2).coeff(1).is_zero()

    def test_not_hermitian_with_witness(self):
        sp = PhaseSpace.of_dim(1)
        star = StarProduct.std(sp)
        checks = check_star_axioms(star, sample_polys(5, sp.vars, 3, 8), 4)
        by_name = {c["name"]: c for c in checks}
        # the checker reads the expected failure off the matrix
        assert "hermitian" not in by_name
        assert by_name["hermitian_fails_as_expected"]["status"] == "pass"
        assert "conj_product" in by_name["hermitian_fails_as_expected"]["witness"]
        # the product axioms themselves hold
        for name in ("associativity", "order0_pointwise",
                     "order1_commutator_bracket", "unit"):
            assert by_name[name]["status"] == "pass"


def test_a_product_without_its_unit_fails_unit_at_the_first_sample(monkeypatch):
    # a walk that adds λ·f·g has 1 ⋆ f = f + λf: the unit check fails on the
    # first sample, and its witness is that sample alone
    walk = phase_space.star_exponential
    monkeypatch.setattr(phase_space, "star_exponential", lambda fields, f, g: walk(
        fields, f, g) + LambdaSeries.from_poly((f * g).coeff(0), f.order, shift=1))
    sp = PhaseSpace.of_dim(1)
    by_name = {c["name"]: c for c in check_star_axioms(
        StarProduct.weyl(sp), sample_polys(5, sp.vars, 3, 4), 2)}
    assert by_name["unit"] == {"name": "unit", "status": "fail", "witness": {
        "f": "(1/2)+(0/1)i*q1*p1 + (5/2)+(0/1)i*q1 + (-4/1)+(0/1)i"}}
    assert by_name["order0_pointwise"]["status"] == "pass"


class TestMatrix:
    def test_hermitian_read_off_the_matrix(self):
        sp = PhaseSpace.of_dim(2)
        assert [getattr(StarProduct, k)(sp).hermitian for k in KINDS] == \
            [True, True, False]

    @pytest.mark.parametrize("kind", KINDS)
    def test_bracket_is_canonical(self, kind):
        sp = PhaseSpace.of_dim(2)
        star = getattr(StarProduct, kind)(sp)
        for f, g in sample_pairs(223, sp.vars, 3, 6):
            assert star.bracket_poly(f, g) == canonical_bracket(f, g, sp)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bracket_matrix_against_the_pairings(self, kind):
        sp = PhaseSpace.of_dim(3)
        star = getattr(StarProduct, kind)(sp)
        for f, g in sample_pairs(227, sp.vars, 3, 6):
            assert RefPoly.of(star.bracket_poly(f, g)) == \
                matrix_bracket(oracle.kind_matrix(kind, 3), RefPoly.of(f), RefPoly.of(g))


class TestAgainstReference:
    """``eval_poly`` of every kind against ``oracle.ConstantStar`` on dense
    pairs, one product per kind and space, with the orders taken out of
    sequence so no order can lean on one evaluated before it."""

    ORDERS = (4, 0, 6, 2, 5, 1, 3)
    # (n, powers of f's linear forms, powers of g's)
    SHAPES = ((1, (3, 3), (3, 3)), (2, (2, 1), (2,)), (3, (2,), (1, 1)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_eval_poly_equals_reference(self, kind):
        rng = random.Random(f"reference:{kind}")
        for n, pf, pg in self.SHAPES:
            labels = range(1, n + 1)
            vars = oracle.variables(labels)
            star = getattr(StarProduct, kind)(PhaseSpace(labels))
            reference = oracle.ConstantStar(oracle.kind_matrix(kind, n), 2 * n)
            for order in self.ORDERS:
                f = oracle.dense_poly(rng, 2 * n, pf)
                g = oracle.dense_poly(rng, 2 * n, pg)
                got = star.eval_poly(RefPoly(vars, f).poly(), RefPoly(vars, g).poly(), order)
                assert got.render() == oracle.render_series(reference(f, g, order), vars), \
                    (n, order)


def test_skew_product_is_not_hermitian():
    assert not product_of("skew", PhaseSpace.of_dim(2)).hermitian


@pytest.mark.parametrize("kind", KINDS + ("skew",))
def test_series_product_sums_the_polynomial_products(kind):
    # both factors carry λ^0 to λ^3 at L = 4, so every shift r + s is
    # exercised, past L too
    sp = PhaseSpace.of_dim(2)
    star = product_of(kind, sp)
    L = 4
    F = RefSeries(sample_polys(31, sp.vars, 3, 4) + [MultiPoly.zero(sp.vars)])
    G = RefSeries(sample_polys(37, sp.vars, 2, 4) + [MultiPoly.zero(sp.vars)])
    got = star.eval(F.to_series(), G.to_series())
    assert RefSeries.of(got) == series_product(star, F, G)
    # both factors raised by λ: the walk starts past λ^0 and stops earlier
    F, G = F.lambda_shift(1), G.lambda_shift(1)
    assert RefSeries.of(star.eval(F.to_series(), G.to_series())) == series_product(star, F, G)


@st.composite
def filled_series(draw, vars, L):
    """A series with a nonzero sample at every power of λ up to L."""
    seed = draw(st.integers(0, 10_000))
    return RefSeries(sample_polys(seed, vars, draw(st.integers(1, 3)), L + 1))


@pytest.mark.parametrize("L", (0, 1, 4))
@pytest.mark.parametrize("kind", KINDS + ("skew",))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_eval_equals_the_pairwise_sum(kind, L, data):
    sp = PhaseSpace.of_dim(2)
    star = product_of(kind, sp)
    F = data.draw(filled_series(sp.vars, L))
    G = data.draw(filled_series(sp.vars, L))
    got = star.eval(F.to_series(), G.to_series())
    want = series_product(star, F, G)
    assert RefSeries.of(got) == want and got.render() == want.render()


# -- the walk on raised series, each factor the smaller one in turn ----------

# nonzero coefficients: real, imaginary and complex
NONZERO = ((1, 0, 1), (0, -2, 1), (1, 6, 2), (-9, 1, 3), (-2, 0, 3))
MONOMIALS = list(itertools.product(range(3), repeat=4))


def walk_series(seed: int, low: int, powers: int, terms: int, L: int = 4) -> RefSeries:
    """A series over SP2 at order L with ``terms`` terms at each of
    ``powers`` powers of λ from λ^low on."""
    rng = random.Random(seed)
    coeffs = [MultiPoly.zero(SP2.vars)] * (L + 1)
    for r in range(low, low + powers):
        coeffs[r] = MultiPoly(SP2.vars, {e: rng.choice(NONZERO)
                                         for e in rng.sample(MONOMIALS, terms)})
    return RefSeries(coeffs)


def oracle_series_product(star: StarProduct, F: RefSeries, G: RefSeries) -> str:
    """F ⋆ G summed pair by pair through the benchmark's reference
    evaluator, which shares no code with the walk: the product of F's λ^r
    coefficient and G's λ^s one, truncated at λ^(L - r - s), lands at
    λ^(r+s+t).  Rendered as ``LambdaSeries.render``."""
    L = F.order
    C = {ij: pair(c) for ij, c in star.matrix.items()}
    reference = oracle.ConstantStar(C, len(F.vars))
    acc = [{} for _ in range(L + 1)]
    for r, a in enumerate(F.coeffs):
        for s, b in enumerate(G.coeffs[:L - r + 1]):
            layers = reference(RefPoly.of(a).terms, RefPoly.of(b).terms, L - r - s)
            for t, layer in enumerate(layers):
                for e, c in layer.items():
                    acc[r + s + t][e] = add(acc[r + s + t].get(e, ZERO), c)
    return oracle.render_series([{e: c for e, c in layer.items() if any(c)} for layer in acc],
                                F.vars)


# term counts of f and g: the walk takes the smaller factor as its right one
SHAPES = {"f<g": (2, 5), "f=g": (4, 4), "f>g": (5, 2)}


# one power of λ each, where no leaf passes L, and two each, where some do
@pytest.mark.parametrize("powers", (1, 2))
@pytest.mark.parametrize("lows", ((1, 1), (2, 1)))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", KINDS + ("skew",))
def test_walk_on_raised_series_equals_the_reference(kind, shape, lows, powers):
    star = product_of(kind, SP2)
    (nf, ng), (lf, lg) = SHAPES[shape], lows
    F, G = walk_series(1, lf, powers, nf), walk_series(2, lg, powers, ng)
    f, g = F.to_series(), G.to_series()
    assert (len(f.poly.nums), len(g.poly.nums)) == (nf * powers, ng * powers)
    got = star.eval(f, g)
    assert canonical_series(got)
    assert got.render() == oracle_series_product(star, F, G)


@pytest.mark.parametrize("kind", KINDS)
def test_eval_rejects_an_order_mismatch(kind):
    sp = PhaseSpace.of_dim(1)
    star = getattr(StarProduct, kind)(sp)
    with pytest.raises(OrderMismatchError):
        star.eval(sp.series(sp.q(1), 2), sp.series(sp.p(1), 3))


# -- the fused evaluator on arbitrary constant matrices ----------------------

@st.composite
def small_fractions(draw):
    """n/d with d in 1..4 and |n/d| <= 3, from two integer draws, which
    shrink toward 0 as st.fractions does at a fraction of its cost."""
    d = draw(st.integers(1, 4))
    return Fraction(draw(st.integers(-3 * d, 3 * d)), d)


small = small_fractions()
gauss = st.tuples(small, small)
# vector entries, zero often enough that a field misses some variables
entries = st.one_of(st.just(ZERO), gauss)


@st.composite
def constant_matrices(draw, nvars):
    """Σ_k u_k v_kᵀ over up to ``nvars`` pairs of sparse complex vectors:
    entries anywhere, so no block structure, and of rank below ``nvars``
    whenever fewer pairs are drawn or they are dependent.  Its entries are
    triples."""
    C = {}
    for _ in range(draw(st.integers(1, nvars))):
        u = draw(st.lists(entries, min_size=nvars, max_size=nvars))
        v = draw(st.lists(entries, min_size=nvars, max_size=nvars))
        for i in range(nvars):
            for j in range(nvars):
                C[i, j] = add(C.get((i, j), ZERO), mul(u[i], v[j]))
    return {ij: triple(c) for ij, c in C.items() if not is_zero(c)}


@st.composite
def polys_on(draw, vars, support, max_degree=2, max_terms=4):
    """A polynomial over ``vars`` that uses only the variables in ``support``."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_degree)) if v in support else 0 for v in vars)
        terms[e] = triple(draw(gauss))
    return MultiPoly(vars, terms)


def canonical_series(s: LambdaSeries) -> bool:
    """The series polynomial is canonical and has no power past the order."""
    p = s.poly
    parts = [x for v in p.nums.values() for x in v]
    return (p.den > 0 and all(r or i for r, i in p.nums.values())
            and math.gcd(p.den, *parts) == 1 and (p.nums or p.den == 1)
            and all(k >> s._shift() <= s.order for k in p.nums))


SP2 = PhaseSpace.of_dim(2)
# the inputs draw from all variables, or from two disjoint halves, so that
# the steps of fields that miss an input's variables are pruned
SUPPORTS = (SP2.vars, ("q1", "p1"), ("q2", "p2"))


@given(data=st.data(), L=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_eval_poly_on_a_constant_matrix_equals_the_reference(data, L):
    C = data.draw(constant_matrices(4))
    star = StarProduct.constant(SP2, C)
    f = data.draw(polys_on(SP2.vars, data.draw(st.sampled_from(SUPPORTS))))
    g = data.draw(polys_on(SP2.vars, data.draw(st.sampled_from(SUPPORTS))))
    got = star.eval_poly(f, g, L)
    reference = oracle.ConstantStar({ij: pair(c) for ij, c in C.items()}, 4)
    assert canonical_series(got)
    assert got.render() == oracle.render_series(
        reference(RefPoly.of(f).terms, RefPoly.of(g).terms, L), SP2.vars)


@st.composite
def raised_series(draw, vars, L):
    """A series whose lowest power of λ is drawn from 0 to L, with a
    coefficient at each power from it on, some of them zero."""
    low = draw(st.integers(0, L))
    support = draw(st.sampled_from(SUPPORTS))
    return RefSeries([MultiPoly.zero(vars)] * low +
                     [draw(polys_on(vars, support, max_terms=3)) for _ in range(L + 1 - low)])


@given(data=st.data(), L=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_eval_on_a_constant_matrix_equals_the_pairwise_sum(data, L):
    star = StarProduct.constant(SP2, data.draw(constant_matrices(4)))
    F = data.draw(raised_series(SP2.vars, L))
    G = data.draw(raised_series(SP2.vars, L))
    got = star.eval(F.to_series(), G.to_series())
    want = series_product(star, F, G)
    assert canonical_series(got)
    assert RefSeries.of(got) == want and got.render() == want.render()


@pytest.mark.parametrize("kind", KINDS + ("skew",))
def test_eval_of_a_zero_series_is_zero(kind):
    star = product_of(kind, SP2)
    zero = LambdaSeries.zero(SP2.vars, 3)
    f = SP2.series(SP2.q(1) * SP2.p(2), 3)
    for got in (star.eval(zero, f), star.eval(f, zero), star.eval(zero, zero)):
        assert got == zero and got.poly.den == 1


def test_eval_raises_exponent_overflow():
    star = StarProduct.weyl(PhaseSpace.of_dim(1))
    q, p = MultiPoly.variable(star.space.vars, "q1"), MultiPoly.variable(star.space.vars, "p1")
    below = MultiPoly(star.space.vars, {(32766, 0): 1})
    top = below * q   # q^32767, the largest exponent a slot holds
    assert star.eval_poly(top, p, 2).coeff(1) == below.scale((0, 32767, 2))
    with pytest.raises(ExponentOverflowError, match="exceeds 32767"):
        star.eval_poly(top, q, 2)


def test_eval_raises_the_term_limit(monkeypatch):
    star = StarProduct.weyl(PhaseSpace.of_dim(1))
    vars = star.space.vars
    f = MultiPoly.variable(vars, "q1") + MultiPoly.variable(vars, "p1")
    g = f + MultiPoly.const(vars, 1)
    monkeypatch.setattr(exact, "MAX_TERMS", 3)
    assert len(star.eval_poly(f, f, 2).poly.terms) == 3   # (q1 + p1)²: at the limit
    with pytest.raises(TermLimitError, match="5 terms exceeds the limit of 3"):
        star.eval_poly(f, g, 2)


# -- the set-up on integer triples and the one-pass bracket -----------------

@given(C=constant_matrices(4))
@settings(max_examples=40, deadline=None)
def test_rank_one_terms_reproduce_the_matrix(C):
    terms = phase_space._rank_one_terms(C)
    # every coefficient is a triple in lowest terms over a positive denominator
    assert all(d > 0 and math.gcd(r, i, d) == 1 and (r or i)
               for a, b in terms for _, (r, i, d) in a + b)
    as_pairs = [([(k, pair(x)) for k, x in a], [(k, pair(x)) for k, x in b])
                for a, b in terms]
    assert as_pairs == rank_one_terms(C)
    total = {}
    for a, b in as_pairs:
        for i, x in a:
            for j, y in b:
                total[i, j] = add(total.get((i, j), ZERO), mul(x, y))
    assert {ij: triple(c) for ij, c in total.items() if not is_zero(c)} == C


def test_products_keep_their_matrix_as_triples():
    star = StarProduct.constant(PhaseSpace.of_dim(1), {
        (0, 0): Fraction(2, 4), (0, 1): (0, -2, 6), (1, 0): 0})
    assert dict(star.matrix) == {(0, 0): (1, 0, 2), (0, 1): (0, -1, 3)}
    with pytest.raises(TypeError):
        star.matrix[1, 1] = (1, 0, 1)


def test_a_wrong_elimination_step_raises_instead_of_running_on(monkeypatch):
    # x + y·z in place of x - y·z never clears the pivot, so C never empties;
    # a product factors C on a list's first use, here its own variables
    sub_mul = phase_space._sub_mul
    monkeypatch.setattr(phase_space, "_sub_mul",
                        lambda x, y, z=(1, 0, 1): sub_mul(x, (-y[0], -y[1], y[2]), z))
    star = StarProduct.weyl(PhaseSpace.of_dim(2))
    with pytest.raises(ContractViolationError, match="after 4 steps"):
        star.hermitian


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bracket_equals_the_reference_pairing(data):
    # inputs on disjoint halves of the variables make the mask skip entries
    C = data.draw(constant_matrices(4))
    star = StarProduct.constant(SP2, C)
    f = data.draw(polys_on(SP2.vars, data.draw(st.sampled_from(SUPPORTS)), max_degree=3))
    g = data.draw(polys_on(SP2.vars, data.draw(st.sampled_from(SUPPORTS)), max_degree=3))
    got = star.bracket_poly(f, g)
    assert canonical_series(LambdaSeries.from_poly(got, 0))
    assert RefPoly.of(got) == matrix_bracket(C, RefPoly.of(f), RefPoly.of(g))


def test_bracket_prunes_entries_and_takes_each_derivative_once(monkeypatch):
    f, g = SP2.q(1) * SP2.p(1), SP2.q(2) * SP2.p(2)
    h = f * g + SP2.q(1) + SP2.p(2)
    H = RefPoly.of(h)
    want_hf = matrix_bracket(SKEW, H, RefPoly.of(f))
    want_hh = matrix_bracket(SKEW, H, H.scale(2))
    taken = []
    derive = exact._derive

    def counted(nums, steps):
        (s, *_), = steps   # the bracket derives along one variable at a time
        taken.append((id(nums), s))
        return derive(nums, steps)
    monkeypatch.setattr(exact, "_derive", counted)
    # f and g on disjoint pairs: every entry of the Weyl matrix is skipped
    assert StarProduct.weyl(SP2).bracket_poly(f, g).is_zero() and taken == []
    # SKEW's bracket matrix has entries (q1,p1), (p1,q1), (q2,p2), (p2,q2),
    # (p1,p2) and (p2,p1); h uses every variable and f only q1 and p1, so
    # (q1,p1), (p1,q1) and (p2,p1) are kept and ∂_{p1} f serves two of them:
    # three derivatives of h and two of f, each taken once
    star = product_of("skew", SP2)
    assert RefPoly.of(star.bracket_poly(h, f)) == want_hf
    assert len(taken) == len(set(taken)) == 5
    # with both inputs on every variable, rows p1, p2 and columns p1, p2 repeat
    taken.clear()
    assert RefPoly.of(star.bracket_poly(h, h.scale(2))) == want_hh
    assert len(taken) == len(set(taken)) == 8


def test_bracket_rejects_operands_over_other_variables():
    star = StarProduct.weyl(SP2)
    f = SP2.q(1)
    with pytest.raises(VariableMismatchError):
        star.bracket_poly(f.with_vars(SP2.vars + ("x",)), f.with_vars(SP2.vars + ("x",)))
    with pytest.raises(VariableMismatchError):
        star.bracket_poly(f, f.with_vars(SP2.vars + ("x",)))


def test_bracket_raises_exponent_overflow():
    star = StarProduct.weyl(PhaseSpace.of_dim(1))
    q, p = MultiPoly.variable(star.space.vars, "q1"), MultiPoly.variable(star.space.vars, "p1")
    below = MultiPoly(star.space.vars, {(32766, 0): 1})
    top = below * q   # q^32767, the largest exponent a slot holds
    assert star.bracket_poly(top, p * p) == (below * p).scale(2 * 32767)
    with pytest.raises(ExponentOverflowError, match="exceeds 32767"):
        star.bracket_poly(top * p, q * q * p)


def test_axioms_reject_a_sample_over_other_variables():
    # a sample over a subset of the product's variables is not re-keyed
    # onto them: the product raises
    samples = sample_polys(7, SP2.vars, 2, 4)
    samples[2] = MultiPoly.variable(("q1", "p1"), "q1")
    with pytest.raises(VariableMismatchError):
        check_star_axioms(StarProduct.weyl(SP2), samples, 2)


@pytest.mark.parametrize("ij", [(-1, 0), (0, -1), (2, 0), (1, 7)])
def test_constant_rejects_an_index_outside_the_variables(ij):
    # T*R has the 2 variables q1, p1
    with pytest.raises(AlgebraError, match=r"matrix entry .* lies outside the 2 variables"):
        StarProduct.constant(PhaseSpace.of_dim(1), {(0, 1): (0, 1, 1), ij: 1})


# -- the last product, kept by each product ---------------------------------

def counted_walks(monkeypatch) -> list:
    """The star walks of every product built after this call, one entry
    (f, g) each."""
    walks = []
    walk = phase_space.star_exponential

    def counted(fields, f, g):
        walks.append((f, g))
        return walk(fields, f, g)
    monkeypatch.setattr(phase_space, "star_exponential", counted)
    return walks


def rebuilt(s: LambdaSeries) -> LambdaSeries:
    """An equal series that shares no object with ``s``."""
    return LambdaSeries(MultiPoly(s.poly.vars, s.poly.terms), s.order)


@pytest.mark.parametrize("kind", KINDS + ("skew",))
def test_equal_inputs_walk_once(kind, monkeypatch):
    walks = counted_walks(monkeypatch)
    star = product_of(kind, SP2)
    f, g = (SP2.series(x, 3) for x in sample_polys(53, SP2.vars, 3, 2))
    f2, g2 = rebuilt(f), rebuilt(g)
    assert (f2, g2) == (f, g) and f2.poly.nums is not f.poly.nums
    first = star.eval(f, g)
    assert star.eval(f2, g2) is first and len(walks) == 1
    assert first == product_of(kind, SP2).eval(f2, g2)


@pytest.mark.parametrize("kind", KINDS)
def test_other_inputs_walk_again(kind, monkeypatch):
    walks = counted_walks(monkeypatch)
    star = product_of(kind, SP2)
    f, g, h = sample_polys(59, SP2.vars, 2, 3)
    # another g, another order, and f/2: the numerators of f over twice its
    # denominator
    half = f.scale(Fraction(1, 2))
    assert half.nums == f.nums
    calls = [(f, g, 3), (f, h, 3), (f, h, 2), (half, h, 2), (f, g, 3), (g, f, 3), (g, f, 3)]
    got = [star.eval_poly(a, b, L) for a, b, L in calls]
    # one entry: the pair of the first call is walked again after others
    assert [(a.poly, b.poly, a.order) for a, b in walks] == \
        [(LambdaSeries.from_poly(a, L).poly, LambdaSeries.from_poly(b, L).poly, L)
         for a, b, L in calls[:6]]
    assert got[0] == got[4] and got[5] is got[6]


@pytest.mark.parametrize("kind", KINDS + ("skew",))
def test_a_product_keeps_no_result_alive(kind, monkeypatch):
    walks = counted_walks(monkeypatch)
    star = product_of(kind, SP2)
    f, g = (SP2.series(x, 3) for x in sample_polys(61, SP2.vars, 3, 2))
    first = star.eval(f, g)
    expected, dead = rebuilt(first), weakref.ref(first)
    del first
    gc.collect()
    assert dead() is None
    # the entry still holds the inputs, but no series to return for them
    again = star.eval(f, g)
    assert again == expected and len(walks) == 2
    assert star.eval(f, g) is again and len(walks) == 2


# the star walks of one run of each builtin at its default seed: the hits
# of the one-entry memo are the pairs a caller evaluates again while it
# still holds the first result, and the quantum boundary walks only on a
# second-stage context, whose product has no matrix
BUILTIN_WALKS = {"axioms-std": 58, "axioms-weyl": 58, "axioms-wick": 58, "ce-heisenberg": 4,
                 "s1-translation": 118, "s1p-single": 86, "s2-magnetic": 86}


@pytest.mark.parametrize("name", sorted(BUILTIN_WALKS))
def test_each_builtin_walks_as_often_as_pinned(name, monkeypatch):
    assert sorted(BUILTIN_WALKS) == sorted(cli.SCENARIOS)
    walks = counted_walks(monkeypatch)
    cli.run_scenario(cli.builtin_config(name))
    assert len(walks) == BUILTIN_WALKS[name]


def test_equal_numerators_over_other_variables_are_not_the_last_product():
    # q3·p3 + p4 on T*R² labelled (3, 4) has the keys of q1·p1 + p2 on SP2
    star = StarProduct.weyl(SP2)
    other = PhaseSpace((3, 4))
    f = SP2.series(SP2.q(1) * SP2.p(1) + SP2.p(2), 2)
    g = other.series(other.q(3) * other.p(3) + other.p(4), 2)
    assert f.poly.nums == g.poly.nums
    star.eval(f, f)
    with pytest.raises(VariableMismatchError):
        star.eval(g, g)


@st.composite
def repeating_calls(draw):
    """A product and a sequence of calls on a pool of series at two orders:
    two samples, zero, half of the first sample (its numerators over
    another denominator), and an equal copy of each that shares no object,
    so inputs repeat both as the same objects and as equal ones."""
    kind = draw(st.sampled_from(KINDS + ("skew",)))
    pool = {}
    for L in (2, 3):
        polys = sample_polys(draw(st.integers(0, 10_000)), SP2.vars, 2, 2)
        series = [SP2.series(p, L) for p in polys + [polys[0].scale(Fraction(1, 2))]] + \
            [LambdaSeries.zero(SP2.vars, L)]
        pool[L] = series + [rebuilt(s) for s in series]
    calls = draw(st.lists(st.tuples(st.sampled_from((2, 3)), st.integers(0, 7),
                                    st.integers(0, 7)), min_size=1, max_size=8))
    return kind, [(pool[L][i], pool[L][j]) for L, i, j in calls]


@given(repeating_calls())
@settings(max_examples=25, deadline=None)
def test_results_equal_those_of_a_fresh_product(case):
    kind, calls = case
    star = product_of(kind, SP2)
    for f, g in calls:
        assert star.eval(f, g) == product_of(kind, SP2).eval(f, g)


# -- operands over an ordered sub-list of the variables ---------------------

@st.composite
def sub_lists(draw, vars):
    """An ordered sub-list of ``vars``, possibly empty or all of it."""
    keep = draw(st.lists(st.booleans(), min_size=len(vars), max_size=len(vars)))
    return tuple(v for v, k in zip(vars, keep) if k)


@given(data=st.data(), L=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_a_sub_list_product_equals_the_lifted_one_moved_back(data, L):
    # a matrix off the Weyl, Wick and std pattern: the elimination fills in
    # entries, and some rank-one terms vanish on V on one side only
    C = data.draw(constant_matrices(4))
    star = StarProduct.constant(SP2, C)
    V = data.draw(sub_lists(SP2.vars))
    f = data.draw(polys_on(V, V, max_degree=3))
    g = data.draw(polys_on(V, V, max_degree=3))
    up_f, up_g = f.with_vars(SP2.vars), g.with_vars(SP2.vars)
    got = star.eval_poly(f, g, L)
    assert got.vars == V and canonical_series(got)
    assert got == StarProduct.constant(SP2, C).eval_poly(up_f, up_g, L).with_vars(V)
    bracket = star.bracket_poly(f, g)
    assert bracket.vars == V
    assert bracket == star.bracket_poly(up_f, up_g).with_vars(V)
    # the flag against evaluation alone: conj(x ⋆ y) = y ⋆ x on V's
    # coordinates at order 1 is conj(C^{xy}) = C^{yx} on C cut to V
    xs = [MultiPoly.variable(V, v) for v in V]
    assert star.over(V, V)[2] == all(
        star.eval_poly(x, y, 1).conjugate() == star.eval_poly(y, x, 1) for x in xs for y in xs)


@pytest.mark.parametrize("kind", KINDS)
def test_walk_terms_on_lists_closed_under_q_p_are_the_cut_full_terms(kind):
    # the lists a run uses, the whole space and the reduced variables, pair
    # each q_i with its p_i: there C cut to V factors into the full terms cut
    # to V, so the walk keeps its fields and its ``star_fields`` entry
    sp = PhaseSpace.of_dim(3)
    star = getattr(StarProduct, kind)(sp)
    full = phase_space._rank_one_terms(dict(star.matrix))
    for k in range(sp.n + 1):
        for labels in itertools.combinations(range(sp.n), k):
            at = labels + tuple(sp.n + i for i in labels)
            V = tuple(sp.vars[i] for i in at)
            new = {i: j for j, i in enumerate(at)}
            cuts = ((tuple((new[i], c) for i, c in v if i in new) for v in term)
                    for term in full)
            want = tuple((a, b) for a, b in cuts if a and b)
            assert star.over(V, V)[0].args[0] is exact.star_fields(V, want), V


@pytest.mark.parametrize("kind", KINDS)
def test_operands_off_one_sub_list_raise_naming_both_lists(kind):
    star = getattr(StarProduct, kind)(SP2)
    f = MultiPoly.variable(("q1", "p1"), "q1")
    # f's list is kept once used, and a pair that starts with it still raises
    assert star.eval_poly(f, f, 2).vars == f.vars and star.bracket_poly(f, f).is_zero()
    # reordered, a foreign name, a superset: no pair with one of them passes
    off = [MultiPoly.variable(vs, "q1") for vs in
           (("p1", "q1"), ("q1", "x"), ("q1", "q2", "p1", "p2", "x"))]
    # f and g over two different sub-lists
    other = MultiPoly.variable(("q1", "p2"), "q1")
    pairs = [(g, g) for g in off] + [(f, g) for g in off + [other]] + \
        [(g, f) for g in off + [other]]
    for a, b in pairs:
        match = f"{re.escape(str(a.vars))} and {re.escape(str(b.vars))} .* " \
                f"{re.escape(str(SP2.vars))}"
        with pytest.raises(VariableMismatchError, match=match):
            star.eval_poly(a, b, 2)
        with pytest.raises(VariableMismatchError, match=match):
            star.bracket_poly(a, b)


@pytest.mark.parametrize("kind", KINDS)
def test_clearing_the_restricted_maps_changes_no_result(kind, monkeypatch):
    lists = (("q1", "p1"), ("q2", "p2"), SP2.vars, ("q1", "q2", "p2"))
    pairs = [(V, sample_polys(61 + k, V, 2, 2)) for k in range(3) for V in lists]
    # the lifted products moved back, before any map is cleared
    lift = getattr(StarProduct, kind)(SP2)
    want = [(lift.eval_poly(f.with_vars(SP2.vars), g.with_vars(SP2.vars), 3).with_vars(V),
             lift.bracket_poly(f.with_vars(SP2.vars), g.with_vars(SP2.vars)).with_vars(V))
            for V, (f, g) in pairs]
    # with room for two lists, a third clears the map
    monkeypatch.setattr(phase_space, "MAX_LAYOUTS", 2)
    star = getattr(StarProduct, kind)(SP2)
    for k, (V, (f, g)) in enumerate(pairs):
        assert (star.eval_poly(f, g, 3), star.bracket_poly(f, g)) == want[k]
        assert V in star.restricted and len(star.restricted) <= 2
        if k % 4 == 3:
            star.restricted.clear()
            exact.star_fields.cache_clear()
