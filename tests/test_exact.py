"""Exact arithmetic core: Gaussian rationals, sparse polynomials, truncated
series, unipotent inversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkoszul.exact import (
    ContractViolationError,
    GaussianRational,
    LambdaSeries,
    MultiPoly,
    VariableMismatchError,
    gr,
    invert_unipotent,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(gr, fractions, fractions)

VARS = ("x", "y")


@st.composite
def polys(draw, vars=VARS, max_degree=4, max_terms=5):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(0, max_degree)) for _ in vars)
        terms[e] = draw(gaussians)
    return MultiPoly(vars, {k: v for k, v in terms.items() if not v.is_zero()})


class TestGaussianRational:
    def test_basic_arithmetic(self):
        a = gr(Fraction(1, 2), Fraction(3))
        b = gr(Fraction(-2), Fraction(1, 3))
        assert a + b == gr(Fraction(-3, 2), Fraction(10, 3))
        assert a * b == gr(Fraction(-2), Fraction(-35, 6))
        assert gr(0, 1) * gr(0, 1) == gr(-1)

    def test_division_inverse(self):
        a = gr(Fraction(3, 4), Fraction(-2, 5))
        assert a / a == gr(1)
        with pytest.raises(ZeroDivisionError):
            a / gr(0)

    def test_conjugate(self):
        a = gr(2, 3)
        assert a.conjugate() == gr(2, -3)
        assert (a * a.conjugate()).im == 0

    @given(gaussians, gaussians, gaussians)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a

    def test_render(self):
        assert gr(Fraction(1, 2), Fraction(-3, 4)).render() == "(1/2)-(3/4)i"


class TestMultiPoly:
    def test_add_mul_oracle(self):
        x = MultiPoly.variable(VARS, "x")
        y = MultiPoly.variable(VARS, "y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_var_mismatch_rejected(self):
        x = MultiPoly.variable(("x",), "x")
        y = MultiPoly.variable(("y",), "y")
        with pytest.raises(VariableMismatchError):
            x + y

    @given(polys(), polys(), polys())
    @settings(max_examples=40)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    def test_diff(self):
        x = MultiPoly.variable(VARS, "x")
        y = MultiPoly.variable(VARS, "y")
        p = x * x * y + y.scale(3)
        assert p.diff("x") == (x * y).scale(2)
        assert p.diff("y") == x * x + MultiPoly.const(VARS, 3)

    @given(polys(), polys())
    @settings(max_examples=30)
    def test_diff_leibniz(self, p, q):
        assert (p * q).diff("x") == p.diff("x") * q + p * q.diff("x")

    def test_substitute_is_ring_map(self):
        x = MultiPoly.variable(VARS, "x")
        y = MultiPoly.variable(VARS, "y")
        img = {"x": y * y + MultiPoly.const(VARS, 1)}
        p, q = x * y + x, y + x * x
        assert (p * q).substitute(img) == p.substitute(img) * q.substitute(img)
        assert (p + q).substitute(img) == p.substitute(img) + q.substitute(img)

    def test_with_vars_roundtrip(self):
        x = MultiPoly.variable(VARS, "x")
        widened = x.with_vars(("x", "y", "z"))
        assert widened.with_vars(VARS) == x
        with pytest.raises(VariableMismatchError):
            (x * MultiPoly.variable(VARS, "y")).with_vars(("x",))

    def test_conjugate(self):
        x = MultiPoly.variable(VARS, "x")
        p = x.scale(gr(0, 1))
        assert p.conjugate() == x.scale(gr(0, -1))

    def test_render_graded_order(self):
        x = MultiPoly.variable(VARS, "x")
        y = MultiPoly.variable(VARS, "y")
        p = y + x * x
        assert p.render().index("x^2") < p.render().index("y")


class TestLambdaSeries:
    def test_shift_drops_top(self):
        one = MultiPoly.const(("x",), 1)
        s = LambdaSeries([one, one])
        assert s.lambda_shift(1).coeffs[0].is_zero()
        assert s.lambda_shift(1).coeffs[1] == one
        assert s.lambda_shift(3).is_zero()

    def test_min_order(self):
        z = MultiPoly.zero(("x",))
        one = MultiPoly.const(("x",), 1)
        assert LambdaSeries([z, one, z]).min_lambda_order() == 1
        assert LambdaSeries([z, z]).min_lambda_order() is None


class TestInvertUnipotent:
    def test_geometric_series(self):
        one = MultiPoly.const(("x",), 1)
        L = 5
        # A = multiplication by the parameter
        inv = invert_unipotent(lambda s: s.lambda_shift(1), L)
        res = inv(LambdaSeries.from_poly(one, L))
        # (1 - t)^{-1} = sum of all powers
        assert all(c == one for c in res.coeffs)
        # inverse property: (id - A)(res) = 1
        back = res - res.lambda_shift(1)
        assert back == LambdaSeries.from_poly(one, L)

    def test_contract_violation(self):
        one = MultiPoly.const(("x",), 1)
        ident = lambda s: s
        with pytest.raises(ContractViolationError):
            invert_unipotent(ident, 3)(LambdaSeries.from_poly(one, 3))
