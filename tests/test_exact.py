"""Exact arithmetic core: the reader and writer of Gaussian rationals,
sparse polynomials, truncated series, unipotent inversion."""

import sys
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkoszul import exact, phase_space
from qkoszul.exact import (
    AlgebraError,
    ContractViolationError,
    ExponentOverflowError,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    TermLimitError,
    VariableMismatchError,
    invert_unipotent,
)
from qkoszul.phase_space import PhaseSpace, StarProduct
from reference_poly import (ZERO, RefPoly, RefSeries, add, derivative, homotopy, is_zero,
                            matrix_bracket, mul, oracle, pair, product_of, times, triple)


@st.composite
def fraction_draws(draw):
    """n/d with d in 1..12 and |n/d| <= 50, from two integer draws, which
    shrink toward 0 as st.fractions does at a fraction of its cost."""
    d = draw(st.integers(1, 12))
    return Fraction(draw(st.integers(-50 * d, 50 * d)), d)


fractions = fraction_draws()


def gaussian_triples(parts):
    """(re, im, den) triples of re and im drawn from ``parts``, with pure real
    and pure imaginary values drawn on purpose."""
    return st.one_of(st.builds(lambda re, im: triple((re, im)), parts, parts),
                     st.builds(triple, parts),
                     st.builds(lambda im: triple((0, im)), parts))


# mixed signs and denominators up to 12
gaussians = gaussian_triples(fractions)
scalars = st.one_of(gaussians, fractions, st.integers(-12, 12))

VARS = ("x", "y")
HALF_X = MultiPoly.variable(VARS, "x").scale(Fraction(1, 2))
THIRD_Y = MultiPoly.variable(VARS, "y").scale(Fraction(1, 3))
WIDE = ("a", "x", "b", "y")
# targets of a polynomial over WIDE: itself, a reorder, a superset, subsets
# that drop variables in use, the empty list, and a subset with a new name
MOVE_TARGETS = (WIDE, ("y", "b", "x", "a"), ("c",) + WIDE, ("y", "x"), ("b",), (),
                ("x", "c", "a"))
# the largest exponent a slot holds, and the smallest that sets the second
# highest bit of a slot, where the sum of two exponents may reach the guard bit
TOP, CARRY = 32767, 1 << 14


# numerators of up to 2**200 in size, over denominators of one, a few and
# 101 bits
huge = st.integers(-(1 << 200), 1 << 200)
huge_fractions = st.builds(Fraction, huge, st.sampled_from((1, 6, (1 << 100) + 1)))
huge_gaussians = gaussian_triples(huge_fractions)


@st.composite
def polys(draw, vars=VARS, max_degree=4, max_terms=5, coeffs=gaussians):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(0, max_degree)) for _ in vars)
        terms[e] = draw(coeffs)
    return MultiPoly(vars, terms)


def linear_forms(vars=VARS):
    """Σ_i v_i x_i with Gaussian-rational v_i, some of them zero."""
    return st.lists(gaussians, min_size=len(vars), max_size=len(vars)).map(
        lambda v: MultiPoly(vars, {tuple(int(j == i) for j in range(len(vars))): c
                                   for i, c in enumerate(v)}))


def canonical(p: MultiPoly) -> bool:
    """Positive denominator, no zero entry, and no factor common to the
    denominator and every numerator."""
    parts = [x for v in p.nums.values() for x in v]
    return (p.den > 0 and all(r or i for r, i in p.nums.values())
            and gcd(p.den, *parts) == 1 and (p.nums or p.den == 1))


SERIES_VARS = (exact.LAMBDA, "a", "x", "b", "y")


@st.composite
def series_var_lists(draw):
    """A variable list led by λ for a polynomial over ``SERIES_VARS``: an
    order-preserving superset, an order-preserving subset, both at once, or
    a reorder."""
    rest = list(SERIES_VARS[1:])
    kind = draw(st.sampled_from(("superset", "subset", "both", "reorder")))
    if kind in ("subset", "both"):
        rest = [v for v in rest if draw(st.booleans())]
    if kind in ("superset", "both"):
        for new in ("c", "d")[:draw(st.integers(1, 2))]:
            rest.insert(draw(st.integers(0, len(rest))), new)
    if kind == "reorder":
        rest = draw(st.permutations(rest))
    return (exact.LAMBDA, *rest)


@st.composite
def series_polys(draw):
    """A polynomial over ``SERIES_VARS`` whose monomials each use about half
    of the variables, so that restrictions onto a subset keep some."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        e = tuple(draw(st.one_of(st.just(0), st.integers(1, 3))) for _ in SERIES_VARS)
        terms[e] = draw(gaussians)
    return MultiPoly(SERIES_VARS, terms)


def directional(p: MultiPoly, form: MultiPoly, m: int = 1) -> MultiPoly:
    """The derivative along the vector field of the linear form ``form``,
    divided by m, as the star-product walk takes it: the raw numerators of
    ``exact._derive``, with one step (slot shift, unit key, slot mask, re, im)
    per term of the form, over the denominator of p times the form's times m."""
    assert form.vars == p.vars
    mask = (1 << exact.SLOT_BITS) - 1
    steps = [(unit.bit_length() - 1, unit, mask, r, i) for unit, (r, i) in form.nums.items()]
    assert all(unit & (unit - 1) == 0 and s % exact.SLOT_BITS == 0 for s, unit, *_ in steps)
    return exact._canonical(p.vars, p.den * form.den * m, exact._derive(p.nums, steps))


def tube_homotopy(p: MultiPoly, k: int) -> dict:
    """The grade-k homotopy of the good tube of T*R² translated along both
    directions, along each direction a: the derivative in p_a, weighted by
    the degree in p1 and p2."""
    return {a: p.weighted_diff(f"p{a}", ("p1", "p2"), k) for a in (1, 2)}


def agrees(p: MultiPoly, ref: RefPoly) -> bool:
    """The integer core and the reference hold the same polynomial, in the
    same text form, and the result is canonical."""
    return (canonical(p) and p.vars == ref.vars and RefPoly.of(p) == ref
            and p.terms == {e: triple(c) for e, c in ref.terms.items()}
            and p.render() == ref.render())


class TestGauss:
    """``gauss``, the one reader of a Gaussian number.  ``render_gauss``, the
    one writer of its text, meets the oracle's through ``agrees``."""

    @pytest.mark.parametrize("c", [0.5, "1/2", None, 1j, (1, 2), [1, 0, 1]],
                             ids=("float", "str", "None", "complex", "pair", "list"))
    def test_other_types_raise_a_type_error_that_names_them(self, c):
        with pytest.raises(TypeError, match=f"cannot read a {type(c).__name__} as"):
            exact.gauss(c)

    def test_a_float_coefficient_is_a_type_error(self):
        x = MultiPoly.variable(("x",), "x")
        for build in (lambda: MultiPoly(("x",), {(1,): 0.5}), lambda: x.scale(0.5),
                      lambda: MultiPoly.const(("x",), 0.5)):
            with pytest.raises(TypeError, match="cannot read a float"):
                build()

    @pytest.mark.parametrize("t, want", [
        ((2, 0, 4), (1, 0, 2)), ((1, 1, -2), (-1, -1, 2)), ((0, 0, -5), (0, 0, 1)),
        ((6, -9, 3), (2, -3, 1)), ((-4, 6, -8), (2, -3, 4)), ((3, 5, 7), (3, 5, 7))])
    def test_a_triple_comes_back_in_lowest_terms(self, t, want):
        assert exact.gauss(t) == want

    def test_a_triple_over_zero_is_rejected(self):
        for t in ((1, 0, 0), (0, 0, 0)):
            with pytest.raises(ZeroDivisionError, match="denominator zero"):
                exact.gauss(t)


class TestMultiPoly:
    def test_add_mul_oracle(self):
        x = MultiPoly.variable(VARS, "x")
        y = MultiPoly.variable(VARS, "y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_constructor_takes_numbers(self):
        # 3 + x/2 + 0·y, one number type at a time
        x = MultiPoly.variable(VARS, "x")
        want = MultiPoly.const(VARS, 3) + x.scale(Fraction(1, 2))
        for three, half, zero in ((3, Fraction(1, 2), 0),
                                  (Fraction(3), Fraction(1, 2), Fraction(0)),
                                  ((3, 0, 1), (2, 0, 4), (0, 0, 5))):
            p = MultiPoly(VARS, {(0, 0): three, (1, 0): half, (0, 1): zero})
            assert p == want and len(p.terms) == 2 and not p.uses("y")
        assert MultiPoly(VARS, {(0, 1): 0, (1, 1): (0, 0, 1)}) == MultiPoly.zero(VARS)

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

    def test_substitute_rejects_a_name_that_is_not_a_variable(self):
        x, y = MultiPoly.variable(VARS, "x"), MultiPoly.variable(VARS, "y")
        with pytest.raises(VariableMismatchError, match="cannot substitute 'p9'"):
            x.substitute({"p9": y})

    def test_a_repeated_variable_name_is_rejected(self):
        # over ("x", "x") both {(1, 1): 1} and {(2, 0): 1} would be x²
        x = MultiPoly.variable(VARS, "x")
        for build in (lambda: MultiPoly(("x", "x"), {(1, 1): 1}),
                      lambda: MultiPoly.variable(("x", "x"), "x"),
                      lambda: x.with_vars(("y", "y")),
                      lambda: x.zero_outside(("x", "x"))):
            with pytest.raises(VariableMismatchError, match="variable '.' repeats"):
                build()

    def test_terms_is_a_new_dict_on_each_access(self):
        p = MultiPoly(VARS, {(1, 0): Fraction(1, 2), (0, 2): (0, 6, 2)})
        want = {(1, 0): (1, 0, 2), (0, 2): (0, 3, 1)}
        terms = p.terms
        assert terms == want
        terms[5, 5] = (1, 0, 1)
        del terms[1, 0]
        assert p.terms == want and p == MultiPoly(VARS, want)

    @given(polys(coeffs=huge_gaussians))
    @settings(max_examples=40)
    def test_terms_are_triples_in_lowest_terms(self, p):
        for t in p.terms.values():
            assert type(t) is tuple and len(t) == 3 and all(type(x) is int for x in t)
            assert t[2] > 0 and exact.gauss(t) == t
        assert MultiPoly(p.vars, p.terms) == p

    def test_with_vars_roundtrip(self):
        x = MultiPoly.variable(VARS, "x")
        widened = x.with_vars(("x", "y", "z"))
        assert widened.with_vars(VARS) == x
        with pytest.raises(VariableMismatchError):
            (x * MultiPoly.variable(VARS, "y")).with_vars(("x",))

    def test_conjugate(self):
        x = MultiPoly.variable(VARS, "x")
        p = x.scale((0, 1, 1))
        assert p.conjugate() == x.scale((0, -1, 1))

    def test_as_constant(self):
        x = MultiPoly.variable(VARS, "x")
        c = MultiPoly.const(VARS, (6, -4, 12))
        assert c.as_constant() == (3, -2, 6)
        assert MultiPoly.zero(VARS).as_constant() == (0, 0, 1)
        assert x.as_constant() is None and (x + c).as_constant() is None

    def test_render_graded_order(self):
        x = MultiPoly.variable(VARS, "x")
        y = MultiPoly.variable(VARS, "y")
        p = y + x * x
        assert p.render().index("x^2") < p.render().index("y")


class TestAgainstReference:
    """The integer core against the coefficient-by-coefficient reference in
    ``reference_poly``."""

    @given(polys(), polys())
    @settings(max_examples=80)
    def test_ring_operations(self, p, q):
        rp, rq = RefPoly.of(p), RefPoly.of(q)
        assert agrees(p, rp) and agrees(q, rq)
        assert agrees(p + q, rp + rq)
        assert agrees(p - q, rp - rq)
        assert agrees(p - p, rp - rp)
        assert agrees(-p, -rp)
        assert agrees(p * q, rp * rq)
        assert agrees(p.conjugate(), rp.conjugate())

    @given(polys())
    @settings(max_examples=40)
    def test_zero_operand(self, p):
        zero, rp = MultiPoly.zero(VARS), RefPoly.of(p)
        assert agrees(p + zero, rp) and agrees(zero + p, rp)
        assert agrees(p - zero, rp) and agrees(zero - p, -rp)

    # zero parts, a lone nonzero part, distinct denominators (the first
    # part's scale is 3), and parts that cancel
    @example([MultiPoly.zero(VARS), HALF_X, MultiPoly.zero(VARS)])
    @example([HALF_X, THIRD_Y])
    @example([HALF_X, THIRD_Y, -HALF_X, MultiPoly.zero(VARS), -THIRD_Y])
    @given(st.lists(st.one_of(polys(), st.just(MultiPoly.zero(VARS))), max_size=5))
    @settings(max_examples=80)
    def test_sum(self, parts):
        want = RefPoly.zero(VARS)
        for p in parts:
            want = want + RefPoly.of(p)
        got = exact._sum(VARS, parts)
        assert agrees(got, want)
        nonzero = [p for p in parts if not p.is_zero()]
        if len(nonzero) == 1:
            assert got is nonzero[0]

    # signed parts over distinct denominators, a lone part of each sign, and
    # parts that cancel
    @example([HALF_X, THIRD_Y], [1, -1])
    @example([MultiPoly.zero(VARS), THIRD_Y], [1, -1])
    @example([HALF_X, THIRD_Y, HALF_X], [-1, 1, 1])
    @given(st.lists(st.one_of(polys(), st.just(MultiPoly.zero(VARS))), max_size=5),
           st.lists(st.sampled_from((1, -1)), min_size=5, max_size=5))
    @settings(max_examples=80)
    def test_signed_sum(self, parts, signs):
        want = RefPoly.zero(VARS)
        for p, sign in zip(parts, signs):
            want = want + RefPoly.of(p) if sign == 1 else want - RefPoly.of(p)
        got = exact._sum(VARS, parts, signs)
        assert agrees(got, want)
        nonzero = [(p, sign) for p, sign in zip(parts, signs) if not p.is_zero()]
        if len(nonzero) == 1 and nonzero[0][1] == 1:
            assert got is nonzero[0][0]

    def test_difference_over_distinct_denominators(self):
        for p, q in ((HALF_X, THIRD_Y), (THIRD_Y, HALF_X), (HALF_X, HALF_X + THIRD_Y)):
            assert agrees(p - q, RefPoly.of(p) - RefPoly.of(q))

    @given(polys(), scalars)
    @settings(max_examples=60)
    def test_scale(self, p, c):
        assert agrees(p.scale(c), RefPoly.of(p).scale(c))
        assert agrees(MultiPoly.const(VARS, c), RefPoly.const(VARS, c))

    @given(polys(max_degree=6))
    @settings(max_examples=60)
    def test_diff_and_uses(self, p):
        rp = RefPoly.of(p)
        for v in VARS:
            assert agrees(p.diff(v), rp.diff(v))
            assert p.uses(v) == rp.uses(v)
        assert not p.uses("z")

    @given(polys(WIDE, max_degree=2, max_terms=4),
           st.lists(st.sampled_from(WIDE + ("z",)), max_size=4), st.integers(0, 2))
    @settings(max_examples=60)
    def test_uses_several_names(self, p, names, r):
        # names inside and outside the variables, repeated, or none at all
        want = any(RefPoly.of(p).uses(v) for v in names)
        assert p.uses(*names) == want
        assert LambdaSeries.from_poly(p, 2, shift=r).uses(*names) == want

    @given(polys(max_degree=3, max_terms=4), polys(WIDE, max_degree=2, max_terms=3),
           polys(WIDE, max_degree=2, max_terms=3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_substitute(self, p, gx, gy, both):
        # onto a wider variable list, with one or both variables assigned
        assign = {"x": gx, "y": gy} if both else {"x": gx}
        ref = RefPoly.of(p)
        wide = p.with_vars(WIDE)
        images = {v: RefPoly.of(g) for v, g in assign.items()}
        assert agrees(wide.substitute(assign), RefPoly.of(wide).substitute(images))
        if both:
            assert agrees(p.substitute(assign), ref.substitute(images))
        assert agrees(p.substitute({}), ref.substitute({}))

    @given(polys(WIDE, max_degree=3))
    @settings(max_examples=60)
    def test_with_vars_and_zero_outside(self, p):
        rp = RefPoly.of(p)
        for vs in MOVE_TARGETS:
            kept = tuple(v for v in vs if v in WIDE)
            assert agrees(p.zero_outside(vs), rp.zero_outside(kept).with_vars(vs))
            if all(v in vs for v in WIDE if p.uses(v)):
                assert agrees(p.with_vars(vs), rp.with_vars(vs))
            else:
                with pytest.raises(VariableMismatchError, match="used but absent"):
                    p.with_vars(vs)
        # onto its own list, every key moves to itself
        assert p.with_vars(WIDE) == p

    @given(series_polys(), st.data())
    @settings(max_examples=80)
    def test_rekeying_of_series(self, p, data):
        # λ-led targets as lifts, prolongations, restrictions, push-downs
        # and reorders make them, read by a series and by its polynomial
        vs = data.draw(series_var_lists())
        rp, s = RefPoly.of(p), LambdaSeries(p, 3)
        kept = tuple(v for v in vs if v in p.vars)
        want = rp.zero_outside(kept).with_vars(vs)
        assert agrees(p.zero_outside(vs), want)
        assert s.zero_outside(vs[1:]).poly == p.zero_outside(vs)
        if all(v in vs for v in p.vars if p.uses(v)):
            assert agrees(p.with_vars(vs), rp.with_vars(vs))
            assert s.with_vars(vs[1:]).poly == p.with_vars(vs)
        else:
            with pytest.raises(VariableMismatchError):
                p.with_vars(vs)

    @given(polys(), polys())
    @settings(max_examples=80)
    def test_eq_and_hash(self, p, q):
        assert (p == q) == (RefPoly.of(p) == RefPoly.of(q))
        # the same polynomial reached by two routes has the same fields
        same = (p + q) - q
        assert same == p and hash(same) == hash(p)
        i = (0, 1, 1)
        assert (p * q).scale(i) == p.scale(i) * q
        assert hash((p * q).scale(i)) == hash(p.scale(i) * q)

    @given(polys(max_degree=5), linear_forms(), st.integers(1, 6))
    @settings(max_examples=60)
    def test_directional(self, p, form, m):
        v = [(i, form.terms[tuple(int(j == i) for j in range(2))]) for i in range(2)
             if form.uses(VARS[i])]
        assert agrees(directional(p, form, m), derivative(RefPoly.of(p), v, m))

    @given(polys(("q1", "q2", "p1", "p2"), max_degree=3, max_terms=6), st.integers(0, 3))
    @settings(max_examples=60)
    def test_tube_homotopy(self, p, k):
        got = tube_homotopy(p, k)
        want = homotopy(RefPoly.of(p), (2, 3), k, (1, 2))
        assert got.keys() == want.keys()
        assert all(agrees(got[a], want[a]) for a in want)

    @given(polys(("q1", "q2", "p2"), max_degree=3, max_terms=6), st.integers(0, 3))
    @settings(max_examples=40)
    def test_tube_homotopy_along_an_unused_direction(self, p, k):
        # p does not use p1, so direction 1 takes the zero exit
        p = p.with_vars(("q1", "q2", "p1", "p2"))
        got = tube_homotopy(p, k)
        want = homotopy(RefPoly.of(p), (2, 3), k, (1, 2))
        assert got[1] == MultiPoly.zero(p.vars) and got[1].den == 1
        assert all(agrees(got[a], want[a]) for a in want)

    def test_weighted_diff_checks_its_variables_before_the_zero_exit(self):
        p = MultiPoly.variable(VARS, "x")
        with pytest.raises(VariableMismatchError):
            p.weighted_diff("z", ("x",), 1)
        with pytest.raises(VariableMismatchError):
            p.weighted_diff("y", ("z",), 1)


SP2 = PhaseSpace.of_dim(2)


# a term of each kind the kernel routes apart: only a real part, only an
# imaginary part, or both; imaginary × imaginary is where -y·v turns the
# sign, to -5i·-5i·4 = -100
PARTS = {"real": (3, 0), "imag": (0, -5), "complex": (2, 7)}


class TestPackedKernel:
    """Products of the kernel on packed monomial keys, ``exact._mul_sum``,
    with one plain-integer accumulator of real and one of imaginary parts,
    against the reference on coefficients of up to 2**200, where products
    cancel, in each kind of term pair, and where one part of a key or both
    cancel."""

    @given(polys(coeffs=huge_gaussians), polys(coeffs=huge_gaussians))
    @settings(max_examples=40, deadline=None)
    def test_multiplication(self, f, g):
        F, G = RefPoly.of(f), RefPoly.of(g)
        assert agrees(f * g, F * G)
        # the cross terms of (f + g)(f - g) cancel inside one product
        assert agrees((f + g) * (f - g), (F + G) * (F - G))
        assert (f * g - g * f).is_zero()

    @pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_bracket(self, kind, data):
        star = getattr(StarProduct, kind)(SP2)
        f, g = (data.draw(polys(SP2.vars, 3, 4, huge_gaussians)) for _ in range(2))
        C, F, G = star.matrix, RefPoly.of(f), RefPoly.of(g)
        assert agrees(star.bracket_poly(f, g), matrix_bracket(C, F, G))
        # every term pair of {f, f} cancels against another
        assert star.bracket_poly(f, f).is_zero()
        assert agrees(star.bracket_poly(f + g, f - g), matrix_bracket(C, F + G, F - G))

    @pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
    @given(data=st.data(), L=st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_star_exponential(self, kind, data, L):
        star = getattr(StarProduct, kind)(SP2)
        f, g = (data.draw(polys(SP2.vars, 2, 3, huge_gaussians)) for _ in range(2))
        reference = oracle.ConstantStar({ij: pair(c) for ij, c in star.matrix.items()},
                                        len(SP2.vars))
        for a, b in ((f, g), (f + g, f - g)):
            got = RefSeries.of(star.eval_poly(a, b, L))
            assert [RefPoly.of(c).terms for c in got.coeffs] == \
                reference(RefPoly.of(a).terms, RefPoly.of(b).terms, L)
        if kind == "weyl":
            # C is antisymmetric, so the odd powers of f ⋆ f cancel
            square = star.eval_poly(f, f, L)
            assert all(square.coeff(r).is_zero() for r in range(1, L + 1, 2))

    # ids read [left-right]: the decorator nearest the function comes first
    @pytest.mark.parametrize("right", PARTS)
    @pytest.mark.parametrize("left", PARTS)
    def test_each_kind_of_term_pair(self, left, right):
        # (2 + 7i)·3 and the like through every loop of the kernel, with
        # right's key lifted and its term scaled, against the pair arithmetic
        x, u = PARTS[left], PARTS[right]
        want = times(mul(x, u), 4)
        got = exact._mul_sum(("x",), 1, [({1: x}, {2: u}, 8, 4)], 0)
        assert (got.den, got.nums) == (1, {11: want})

    @pytest.mark.parametrize("products, want", [
        # only the real part of key 0 cancels: (1 + i)·1 - 1·1
        pytest.param([({0: (1, 1)}, {0: (1, 0)}, 0, 1), ({0: (-1, 0)}, {0: (1, 0)}, 0, 1)],
                     {0: (0, 1)}, id="real-part"),
        # only the imaginary part cancels: (1 + i)·1 + (-i)·1
        pytest.param([({0: (1, 1)}, {0: (1, 0)}, 0, 1), ({0: (0, -1)}, {0: (1, 0)}, 0, 1)],
                     {0: (1, 0)}, id="imaginary-part"),
        # both parts of key 0 cancel and key 1 stays: with both accumulators,
        # with only the real one, and with only the imaginary one
        pytest.param([({0: (2, 3), 1: (1, 0)}, {0: (1, 0)}, 0, 1),
                      ({0: (-2, -3)}, {0: (1, 0)}, 0, 1)],
                     {1: (1, 0)}, id="both-parts"),
        pytest.param([({0: (2, 0), 1: (1, 0)}, {0: (1, 0)}, 0, 1),
                      ({0: (0, 2)}, {0: (0, 1)}, 0, 1)],
                     {1: (1, 0)}, id="both-parts-real-only"),
        pytest.param([({0: (2, 0), 1: (1, 0)}, {0: (0, 1)}, 0, 1),
                      ({0: (-2, 0)}, {0: (0, 1)}, 0, 1)],
                     {1: (0, 1)}, id="both-parts-imaginary-only"),
        pytest.param([({0: (5, 0)}, {0: (0, 1)}, 0, 2), ({0: (0, 5)}, {0: (2, 0)}, 0, -1)],
                     {}, id="everything"),
    ])
    def test_a_key_whose_parts_cancel(self, products, want):
        got = exact._mul_sum(("x",), 1, products, 0)
        assert (got.den, got.nums) == (1, want)

    def test_a_sum_at_the_bound_needs_every_bit(self):
        # every term of one sign, so that the real part of one key is the
        # whole sum Σ c·‖left‖₁·‖right‖₁, or more than its largest part
        a, b = (1 << 200) - 1, (1 << 150) + 3
        x, y = MultiPoly.variable(VARS, "x"), MultiPoly.variable(VARS, "y")
        f, g = x.scale(a), y.scale(b)
        assert (f * g).terms == {(1, 1): (a * b, 0, 1)}
        assert (f.scale(-1) * g).terms == {(1, 1): (-a * b, 0, 1)}
        assert exact._mul_sum(VARS, 1, [(f.nums, g.nums, 0, 1)], 0).nums == \
            {(1 << 16) + 1: (a * b, 0)}
        # (x + y)²: the xy entry is 2ab, half the bound and twice any ℓ∞ one
        assert ((x + y).scale(a) * (x + y).scale(b)).terms == \
            {(2, 0): (a * b, 0, 1), (1, 1): (2 * a * b, 0, 1), (0, 2): (a * b, 0, 1)}
        # two products into one accumulator: Weyl's bracket matrix has
        # B^{q_i p_i} = 1, so {a(q1 + q2), b(p1 + p2)} = 2ab
        q, p = SP2.q(1) + SP2.q(2), SP2.p(1) + SP2.p(2)
        weyl = StarProduct.weyl(SP2)
        assert weyl.bracket_poly(q.scale(a), p.scale(b)) == MultiPoly.const(SP2.vars, 2 * a * b)
        # two leaves of the walk on one key: C^{q_i q_i} = 4 gives one field
        # 4∂_{q_i} ⊗ ∂_{q_i} per i, each leaf of λ^1 adds 4ab to the constant,
        # and the leaf of λ^0 has norms 2a and 2b
        star = StarProduct.constant(SP2, {(0, 0): 4, (1, 1): 4})
        got = star.eval_poly(q.scale(a), q.scale(b), 1)
        assert got.coeff(1) == MultiPoly.const(SP2.vars, 8 * a * b)
        assert got.coeff(0) == (q * q).scale(a * b)


class TestCalculusIdentities:
    @given(polys(), polys(), linear_forms())
    @settings(max_examples=40)
    def test_directional_leibniz(self, p, q, form):
        d = lambda f: directional(f, form)
        assert d(p * q) == d(p) * q + p * d(q)

    def test_walk_needs_fields_over_the_variables_of_its_series(self):
        x = MultiPoly.variable(VARS, "x")
        s = LambdaSeries.from_poly(x, 1)
        # ∂_x ⊗ ∂_x over (y, x), where the slot of x is the lowest one
        dx = ((1, (1, 0, 1)),)
        fields = exact.star_fields(("y", "x"), ((dx, dx),))
        with pytest.raises(VariableMismatchError):
            exact.star_exponential(fields, s, s)

    def test_pairing_needs_operands_over_its_variables(self):
        x = MultiPoly.variable(VARS, "x")
        # B^{xx} = 1 over (y, x): the operands are over VARS, another list
        bracket = exact.pairing(("y", "x"), {(1, 1): (1, 0, 1)})
        with pytest.raises(VariableMismatchError, match="bracket operand is not over"):
            bracket(x, x)
        on_yx = x.with_vars(("y", "x"))
        assert bracket(on_yx, on_yx) == MultiPoly.const(("y", "x"), 1)


class TestLimits:
    def test_exponent_overflow_is_raised_not_wrapped(self):
        x = MultiPoly.variable(VARS, "x")
        top = MultiPoly(VARS, {(TOP - 1, 0): 1}) * x
        assert top.terms == {(TOP, 0): (1, 0, 1)}
        assert (top * MultiPoly(VARS, {(0, TOP): 1})).terms == {(TOP, TOP): (1, 0, 1)}
        with pytest.raises(ExponentOverflowError, match="exceeds 32767"):
            top * x
        with pytest.raises(ExponentOverflowError, match="exceeds 32767"):
            MultiPoly(VARS, {(0, TOP + 1): 1})

    def test_term_limit(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_TERMS", 3)
        x = MultiPoly.variable(VARS, "x")
        one = MultiPoly.const(VARS, 1)
        square = (x + one) * (x + one)   # 3 terms: at the limit
        assert len(square.terms) == 3
        with pytest.raises(TermLimitError, match="4 terms exceeds the limit of 3"):
            square * (x + one)


def weyl_products(op: str, f: MultiPoly, g: MultiPoly, L: int = 2):
    """The program's product of f and g by ``op`` on T*R, and the reference's
    (``weyl_reference``): ``*``, the Weyl walk at order L, or the Weyl
    bracket.  The program's product is taken first."""
    star = StarProduct.weyl(PhaseSpace.of_dim(1))
    if op == "mul":
        got = f * g
    elif op == "walk":
        got = star.eval_poly(f, g, L)
    else:
        got = star.bracket_poly(f, g)
    return got, weyl_reference(op, f, g, L)


def weyl_reference(op: str, f: MultiPoly, g: MultiPoly, L: int = 2):
    """The reference's product of f and g by ``op`` on T*R, one polynomial,
    or the walk's λ-coefficients as a list.  It shares no code with
    ``_mul_sum``."""
    C, F, G = StarProduct.weyl(PhaseSpace.of_dim(1)).matrix, RefPoly.of(f), RefPoly.of(g)
    if op == "mul":
        return F * G
    if op == "walk":
        out = tensor_star(C, F, G, L)
        return out + [RefPoly.zero(F.vars)] * (L + 1 - len(out))
    return matrix_bracket(C, F, G)


def agrees_with(op: str, got, want) -> bool:
    """``agrees``, on every λ-coefficient of a walk's series."""
    if op == "walk":
        return canonical(got.poly) and \
            [RefPoly.of(got.coeff(r)) for r in range(got.order + 1)] == want
    return agrees(got, want)


def q_and_p():
    return (MultiPoly.variable(("q1", "p1"), v) for v in ("q1", "p1"))


def qp(a: int, b: int) -> MultiPoly:
    """q^a p^b on T*R."""
    return MultiPoly(("q1", "p1"), {(a, b): 1})


# exponents at the edges of a slot: their sums reach 2^15 - 1, the largest a
# slot holds, and 2^15, its guard bit, in several ways
SLOT_EDGES = (0, 1, CARRY - 1, CARRY, 2 * CARRY - 2, TOP)
# polynomials on T*R of up to three terms with exponents of SLOT_EDGES
edge_polys = st.dictionaries(st.tuples(*[st.sampled_from(SLOT_EDGES)] * 2), gaussians,
                             max_size=3).map(lambda terms: MultiPoly(("q1", "p1"), terms))


class TestOnePassTail:
    """The tail of ``_mul_sum`` that ``*``, the walk and the bracket share.
    Its output is canonical: the factor common to the denominator and every
    numerator is divided out.  It is the one place where a product finds an
    exponent past ``TOP``: its keys, the walk's once moved back from its
    layout, are scanned for a guard bit unless the sum of the inputs' key
    ORs sets none, and ``*`` always scans."""

    OPS = ("mul", "walk", "bracket")

    @pytest.mark.parametrize("op", OPS)
    def test_a_common_factor_is_divided_out(self, op):
        # den 2 against numerators that all carry 2: (q + p)/2 and 2(q - p)
        q, p = q_and_p()
        got, want = weyl_products(op, (q + p).scale(Fraction(1, 2)), (q - p).scale(2))
        assert agrees_with(op, got, want)

    @pytest.mark.parametrize("op", OPS)
    def test_inputs_that_may_carry_are_scanned(self, op):
        a = CARRY
        # (q^a + p)(q + p^a) reaches q^(a+1), q^a·p^a and p^(a+1), and no higher
        got, want = weyl_products(op, qp(a, 0) + qp(0, 1), qp(1, 0) + qp(0, a))
        assert agrees_with(op, got, want)
        # (q^a + p)·q^a reaches q^2a, the guard bit of q's slot, as does the
        # bracket of q^(a+1)·p and q^a·p
        f, g = (qp(a + 1, 1), qp(a, 1)) if op == "bracket" else (qp(a, 0) + qp(0, 1), qp(a, 0))
        with pytest.raises(ExponentOverflowError, match="exceeds 32767"):
            weyl_products(op, f, g)

    def test_the_walk_drops_powers_past_the_order_before_its_scan(self):
        # q^a gives q a 16-bit slot in the walk's layout, and λ^a·λ^a reaches
        # λ^2a = λ^(L+1), past the order: the power is dropped before the
        # keys move back, and nothing raises
        L, a = TOP, CARRY
        star = StarProduct.weyl(PhaseSpace.of_dim(1))
        fs, gs = ((a - 1, qp(a, 0)), (a, qp(1, 0))), ((a - 1, qp(0, 1)), (a, qp(0, a)))
        f, g = (sum((LambdaSeries.from_poly(x, L, shift=r) for r, x in xs),
                    LambdaSeries.zero(("q1", "p1"), L)) for xs in (fs, gs))
        got = star.eval(f, g)
        want = [RefPoly.zero(f.vars)] * (L + 1)
        for r, x in fs:
            for s, y in gs:
                if r + s <= L:
                    for t, c in enumerate(tensor_star(star.matrix, RefPoly.of(x),
                                                      RefPoly.of(y), L - r - s)):
                        want[r + s + t] = want[r + s + t] + c
        assert agrees_with("walk", got, want)

    @pytest.mark.parametrize("op", OPS)
    def test_a_skipped_common_factor_division_is_killed(self, op, monkeypatch):
        # the mutant: the tail of _mul_sum leaves the common factor in
        real = exact.gcd
        monkeypatch.setattr(exact, "gcd", lambda *args: 1 if sys._getframe(1).f_code.co_name
                            == "_mul_sum" else real(*args))
        with pytest.raises(AssertionError):
            self.test_a_common_factor_is_divided_out(op)

    @pytest.mark.parametrize("op", OPS)
    def test_a_skipped_output_scan_is_killed(self, op, monkeypatch):
        # the mutant: every product passes a reach of 0, which sets no guard
        # bit, so no output is scanned
        real = exact._mul_sum
        monkeypatch.setattr(exact, "_mul_sum", lambda vars, den, products, reach=-1, *rest:
                            real(vars, den, products, 0, *rest))
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            self.test_inputs_that_may_carry_are_scanned(op)

    @pytest.mark.parametrize("op", OPS)
    @given(f=edge_polys, g=edge_polys)
    @example(f=qp(CARRY, 0), g=qp(CARRY, 0))
    @example(f=qp(CARRY - 1, 0), g=qp(CARRY, 0))
    # the inputs' key ORs sum to 2^15 in both slots, so every output is
    # scanned: f·g, which is also the walk's λ^0, passes TOP, and the
    # bracket stays at (TOP, TOP)
    @example(f=qp(TOP, 1), g=qp(1, TOP))
    @settings(max_examples=60, deadline=None)
    def test_overflow_is_raised_exactly_where_the_reference_passes_top(self, op, f, g):
        want = weyl_reference(op, f, g)
        high = max((e for p in (want if op == "walk" else [want]) for exp in p.terms
                    for e in exp), default=0)
        if high > TOP:
            with pytest.raises(ExponentOverflowError, match="exceeds 32767"):
                weyl_products(op, f, g)
        else:
            assert agrees_with(op, *weyl_products(op, f, g))


# exponents at the edges of the walk's slot widths: a slot holds the sum of
# the two inputs' bounds, so sums of these reach 2^w - 1 and 2^w for w up to 5
EDGES = (1, 2, 3, 4, 7, 8, 15, 16)


def tensor_star(C: dict, f: RefPoly, g: RefPoly, L: int) -> list:
    """λ^0..λ^L of μ ∘ exp(λ Σ C^{ij} ∂_i ⊗ ∂_j)(f ⊗ g), for a matrix C of
    entries ``pair`` reads, on f ⊗ g held as a map from pairs of exponent
    tuples to coefficients, one step of the bidifferential operator per
    power: equal pairs of derivatives merge, so inputs of high degree stay
    cheap.  It stops at the first power with no pair left, and never passes
    L, where ``oracle.ConstantStar`` expands each monomial pair until its
    exponents are used up, which exponents of up to 2^15 make too slow."""
    vs, out = f.vars, []
    C = [(ij, pair(c)) for ij, c in C.items()]
    cur = {(a, b): mul(x, y) for a, x in f.terms.items() for b, y in g.terms.items()}
    for r in range(L + 1):
        if not cur:
            break
        acc = {}
        for (a, b), c in cur.items():
            e = tuple(x + y for x, y in zip(a, b))
            acc[e] = add(acc.get(e, ZERO), c)
        out.append(RefPoly(vs, acc).scale(Fraction(1, factorial(r))))
        nxt = {}
        for (a, b), c in cur.items():
            for (i, j), cij in C:
                if a[i] and b[j]:
                    key = (a[:i] + (a[i] - 1,) + a[i + 1:], b[:j] + (b[j] - 1,) + b[j + 1:])
                    nxt[key] = add(nxt.get(key, ZERO), times(mul(c, cij), a[i] * b[j]))
        cur = {k: c for k, c in nxt.items() if not is_zero(c)}
    return out


@st.composite
def edge_series(draw, L: int, used, edges=EDGES, max_terms=2):
    """The powers (r, polynomial) of a series at order L over ``SP2.vars``:
    up to three powers of λ, each a polynomial of up to ``max_terms`` terms
    on the variables of ``used``, whose exponents are 0 or one of
    ``edges``."""
    powers = {draw(st.sampled_from((0, 1, 2, L // 2, L - 1, L)))
              for _ in range(draw(st.integers(1, 3)))}
    out = []
    for r in sorted(x for x in powers if 0 <= x <= L):
        terms = {}
        for _ in range(draw(st.integers(1, max_terms))):
            e = tuple(draw(st.sampled_from((0,) + edges)) if v in used else 0
                      for v in SP2.vars)
            terms[e] = draw(gaussians)
        p = MultiPoly(SP2.vars, terms)
        if not p.is_zero():
            out.append((r, p))
    return out


class TestWalkLayout:
    """The star walk runs on keys of its own layout, one slot per variable
    the inputs use, just wide enough for the sum of their bounds."""

    @pytest.mark.parametrize("kind", ("weyl", "wick", "std", "skew"))
    @given(data=st.data(), L=st.sampled_from((0, 1, 2, 3, TOP)), overlap=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_against_the_tensor_oracle(self, kind, data, L, overlap):
        star = product_of(kind, SP2)
        # disjoint: f on (q1, p2) and g on (q2, p1), which every matrix but
        # std's couples; overlapping: both on (q1, p1).  At order TOP the
        # depth is bounded by the degrees alone, so the oracle is kept small
        used = (("q1", "p1"),) * 2 if overlap else (("q1", "p2"), ("q2", "p1"))
        small = {"edges": EDGES[:4], "max_terms": 1} if L == TOP else {}
        fs, gs = (data.draw(edge_series(L, u, **small)) for u in used)
        f, g = (sum((LambdaSeries.from_poly(x, L, shift=r) for r, x in xs),
                    LambdaSeries.zero(SP2.vars, L)) for xs in (fs, gs))
        got = star.eval(f, g)
        C, want = star.matrix, {}
        for r, x in fs:
            for s, y in gs:
                for t, c in enumerate(tensor_star(C, RefPoly.of(x), RefPoly.of(y), L - r - s)):
                    want[r + s + t] = want.get(r + s + t, RefPoly.zero(SP2.vars)) + c
        assert canonical(got.poly)
        powers = {k >> exact.SLOT_BITS * len(SP2.vars) for k in got.poly.nums}
        assert {r: RefPoly.of(got.coeff(r)) for r in powers} == \
            {r: c for r, c in want.items() if not c.is_zero()}

    def test_an_exponent_of_top_moves_back_and_one_past_it_raises(self):
        # q^a·q^(a - 1) = q^TOP fills the 16-bit slot of the layout but for
        # its top bit, and q^a·q^a reaches that bit
        a = CARRY
        got, want = weyl_products("walk", qp(a, 0) + qp(0, 1), qp(a - 1, 0))
        assert agrees_with("walk", got, want) and (TOP, 0) in got.coeff(0).terms
        with pytest.raises(ExponentOverflowError, match="exceeds 32767"):
            weyl_products("walk", qp(a, 0), qp(a, 0))

    def test_only_the_walk_fills_key_tables(self, monkeypatch):
        # a move between variable lists re-keys by its plan's runs alone;
        # the walk, whose keys repeat, keeps a table per plan
        plans = []
        extend = exact._extend
        monkeypatch.setattr(exact, "_extend",
                            lambda plan, keys: plans.append(plan) or extend(plan, keys))
        f = LambdaSeries.from_poly(qp(2, 1) + qp(0, 3), 2) + \
            LambdaSeries.from_poly(qp(1, 0), 2, shift=1)
        for vs in (("p1", "q1"), ("q2", "q1", "p1"), ("q1",)):   # f uses q1 and p1
            f.zero_outside(vs)
            if "p1" in vs:
                f.with_vars(vs)
        assert plans == []
        for cached in (exact.star_fields, exact._walk_plans):   # no earlier walk's tables
            cached.cache_clear()
        StarProduct.weyl(PhaseSpace.of_dim(1)).eval(f, f)
        assert plans and all(plan[1] for plan in plans)

    def test_the_caches_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_LAYOUTS", 4)
        monkeypatch.setattr(exact, "MAX_TERMS", 6)
        exact.star_fields.cache_clear()
        try:
            sp = PhaseSpace.of_dim(1)
            star = StarProduct.weyl(sp)
            # the product's fields: star_fields gives one object per matrix
            fields = exact.star_fields(sp.vars, phase_space._rank_one_terms(dict(star.matrix)))
            for a in range(1, 10):
                for b in range(1, 10):
                    # a layout per pair of bounds, and more keys in all than
                    # a table may hold
                    assert star.eval_poly(qp(a, 0), qp(0, b), 1).coeff(0) == qp(a, b)
                    assert len(fields[2]) <= 4
            tables = [plan[1] for layout in fields[2].values() for plan in layout[1:3]]
            assert tables and all(len(t) <= 6 for t in tables)
        finally:
            exact.star_fields.cache_clear()
        for cached in (exact.star_fields, exact._walk_plans):
            info = cached.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize


class TestLambdaSeries:
    def test_shift_drops_top(self):
        one = MultiPoly.const(("x",), 1)
        s = LambdaSeries.from_poly(one, 1) + LambdaSeries.from_poly(one, 1, shift=1)
        lam = LambdaSeries.from_poly(one, 1, shift=1)
        assert (s * lam).coeff(0).is_zero()
        assert (s * lam).coeff(1) == one
        assert (s * lam * lam * lam).is_zero()

    def test_min_order(self):
        one = MultiPoly.const(("x",), 1)
        assert LambdaSeries.from_poly(one, 2, shift=1).min_lambda_order() == 1
        assert LambdaSeries.zero(("x",), 1).min_lambda_order() is None

    def test_order_mismatch(self):
        one = MultiPoly.const(("x",), 1)
        a, b = LambdaSeries.from_poly(one, 2), LambdaSeries.from_poly(one, 3)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(OrderMismatchError):
                op()

    def test_polynomial_starts_with_lambda(self):
        with pytest.raises(VariableMismatchError):
            LambdaSeries(MultiPoly.variable(("x",), "x"), 1)

    def test_a_polynomial_over_lambda_is_rejected(self):
        # over ("λ", "λ", "x") the series would render λ^0: (1/1)+(0/1)i*λ
        p = MultiPoly((exact.LAMBDA, "x"), {(1, 0): 1})
        with pytest.raises(VariableMismatchError, match="'λ' repeats in \\('λ', 'λ', 'x'\\)"):
            LambdaSeries.from_poly(p, 2)
        with pytest.raises(VariableMismatchError, match="'λ' repeats"):
            LambdaSeries.zero((exact.LAMBDA, "x"), 2)

    def test_order_must_fit_a_slot(self):
        one = MultiPoly.const(("x",), 1)
        assert LambdaSeries.from_poly(one, TOP, shift=TOP).coeff(TOP) == one
        with pytest.raises(ExponentOverflowError, match="exceeds 32767"):
            LambdaSeries.from_poly(one, TOP + 1)

    def test_a_negative_shift_is_rejected(self):
        with pytest.raises(AlgebraError, match="negative λ-shift -1"):
            LambdaSeries.from_poly(MultiPoly.variable(("x",), "x"), 3, shift=-1)

    def test_a_negative_order_is_rejected(self):
        x = MultiPoly.variable(("x",), "x")
        with pytest.raises(AlgebraError, match="negative series order -1"):
            LambdaSeries.from_poly(x, -1)
        with pytest.raises(AlgebraError, match="negative series order -3"):
            LambdaSeries.from_poly(x, 2).truncate(-3)


@st.composite
def series(draw, vars=VARS, max_order=4):
    """A series as a list of coefficients: every power is drawn, some of
    them zero."""
    L = draw(st.integers(0, max_order))
    return RefSeries([draw(polys(vars, max_degree=3, max_terms=3)) for _ in range(L + 1)])


def same(s: LambdaSeries, ref: RefSeries) -> bool:
    """The one-polynomial series and the coefficient list hold the same
    series, in the same text form, and the polynomial is canonical."""
    return (canonical(s.poly) and s.order == ref.order and s.vars == ref.vars
            and RefSeries.of(s) == ref and s.render() == ref.render()
            and s.min_lambda_order() == ref.min_lambda_order()
            and s.is_zero() == ref.is_zero())


class TestSeriesAgainstReference:
    """The one-polynomial series against the coefficient list of
    ``reference_poly``."""

    @given(series(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_ring_operations(self, a, data):
        b = data.draw(series().map(lambda s: s.truncate(a.order)))
        sa, sb = a.to_series(), b.to_series()
        assert same(sa, a) and same(sb, b)
        assert same(sa + sb, a + b)
        assert same(sa - sb, a - b)
        assert same(sa - sa, a - a)
        assert same(sa.conjugate(), a.conjugate())
        assert all(sa.coeff(r) == c for r, c in enumerate(a.coeffs))
        assert sa.coeff(a.order + 1).is_zero()

    @given(series(), scalars)
    @settings(max_examples=60, deadline=None)
    def test_scale(self, a, c):
        assert same(a.to_series().scale(c), a.scale(c))

    @given(series(), series())
    @settings(max_examples=60, deadline=None)
    def test_eq_and_hash(self, a, b):
        sa, sb = a.to_series(), b.to_series()
        assert (sa == sb) == (a == b)
        assert (sa == sb) == (sa.render() == sb.render() and sa.order == sb.order)
        same_series = (sa + sb.truncate(a.order)) - sb.truncate(a.order)
        assert same_series == sa and hash(same_series) == hash(sa)

    @given(series(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_truncate(self, a, order):
        # to a lower, the same and a higher order
        assert same(a.to_series().truncate(order), a.truncate(order))

    @given(polys(), st.integers(0, 4), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_from_poly(self, p, order, shift):
        # a shift past the order gives the zero series
        assert same(LambdaSeries.from_poly(p, order, shift),
                    RefSeries.from_poly(p, order, shift))

    @given(series(), st.integers(0, 3), polys(max_degree=2, max_terms=3))
    @settings(max_examples=60, deadline=None)
    def test_product_with_a_shifted_polynomial(self, a, k, p):
        lam_p = RefSeries.from_poly(p, a.order, k)
        want = RefSeries([x * p for x in a.coeffs]).lambda_shift(k)
        assert same(a.to_series() * lam_p.to_series(), want)


class TestInvertUnipotent:
    def test_geometric_series(self):
        one = MultiPoly.const(("x",), 1)
        L = 5
        lam = LambdaSeries.from_poly(one, L, shift=1)
        # A = multiplication by the parameter
        inv = invert_unipotent(lambda s: s * lam, L)
        res = inv(LambdaSeries.from_poly(one, L))
        # (1 - t)^{-1} = sum of all powers
        assert RefSeries.of(res) == RefSeries([one] * (L + 1))
        # inverse property: (id - A)(res) = 1
        back = res - res * lam
        assert back == LambdaSeries.from_poly(one, L)

    def test_contract_violation(self):
        one = MultiPoly.const(("x",), 1)
        ident = lambda s: s
        with pytest.raises(ContractViolationError):
            invert_unipotent(ident, 3)(LambdaSeries.from_poly(one, 3))
