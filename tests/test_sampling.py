"""The sample generator against the form it replaced, which sums the draws
in the (re, im) pair arithmetic of ``reference_poly``: the same draws give
the same polynomials, in canonical form, which pins the determinism
contract of ``qkoszul.sampling``."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_poly
from qkoszul.exact import MultiPoly
from qkoszul.sampling import random_poly, sample_pairs, sample_polys


def canonical(p: MultiPoly) -> bool:
    parts = [x for v in p.nums.values() for x in v]
    return p.den > 0 and all(r or i for r, i in p.nums.values()) and gcd(p.den, *parts) == 1


@given(seed=st.integers(0, 2**32), nvars=st.integers(1, 6), degree=st.integers(0, 6),
       count=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_samples_equal_the_reference(seed, nvars, degree, count):
    vars = tuple(f"x{i}" for i in range(nvars))
    got = sample_polys(seed, vars, degree, count)
    want = reference_poly.sample_polys(seed, vars, degree, count)
    assert got == want
    assert [p.render() for p in got] == [p.render() for p in want]
    assert all(canonical(p) for p in got)


def test_pairs_draw_from_one_stream():
    vars = ("q1", "p1")
    flat = reference_poly.sample_polys(5, vars, 3, 6)
    assert [x for pair in sample_pairs(5, vars, 3, 3) for x in pair] == flat


@pytest.mark.parametrize("vars", [("x0",), ("q1", "p1"), ("q1", "q2", "p1", "p2", "lam")])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_a_pair_is_two_consecutive_draws(seed, vars):
    for count in (1, 4):
        s = sample_polys(seed, vars, 3, 2 * count)
        assert sample_pairs(seed, vars, 3, count) == list(zip(s[::2], s[1::2]))


class Scripted:
    """A stand-in for ``random.Random`` that returns fixed draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def randint(self, a, b):
        v = self.draws.pop(0)
        assert a <= v <= b
        return v

    def randrange(self, n):
        return self.randint(0, n - 1)


def test_cancelled_terms_fall_back_to_one():
    # two terms on x0: 3/1 and -6/2, which cancel
    rng = Scripted(2, 1, 0, 3, 1, 1, 0, -6, 2)
    vars = ("x0", "x1")
    assert random_poly(rng, vars, 2) == MultiPoly.const(vars, 1)
    assert not rng.draws


def test_coincident_terms_are_summed_over_twelve():
    # x0·x1 with 1/4 and 1/3: 7/12
    rng = Scripted(2, 2, 0, 1, 1, 4, 2, 1, 0, 1, 3)
    p = random_poly(rng, ("x0", "x1"), 2)
    assert p.render() == "(7/12)+(0/1)i*x0*x1"
    assert not rng.draws
