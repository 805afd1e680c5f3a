"""The tests of ``GaussianRational`` and ``gr`` themselves, in the one test
module that names them: ``test_boundary`` holds every other module under
``tests/`` to the rule that only ``qkoszul.exact`` does.  The type stays in
the package only to build the benchmark's inputs and to be counted by its
tracer; the tests compute on (re, im) pairs and hand the package (re, im,
den) triples, so these tests go with the type."""

from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkoszul import cli, exact
from qkoszul.exact import GaussianRational, LambdaSeries, MultiPoly, gr
from qkoszul.koszul import ReductionContext, quantum_restriction, restriction, series_restriction
from qkoszul.lie import LieAlgebraData, QuantumMomentumMap
from qkoszul.phase_space import PhaseSpace, StarProduct, check_star_axioms
from qkoszul.sampling import sample_pairs, sample_polys

KINDS = ("weyl", "wick", "std")
GOLDEN = Path(__file__).parent / "golden"
VARS = ("x", "y")


@st.composite
def fraction_draws(draw):
    """n/d with d in 1..12 and |n/d| <= 50, from two integer draws."""
    d = draw(st.integers(1, 12))
    return Fraction(draw(st.integers(-50 * d, 50 * d)), d)


fractions = fraction_draws()
# mixed signs and denominators up to 12, with pure real and pure imaginary
# values drawn on purpose
gaussians = st.one_of(st.builds(gr, fractions, fractions),
                      st.builds(gr, fractions),
                      st.builds(lambda f: gr(0, f), fractions))


def is_zero(c: GaussianRational) -> bool:
    return c.re == 0 and c.im == 0


class TestGaussianRational:
    def test_basic_arithmetic(self):
        a = gr(Fraction(1, 2), Fraction(3))
        b = gr(Fraction(-2), Fraction(1, 3))
        assert a + b == gr(Fraction(-3, 2), Fraction(10, 3))
        assert a * b == gr(Fraction(-2), Fraction(-35, 6))
        assert gr(0, 1) * gr(0, 1) == gr(-1)

    @given(gaussians, gaussians, gaussians)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a

    def test_render(self):
        assert exact.render_gauss(gr(Fraction(1, 2), Fraction(-3, 4))) == "(1/2)-(3/4)i"


class TestGauss:
    """``gauss`` and ``render_gauss`` on a ``GaussianRational``."""

    @given(gaussians, st.integers(-5, 5).filter(bool))
    def test_every_form_of_a_number_reads_alike(self, c, k):
        r, i, d = t = exact.gauss(c)
        assert d > 0 and gcd(r, i, d) == 1
        assert gr(Fraction(r, d), Fraction(i, d)) == c
        assert exact.gauss(t) == exact.gauss((k * r, k * i, k * d)) == t
        if not i:
            assert exact.gauss(Fraction(r, d)) == t

    @given(gaussians, st.integers(1, 6))
    def test_the_three_renderers_share_one_writer(self, c, k):
        # the text of both parts in lowest terms, as Fraction writes them
        re, im = c.re, abs(c.im)
        want = (f"({re.numerator}/{re.denominator}){'+' if c.im >= 0 else '-'}"
                f"({im.numerator}/{im.denominator})i")
        r, i, d = exact.gauss(c)
        assert exact.render_gauss(c) == exact.render_gauss((k * r, k * i, k * d)) == want
        if not is_zero(c):
            assert MultiPoly.const(VARS, c).render() == want
            assert MultiPoly.variable(VARS, "x").scale(c).render() == f"{want}*x"


def test_products_samples_contexts_and_reports_build_no_gaussian_rational(monkeypatch):
    """The three products are built, evaluated and checked, their brackets
    and the samples computed, a context with corrections c_a ≠ 0 read from
    triples derives T, and every builtin report is written in both formats,
    with the construction of GaussianRational switched off: only ``exact``
    reads one, and nothing but the API's callers builds one."""
    def refuse(*args):
        raise AssertionError("a GaussianRational was built")
    monkeypatch.setattr(GaussianRational, "__init__", refuse)
    with pytest.raises(AssertionError):
        gr(1)
    sp = PhaseSpace.of_dim(2)
    samples = sample_polys(41, sp.vars, 3, 5)
    pairs = sample_pairs(43, sp.vars, 3, 3)
    for kind in KINDS:
        star = getattr(StarProduct, kind)(sp)
        for f, g in pairs:
            star.eval_poly(f, g, 3)
            star.bracket_poly(f, g)
        assert all(c["status"] == "pass" for c in check_star_axioms(star, samples, 3))
    # Jq_a = p_a + λc_a on T*R³, c = (i/3, 1/5) as triples
    sp3, translated, L = PhaseSpace.of_dim(3), (1, 2), 3
    Jq = QuantumMomentumMap(LieAlgebraData.abelian(2), [
        sp3.series(sp3.p(a), L) + LambdaSeries.from_poly(MultiPoly.const(sp3.vars, c), L, shift=1)
        for a, c in zip(translated, ((0, 1, 3), (1, 0, 5)))])
    ctx = ReductionContext.canonical(sp3, translated, StarProduct.wick(sp3), L, Jq=Jq)
    assert ctx.conjugation is not None
    J1, J2 = ctx.J.components
    polys = sample_polys(47, sp3.vars, 2, 4)
    for f, g in zip(polys, polys[1:]):
        # p_1 p_2 and p_1² in every coefficient of λ
        F = ctx.series(f * J1 * J2 + g * J1 * J1) + LambdaSeries.from_poly(g * J2, L, shift=1)
        got = quantum_restriction(F, ctx)
        assert got == series_restriction(F, ctx) and got != restriction(F, ctx)
    for name in cli.SCENARIOS:
        report = cli.run_scenario(cli.builtin_config(name))
        for fmt, ext in (("json", "json"), ("text", "txt")):
            assert cli.emit_report(report, fmt) == (GOLDEN / f"{name}.{ext}").read_bytes()
