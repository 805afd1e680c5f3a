"""Acceptance gate: the six top-level criteria, each a single test.

Everything is exact Gaussian-rational equality at the stated truncation
order; runtime budgets are asserted alongside.
"""

import json
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from qkoszul.exact import LambdaSeries, MultiPoly
from qkoszul.koszul import (
    ReductionContext,
    ce_boundary,
    verify_complex_identities,
)
from qkoszul.lie import (
    LieAlgebraData,
    QuantumMomentumMap,
    TranslationAction,
    canonical_momentum_map,
)
from qkoszul.phase_space import PhaseSpace, StarProduct, check_star_axioms
from qkoszul.reduction import (
    ReducedAlgebra,
    build_shifted_context,
    knp_reduced_star,
    reduced_star,
)
from qkoszul.sampling import sample_pairs, sample_polys
from qkoszul.stages import StageConfig, StagePipeline, check_stage_equality

L = 4
DEGREE = 3
GOLDEN = Path(__file__).parent / "golden"


def s1_context(Jq=None) -> ReductionContext:
    sp = PhaseSpace.of_dim(3)
    return ReductionContext.canonical(sp, [1, 2], StarProduct.weyl(sp), L, Jq=Jq)


def test_criterion_1_star_axiom_suite():
    started = time.monotonic()
    witness_recorded = False
    for n in (1, 2, 3):
        sp = PhaseSpace.of_dim(n)
        samples = sample_polys(1000 + n, sp.vars, DEGREE, 30)
        for kind in ("weyl", "wick", "std"):
            star = {"weyl": StarProduct.weyl, "wick": StarProduct.wick,
                    "std": StarProduct.std}[kind](sp)
            checks = {c["name"]: c for c in check_star_axioms(star, samples, L)}
            for name in ("associativity", "order0_pointwise",
                         "order1_commutator_bracket", "unit"):
                assert checks[name]["status"] == "pass", (n, kind, name)
            if kind == "std":
                # the matrix is not Hermitian, so the check must fail, and the
                # entry that says so passes with the failing witness
                expected = checks["hermitian_fails_as_expected"]
                assert expected["status"] == "pass", (n, kind)
                assert "witness" in expected, (n, kind)
                assert "hermitian" not in checks, (n, kind)
                witness_recorded = True
            else:
                assert checks["hermitian"]["status"] == "pass", (n, kind)
    assert witness_recorded
    assert time.monotonic() - started < 30


def test_criterion_2_complex_suite():
    started = time.monotonic()
    ctx = s1_context()
    samples = sample_polys(2000, ctx.space.vars, DEGREE, 6)
    failing = [c["name"] for c in verify_complex_identities(ctx, samples)
               if c["status"] != "pass"]
    assert failing == []
    # Lie algebra homology boundary squares to zero on the Heisenberg
    # adjoint representation
    lie = LieAlgebraData.heisenberg()
    v = tuple(Fraction(k, 2) for k in (3, -1, 4))
    for grade in (2, 3):
        x = {key: v for key in combinations((1, 2, 3), grade)}
        assert ce_boundary(lie, ce_boundary(lie, x)) == {}
    assert time.monotonic() - started < 60


def test_criterion_3_reduction_correctness():
    red = ReducedAlgebra(s1_context())
    star_red = reduced_star(red)
    rs = red.space
    samples = sample_polys(3000, rs.vars, DEGREE, 10)
    checks = {c["name"]: c for c in check_star_axioms(star_red, samples, L)}
    for name in ("associativity", "order0_pointwise",
                 "order1_commutator_bracket", "hermitian", "unit"):
        assert checks[name]["status"] == "pass", name
    # against the directly built one dimensional product
    direct = StarProduct.weyl(PhaseSpace([3]))
    assert star_red.eval_poly(rs.q(3), rs.p(3), L) == \
        direct.eval_poly(direct.space.q(3), direct.space.p(3), L)
    # reduced bracket satisfies the Jacobi identity
    bracket = star_red.bracket_poly
    for i in range(len(samples) - 2):
        f, g, h = samples[i], samples[i + 1], samples[i + 2]
        jac = bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) + bracket(h, bracket(f, g))
        assert jac.is_zero()


def test_criterion_4_knp_equivalence():
    started = time.monotonic()
    sp = PhaseSpace.of_dim(2)
    plain = ReductionContext.canonical(sp, [1], StarProduct.weyl(sp), L)
    magnetic = build_shifted_context(plain, {1: (2, Fraction(1, 2))},
                                     {1: Fraction(3)})
    for seed, ctx in ((4000, plain), (4001, magnetic)):
        red = ReducedAlgebra(ctx)
        star_red = reduced_star(red)
        knp = knp_reduced_star(red)
        for f, g in sample_pairs(seed, red.space.vars, DEGREE, 20):
            assert knp.eval_poly(f, g, L) == star_red.eval_poly(f, g, L)
    assert time.monotonic() - started < 60


def test_criterion_5_reduction_in_stages():
    started = time.monotonic()
    lie = LieAlgebraData.abelian(2)

    def run(ctx, first, seed, count):
        pipe = StagePipeline(ctx, StageConfig(lie, first))
        pairs = sample_pairs(seed, pipe.red2.space.vars, DEGREE, count)
        checks = check_stage_equality(pipe, pairs)
        assert checks[0]["status"] == "pass", checks[0].get("witness")

    run(s1_context(), [1], 5000, 30)
    run(s1_context(), [2], 5001, 30)

    # the same with a constant imaginary first-order correction on Jq
    sp = PhaseSpace.of_dim(3)
    J = canonical_momentum_map(TranslationAction(sp, (1, 2)))
    Jq = QuantumMomentumMap(J.lie, [
        LambdaSeries.from_poly(c, L) + LambdaSeries.from_poly(
            MultiPoly.const(sp.vars, a), L, shift=1)
        for c, a in zip(J.components, ((0, 1, 3), (0, -2, 7)))])
    run(s1_context(Jq=Jq), [1], 5002, 30)
    assert time.monotonic() - started < 120


def test_criterion_6_determinism():
    # the first report of each format must also equal the committed golden
    # bytes, so a refactor cannot change what a builtin scenario reports
    from qkoszul.cli import SCENARIOS, builtin_config, emit_report, run_scenario
    for name in sorted(SCENARIOS):
        first = emit_report(run_scenario(builtin_config(name)), "json")
        assert first == (GOLDEN / f"{name}.json").read_bytes(), name
        second = emit_report(run_scenario(builtin_config(name)), "json")
        assert first == second, name
        third = emit_report(run_scenario(builtin_config(name)), "text")
        assert third == (GOLDEN / f"{name}.txt").read_bytes(), name
        fourth = emit_report(run_scenario(builtin_config(name)), "text")
        assert third == fourth, name
    # every committed entry has the report's shape: a failure carries the
    # witness it failed on, and no entry has a key outside the schema
    for path in sorted(GOLDEN.glob("*.json")):
        for c in json.loads(path.read_bytes())["checks"]:
            assert set(c) <= {"name", "status", "witness", "info"}, (path.name, c)
            assert c["status"] in ("pass", "fail"), (path.name, c)
            assert c["status"] == "pass" or "witness" in c, (path.name, c)
