"""Lie algebra data, translation actions and (quantum) momentum maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkoszul.exact import AlgebraError, LambdaSeries, MultiPoly, VariableMismatchError
from qkoszul.lie import (
    LieAlgebraData,
    MomentumMap,
    QuantumMomentumMap,
    TranslationAction,
    canonical_momentum_map,
    check_classical_equivariance,
    check_quantum_momentum_map,
)
from qkoszul.koszul import ReductionContext
from qkoszul.phase_space import PhaseSpace, StarProduct
from qkoszul.reduction import build_shifted_context
from qkoszul.sampling import sample_polys
from reference_poly import JACOBI_BREAKING, lie_table_failure

HEISENBERG = {(1, 2, 3): 1, (2, 1, 3): -1}
SO3 = {(1, 2, 3): 1, (2, 1, 3): -1, (2, 3, 1): 1, (3, 2, 1): -1,
       (3, 1, 2): 1, (1, 3, 2): -1}
TABLES = {"abelian": {}, "heisenberg": HEISENBERG, "so3": SO3,
          "jacobi-breaking": JACOBI_BREAKING}


def verdict(dim, structure):
    """None if the table is accepted, else the message it is rejected with.
    Construction checks antisymmetry, not the Jacobi identity."""
    try:
        LieAlgebraData(dim, structure)
    except AlgebraError as e:
        return str(e)
    return None


@st.composite
def structure_tables(draw):
    """One of ``TABLES`` on 3 or 4 indices, with up to two entries set at
    random, some of them with their antisymmetric partner."""
    dim = draw(st.integers(3, 4))
    table = dict(TABLES[draw(st.sampled_from(sorted(TABLES)))])
    for _ in range(draw(st.integers(0, 2))):
        a, b, g = (draw(st.integers(1, dim)) for _ in range(3))
        d = draw(st.integers(1, 3))
        v = Fraction(draw(st.integers(-2 * d, 2 * d)), d)
        table[a, b, g] = v
        if draw(st.booleans()):
            table[b, a, g] = -v
    return dim, table


class TestLieAlgebraData:
    def test_abelian(self):
        lie = LieAlgebraData.abelian(3)
        assert lie.structure == {}
        assert lie.bracket_coeffs(1, 2) == {}

    def test_heisenberg_brackets(self):
        lie = LieAlgebraData.heisenberg()
        assert lie.bracket_coeffs(1, 2) == {3: Fraction(1)}
        assert lie.bracket_coeffs(2, 1) == {3: Fraction(-1)}
        assert lie.bracket_coeffs(1, 3) == {}
        assert lie.structure != {}

    def test_antisymmetry_enforced(self):
        with pytest.raises(AlgebraError):
            LieAlgebraData(2, {(1, 1, 2): Fraction(1)})

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_builtin_tables(self, name):
        # every table is antisymmetric, so each is accepted; only the dense
        # check of the tests sees the Jacobi failure
        want = "Jacobi identity fails at (1, 2, 3, 3)" if name == "jacobi-breaking" else None
        assert verdict(3, TABLES[name]) is None
        assert lie_table_failure(3, TABLES[name]) == want

    @pytest.mark.parametrize("lie", [
        *(LieAlgebraData.abelian(k) for k in range(1, 5)),
        LieAlgebraData.heisenberg(), LieAlgebraData(3, SO3)],
        ids=["abelian1", "abelian2", "abelian3", "abelian4", "heisenberg", "so3"])
    def test_the_tables_of_the_package_satisfy_jacobi(self, lie):
        assert lie_table_failure(lie.dim, lie.structure) is None

    @given(structure_tables())
    @settings(max_examples=150, deadline=None)
    def test_validation_on_the_support_agrees_with_the_dense_check(self, dim_table):
        # same verdict and same first failing index tuple on antisymmetry;
        # a table that only breaks the Jacobi identity is accepted
        dim, table = dim_table
        want = lie_table_failure(dim, table)
        if want is not None and want.startswith("Jacobi"):
            want = None
        assert verdict(dim, table) == want

    @pytest.mark.parametrize("structure", [
        {(1, 2, 3): 1, (2, 1, 3): -1},   # antisymmetric, but e3 is not in a 2-dim algebra
        {(1, 2, 0): 1},                  # index 0
        {(1, 2): 1},                     # not a triple
    ], ids=["past-dim", "zero", "pair"])
    def test_index_outside_the_algebra_rejected(self, structure):
        with pytest.raises(AlgebraError, match=r"outside 1\.\.2"):
            LieAlgebraData(2, structure)

    def test_a_float_constant_is_a_type_error(self):
        # 0.1 is 3602879701896397/2^55 in binary, not 1/10; a zero float too
        for v in (0.1, 0.0):
            with pytest.raises(TypeError, match="got float"):
                LieAlgebraData(3, {(1, 2, 3): v, (2, 1, 3): -v})
        lie = LieAlgebraData(3, {(1, 2, 3): 1, (2, 1, 3): Fraction(-1)})
        assert lie.c(1, 2, 3) == 1 and lie.c(2, 1, 3) == -1


class TestTranslationAction:
    def test_unknown_coordinate_rejected(self):
        sp = PhaseSpace.of_dim(2)
        with pytest.raises(AlgebraError):
            TranslationAction(sp, [5])


class TestMomentumMaps:
    def test_canonical_components(self):
        sp = PhaseSpace.of_dim(3)
        J = canonical_momentum_map(TranslationAction(sp, [1, 3]))
        assert J.components == (sp.p(1), sp.p(3))

    @pytest.mark.parametrize("build", (
        lambda sp, lie: MomentumMap(lie, [sp.q(1), sp.p(1), sp.q(1) * sp.p(1)]),
        lambda sp, lie: QuantumMomentumMap(lie, [sp.series(c, 2) for c in (
            sp.q(1), sp.p(1), sp.q(1) * sp.p(1))]),
    ), ids=("classical", "quantum"))
    def test_a_nonabelian_algebra_is_rejected(self, build):
        # every action is a lifted translation, whose algebra is abelian
        sp = PhaseSpace.of_dim(1)
        with pytest.raises(AlgebraError, match="abelian"):
            build(sp, LieAlgebraData.heisenberg())
        build(sp, LieAlgebraData.abelian(3))

    def test_from_classical_rejects_a_nonabelian_algebra(self):
        sp = PhaseSpace.of_dim(1)
        J = MomentumMap(LieAlgebraData.abelian(3), [sp.q(1), sp.p(1), sp.q(1) * sp.p(1)])
        J.lie = LieAlgebraData.heisenberg()
        with pytest.raises(AlgebraError, match="abelian"):
            QuantumMomentumMap.from_classical(J, 2)

    def test_real_components_enforced(self):
        sp = PhaseSpace.of_dim(1)
        lie = LieAlgebraData.abelian(1)
        with pytest.raises(AlgebraError):
            MomentumMap(lie, [sp.p(1).scale((0, 1, 1))])

    # a magnetic or shifted momentum component straightens to the fiber
    # coordinate of its direction

    def test_magnetic_component(self):
        sp = PhaseSpace.of_dim(2)
        base = ReductionContext.canonical(sp, [1], StarProduct.weyl(sp), 3)
        ctx = build_shifted_context(base, {1: (2, Fraction(3, 2))}, {})
        assert ctx.straighten(sp.p(1) + sp.q(2).scale(Fraction(3, 2))) == sp.p(1)

    def test_magnetic_invariance_guard(self):
        sp = PhaseSpace.of_dim(2)
        both = ReductionContext.canonical(sp, [1, 2], StarProduct.weyl(sp), 3)
        with pytest.raises(AlgebraError):
            build_shifted_context(both, {1: (2, Fraction(1))}, {})
        one = ReductionContext.canonical(sp, [1], StarProduct.weyl(sp), 3)
        with pytest.raises(AlgebraError):
            build_shifted_context(one, {2: (1, Fraction(1))}, {})

    def test_shift_classical_and_quantum(self):
        sp = PhaseSpace.of_dim(1)
        base = ReductionContext.canonical(sp, [1], StarProduct.weyl(sp), 3)
        ctx = build_shifted_context(base, {}, {1: Fraction(5)})
        assert ctx.straighten(sp.p(1) - MultiPoly.const(sp.vars, 5)) == sp.p(1)
        assert ctx.Jq.classical_part() == ctx.J

    def test_equivariance_abelian(self):
        sp = PhaseSpace.of_dim(3)
        J = canonical_momentum_map(TranslationAction(sp, [1, 2]))
        assert all(c["status"] == "pass"
                   for c in check_classical_equivariance(J, StarProduct.weyl(sp)))

    @pytest.mark.parametrize("kind", ("weyl", "wick", "std"))
    def test_equivariance_fails_on_a_pair_that_does_not_commute(self, kind):
        # J = (q1, p1): {q1, p1} = 1 in every kind, and the image of the
        # bracket of an abelian algebra is zero
        sp = PhaseSpace.of_dim(1)
        J = MomentumMap(LieAlgebraData.abelian(2), [sp.q(1), sp.p(1)])
        entry, = check_classical_equivariance(J, getattr(StarProduct, kind)(sp))
        assert entry == {"name": "equivariance_e1_e2", "status": "fail",
                         "witness": {"bracket": "(1/1)+(0/1)i", "image_of_bracket": "0"}}

    def test_equivariance_rejects_components_over_other_variables(self):
        # components over a subset of the product's variables are not
        # re-keyed onto them: the check raises
        sp = PhaseSpace.of_dim(3)
        J = canonical_momentum_map(TranslationAction(sp, [1, 2]))
        sub = MomentumMap(J.lie, [c.with_vars(("q1", "q2", "p1", "p2")) for c in J.components])
        with pytest.raises(VariableMismatchError):
            check_classical_equivariance(sub, StarProduct.weyl(sp))


class TestQuantumMomentumMap:
    def test_weyl_strong_invariance(self):
        sp = PhaseSpace.of_dim(2)
        star = StarProduct.weyl(sp)
        J = canonical_momentum_map(TranslationAction(sp, [1]))
        Jq = QuantumMomentumMap.from_classical(J, 4)
        samples = sample_polys(13, sp.vars, 3, 6)
        checks = {c["name"]: c for c in
                  check_quantum_momentum_map(star, Jq, samples)}
        assert checks["quantum_hamiltonian_identity"]["status"] == "pass"
        assert checks["quantum_bracket_compatibility"]["status"] == "pass"
        assert checks["strong_invariance"]["info"] == "classical map is quantum"

    def test_a_map_without_components_passes_and_is_classical(self):
        # a context that translates nothing has a Jq of no components: both
        # identities hold, and the classical map is quantum
        sp = PhaseSpace.of_dim(2)
        ctx = ReductionContext.canonical(sp, (), StarProduct.weyl(sp), 3)
        assert check_quantum_momentum_map(ctx.star, ctx.Jq, sample_polys(23, sp.vars, 2, 4)) == [
            {"name": "quantum_hamiltonian_identity", "status": "pass"},
            {"name": "quantum_bracket_compatibility", "status": "pass"},
            {"name": "strong_invariance", "status": "pass", "info": "classical map is quantum"}]

    def test_constant_correction_still_quantum(self):
        sp = PhaseSpace.of_dim(2)
        star = StarProduct.weyl(sp)
        J = canonical_momentum_map(TranslationAction(sp, [1]))
        corrected = LambdaSeries.from_poly(J.components[0], 4) + \
            LambdaSeries.from_poly(
                MultiPoly.const(sp.vars, (0, 1, 7)), 4, shift=1)
        Jq = QuantumMomentumMap(J.lie, [corrected])
        samples = sample_polys(17, sp.vars, 3, 6)
        checks = {c["name"]: c for c in
                  check_quantum_momentum_map(star, Jq, samples)}
        assert checks["quantum_hamiltonian_identity"]["status"] == "pass"
        assert checks["strong_invariance"]["info"] == "quantum map carries corrections"

    def test_wrong_candidate_fails_with_witness(self):
        sp = PhaseSpace.of_dim(1)
        star = StarProduct.weyl(sp)
        lie = LieAlgebraData.abelian(1)
        # a non-constant first-order correction breaks the commutator identity
        Jq = QuantumMomentumMap(lie, [
            LambdaSeries.from_poly(sp.p(1), 3) +
            LambdaSeries.from_poly(sp.q(1), 3, shift=1)])
        samples = sample_polys(19, sp.vars, 2, 4)
        checks = {c["name"]: c for c in
                  check_quantum_momentum_map(star, Jq, samples)}
        entry = checks["quantum_hamiltonian_identity"]
        assert entry["status"] == "fail" and "witness" in entry

    def test_sample_over_other_variables_rejected(self):
        # a sample over a subset of the product's variables is not re-keyed
        # onto them: the product raises
        sp = PhaseSpace.of_dim(2)
        Jq = QuantumMomentumMap.from_classical(
            canonical_momentum_map(TranslationAction(sp, [1])), 2)
        with pytest.raises(VariableMismatchError):
            check_quantum_momentum_map(StarProduct.weyl(sp), Jq,
                                       [MultiPoly.variable(("q1", "p1"), "q1")])

    def test_bracket_witness_is_first_failing_pair(self):
        # [q1, p1] and [q1, p1] both fail on an abelian algebra; the scan
        # stops at the first, (1, 2), rather than reporting the last, (1, 3)
        sp = PhaseSpace.of_dim(1)
        Jq = QuantumMomentumMap(LieAlgebraData.abelian(3), [
            LambdaSeries.from_poly(c, 2) for c in (sp.q(1), sp.p(1), sp.p(1))])
        checks = {c["name"]: c for c in check_quantum_momentum_map(
            StarProduct.weyl(sp), Jq, [sp.q(1)])}
        entry = checks["quantum_bracket_compatibility"]
        assert entry["status"] == "fail" and entry["witness"]["pair"] == (1, 2)
        assert entry["witness"]["expected"] == "0"
