"""Finite-dimensional Lie algebra data, lifted translation actions on flat
cotangent bundles, and classical/quantum momentum maps with their checkers.

Only lifted translation actions are realized as phase-space actions, so a
momentum map takes an abelian algebra and rejects one with structure
constants; a nonabelian algebra, such as the Heisenberg one of the
Chevalley-Eilenberg suite, is abstract data for the boundary operator.
The sign of the fundamental vector field is the one forced
by requiring the Hamiltonian generation identity for the canonical momentum
map: with J(e_a) = p_a the vector field of e_a acts on observables as
{f, p_a} = df/dq_a.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .exact import AlgebraError, LambdaSeries, MultiPoly, VariableMismatchError, rational
from .phase_space import PhaseSpace, StarProduct
from .report import check, info


class LieAlgebraData:
    """Structure constants of a finite-dimensional Lie algebra in a fixed
    basis, indices 1..dim, each an int or a Fraction (``exact.rational``).
    Index range and antisymmetry are validated exactly at construction.  The
    Jacobi identity is not: the Chevalley-Eilenberg suite checks it on the
    Heisenberg table, as the square of the boundary on the adjoint
    representation."""

    def __init__(self, dim: int, structure: Dict[Tuple[int, int, int], Fraction]):
        self.dim = dim
        self.structure = {k: x for k, v in structure.items() if (x := rational(v))}
        for key in self.structure:
            if len(key) != 3 or not all(1 <= i <= dim for i in key):
                raise AlgebraError(f"structure constant index {key} outside 1..{dim}")
        self._validate()

    def c(self, alpha: int, beta: int, gamma: int) -> Fraction:
        """Structure constant for [e_alpha, e_beta] in direction e_gamma
        (1-based indices)."""
        return self.structure.get((alpha, beta, gamma), Fraction(0))

    def _validate(self) -> None:
        """Antisymmetry on the support, the index triples of the nonzero
        constants and their swaps: every other triple reads zero on both
        sides, so the dense check over 1..dim gives the same verdict and the
        same first failing triple."""
        c, keys = self.structure.get, self.structure.keys()
        for a, b, g in sorted(keys | {(b, a, g) for a, b, g in keys}):
            if c((a, b, g), 0) != -c((b, a, g), 0):
                raise AlgebraError(f"structure constants not antisymmetric at {(a, b, g)}")

    def bracket_coeffs(self, alpha: int, beta: int) -> Dict[int, Fraction]:
        """[e_alpha, e_beta] as a map gamma -> coefficient, in increasing gamma."""
        return {g: v for (a, b, g), v in sorted(self.structure.items()) if (a, b) == (alpha, beta)}

    @staticmethod
    def abelian(dim: int) -> "LieAlgebraData":
        return LieAlgebraData(dim, {})

    @staticmethod
    def heisenberg() -> "LieAlgebraData":
        """Three-dimensional algebra with [e1, e2] = e3 and central e3."""
        return LieAlgebraData(3, {(1, 2, 3): Fraction(1), (2, 1, 3): Fraction(-1)})


class TranslationAction:
    """Lifted action of a translation group on a flat cotangent bundle.

    ``translated`` lists the configuration coordinate labels being
    translated; the acting algebra is abelian of matching dimension and the
    lifted action fixes all momentum variables.
    """

    def __init__(self, space: PhaseSpace, translated: Sequence[int]):
        self.space = space
        self.translated = tuple(translated)
        for a in self.translated:
            if a not in space.coords:
                raise AlgebraError(f"coordinate {a} not on the phase space")
        if len(set(self.translated)) != len(self.translated):
            raise AlgebraError("duplicate translated coordinate")
        self.lie = LieAlgebraData.abelian(len(self.translated))


def _check_algebra(lie: LieAlgebraData, components: Sequence) -> None:
    """A momentum map is of an abelian algebra, with one component per basis
    element: every action is a lifted translation."""
    if lie.structure:
        raise AlgebraError("a momentum map takes an abelian algebra, and this one "
                           "has structure constants")
    if len(components) != lie.dim:
        raise AlgebraError("component count does not match algebra dimension")


class MomentumMap:
    def __init__(self, lie: LieAlgebraData, components: Sequence[MultiPoly]):
        _check_algebra(lie, components)
        self.lie = lie
        self.components = tuple(components)
        for J in self.components:
            if J != J.conjugate():
                raise AlgebraError("momentum map components must be real")

    def __eq__(self, other):
        return (isinstance(other, MomentumMap)
                and self.components == other.components)


class QuantumMomentumMap:
    def __init__(self, lie: LieAlgebraData, components: Sequence[LambdaSeries]):
        _check_algebra(lie, components)
        self.lie = lie
        self.components = tuple(components)

    def classical_part(self) -> MomentumMap:
        return MomentumMap(self.lie, [c.coeff(0) for c in self.components])

    @staticmethod
    def from_classical(J: MomentumMap, order: int) -> "QuantumMomentumMap":
        return QuantumMomentumMap(
            J.lie, [LambdaSeries.from_poly(c, order) for c in J.components]
        )

    def __eq__(self, other):
        return (isinstance(other, QuantumMomentumMap)
                and self.components == other.components)


def canonical_momentum_map(action: TranslationAction) -> MomentumMap:
    """Momentum map of the lifted translation action: the fiber pairing with
    the translation fields gives the conjugate momentum of each translated
    coordinate."""
    comps = [action.space.p(a) for a in action.translated]
    return MomentumMap(action.lie, comps)


def check_classical_equivariance(J: MomentumMap, star: StarProduct) -> List[dict]:
    """Verify {J(e_a), J(e_b)} = J([e_a, e_b]) for all basis pairs, in the
    bracket the product deforms; the algebra is abelian, so the right side
    is zero.  The components must lie on the product's space: the bracket
    would take them over a sub-list of its variables."""
    if any(c.vars != star.space.vars for c in J.components):
        raise VariableMismatchError(f"a component is not over {star.space.vars}")
    zero = MultiPoly.zero(star.space.vars)

    def equivariance(a: int, b: int):
        lhs = star.bracket_poly(J.components[a - 1], J.components[b - 1])
        if lhs != zero:
            yield {"bracket": lhs.render(), "image_of_bracket": zero.render()}

    k = J.lie.dim
    return [check(f"equivariance_e{a}_e{b}", equivariance(a, b))
            for a in range(1, k + 1) for b in range(a + 1, k + 1)]


def check_quantum_momentum_map(star: StarProduct, Jq: QuantumMomentumMap,
                               samples: Sequence[MultiPoly]) -> List[dict]:
    """Verify the two defining identities of a quantum momentum map at the
    order of its components, and report whether the classical map itself
    qualifies (strong invariance).  The samples and the components must lie
    on the product's space."""
    L = Jq.components[0].order
    J0 = Jq.classical_part()
    basis = range(1, Jq.lie.dim + 1)

    # generation identity: commutator with Jq reproduces the scaled bracket
    def hamiltonian_identity():
        for a in basis:
            Ja = Jq.components[a - 1]
            for f in samples:
                fs = LambdaSeries.from_poly(f, L)
                lhs = star.eval(Ja, fs) - star.eval(fs, Ja)
                bracket = star.bracket_poly(J0.components[a - 1], f)
                rhs = LambdaSeries.from_poly(bracket.scale((0, 1, 1)), L, shift=1)
                if lhs != rhs:
                    yield {"generator": a, "f": f.render(),
                           "commutator": lhs.render(), "expected": rhs.render()}

    # bracket compatibility on basis pairs: iλ Jq([e_a, e_b]) is zero, as
    # the algebra is abelian
    zero = LambdaSeries.zero(star.space.vars, L)

    def bracket_compatibility():
        for a in basis:
            for b in range(a + 1, Jq.lie.dim + 1):
                Ja, Jb = Jq.components[a - 1], Jq.components[b - 1]
                lhs = star.eval(Ja, Jb) - star.eval(Jb, Ja)
                if lhs != zero:
                    yield {"pair": (a, b), "commutator": lhs.render(),
                           "expected": zero.render()}

    # reported property, not a requirement: the classical map may itself
    # already be a quantum momentum map
    strongly = Jq == QuantumMomentumMap.from_classical(J0, L)
    return [check("quantum_hamiltonian_identity", hamiltonian_identity()),
            check("quantum_bracket_compatibility", bracket_compatibility()),
            info("strong_invariance", "classical map is quantum" if strongly
                 else "quantum map carries corrections")]
