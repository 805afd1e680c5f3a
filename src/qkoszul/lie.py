"""Finite-dimensional Lie algebra data, lifted translation actions on flat
cotangent bundles, and classical/quantum momentum maps with their checkers.

Only lifted translation actions are realized as phase-space actions; general
(possibly nonabelian) algebras appear as abstract data for the boundary
operator tests.  Structure constants are validated on their support, the
indices that occur in them, which is exact and makes an abelian algebra
free to build.  The sign of the fundamental vector field is the one forced
by requiring the Hamiltonian generation identity for the canonical momentum
map: with J(e_a) = p_a the vector field of e_a acts on observables as
{f, p_a} = df/dq_a.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple

from .exact import AlgebraError, LambdaSeries, MultiPoly, VariableMismatchError, rational
from .phase_space import PhaseSpace, StarProduct
from .report import check, info


class LieAlgebraData:
    """Structure constants of a finite-dimensional Lie algebra in a fixed
    basis, indices 1..dim, each an int or a Fraction (``exact.rational``).
    Index range, antisymmetry and the Jacobi identity are validated exactly
    at construction."""

    def __init__(self, dim: int, structure: Dict[Tuple[int, int, int], Fraction]):
        self.dim = dim
        self.structure = {k: x for k, v in structure.items() if (x := rational(v))}
        for key in self.structure:
            if len(key) != 3 or not all(1 <= i <= dim for i in key):
                raise AlgebraError(f"structure constant index {key} outside 1..{dim}")
        # [e_alpha, e_beta] as a map gamma -> nonzero coefficient
        self._brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (a, b, g), v in sorted(self.structure.items()):
            self._brackets.setdefault((a, b), {})[g] = v
        self._validate()

    def c(self, alpha: int, beta: int, gamma: int) -> Fraction:
        """Structure constant for [e_alpha, e_beta] in direction e_gamma
        (1-based indices)."""
        return self.structure.get((alpha, beta, gamma), Fraction(0))

    def _validate(self) -> None:
        """Antisymmetry and the Jacobi identity on the support, the indices
        that occur in a structure constant: every term with another index
        is zero, so the dense check over 1..dim gives the same verdict and
        the same first failing index tuple."""
        c, keys = self.structure.get, self.structure.keys()
        for a, b, g in sorted(keys | {(b, a, g) for a, b, g in keys}):
            if c((a, b, g), 0) != -c((b, a, g), 0):
                raise AlgebraError(f"structure constants not antisymmetric at {(a, b, g)}")
        support = sorted({i for key in keys for i in key})
        for a, b, cc in product(support, repeat=3):
            s: Dict[int, Fraction] = {}
            for x, y, z in ((a, b, cc), (b, cc, a), (cc, a, b)):
                for dd, u in self.bracket_coeffs(x, y).items():
                    for e, w in self.bracket_coeffs(dd, z).items():
                        s[e] = s.get(e, 0) + u * w
            if any(s.values()):
                e = min(e for e, v in s.items() if v)
                raise AlgebraError(f"Jacobi identity fails at {(a, b, cc, e)}")

    def bracket_coeffs(self, alpha: int, beta: int) -> Dict[int, Fraction]:
        """[e_alpha, e_beta] as a map gamma -> coefficient."""
        return dict(self._brackets.get((alpha, beta), {}))

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

    @property
    def dim(self) -> int:
        return len(self.translated)


class MomentumMap:
    def __init__(self, lie: LieAlgebraData, components: Sequence[MultiPoly]):
        if len(components) != lie.dim:
            raise AlgebraError("component count does not match algebra dimension")
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
        if len(components) != lie.dim:
            raise AlgebraError("component count does not match algebra dimension")
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
    bracket the product deforms.  The components must lie on the product's
    space: the bracket would take them over a sub-list of its variables."""
    if any(c.vars != star.space.vars for c in J.components):
        raise VariableMismatchError(f"a component is not over {star.space.vars}")

    def equivariance(a: int, b: int):
        lhs = star.bracket_poly(J.components[a - 1], J.components[b - 1])
        rhs = MultiPoly.zero(star.space.vars)
        for g, coeff in J.lie.bracket_coeffs(a, b).items():
            rhs = rhs + J.components[g - 1].scale(coeff)
        if lhs != rhs:
            yield {"bracket": lhs.render(), "image_of_bracket": rhs.render()}

    k = J.lie.dim
    return [check(f"equivariance_e{a}_e{b}", equivariance(a, b))
            for a in range(1, k + 1) for b in range(a + 1, k + 1)]


def check_quantum_momentum_map(star: StarProduct, Jq: QuantumMomentumMap,
                               samples: Sequence[MultiPoly]) -> List[dict]:
    """Verify the two defining identities of a quantum momentum map at the
    order of its components, and report whether the classical map itself
    qualifies (strong invariance).  The samples and the components must lie
    on the product's space."""
    vars = star.space.vars
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

    # bracket compatibility on basis pairs
    def bracket_compatibility():
        for a in basis:
            for b in range(a + 1, Jq.lie.dim + 1):
                Ja, Jb = Jq.components[a - 1], Jq.components[b - 1]
                lhs = star.eval(Ja, Jb) - star.eval(Jb, Ja)
                rhs = LambdaSeries.zero(vars, L)
                for g, coeff in Jq.lie.bracket_coeffs(a, b).items():
                    rhs = rhs + Jq.components[g - 1].scale(coeff)
                rhs = rhs * LambdaSeries.from_poly(
                    MultiPoly.const(vars, (0, 1, 1)), L, shift=1)
                if lhs != rhs:
                    yield {"pair": (a, b), "commutator": lhs.render(),
                           "expected": rhs.render()}

    # reported property, not a requirement: the classical map may itself
    # already be a quantum momentum map
    strongly = Jq == QuantumMomentumMap.from_classical(J0, L)
    return [check("quantum_hamiltonian_identity", hamiltonian_identity()),
            check("quantum_bracket_compatibility", bracket_compatibility()),
            info("strong_invariance", "classical map is quantum" if strongly
                 else "quantum map carries corrections")]
