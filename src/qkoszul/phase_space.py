"""Flat symplectic phase spaces, the Poisson bracket and exact star
products given by a constant matrix.

A phase space carries coordinates q_i, p_i indexed by a tuple of integer
labels (labels survive reduction, so reduced spaces keep the original
coordinate names).  A star product on a phase space is

    f ⋆ g = μ ∘ exp(λ Σ C^{ij} ∂_i ⊗ ∂_j)(f ⊗ g)

for a constant matrix C of Gaussian rationals over the variables (q..., p...).
The series terminates because inputs are polynomial.  The bracket the
product deforms is -i (C - Cᵀ), and the product is Hermitian exactly when
conj(C) = Cᵀ.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

from .exact import (
    GR_I,
    GR_MINUS_I,
    GR_ZERO,
    LAMBDA,
    GaussianRational,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    gr,
    star_exponential,
    vector_field,
)
from .report import check, expected_failure

# Nonzero entries of a matrix over the variables of a phase space, keyed by
# (row position, column position) in the variable list.
Matrix = Dict[Tuple[int, int], GaussianRational]
# A sparse vector over the variables: (position, coefficient) pairs.
Vector = List[Tuple[int, GaussianRational]]


class PhaseSpace:
    """Cotangent bundle of a flat configuration space.

    ``coords`` are the configuration coordinate labels; the variable list is
    (q<i>..., p<i>...) in label order.
    """

    def __init__(self, coords: Sequence[int]):
        self.coords = tuple(coords)
        self.n = len(self.coords)
        self.qvars = tuple(f"q{i}" for i in self.coords)
        self.pvars = tuple(f"p{i}" for i in self.coords)
        self.vars = self.qvars + self.pvars

    @staticmethod
    def of_dim(n: int) -> "PhaseSpace":
        return PhaseSpace(range(1, n + 1))

    def q(self, i: int) -> MultiPoly:
        return MultiPoly.variable(self.vars, f"q{i}")

    def p(self, i: int) -> MultiPoly:
        return MultiPoly.variable(self.vars, f"p{i}")

    def series(self, poly: MultiPoly, order: int) -> LambdaSeries:
        return LambdaSeries.from_poly(poly.with_vars(self.vars), order)


def _rank_one_terms(C: Matrix) -> List[Tuple[Vector, Vector]]:
    """Exact factorisation C = Σ_k a_k b_kᵀ by rank-one elimination.

    Each step takes the first nonzero entry C^{ij} as pivot and removes
    a b = C[:, j] C[i, :] / C^{ij}, which clears row i and column j, so there
    are rank(C) terms.  a is the pivot column and b the pivot row scaled to 1
    at the pivot.
    """
    C = dict(C)
    terms = []
    while C:
        i, j = min(C)
        pivot = C[i, j]
        col = sorted((k, c) for (k, l), c in C.items() if l == j)
        row = sorted((l, c) for (k, l), c in C.items() if k == i)
        for k, ck in col:
            for l, cl in row:
                v = C.get((k, l), GR_ZERO) - ck * cl / pivot
                if v.is_zero():
                    C.pop((k, l), None)
                else:
                    C[k, l] = v
        terms.append((col, [(l, c / pivot) for l, c in row]))
    return terms


def _pairing(C: Matrix, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Σ C^{ij} ∂_i f ∂_j g."""
    out = MultiPoly.zero(f.vars)
    for (i, j), c in C.items():
        out = out + (f.diff(f.vars[i]) * g.diff(g.vars[j])).scale(c)
    return out


def _vector_field(space: PhaseSpace, v: Vector) -> tuple:
    """Σ_i v_i ∂_i on the λ-extended variables of ``space``, decoded once."""
    lvars = (LAMBDA, *space.vars)
    return vector_field(MultiPoly(
        lvars, {tuple(int(j == i + 1) for j in range(len(lvars))): c for i, c in v}))


class StarProduct:
    """An exact formal star product on a flat phase space.

    ``eval(f, g)`` is the product of two series truncated at their common
    order, ``eval_poly(f, g, order)`` the product of two polynomials
    truncated at λ^order, ``bracket_poly(f, g)`` the classical bracket it
    deforms, and ``hermitian`` says whether conj(f ⋆ g) = conj(g) ⋆ conj(f).
    Products on a phase space come from ``constant``; reduced products are
    built from their series evaluation and their reduced bracket.
    Evaluation is bilinear over Gaussian rationals and pure: the same inputs
    always give the same series.
    """

    def __init__(self, space: PhaseSpace,
                 eval: Callable[[LambdaSeries, LambdaSeries], LambdaSeries],
                 bracket: Callable[[MultiPoly, MultiPoly], MultiPoly],
                 hermitian: bool):
        self.space = space
        self._eval = eval
        self._bracket = bracket
        self.hermitian = hermitian

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(space: PhaseSpace, C: Matrix) -> "StarProduct":
        """μ ∘ exp(λ Σ C^{ij} ∂_i ⊗ ∂_j), with C factored once into rank-one
        terms, each decoded once as a pair of vector fields; the bracket
        matrix -i (C - Cᵀ) and the Hermitian property are read off C once."""
        C = {ij: c for ij, c in C.items() if not c.is_zero()}
        hermitian = all(C.get((j, i), GR_ZERO) == c.conjugate()
                        for (i, j), c in C.items())
        bracket_matrix: Matrix = {}
        for i, j in sorted(set(C) | {(j, i) for i, j in C}):
            c = (C.get((i, j), GR_ZERO) - C.get((j, i), GR_ZERO)) * GR_MINUS_I
            if not c.is_zero():
                bracket_matrix[i, j] = c
        steps = [(_vector_field(space, a), _vector_field(space, b))
                 for a, b in _rank_one_terms(C)]
        return StarProduct(space, partial(star_exponential, steps),
                           partial(_pairing, bracket_matrix), hermitian)

    @staticmethod
    def weyl(space: PhaseSpace) -> "StarProduct":
        """Symmetric ordering: C^{q_i p_i} = i/2, C^{p_i q_i} = -i/2."""
        n, half_i = space.n, gr(0, Fraction(1, 2))
        C: Matrix = {}
        for i in range(n):
            C[i, n + i] = half_i
            C[n + i, i] = -half_i
        return StarProduct.constant(space, C)

    @staticmethod
    def std(space: PhaseSpace) -> "StarProduct":
        """Standard ordering: C^{p_i q_i} = -i."""
        n = space.n
        return StarProduct.constant(space, {(n + i, i): GR_MINUS_I for i in range(n)})

    @staticmethod
    def wick(space: PhaseSpace) -> "StarProduct":
        """Normal ordering in z_k = q_k + i p_k, the exponential of
        2 ∂_z ⊗ ∂_zbar: C^{q_i q_i} = C^{p_i p_i} = 1/2, C^{q_i p_i} = i/2,
        C^{p_i q_i} = -i/2."""
        n, half, half_i = space.n, gr(Fraction(1, 2)), gr(0, Fraction(1, 2))
        C: Matrix = {}
        for i in range(n):
            C[i, i] = C[n + i, n + i] = half
            C[i, n + i] = half_i
            C[n + i, i] = -half_i
        return StarProduct.constant(space, C)

    # -- evaluation -------------------------------------------------------

    def eval_poly(self, f: MultiPoly, g: MultiPoly, order: int) -> LambdaSeries:
        return self.eval(LambdaSeries.from_poly(f, order), LambdaSeries.from_poly(g, order))

    def bracket_poly(self, f: MultiPoly, g: MultiPoly) -> MultiPoly:
        return self._bracket(f, g)

    def eval(self, f: LambdaSeries, g: LambdaSeries) -> LambdaSeries:
        if f.order != g.order:
            raise OrderMismatchError(f"order {f.order} vs {g.order}")
        return self._eval(f, g)


def check_star_axioms(star: StarProduct, samples: Sequence[MultiPoly],
                      order: int) -> List[dict]:
    """Exact order-by-order verification of the star product axioms on the
    sample set.  Failures are report entries carrying a witness, never
    exceptions.  A product whose matrix is not Hermitian must fail ``hermitian``."""
    space = star.space
    L = order
    # several checks read the same product; each pair is evaluated once
    products: Dict[Tuple[MultiPoly, MultiPoly], LambdaSeries] = {}

    def product(f: MultiPoly, g: MultiPoly) -> LambdaSeries:
        key = (f, g)
        if key not in products:
            products[key] = star.eval_poly(f, g, L)
        return products[key]

    def pairs():
        """Consecutive sample pairs, with both read on the product's space."""
        for f, g in zip(samples, samples[1:]):
            yield f, g, f.with_vars(space.vars), g.with_vars(space.vars)

    def associativity():
        for f, g, h in zip(samples, samples[1:], samples[2:]):
            fv, gv, hv = (x.with_vars(space.vars) for x in (f, g, h))
            lhs = star.eval(product(fv, gv), space.series(hv, L))
            rhs = star.eval(space.series(fv, L), product(gv, hv))
            if lhs != rhs:
                yield {"f": f.render(), "g": g.render(), "h": h.render(),
                       "lhs": lhs.render(), "rhs": rhs.render()}

    def order0_pointwise():
        for f, g, fv, gv in pairs():
            prod = product(fv, gv)
            if prod.coeff(0) != fv * gv:
                yield {"f": f.render(), "g": g.render(), "order0": prod.coeff(0).render()}

    def order1_commutator_bracket():
        for f, g, fv, gv in pairs():
            comm = product(fv, gv) - product(gv, fv)
            expected = star.bracket_poly(fv, gv).scale(GR_I)
            if comm.coeff(1) != expected:
                yield {"f": f.render(), "g": g.render(),
                       "commutator_order1": comm.coeff(1).render(),
                       "i_bracket": expected.render()}

    # reported, not required by the axioms
    def hermitian():
        for f, g, fv, gv in pairs():
            lhs = product(fv, gv).conjugate()
            rhs = product(gv.conjugate(), fv.conjugate())
            if lhs != rhs:
                yield {"f": f.render(), "g": g.render(),
                       "conj_product": lhs.render(), "product_conj": rhs.render()}

    def unit():
        one = MultiPoly.const(space.vars, 1)
        for f in samples:
            fv = f.with_vars(space.vars)
            want = LambdaSeries.from_poly(fv, L)
            if product(one, fv) != want or product(fv, one) != want:
                yield {"f": f.render()}

    return [check("associativity", associativity()),
            check("order0_pointwise", order0_pointwise()),
            check("order1_commutator_bracket", order1_commutator_bracket()),
            check("hermitian", hermitian()) if star.hermitian else
            expected_failure("hermitian_fails_as_expected", hermitian()),
            check("unit", unit())]
