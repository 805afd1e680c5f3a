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

``StarProduct.constant`` reads C once into integer triples (re, im, den)
through ``exact.gauss`` and keeps only them.  A product takes operands over
any ordered sub-list V of its space's variables and returns its result over
V.  On the first operands over V it cuts C to V × V once, and reads all
three of its structures off C|V: its rank-one factorisation, handed to
``exact`` as the vector fields of the star walk (``star_fields``), its
bracket matrix -i (C|V - C|Vᵀ), handed over as the bracket's pairing
(``pairing``), and its Hermitian flag conj(C|V) = C|Vᵀ.  C|V is the right
matrix because a derivative of a function of V sees only V's components.
The bracket shares no code with the star walk, so the order-1 commutator
check compares two independent computations.
"""

from __future__ import annotations

import weakref
from functools import partial
from itertools import chain
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .exact import (
    MAX_LAYOUTS,
    AlgebraError,
    ContractViolationError,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    VariableMismatchError,
    gauss,
    pairing,
    star_exponential,
    star_fields,
)
from .report import check, differences, expected_failure, failures

# Nonzero entries of a matrix over the variables of a phase space, keyed by
# (row position, column position) in the variable list; an entry is anything
# ``exact.gauss`` reads.
Matrix = Dict[Tuple[int, int], object]
# A Gaussian rational as an integer triple (re, im, den): (re + i·im)/den
# with den positive and no factor common to all three.
Gauss = Tuple[int, int, int]
ZERO: Gauss = (0, 0, 1)
# A sparse vector over the variables: (position, coefficient) pairs.
Vector = Tuple[Tuple[int, Gauss], ...]


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
        """``poly`` as a series truncated at ``order``; it must already be
        over the variables of the space, as nothing re-keys it."""
        if poly.vars != self.vars:
            raise VariableMismatchError(f"a polynomial over {poly.vars} is not over {self.vars}")
        return LambdaSeries.from_poly(poly, order)


def positions(vars: Sequence[str], sub: Sequence[str]) -> Optional[Tuple[int, ...]]:
    """The positions in ``vars`` of the names of ``sub`` where ``sub`` is an
    ordered sub-list of ``vars``, and None where it is not."""
    at: List[int] = []
    for v in sub:
        try:
            at.append(vars.index(v, at[-1] + 1 if at else 0))
        except ValueError:
            return None
    return tuple(at)


def _sub_mul(x: Gauss, y: Gauss, z: Gauss = (1, 0, 1)) -> Gauss:
    """x - y·z."""
    (a, b, d), (c, e, f), (g, h, k) = x, y, z
    return gauss((a * f * k - (c * g - e * h) * d, b * f * k - (c * h + e * g) * d, d * f * k))


def _div(x: Gauss, y: Gauss) -> Gauss:
    (a, b, d), (c, e, f) = x, y
    return gauss(((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e)))


def _rank_one_terms(C: Dict[Tuple[int, int], Gauss]) -> Tuple[Tuple[Vector, Vector], ...]:
    """Exact factorisation C = Σ_k a_k b_kᵀ by rank-one elimination, on
    integer triples.

    Each step takes the first nonzero entry C^{ij} as pivot, with a the
    pivot column and b the pivot row divided by the pivot, and removes a bᵀ,
    which clears row i and column j, so there are rank(C) terms.  A step
    adds no row, so there is at most one step per nonzero row of C, at most
    one per variable; an elimination that needs more is wrong and raises
    ``ContractViolationError`` instead of running on.
    """
    C = dict(C)
    terms = []
    bound = len({i for i, _ in C})
    while C:
        if len(terms) == bound:
            raise ContractViolationError(
                f"rank-one elimination left {len(C)} entries after {bound} steps")
        i, j = min(C)
        pivot = C[i, j]
        col = sorted((k, c) for (k, l), c in C.items() if l == j)
        row = sorted((l, _div(c, pivot)) for (k, l), c in C.items() if k == i)
        for k, ck in col:
            for l, bl in row:
                v = _sub_mul(C.get((k, l), ZERO), ck, bl)
                if v[0] or v[1]:
                    C[k, l] = v
                else:
                    C.pop((k, l), None)
        terms.append((tuple(col), tuple(row)))
    return tuple(terms)


def _restricted(T: Dict[Tuple[int, int], Gauss], at: Tuple[int, ...],
                vars: Tuple[str, ...]) -> tuple:
    """The star walk, the bracket and the Hermitian flag of the constant
    product with matrix ``T`` on operands over ``vars``, the variables at
    positions ``at`` of its space, all three read off C cut to them once:
    the walk's fields are its rank-one terms, the bracket's matrix is
    -i (C - Cᵀ), and the flag tests conj(C) = Cᵀ."""
    new = {i: k for k, i in enumerate(at)}
    C = {(new[i], new[j]): c for (i, j), c in T.items() if i in new and j in new}
    B = {}
    for i, j in sorted(C.keys() | {(j, i) for i, j in C}):
        r, m, d = _sub_mul(C.get((i, j), ZERO), C.get((j, i), ZERO))
        if r or m:
            B[i, j] = (m, -r, d)
    return (partial(star_exponential, star_fields(vars, _rank_one_terms(C))),
            pairing(vars, B),
            all(C.get((j, i)) == (r, -m, d) for (i, j), (r, m, d) in C.items()))


class StarProduct:
    """An exact formal star product on a flat phase space.

    ``eval(f, g)`` is the product of two series truncated at their common
    order, ``eval_poly(f, g, order)`` the product of two polynomials
    truncated at λ^order, ``bracket_poly(f, g)`` the classical bracket it
    deforms, and ``hermitian`` says whether conj(f ⋆ g) = conj(g) ⋆ conj(f).
    Products on a phase space come from ``constant`` and keep their matrix,
    and nothing derived from it, as ``matrix``: C as integer triples
    (re, im, den) keyed by variable positions, zero entries left out,
    read-only.  A reduced product is its context's product on the reduced
    variables, and its ``matrix`` is None.
    Evaluation is bilinear over Gaussian rationals and pure: the same
    inputs always give the same series.

    f and g lie over one ordered sub-list V of the space's variables, and
    the result lies over V; any other pair of lists is a
    VariableMismatchError that names both.  ``restrict(at, V)``, for the
    positions ``at`` of V, gives the evaluation, the bracket and the
    Hermitian flag over V: a constant product reads all three off C cut to
    V (``_restricted``), a reduced product gives its own evaluation with
    its context product's bracket and flag.  ``over`` holds the three by V
    in ``restricted``, cleared when it reaches ``exact.MAX_LAYOUTS`` lists,
    and ``hermitian`` is the flag over the product's own variables.

    Each product keeps its last evaluation, one entry: the order, the
    polynomials of f and g, and a weak reference to the series it gave.
    ``eval`` on inputs equal to the last ones returns that series while a
    caller still holds it; once it is freed, or for any other pair, the
    product walks again and replaces the entry, so it keeps no result
    alive.  Series are immutable, so the entry is read by comparing the
    polynomials and the order with ``==``.  The entry that hits is the
    constant product's: the homological and the closed-form reduced
    product, or a two-stage and a one-step one, each call their context's
    constant product on the same factors over the reduced variables, and
    a caller that holds the first result while it asks for the second
    walks the pair once.  A reduced product's own entry sees no pair twice
    in a run.
    """

    def __init__(self, space: PhaseSpace,
                 restrict: Callable[[Tuple[int, ...], Tuple[str, ...]], tuple],
                 matrix: Optional[Mapping[Tuple[int, int], Gauss]] = None):
        self.space = space
        self._restrict = restrict
        self.matrix = matrix
        self.restricted: Dict[Tuple[str, ...], tuple] = {}
        # the last evaluation: the order, the polynomials of f and g, and
        # a weak reference to the series it gave
        self._last: tuple = (None, None, None, None)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(space: PhaseSpace, C: Matrix) -> "StarProduct":
        """μ ∘ exp(λ Σ C^{ij} ∂_i ⊗ ∂_j).  C is read once into integer
        triples, and the product keeps them and nothing derived from them:
        its walk, bracket and Hermitian flag are read off C cut to each
        variable list at that list's first use (``_restricted``)."""
        N = len(space.vars)
        bad = [ij for ij in C if not (0 <= ij[0] < N and 0 <= ij[1] < N)]
        if bad:
            raise AlgebraError(f"matrix entry {bad[0]} lies outside the {N} "
                               f"variables of the phase space")
        T: Dict[Tuple[int, int], Gauss] = {}
        for ij, c in C.items():
            t = gauss(c)
            if t[0] or t[1]:
                T[ij] = t
        return StarProduct(space, partial(_restricted, T), MappingProxyType(T))

    @staticmethod
    def weyl(space: PhaseSpace) -> "StarProduct":
        """Symmetric ordering: C^{q_i p_i} = i/2, C^{p_i q_i} = -i/2."""
        n = space.n
        C: Matrix = {}
        for i in range(n):
            C[i, n + i] = (0, 1, 2)
            C[n + i, i] = (0, -1, 2)
        return StarProduct.constant(space, C)

    @staticmethod
    def std(space: PhaseSpace) -> "StarProduct":
        """Standard ordering: C^{p_i q_i} = -i."""
        n = space.n
        return StarProduct.constant(space, {(n + i, i): (0, -1, 1) for i in range(n)})

    @staticmethod
    def wick(space: PhaseSpace) -> "StarProduct":
        """Normal ordering in z_k = q_k + i p_k, the exponential of
        2 ∂_z ⊗ ∂_zbar: C^{q_i q_i} = C^{p_i p_i} = 1/2, C^{q_i p_i} = i/2,
        C^{p_i q_i} = -i/2."""
        n = space.n
        C: Matrix = {}
        for i in range(n):
            C[i, i] = C[n + i, n + i] = (1, 0, 2)
            C[i, n + i] = (0, 1, 2)
            C[n + i, i] = (0, -1, 2)
        return StarProduct.constant(space, C)

    # -- evaluation -------------------------------------------------------

    def eval_poly(self, f: MultiPoly, g: MultiPoly, order: int) -> LambdaSeries:
        return self.eval(LambdaSeries.from_poly(f, order), LambdaSeries.from_poly(g, order))

    def bracket_poly(self, f: MultiPoly, g: MultiPoly) -> MultiPoly:
        return self.over(f.vars, g.vars)[1](f, g)

    @property
    def hermitian(self) -> bool:
        return self.over(self.space.vars, self.space.vars)[2]

    def eval(self, f: LambdaSeries, g: LambdaSeries) -> LambdaSeries:
        if f.order != g.order:
            raise OrderMismatchError(f"order {f.order} vs {g.order}")
        fp, gp = f.poly, g.poly
        order, lf, lg, last = self._last
        if fp == lf and gp == lg and f.order == order and (out := last()) is not None:
            return out
        out = self.over(f.vars, g.vars)[0](f, g)
        self._last = (f.order, fp, gp, weakref.ref(out))
        return out

    def over(self, fvars: Tuple[str, ...], gvars: Tuple[str, ...]) -> tuple:
        """The evaluation, the bracket and the Hermitian flag over the
        operands' variables."""
        got = self.restricted.get(fvars)
        if got is None or gvars != fvars:
            at = positions(self.space.vars, fvars) if gvars == fvars else None
            if at is None:
                raise VariableMismatchError(f"operands over {fvars} and {gvars} do not lie "
                                            f"over one ordered sub-list of {self.space.vars}")
            if len(self.restricted) >= MAX_LAYOUTS:
                self.restricted.clear()
            got = self.restricted[fvars] = self._restrict(at, fvars)
        return got


def check_star_axioms(star: StarProduct, samples: Sequence[MultiPoly],
                      order: int) -> List[dict]:
    """Exact order-by-order verification of the star product axioms on the
    sample set.  Failures are report entries carrying a witness, never
    exceptions.  A product whose matrix, cut to its variables, is not
    Hermitian must fail ``hermitian``.  The samples must lie on its space."""
    vars = star.space.vars
    # several checks read the same product; each pair is evaluated once
    products: Dict[Tuple[MultiPoly, MultiPoly], LambdaSeries] = {}

    def product(f: MultiPoly, g: MultiPoly) -> LambdaSeries:
        got = products.get((f, g))
        if got is None:
            got = products[f, g] = star.eval_poly(f, g, order)
        return got

    pairs = list(zip(samples, samples[1:]))

    def associativity(f, g, h):
        return (star.eval(product(f, g), LambdaSeries.from_poly(h, order)),
                star.eval(LambdaSeries.from_poly(f, order), product(g, h)))

    def order0_pointwise():
        for f, g in pairs:
            prod = product(f, g)
            if prod.coeff(0) != f * g:
                yield {"f": f.render(), "g": g.render(), "order0": prod.coeff(0).render()}

    # reported, not required by the axioms.  A product that is not Hermitian
    # also tries every pair of coordinates, after the samples: one of them
    # always witnesses, as conj(x_i ⋆ x_j) - x_j ⋆ x_i = λ(conj C^{ij} - C^{ji})
    xs = [] if star.hermitian else [MultiPoly.variable(vars, v) for v in vars]
    hermitian = differences(chain(pairs, ((x, y) for x in xs for y in xs)), lambda f, g: (
        product(f, g).conjugate(), product(g.conjugate(), f.conjugate())),
        "f", "g", "conj_product", "product_conj")

    one = MultiPoly.const(vars, 1)

    def unit(f):
        want = LambdaSeries.from_poly(f, order)
        return product(one, f) == want and product(f, one) == want

    return [check("associativity", differences(zip(samples, samples[1:], samples[2:]),
                                               associativity, "f", "g", "h", "lhs", "rhs")),
            check("order0_pointwise", order0_pointwise()),
            check("order1_commutator_bracket", differences(pairs, lambda f, g: (
                (product(f, g) - product(g, f)).coeff(1),
                star.bracket_poly(f, g).scale((0, 1, 1))),   # i{f, g}
                "f", "g", "commutator_order1", "i_bracket")),
            check("hermitian", hermitian) if star.hermitian else
            expected_failure("hermitian_fails_as_expected", hermitian),
            check("unit", failures(samples, unit))]
