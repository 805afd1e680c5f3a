"""Reference arithmetic for the tests: a sparse polynomial whose
coefficients are ``GaussianRational`` values keyed by exponent tuples, the
directional derivative and tube homotopy written on it, and a truncated
λ-series held as a list of coefficient polynomials, with the star product
of two series summed pair by pair.

These are the straightforward forms that the integer core of
``qkoszul.exact`` and its one-polynomial series replaced, kept as
independent oracles: every polynomial operation here works one coefficient
at a time with ``Fraction`` arithmetic, and every series operation one power
of λ at a time.

The coefficient arithmetic that ``GaussianRational`` leaves out (negation,
division, conjugation and the zero test) is written here on its ``Fraction``
fields.

The last four are the ``GaussianRational`` and ``Fraction`` forms of code
that now runs on integers or on a smaller index set: the rank-one
factorisation of a star product's matrix, the Poisson bracket of a matrix
built from one temporary polynomial per entry, the sample generator, and the
dense check of a Lie algebra's structure constants over every index.  The
package checks only the antisymmetry half of the last; its Jacobi half holds
the built-in tables here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from qkoszul.exact import (
    AlgebraError,
    GaussianRational,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    VariableMismatchError,
    gr,
    render_gauss,
)
from qkoszul.phase_space import StarProduct

Exponent = Tuple[int, ...]
GR_ZERO = gr(0)
GR_ONE = gr(1)
# a product that is not Hermitian and that none of the three kinds is: a
# complex entry on the diagonal and unequal off-diagonal pairs on R^4
SKEW = {(0, 0): gr(Fraction(1, 3), 1), (0, 2): gr(0, Fraction(1, 2)),
        (2, 0): gr(-1, Fraction(-1, 2)), (1, 3): gr(2), (3, 1): gr(0, -1),
        (2, 3): gr(Fraction(-2, 5))}

# [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1 is antisymmetric but violates Jacobi
JACOBI_BREAKING = {(1, 2, 3): 1, (2, 1, 3): -1, (2, 3, 1): 1, (3, 2, 1): -1,
                   (3, 1, 1): 1, (1, 3, 1): -1}


def is_zero(c: GaussianRational) -> bool:
    return c.re == 0 and c.im == 0


def neg(c: GaussianRational) -> GaussianRational:
    return GaussianRational(-c.re, -c.im)


def conj(c: GaussianRational) -> GaussianRational:
    return GaussianRational(c.re, -c.im)


def div(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    n = b.re * b.re + b.im * b.im
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return GaussianRational((a.re * b.re + a.im * b.im) / n, (a.im * b.re - a.re * b.im) / n)


class RefPoly:
    """Sparse multivariate polynomial over Gaussian rationals.

    ``vars`` is an ordered tuple of variable names; ``terms`` maps exponent
    tuples (one entry per variable) to nonzero coefficients.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponent, GaussianRational]):
        vs = tuple(vars)
        clean: Dict[Exponent, GaussianRational] = {}
        for exp, c in terms.items():
            if len(exp) != len(vs):
                raise VariableMismatchError(
                    f"exponent {exp} has length {len(exp)}, expected {len(vs)}"
                )
            if any(e < 0 for e in exp):
                raise AlgebraError(f"negative exponent in {exp}")
            if not is_zero(c):
                clean[tuple(exp)] = c
        self.vars = vs
        self.terms = clean

    # -- conversion -----------------------------------------------------

    @staticmethod
    def of(p: MultiPoly) -> "RefPoly":
        return RefPoly(p.vars, dict(p.terms.items()))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "RefPoly":
        return RefPoly(vars, {})

    @staticmethod
    def const(vars: Sequence[str], c) -> "RefPoly":
        if isinstance(c, (int, Fraction)):
            c = gr(c)
        return RefPoly(vars, {(0,) * len(tuple(vars)): c})

    @staticmethod
    def variable(vars: Sequence[str], name: str) -> "RefPoly":
        vs = tuple(vars)
        if name not in vs:
            raise VariableMismatchError(f"unknown variable {name!r}")
        exp = [0] * len(vs)
        exp[vs.index(name)] = 1
        return RefPoly(vs, {tuple(exp): GR_ONE})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "RefPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(f"{self.vars} vs {other.vars}")

    def __add__(self, other: "RefPoly") -> "RefPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, GR_ZERO) + c
        return RefPoly(self.vars, out)

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        return self + (-other)

    def __neg__(self) -> "RefPoly":
        return RefPoly(self.vars, {e: neg(c) for e, c in self.terms.items()})

    def __mul__(self, other: "RefPoly") -> "RefPoly":
        self._check(other)
        out: Dict[Exponent, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, GR_ZERO) + c1 * c2
        return RefPoly(self.vars, out)

    def scale(self, c) -> "RefPoly":
        if isinstance(c, (int, Fraction)):
            c = gr(c)
        if is_zero(c):
            return RefPoly.zero(self.vars)
        return RefPoly(self.vars, {e: k * c for e, k in self.terms.items()})

    def conjugate(self) -> "RefPoly":
        return RefPoly(self.vars, {e: conj(c) for e, c in self.terms.items()})

    # -- calculus -----------------------------------------------------

    def diff(self, var: str) -> "RefPoly":
        if var not in self.vars:
            raise VariableMismatchError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        out: Dict[Exponent, GaussianRational] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            k = e[i]
            e[i] = k - 1
            e = tuple(e)
            out[e] = out.get(e, GR_ZERO) + c * gr(k)
        return RefPoly(self.vars, out)

    def substitute(self, assignments: Mapping[str, "RefPoly"]) -> "RefPoly":
        target = None
        for img in assignments.values():
            if target is None:
                target = img.vars
            elif img.vars != target:
                raise VariableMismatchError("assignment images disagree on variables")
        if target is None:
            target = self.vars
        images = []
        for v in self.vars:
            if v in assignments:
                images.append(assignments[v])
            else:
                images.append(RefPoly.variable(target, v))
        powers: Dict[Tuple[int, int], RefPoly] = {}

        def power(i: int, k: int) -> RefPoly:
            if k == 0:
                return RefPoly.const(target, 1)
            key = (i, k)
            if key not in powers:
                powers[key] = power(i, k - 1) * images[i]
            return powers[key]

        out: Dict[Exponent, GaussianRational] = {}
        for exp, c in self.terms.items():
            term = RefPoly.const(target, 1).scale(c)
            for i, k in enumerate(exp):
                if k:
                    term = term * power(i, k)
            for e, v in term.terms.items():
                out[e] = out[e] + v if e in out else v
        return RefPoly(target, out)

    def zero_outside(self, vars: Sequence[str]) -> "RefPoly":
        vs = tuple(vars)
        keep = tuple(self.vars.index(v) for v in vs)
        drop = tuple(i for i in range(len(self.vars)) if i not in keep)
        return RefPoly(vs, {tuple(e[i] for i in keep): c for e, c in self.terms.items()
                            if not any(e[i] for i in drop)})

    def with_vars(self, vars: Sequence[str]) -> "RefPoly":
        vs = tuple(vars)
        idx = []
        for j, v in enumerate(self.vars):
            idx.append(vs.index(v) if v in vs else None)
        out: Dict[Exponent, GaussianRational] = {}
        for exp, c in self.terms.items():
            e = [0] * len(vs)
            for j, k in enumerate(exp):
                if k == 0:
                    continue
                if idx[j] is None:
                    raise VariableMismatchError(
                        f"variable {self.vars[j]!r} used but absent from target list"
                    )
                e[idx[j]] = k
            out[tuple(e)] = out.get(tuple(e), GR_ZERO) + c
        return RefPoly(vs, out)

    def uses(self, var: str) -> bool:
        if var not in self.vars:
            return False
        i = self.vars.index(var)
        return any(exp[i] for exp in self.terms)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RefPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def render(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-k for k in e)))
        parts = []
        for exp in keys:
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, exp)
                if k
            )
            c = render_gauss(self.terms[exp])
            parts.append(f"{c}*{mono}" if mono else c)
        return " + ".join(parts)


def derivative(f: RefPoly, v: Sequence[Tuple[int, GaussianRational]], m: int = 1) -> RefPoly:
    """The directional derivative Σ_i v_i ∂_i f, divided by m."""
    out: Dict[Tuple[int, ...], GaussianRational] = {}
    for e, c in f.terms.items():
        for i, vi in v:
            k = e[i]
            if k:
                d = e[:i] + (k - 1,) + e[i + 1:]
                out[d] = out.get(d, GR_ZERO) + c * vi * gr(Fraction(k, m))
    return RefPoly(f.vars, out)


def homotopy(f: RefPoly, vpos: Sequence[int], k: int,
             directions: Sequence[int]) -> Dict[int, RefPoly]:
    """Grade-k tube homotopy along each listed constrained direction a
    (1-based, position ``vpos[a - 1]``): x^m goes to m_a/(|m_v|+k) · x^{m-e_a}."""
    outs: Dict[int, dict] = {a: {} for a in directions}
    for e, c in f.terms.items():
        deg = sum(e[i] for i in vpos)
        for a, out in outs.items():
            i = vpos[a - 1]
            m = e[i]
            if m:
                out[e[:i] + (m - 1,) + e[i + 1:]] = c * gr(Fraction(m, deg + k))
    return {a: RefPoly(f.vars, out) for a, out in outs.items()}


class RefSeries:
    """Formal power series in the deformation parameter, truncated at a
    fixed order ``L``: coefficient ``r`` is the polynomial multiplying the
    parameter to the r-th power, and every power up to L has one."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[MultiPoly]):
        cs = tuple(coeffs)
        if not cs:
            raise AlgebraError("series needs at least the order-0 coefficient")
        vs = cs[0].vars
        for c in cs:
            if c.vars != vs:
                raise VariableMismatchError("series coefficients disagree on variables")
        self.coeffs = cs
        self.order = len(cs) - 1

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.coeffs[0].vars

    # -- conversion -----------------------------------------------------

    @staticmethod
    def of(s: LambdaSeries) -> "RefSeries":
        return RefSeries([s.coeff(r) for r in range(s.order + 1)])

    def to_series(self) -> LambdaSeries:
        out = LambdaSeries.zero(self.vars, self.order)
        for r, c in enumerate(self.coeffs):
            out = out + LambdaSeries.from_poly(c, self.order, shift=r)
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_poly(p: MultiPoly, order: int, shift: int = 0) -> "RefSeries":
        z = MultiPoly.zero(p.vars)
        coeffs = [z] * (order + 1)
        if shift <= order:
            coeffs[shift] = p
        return RefSeries(coeffs)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "RefSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"order {self.order} vs {other.order}")
        if self.vars != other.vars:
            raise VariableMismatchError(f"{self.vars} vs {other.vars}")

    def __add__(self, other: "RefSeries") -> "RefSeries":
        self._check(other)
        return RefSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "RefSeries") -> "RefSeries":
        self._check(other)
        return RefSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c) -> "RefSeries":
        return RefSeries([a.scale(c) for a in self.coeffs])

    def lambda_shift(self, k: int = 1) -> "RefSeries":
        """Multiply by the k-th power of the parameter; coefficients pushed
        beyond the truncation order are discarded."""
        z = MultiPoly.zero(self.vars)
        out = [z] * (self.order + 1)
        for r, a in enumerate(self.coeffs):
            if r + k <= self.order:
                out[r + k] = a
        return RefSeries(out)

    def conjugate(self) -> "RefSeries":
        return RefSeries([a.conjugate() for a in self.coeffs])

    def map_coeffs(self, fn: Callable[[MultiPoly], MultiPoly]) -> "RefSeries":
        return RefSeries([fn(a) for a in self.coeffs])

    def truncate(self, order: int) -> "RefSeries":
        if order <= self.order:
            return RefSeries(self.coeffs[: order + 1])
        z = MultiPoly.zero(self.vars)
        return RefSeries(list(self.coeffs) + [z] * (order - self.order))

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def min_lambda_order(self):
        for r, c in enumerate(self.coeffs):
            if not c.is_zero():
                return r
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RefSeries)
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def render(self) -> str:
        lines = []
        for r, c in enumerate(self.coeffs):
            if not c.is_zero():
                lines.append(f"λ^{r}: {c.render()}")
        return "\n".join(lines) if lines else "0"


def series_product(star, f: RefSeries, g: RefSeries) -> RefSeries:
    """The star product of two series summed pair by pair: coefficient t of
    ``star.eval_poly(a_r, b_s, L)`` lands at λ^{r+s+t} for t up to L - r - s.
    Each pair runs at the series' order, the only one a reduced product
    takes."""
    if f.order != g.order:
        raise OrderMismatchError("order mismatch")
    L = f.order
    acc = [MultiPoly.zero(f.vars)] * (L + 1)
    for r, a in enumerate(f.coeffs):
        for s, b in enumerate(g.coeffs[:L - r + 1]):
            if a.is_zero() or b.is_zero():
                continue
            product = star.eval_poly(a, b, L)
            for t in range(L - r - s + 1):
                acc[r + s + t] = acc[r + s + t] + product.coeff(t)
    return RefSeries(acc)


# -- the forms replaced by integer set-up and support-based checks -----------

def rank_one_terms(C: Mapping[Tuple[int, int], GaussianRational]):
    """C = Σ_k a_k b_kᵀ by rank-one elimination in GaussianRational
    arithmetic: each step takes the first nonzero entry C^{ij} as pivot and
    removes C[:, j] C[i, :] / C^{ij}; a is the pivot column and b the pivot
    row scaled to 1 at the pivot."""
    C = dict(C)
    terms = []
    while C:
        i, j = min(C)
        pivot = C[i, j]
        col = sorted((k, c) for (k, l), c in C.items() if l == j)
        row = sorted((l, c) for (k, l), c in C.items() if k == i)
        for k, ck in col:
            for l, cl in row:
                v = C.get((k, l), GR_ZERO) - div(ck * cl, pivot)
                if is_zero(v):
                    C.pop((k, l), None)
                else:
                    C[k, l] = v
        terms.append((col, [(l, div(c, pivot)) for l, c in row]))
    return terms


def pairing(C: Mapping[Tuple[int, int], GaussianRational], f: MultiPoly,
            g: MultiPoly) -> MultiPoly:
    """Σ C^{ij} ∂_i f ∂_j g, one product of derivatives per entry."""
    out = MultiPoly.zero(f.vars)
    for (i, j), c in C.items():
        out = out + (f.diff(f.vars[i]) * g.diff(g.vars[j])).scale(c)
    return out


def random_poly(rng: random.Random, vars: Sequence[str], max_degree: int) -> MultiPoly:
    """A sample drawn as ``qkoszul.sampling`` documents it, summed in
    GaussianRational arithmetic."""
    vs = tuple(vars)
    terms: Dict[Exponent, GaussianRational] = {}
    for _ in range(rng.randint(2, 4)):
        deg = rng.randint(0, max_degree)
        e = [0] * len(vs)
        for _ in range(deg):
            e[rng.randrange(len(vs))] += 1
        c = gr(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        key = tuple(e)
        terms[key] = terms.get(key, GR_ZERO) + c
    p = MultiPoly(vs, {k: v for k, v in terms.items() if not is_zero(v)})
    return p if not p.is_zero() else MultiPoly.const(vs, 1)


def sample_polys(seed: int, vars: Sequence[str], max_degree: int,
                 count: int) -> List[MultiPoly]:
    rng = random.Random(seed)
    return [random_poly(rng, vars, max_degree) for _ in range(count)]


def lie_table_failure(dim: int, structure: Mapping[Tuple[int, int, int], Fraction]
                      ) -> Optional[str]:
    """The first failure of antisymmetry or of the Jacobi identity, as the
    message of the dense check over every index in 1..dim, or None if both
    hold.  It never reads an index outside that range."""

    def c(a, b, g):
        return Fraction(structure.get((a, b, g), 0))

    idx = range(1, dim + 1)
    for a in idx:
        for b in idx:
            for g in idx:
                if c(a, b, g) != -c(b, a, g):
                    return f"structure constants not antisymmetric at {(a, b, g)}"
    for a in idx:
        for b in idx:
            for cc in idx:
                for e in idx:
                    s = Fraction(0)
                    for dd in idx:
                        s += c(a, b, dd) * c(dd, cc, e)
                        s += c(b, cc, dd) * c(dd, a, e)
                        s += c(cc, a, dd) * c(dd, b, e)
                    if s != 0:
                        return f"Jacobi identity fails at {(a, b, cc, e)}"
    return None


def product_of(kind: str, sp):
    """The product of ``kind`` on ``sp``: Weyl, Wick, std, or ``SKEW``."""
    return StarProduct.constant(sp, SKEW) if kind == "skew" else \
        getattr(StarProduct, kind)(sp)
