"""Exact coefficient arithmetic, sparse multivariate polynomials and
truncated formal series in the deformation parameter.

All coefficients are Gaussian rationals (complex numbers with rational real
and imaginary part), so every identity checked downstream is exact: no
floating point appears anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Sequence, Tuple

Exponent = Tuple[int, ...]


class AlgebraError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class VariableMismatchError(AlgebraError):
    """Operands do not live over the same variable list."""


class OrderMismatchError(AlgebraError):
    """Series operands have different truncation orders."""


class ContractViolationError(AlgebraError):
    """An operator failed a structural contract (e.g. order raising)."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary part."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(_as_fraction(re), _as_fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def render(self) -> str:
        """Canonical text form ``(a/b)+(c/d)i`` (bit-exact across runs)."""
        re, im = self.re, self.im
        sign = "+" if im >= 0 else "-"
        return f"({re.numerator}/{re.denominator}){sign}({abs(im).numerator}/{abs(im).denominator})i"

    def __str__(self) -> str:
        return self.render()


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))
GR_MINUS_I = GaussianRational(Fraction(0), Fraction(-1))


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints and Fractions."""
    return GaussianRational.of(re, im)


class MultiPoly:
    """Sparse multivariate polynomial over Gaussian rationals.

    ``vars`` is an ordered tuple of variable names; ``terms`` maps exponent
    tuples (one entry per variable) to nonzero coefficients.  Instances are
    immutable by convention: no method mutates ``terms`` after construction.
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
            if not c.is_zero():
                clean[tuple(exp)] = c
        self.vars = vs
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "MultiPoly":
        return MultiPoly(vars, {})

    @staticmethod
    def const(vars: Sequence[str], c) -> "MultiPoly":
        if isinstance(c, (int, Fraction)):
            c = GaussianRational.of(c)
        return MultiPoly(vars, {(0,) * len(tuple(vars)): c})

    @staticmethod
    def variable(vars: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(vars)
        if name not in vs:
            raise VariableMismatchError(f"unknown variable {name!r}")
        exp = [0] * len(vs)
        exp[vs.index(name)] = 1
        return MultiPoly(vs, {tuple(exp): GR_ONE})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(f"{self.vars} vs {other.vars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, GR_ZERO) + c
        return MultiPoly(self.vars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: Dict[Exponent, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, GR_ZERO) + c1 * c2
        return MultiPoly(self.vars, out)

    def scale(self, c) -> "MultiPoly":
        if isinstance(c, (int, Fraction)):
            c = GaussianRational.of(c)
        if c.is_zero():
            return MultiPoly.zero(self.vars)
        return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})

    def conjugate(self) -> "MultiPoly":
        """Complex conjugation of coefficients; variables stay fixed."""
        return MultiPoly(self.vars, {e: c.conjugate() for e, c in self.terms.items()})

    # -- calculus -----------------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``var``."""
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
            out[e] = out.get(e, GR_ZERO) + c * GaussianRational.of(k)
        return MultiPoly(self.vars, out)

    def substitute(self, assignments: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Ring homomorphism sending each assigned variable to its image.

        Unassigned variables map to themselves; the target variable list is
        taken from the assignment images (they must all agree) and must
        contain every unassigned variable of ``self``.
        """
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
                images.append(MultiPoly.variable(target, v))
        # cache powers per variable index
        powers: Dict[Tuple[int, int], MultiPoly] = {}

        def power(i: int, k: int) -> MultiPoly:
            if k == 0:
                return MultiPoly.const(target, 1)
            key = (i, k)
            if key not in powers:
                powers[key] = power(i, k - 1) * images[i]
            return powers[key]

        out: Dict[Exponent, GaussianRational] = {}
        for exp, c in self.terms.items():
            term = MultiPoly.const(target, 1).scale(c)
            for i, k in enumerate(exp):
                if k:
                    term = term * power(i, k)
            for e, v in term.terms.items():
                out[e] = out[e] + v if e in out else v
        return MultiPoly(target, out)

    def zero_outside(self, vars: Sequence[str]) -> "MultiPoly":
        """Image under setting every variable not in ``vars`` to zero,
        re-expressed on ``vars`` (each of them a variable of ``self``)."""
        vs = tuple(vars)
        keep = tuple(self.vars.index(v) for v in vs)
        drop = tuple(i for i in range(len(self.vars)) if i not in keep)
        return MultiPoly(vs, {tuple(e[i] for i in keep): c for e, c in self.terms.items()
                              if not any(e[i] for i in drop)})

    def with_vars(self, vars: Sequence[str]) -> "MultiPoly":
        """Re-express over a different variable list (a superset or a list
        still containing every variable actually used)."""
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
        return MultiPoly(vs, out)

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
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Canonical text form: graded-lexicographic monomial order."""
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
            c = self.terms[exp].render()
            parts.append(f"{c}*{mono}" if mono else c)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"


class LambdaSeries:
    """Formal power series in the deformation parameter, truncated at a
    fixed order ``L``.  Coefficient ``r`` is the polynomial multiplying the
    parameter to the r-th power."""

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

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str], order: int) -> "LambdaSeries":
        z = MultiPoly.zero(vars)
        return LambdaSeries([z] * (order + 1))

    @staticmethod
    def from_poly(p: MultiPoly, order: int, shift: int = 0) -> "LambdaSeries":
        """Embed a polynomial at the given power of the parameter."""
        z = MultiPoly.zero(p.vars)
        coeffs = [z] * (order + 1)
        if shift <= order:
            coeffs[shift] = p
        return LambdaSeries(coeffs)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "LambdaSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"order {self.order} vs {other.order}")
        if self.vars != other.vars:
            raise VariableMismatchError(f"{self.vars} vs {other.vars}")

    def __add__(self, other: "LambdaSeries") -> "LambdaSeries":
        self._check(other)
        return LambdaSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "LambdaSeries") -> "LambdaSeries":
        self._check(other)
        return LambdaSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "LambdaSeries":
        return LambdaSeries([-a for a in self.coeffs])

    def scale(self, c) -> "LambdaSeries":
        return LambdaSeries([a.scale(c) for a in self.coeffs])

    def lambda_shift(self, k: int = 1) -> "LambdaSeries":
        """Multiply by the k-th power of the parameter.  Coefficients pushed
        beyond the truncation order are discarded (truncation contract)."""
        z = MultiPoly.zero(self.vars)
        out = [z] * (self.order + 1)
        for r, a in enumerate(self.coeffs):
            if r + k <= self.order:
                out[r + k] = a
        return LambdaSeries(out)

    def conjugate(self) -> "LambdaSeries":
        return LambdaSeries([a.conjugate() for a in self.coeffs])

    def map_coeffs(self, fn: Callable[[MultiPoly], MultiPoly]) -> "LambdaSeries":
        return LambdaSeries([fn(a) for a in self.coeffs])

    def truncate(self, order: int) -> "LambdaSeries":
        if order <= self.order:
            return LambdaSeries(self.coeffs[: order + 1])
        z = MultiPoly.zero(self.vars)
        return LambdaSeries(list(self.coeffs) + [z] * (order - self.order))

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def min_lambda_order(self):
        """Lowest power with a nonzero coefficient, or None for zero."""
        for r, c in enumerate(self.coeffs):
            if not c.is_zero():
                return r
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LambdaSeries)
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def render(self) -> str:
        lines = []
        for r, c in enumerate(self.coeffs):
            if not c.is_zero():
                lines.append(f"λ^{r}: {c.render()}")
        return "\n".join(lines) if lines else "0"

    def __repr__(self) -> str:
        return f"LambdaSeries({self.render()!r})"


def invert_unipotent(raiser: Callable, order: int) -> Callable:
    """Invert ``id - A`` where ``A`` strictly raises the minimal order in
    the deformation parameter.

    ``raiser`` is ``A``; the returned callable evaluates the geometric
    series truncated after ``order`` applications, which is the exact
    inverse on series truncated at ``order``.  The order-raising contract
    is checked on every input: each application of ``A`` must raise the
    minimal order of the iterate by at least one.
    """

    def inverse(x):
        acc = x
        cur = x
        prev_min = cur.min_lambda_order()
        for _ in range(order):
            if cur.is_zero():
                break
            cur = raiser(cur)
            mo = cur.min_lambda_order()
            if mo is not None and prev_min is not None and mo <= prev_min:
                raise ContractViolationError(
                    f"operator did not raise minimal order (was {prev_min}, got {mo})"
                )
            prev_min = mo
            acc = acc + cur
        return acc

    return inverse
