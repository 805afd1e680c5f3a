"""Exact coefficient arithmetic, sparse multivariate polynomials and
truncated formal series in the deformation parameter.

All coefficients are Gaussian rationals (complex numbers with rational real
and imaginary part), so every identity checked downstream is exact: no
floating point appears anywhere in this package.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Dict, Sequence, Tuple

Exponent = Tuple[int, ...]


class AlgebraError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class VariableMismatchError(AlgebraError):
    """Operands do not live over the same variable list."""


class OrderMismatchError(AlgebraError):
    """Series operands have different truncation orders."""


class ContractViolationError(AlgebraError):
    """An operator failed a structural contract (e.g. order raising)."""


class ExponentOverflowError(AlgebraError):
    """An exponent does not fit its slot of a packed monomial key."""


class TermLimitError(AlgebraError):
    """An operation built a polynomial with more than ``MAX_TERMS`` terms."""


# Bits per variable in a packed monomial key; the top bit of each slot is a
# guard, so an exponent is at most 2**(SLOT_BITS - 1) - 1.
SLOT_BITS = 16
# The most terms any polynomial an operation builds may have.  The largest
# product of the builtin scenarios and benchmark workloads has 462 terms.
MAX_TERMS = 100_000


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


# -- packed exponent keys -------------------------------------------------
#
# A monomial is one int: the exponent of variable j sits in bits
# [SLOT_BITS*(n-1-j), SLOT_BITS*(n-j)) of an n-variable key, so the first
# variable is the most significant slot and the key of a product of two
# monomials is the sum of their keys.  The
# top bit of each slot is a guard that no stored exponent sets: the sum of
# two stored keys never carries from one slot into the next, and a product
# whose keys set a guard bit raises ExponentOverflowError instead.

_layouts: Dict[Tuple[int, int], Tuple[Tuple[int, ...], int, int]] = {}


def _layout(n: int) -> Tuple[Tuple[int, ...], int, int]:
    """(slot shift of each variable, guard bits, slot mask) of an
    n-variable key at the current ``SLOT_BITS``."""
    S = SLOT_BITS
    lay = _layouts.get((S, n))
    if lay is None:
        shifts = tuple(S * (n - 1 - j) for j in range(n))
        guard = sum(1 << (s + S - 1) for s in shifts)
        lay = _layouts[S, n] = (shifts, guard, (1 << S) - 1)
    return lay


def _overflow() -> ExponentOverflowError:
    top = (1 << (SLOT_BITS - 1)) - 1
    return ExponentOverflowError(f"an exponent exceeds {top}, the largest a "
                                 f"{SLOT_BITS}-bit monomial slot holds")


def _pack(exp: Exponent) -> int:
    S, top = SLOT_BITS, 1 << (SLOT_BITS - 1)
    key = 0
    for e in exp:
        if e >= top:
            raise _overflow()
        key = (key << S) | e
    return key


def _unpack(key: int, n: int) -> Exponent:
    shifts, _, mask = _layout(n)
    return tuple((key >> s) & mask for s in shifts)


def _gauss(c) -> Tuple[int, int, int]:
    """(den, re, im) with c = (re + i·im)/den in lowest terms, for an int,
    a Fraction or a GaussianRational."""
    if isinstance(c, int):
        return 1, c, 0
    if isinstance(c, Fraction):
        return c.denominator, c.numerator, 0
    re, im = c.re, c.im
    d = lcm(re.denominator, im.denominator)
    return d, re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)


def _render_part(num: int, den: int) -> str:
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _wrap(vars: Tuple[str, ...], den: int, nums: Dict[int, Tuple[int, int]]) -> "MultiPoly":
    """A polynomial from data already in canonical form."""
    p = object.__new__(MultiPoly)
    p.vars, p.den, p.nums = vars, den, nums
    return p


def _canonical(vars: Tuple[str, ...], den: int,
               nums: Dict[int, Tuple[int, int]]) -> "MultiPoly":
    """A polynomial from nonzero numerators over a positive denominator:
    the common factor of the denominator and every numerator is divided
    out, and the term limit is enforced."""
    if len(nums) > MAX_TERMS:
        raise TermLimitError(f"a polynomial of {len(nums)} terms exceeds the "
                             f"limit of {MAX_TERMS} terms")
    if not nums:
        den = 1
    elif den != 1:
        g = den
        for r, i in nums.values():
            g = gcd(g, r, i)
            if g == 1:
                break
        if g != 1:
            den //= g
            nums = {k: (r // g, i // g) for k, (r, i) in nums.items()}
    return _wrap(vars, den, nums)


def _nonzero(acc: Dict[int, Tuple[int, int]]) -> Dict[int, Tuple[int, int]]:
    return {k: v for k, v in acc.items() if v[0] or v[1]}


class _Terms(Mapping):
    """Read-only view of a polynomial's coefficients: exponent tuple to
    GaussianRational, built on access."""

    __slots__ = ("_p",)

    def __init__(self, p: "MultiPoly"):
        self._p = p

    def __len__(self) -> int:
        return len(self._p.nums)

    def __iter__(self):
        n = len(self._p.vars)
        return (_unpack(k, n) for k in self._p.nums)

    def __getitem__(self, exp) -> GaussianRational:
        p = self._p
        if len(exp) != len(p.vars) or any(e < 0 for e in exp):
            raise KeyError(exp)
        try:
            r, i = p.nums[_pack(exp)]
        except (KeyError, ExponentOverflowError):
            raise KeyError(exp) from None
        return GaussianRational(Fraction(r, p.den), Fraction(i, p.den))


class MultiPoly:
    """Sparse multivariate polynomial over Gaussian rationals.

    ``vars`` is an ordered tuple of variable names.  The coefficients are
    Gaussian-integer numerators over one shared denominator: ``nums`` maps
    the packed key of each monomial to ``(re, im)``, and the coefficient is
    (re + i·im)/``den``.  The form is canonical: ``den`` is positive, no
    entry is (0, 0), and ``den`` and all numerators have no common factor,
    so equal polynomials have equal fields.  ``terms`` is a read-only view
    from exponent tuples to GaussianRational coefficients.  Instances are
    immutable.
    """

    __slots__ = ("vars", "den", "nums")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponent, GaussianRational]):
        vs = tuple(vars)
        coeffs = []
        for exp, c in terms.items():
            if len(exp) != len(vs):
                raise VariableMismatchError(
                    f"exponent {exp} has length {len(exp)}, expected {len(vs)}"
                )
            if any(e < 0 for e in exp):
                raise AlgebraError(f"negative exponent in {exp}")
            if not c.is_zero():
                coeffs.append((_pack(exp), _gauss(c)))
        den = lcm(*(d for _, (d, _, _) in coeffs))
        p = _canonical(vs, den, {k: (r * (den // d), i * (den // d))
                                 for k, (d, r, i) in coeffs})
        self.vars, self.den, self.nums = p.vars, p.den, p.nums

    @property
    def terms(self) -> Mapping[Exponent, GaussianRational]:
        return _Terms(self)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "MultiPoly":
        return _wrap(tuple(vars), 1, {})

    @staticmethod
    def const(vars: Sequence[str], c) -> "MultiPoly":
        d, r, i = _gauss(c)
        return _wrap(tuple(vars), d, {0: (r, i)}) if r or i else MultiPoly.zero(vars)

    @staticmethod
    def variable(vars: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(vars)
        if name not in vs:
            raise VariableMismatchError(f"unknown variable {name!r}")
        return _wrap(vs, 1, {1 << _layout(len(vs))[0][vs.index(name)]: (1, 0)})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(f"{self.vars} vs {other.vars}")

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign·other."""
        self._check(other)
        if not other.nums:
            return self
        if not self.nums:
            return other if sign > 0 else -other
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        out = dict(self.nums) if sa == 1 else \
            {k: (r * sa, i * sa) for k, (r, i) in self.nums.items()}
        for k, (r, i) in other.nums.items():
            if sb != 1:
                r, i = r * sb, i * sb
            t = out.get(k)
            if t is None:
                out[k] = (r, i)
            else:
                r, i = t[0] + r, t[1] + i
                if r or i:
                    out[k] = (r, i)
                else:
                    del out[k]
        return _canonical(self.vars, den, out)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "MultiPoly":
        return _wrap(self.vars, self.den, {k: (-r, -i) for k, (r, i) in self.nums.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        acc: Dict[int, Tuple[int, int]] = {}
        right = list(other.nums.items())
        for k1, (a, b) in self.nums.items():
            for k2, (c, d) in right:
                k = k1 + k2
                if k in acc:
                    t = acc[k]
                    acc[k] = (t[0] + a * c - b * d, t[1] + a * d + b * c)
                else:
                    acc[k] = (a * c - b * d, a * d + b * c)
        if acc and reduce(or_, acc) & _layout(len(self.vars))[1]:
            raise _overflow()
        return _canonical(self.vars, self.den * other.den, _nonzero(acc))

    def scale(self, c) -> "MultiPoly":
        d, cr, ci = _gauss(c)
        if not (cr or ci):
            return MultiPoly.zero(self.vars)
        if (d, cr, ci) == (1, 1, 0):
            return self
        return _canonical(self.vars, self.den * d, {
            k: (r * cr - i * ci, r * ci + i * cr) for k, (r, i) in self.nums.items()})

    def conjugate(self) -> "MultiPoly":
        """Complex conjugation of coefficients; variables stay fixed."""
        return _wrap(self.vars, self.den, {k: (r, -i) for k, (r, i) in self.nums.items()})

    # -- calculus -----------------------------------------------------

    def _slot(self, var: str) -> Tuple[int, int]:
        """(shift, slot mask) of a variable of ``self``."""
        if var not in self.vars:
            raise VariableMismatchError(f"unknown variable {var!r}")
        shifts, _, mask = _layout(len(self.vars))
        return shifts[self.vars.index(var)], mask

    def diff(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``var``."""
        s, mask = self._slot(var)
        unit = 1 << s
        out = {}
        for k, (r, i) in self.nums.items():
            e = (k >> s) & mask
            if e:
                out[k - unit] = (r * e, i * e)
        return _canonical(self.vars, self.den, out)

    def directional(self, form: "MultiPoly", m: int = 1) -> "MultiPoly":
        """The derivative along the constant vector field of a linear form
        l = Σ_i v_i x_i, divided by m: Σ_i v_i ∂_i f / m."""
        self._check(form)
        mask = (1 << SLOT_BITS) - 1
        along = []
        for unit, (vr, vi) in form.nums.items():
            s = unit.bit_length() - 1
            if unit & (unit - 1) or s % SLOT_BITS:
                raise AlgebraError("directional derivative needs a linear form")
            along.append((s, unit, vr, vi))
        out: Dict[int, Tuple[int, int]] = {}
        for k, (r, i) in self.nums.items():
            for s, unit, vr, vi in along:
                e = (k >> s) & mask
                if e:
                    d = k - unit
                    nr, ni = (r * vr - i * vi) * e, (r * vi + i * vr) * e
                    t = out.get(d)
                    out[d] = (nr, ni) if t is None else (t[0] + nr, t[1] + ni)
        return _canonical(self.vars, self.den * form.den * m, _nonzero(out))

    def weighted_diff(self, var: str, weight_vars: Sequence[str], k: int) -> "MultiPoly":
        """Σ_m c_m · m_var/(|m|_w + k) · x^{m - e_var}, where |m|_w is the
        degree of x^m in ``weight_vars``: the derivative in ``var`` with
        each monomial divided by its weighted degree plus k."""
        s, mask = self._slot(var)
        unit = 1 << s
        ws = [self._slot(v)[0] for v in weight_vars]
        rows = []
        for key, (r, i) in self.nums.items():
            e = (key >> s) & mask
            if e:
                w = k + sum((key >> t) & mask for t in ws)
                if w <= 0:
                    raise AlgebraError(f"weight {w} of a monomial is not positive")
                rows.append((key - unit, r * e, i * e, w))
        L = lcm(*(w for *_, w in rows))
        return _canonical(self.vars, self.den * L,
                          {d: (r * (L // w), i * (L // w)) for d, r, i, w in rows})

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

        parts = []
        for key, c in self.nums.items():
            term = _canonical(target, self.den, {0: c})
            for i, k in enumerate(_unpack(key, len(self.vars))):
                if k:
                    term = term * power(i, k)
            parts.append(term)
        den = lcm(*(p.den for p in parts))
        acc: Dict[int, Tuple[int, int]] = {}
        for p in parts:
            s = den // p.den
            for k, (r, i) in p.nums.items():
                t = acc.get(k)
                acc[k] = (r * s, i * s) if t is None else (t[0] + r * s, t[1] + i * s)
        return _canonical(target, den, _nonzero(acc))

    def _moved(self, vars: Tuple[str, ...], targets: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
        """The entries whose monomials use only the variables in
        ``targets``, re-keyed onto ``vars``: variable j of ``self`` becomes
        variable targets[j]."""
        old, _, mask = _layout(len(self.vars))
        new = _layout(len(vars))[0]
        moves = [(old[j], new[t]) for j, t in targets.items()]
        dropped = 0
        for j, s in enumerate(old):
            if j not in targets:
                dropped |= mask << s
        out = {}
        for k, v in self.nums.items():
            if not k & dropped:
                nk = 0
                for so, sn in moves:
                    nk |= ((k >> so) & mask) << sn
                out[nk] = v
        return out

    def zero_outside(self, vars: Sequence[str]) -> "MultiPoly":
        """Image under setting every variable not in ``vars`` to zero,
        re-expressed on ``vars`` (each of them a variable of ``self``)."""
        vs = tuple(vars)
        nums = self._moved(vs, {self.vars.index(v): t for t, v in enumerate(vs)})
        return _canonical(vs, self.den, nums)

    def with_vars(self, vars: Sequence[str]) -> "MultiPoly":
        """Re-express over a different variable list (a superset or a list
        still containing every variable actually used)."""
        vs = tuple(vars)
        if vs == self.vars:
            return self
        nums = self._moved(vs, {j: vs.index(v) for j, v in enumerate(self.vars) if v in vs})
        if len(nums) < len(self.nums):
            gone = next(v for v in self.vars if v not in vs and self.uses(v))
            raise VariableMismatchError(f"variable {gone!r} used but absent from target list")
        return _wrap(vs, self.den, nums)

    def uses(self, var: str) -> bool:
        if var not in self.vars:
            return False
        s, mask = self._slot(var)
        slot = mask << s
        return any(k & slot for k in self.nums)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.nums.items())))

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Canonical text form: graded-lexicographic monomial order, each
        coefficient as ``(a/b)+(c/d)i`` with both parts in lowest terms."""
        if not self.nums:
            return "0"
        n, den = len(self.vars), self.den
        rows = sorted(((_unpack(k, n), v) for k, v in self.nums.items()),
                      key=lambda row: (-sum(row[0]), tuple(-k for k in row[0])))
        parts = []
        for exp, (r, i) in rows:
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, exp)
                if k
            )
            sign = "+" if i >= 0 else "-"
            c = f"({_render_part(r, den)}){sign}({_render_part(abs(i), den)})i"
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
