"""Exact coefficient arithmetic, sparse multivariate polynomials and
truncated formal series in the deformation parameter.

All coefficients are Gaussian rationals (complex numbers with rational real
and imaginary part), so every identity checked downstream is exact: no
floating point appears anywhere in this package.  There is one polynomial
type, ``MultiPoly``; a truncated series is a ``MultiPoly`` whose leading
variable is the parameter λ, held with its truncation order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from itertools import repeat
from math import factorial, gcd, lcm
from operator import or_
from typing import Callable, Dict, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
Vars = Tuple[str, ...]
# the numerators (re, im) of a polynomial by monomial key
Nums = Dict[int, Tuple[int, int]]


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


# Bits per variable in a packed monomial key, fixed: no cache keys by it.
# The top bit of each slot is a guard, so an exponent is at most 32767.
SLOT_BITS = 16
_TOP = (1 << (SLOT_BITS - 1)) - 1   # the largest exponent a slot holds
# The most terms any polynomial an operation builds may have; a series is one
# polynomial, so its terms at every power of λ count together.  The largest
# polynomial of the builtin scenarios and benchmark workloads is a series of
# 553 terms.
MAX_TERMS = 100_000
# The most key layouts the star walk keeps, per set of fields and in all.
MAX_LAYOUTS = 256


def rational(x) -> Fraction:
    """An int or a Fraction as a Fraction; any other type, such as a float,
    whose binary value is not the decimal it was written as, is a
    TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary part: the type
    ``gr`` builds for the benchmark's inputs, and whose three operators the
    benchmark's tracer counts.  The package computes on integer numerators
    instead, and ``gauss`` reads one as a triple."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )


def gr(re=0, im=0) -> GaussianRational:
    """The Gaussian rational re + i·im, for ints and Fractions."""
    return GaussianRational(rational(re), rational(im))


# -- packed exponent keys -------------------------------------------------
#
# The key format is private to this module: other modules name variables
# by name or by position, and hand coefficients over as (re, im, den)
# triples (``gauss``).
#
# A monomial is one int: the exponent of variable j sits in bits
# [SLOT_BITS*(n-1-j), SLOT_BITS*(n-j)) of an n-variable key, so the first
# variable is the most significant slot and the key of a product of two
# monomials is the sum of their keys.  The
# top bit of each slot is a guard that no stored exponent sets: the sum of
# two stored keys never carries from one slot into the next, and a product
# whose keys set a guard bit raises ExponentOverflowError instead.  A
# series leads with λ, so the keys of λ^r lie in [r << s, (r + 1) << s)
# for the slot shift s of λ, and the smallest key carries the lowest power.
# The star walk computes on narrower keys (``_walk_layout``).

@cache
def _layout(n: int) -> Tuple[Tuple[int, ...], int, int]:
    """(slot shift of each variable, guard bits, slot mask) of an
    n-variable key."""
    S = SLOT_BITS
    shifts = tuple(S * (n - 1 - j) for j in range(n))
    return shifts, sum(1 << (s + S - 1) for s in shifts), (1 << S) - 1


@cache
def _mask(vars: Vars, names: Vars) -> int:
    """The key bits of the variables of ``names`` in a key over ``vars``; a
    name not in ``vars`` has none."""
    shifts, _, mask = _layout(len(vars))
    return reduce(or_, (mask << shifts[vars.index(v)] for v in names if v in vars), 0)


def _overflow() -> ExponentOverflowError:
    return ExponentOverflowError(f"an exponent exceeds {_TOP}, the largest a "
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


def gauss(c) -> Tuple[int, int, int]:
    """The triple (re, im, den) with c = (re + i·im)/den in lowest terms and
    den positive, for an int, a Fraction, a triple (re, im, den) of ints
    with den nonzero, or a GaussianRational.  Triples are how the other
    modules hand coefficients to this one; any other type is a TypeError."""
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    if isinstance(c, tuple) and len(c) == 3:
        re, im, den = c
        if not den:
            raise ZeroDivisionError(f"the triple {c} has denominator zero")
        g = gcd(re, im, den) if den > 0 else -gcd(re, im, den)
        return re // g, im // g, den // g
    if not isinstance(c, GaussianRational):
        raise TypeError(f"cannot read a {type(c).__name__} as a Gaussian rational")
    re, im = c.re, c.im
    d = lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def render_gauss(c) -> str:
    """The canonical text ``(a/b)+(c/d)i`` of anything ``gauss`` reads, both
    parts in lowest terms (bit-exact across runs)."""
    r, i, d = gauss(c)
    g, h = gcd(r, d), gcd(i, d)
    return f"({r // g}/{d // g}){'+' if i >= 0 else '-'}({abs(i) // h}/{d // h})i"


def _distinct(vars: Vars) -> Vars:
    """``vars``, once no name in it repeats: a repeated name would give one
    monomial two keys."""
    if len(set(vars)) < len(vars):
        name = next(v for v in vars if vars.count(v) > 1)
        raise VariableMismatchError(f"variable {name!r} repeats in {vars}")
    return vars


def _wrap(vars: Vars, den: int, nums: Nums) -> "MultiPoly":
    """A polynomial from data already in canonical form."""
    p = object.__new__(MultiPoly)
    p.vars, p.den, p.nums = vars, den, nums
    return p


def _limited(vars: Vars, den: int, nums: Nums) -> "MultiPoly":
    """A polynomial from data already in canonical form, once the term
    limit is enforced."""
    if len(nums) > MAX_TERMS:
        raise TermLimitError(f"a polynomial of {len(nums)} terms exceeds the "
                             f"limit of {MAX_TERMS} terms")
    return _wrap(vars, den, nums)


def _canonical(vars: Vars, den: int, nums: Nums) -> "MultiPoly":
    """A polynomial from nonzero numerators over a positive denominator:
    the common factor of the denominator and every numerator is divided
    out, and the term limit is enforced.  The products of ``_mul_sum`` do
    this in their own tail."""
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
    return _limited(vars, den, nums)


def _nonzero(acc: Nums) -> Nums:
    return {k: v for k, v in acc.items() if v[0] or v[1]}


def _mul_sum(vars: Vars, den: int, products, reach: int = -1,
             bound: Optional[int] = None, out=None) -> "MultiPoly":
    """Σ c·left·right over ``den`` in canonical form, for ``products``
    (left, right, lift, c) with right's keys raised by lift, summed in two
    plain-integer accumulators, one of real and one of imaginary parts, by
    (x + iy)(u + iv) = xu − yv + i(xv + yu).  Each right term goes into one
    of three row lists by which of its parts are nonzero, and a left term
    runs only the loops its nonzero parts need, so a pair of one-part terms
    costs one small multiply-add.

    The tail is one pass: the keys at or past ``bound`` are dropped, one
    gcd of ``den`` and both accumulators is the common factor (1 at once
    where ``den`` is 1), and each (re, im) entry is built once, already
    divided by it, under its key moved back through the table of ``out``
    for the walk's keys.  This is where every product finds an exponent
    past 32767: ``reach`` is the sum of the two inputs' key ORs, whose slot
    bounds that variable's exponent in every output key, and the keys are
    scanned for a guard bit unless ``reach`` sets none.  The default, -1,
    sets every bit, so ``*`` always scans."""
    re: Dict[int, int] = {}
    im: Dict[int, int] = {}
    rget, iget = re.get, im.get
    for left, right, lift, c in products:
        # plain loops: a comprehension's frame costs more on one or two terms
        reals, imags, both = [], [], []
        for k, (u, v) in right.items():
            if not v:
                reals.append((k + lift, c * u))
            elif not u:
                imags.append((k + lift, c * v))
            else:
                both.append((k + lift, c * u, c * v))
        for k1, (x, y) in left.items():
            if not y:
                for k2, u in reals:
                    k = k1 + k2
                    re[k] = rget(k, 0) + x * u
                for k2, v in imags:
                    k = k1 + k2
                    im[k] = iget(k, 0) + x * v
                for k2, u, v in both:
                    k = k1 + k2
                    re[k] = rget(k, 0) + x * u
                    im[k] = iget(k, 0) + x * v
            elif not x:
                for k2, u in reals:
                    k = k1 + k2
                    im[k] = iget(k, 0) + y * u
                for k2, v in imags:
                    k = k1 + k2
                    re[k] = rget(k, 0) - y * v
                for k2, u, v in both:
                    k = k1 + k2
                    re[k] = rget(k, 0) - y * v
                    im[k] = iget(k, 0) + y * u
            else:
                for k2, u in reals:
                    k = k1 + k2
                    re[k] = rget(k, 0) + x * u
                    im[k] = iget(k, 0) + y * u
                for k2, v in imags:
                    k = k1 + k2
                    re[k] = rget(k, 0) - y * v
                    im[k] = iget(k, 0) + x * v
                for k2, u, v in both:
                    k = k1 + k2
                    re[k] = rget(k, 0) + x * u - y * v
                    im[k] = iget(k, 0) + x * v + y * u
    if bound is not None:
        re = {k: r for k, r in re.items() if k < bound}
        im = {k: i for k, i in im.items() if k < bound}
    g = gcd(den, *re.values(), *im.values()) if den != 1 else 1
    t = out and out[1]
    while True:
        try:   # KeyError: a key the table has not seen
            if not im:
                nums = {t[k] if out else k: (r // g, 0) for k, r in re.items() if r}
            else:
                iget = im.get
                nums = {t[k] if out else k: (r // g, i // g) for k, r in re.items()
                        if (i := iget(k, 0)) or r}
                for k, i in im.items():
                    if i and k not in re:
                        nums[t[k] if out else k] = (0, i // g)
            break
        except KeyError:
            _extend(out, [*re, *im])
    guard = _layout(len(vars))[1]
    if reach & guard and reduce(or_, nums, 0) & guard:
        raise _overflow()
    return _limited(vars, den // g, nums)


def _sum(vars: Vars, parts, signs=None) -> "MultiPoly":
    """Σ_j s_j p_j in one pass over a common denominator, each sign s_j
    ±1 (all +1 without ``signs``).  A part's sign goes into the factor that
    lifts it to the common denominator, so no part is negated first.  Zero
    parts are dropped, and a single nonzero part of sign +1 comes back
    unchanged."""
    parts = [(p, sign) for p, sign in zip(parts, signs or repeat(1)) if p.nums]
    if not parts:
        return MultiPoly.zero(vars)
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    den = lcm(*(p.den for p, _ in parts))
    (p, sign), *rest = parts
    s = sign * (den // p.den)
    acc = dict(p.nums) if s == 1 else {k: (r * s, i * s) for k, (r, i) in p.nums.items()}
    for p, sign in rest:
        s = sign * (den // p.den)
        for k, (r, i) in p.nums.items():
            if s != 1:
                r, i = r * s, i * s
            t = acc.get(k)
            if t is not None:
                r, i = t[0] + r, t[1] + i
            if r or i:
                acc[k] = (r, i)
            else:
                del acc[k]
    return _canonical(vars, den, acc)


@cache
def _move_plan(src: Vars, dst: Vars) -> tuple:
    """How keys over ``src`` move onto ``dst``: the bits of the variables
    missing from ``dst``, the mask of the kept slots that stay, and a (mask,
    shift up, shift down) run per shift the others move by.  A name that
    repeats in ``dst`` is a VariableMismatchError, checked once per pair of
    lists that passes."""
    old, _, mask = _layout(len(src))
    new = _layout(len(_distinct(dst)))[0]
    dropped, runs = 0, {}
    for j, v in enumerate(src):
        if v in dst:
            d = new[dst.index(v)] - old[j]
            runs[d] = runs.get(d, 0) | mask << old[j]
        else:
            dropped |= mask << old[j]
    stay = runs.pop(0, 0)
    return dropped, stay, tuple((m, max(d, 0), max(-d, 0)) for d, m in runs.items())


def _move_key(k: int, stay: int, runs) -> int:
    """Key ``k`` moved by a plan's runs, its slots in the mask ``stay`` in place."""
    nk = k & stay
    for m, u, d in runs:
        nk |= (k & m) << u >> d
    return nk


def _extend(plan, keys) -> None:
    """Put the keys a walk plan's table has not seen into it, each moved by
    the plan's runs; a table that would pass ``MAX_TERMS`` keys is cleared
    first, so it holds no more keys than a polynomial may have terms."""
    runs, table = plan
    # not keys - table.keys(), which walks the whole table
    new = [k for k in keys if k not in table]
    if len(table) + len(new) > MAX_TERMS:
        table.clear()
        new = keys
    for k in new:
        table[k] = _move_key(k, 0, runs)


class MultiPoly:
    """Sparse multivariate polynomial over Gaussian rationals.

    ``vars`` is an ordered tuple of variable names.  The coefficients are
    Gaussian-integer numerators over one shared denominator: ``nums`` maps
    the packed key of each monomial to ``(re, im)``, and the coefficient is
    (re + i·im)/``den``.  The form is canonical: ``den`` is positive, no
    entry is (0, 0), and ``den`` and all numerators have no common factor,
    so equal polynomials have equal fields; no variable name repeats, so a
    monomial has one key.  Instances are immutable.
    """

    __slots__ = ("vars", "den", "nums")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponent, object]):
        vs = _distinct(tuple(vars))
        coeffs = []
        for exp, c in terms.items():
            if len(exp) != len(vs):
                raise VariableMismatchError(
                    f"exponent {exp} has length {len(exp)}, expected {len(vs)}"
                )
            if any(e < 0 for e in exp):
                raise AlgebraError(f"negative exponent in {exp}")
            r, i, d = gauss(c)
            if r or i:
                coeffs.append((_pack(exp), (r, i, d)))
        den = lcm(*(d for _, (_, _, d) in coeffs))
        p = _canonical(vs, den, {k: (r * (den // d), i * (den // d))
                                 for k, (r, i, d) in coeffs})
        self.vars, self.den, self.nums = p.vars, p.den, p.nums

    @property
    def terms(self) -> Dict[Exponent, Tuple[int, int, int]]:
        """A new dict from the exponent tuple of each term to its coefficient
        as ``gauss`` gives it, the triple (re, im, den) in lowest terms, built
        on each access: ``MultiPoly(p.vars, p.terms) == p``."""
        n, den = len(self.vars), self.den
        return {_unpack(k, n): gauss((r, i, den)) for k, (r, i) in self.nums.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "MultiPoly":
        return _wrap(tuple(vars), 1, {})

    @staticmethod
    def const(vars: Sequence[str], c) -> "MultiPoly":
        r, i, d = gauss(c)
        return _wrap(tuple(vars), d, {0: (r, i)}) if r or i else MultiPoly.zero(vars)

    @staticmethod
    def variable(vars: Sequence[str], name: str) -> "MultiPoly":
        vs = _distinct(tuple(vars))
        if name not in vs:
            raise VariableMismatchError(f"unknown variable {name!r}")
        return _wrap(vs, 1, {1 << _layout(len(vs))[0][vs.index(name)]: (1, 0)})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(f"{self.vars} vs {other.vars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return _sum(self.vars, (self, other))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return _sum(self.vars, (self, other), (1, -1))

    def __neg__(self) -> "MultiPoly":
        return _wrap(self.vars, self.den, {k: (-r, -i) for k, (r, i) in self.nums.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return _mul_sum(self.vars, self.den * other.den, [(self.nums, other.nums, 0, 1)])

    def scale(self, c) -> "MultiPoly":
        cr, ci, d = gauss(c)
        if not (cr or ci):
            return MultiPoly.zero(self.vars)
        if (cr, ci, d) == (1, 0, 1):
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
        return _canonical(self.vars, self.den, _derive(self.nums, ((s, 1 << s, mask, 1, 0),)))

    def weighted_diff(self, var: str, weight_vars: Sequence[str], k: int) -> "MultiPoly":
        """Σ_m c_m · m_var/(|m|_w + k) · x^{m - e_var}, where |m|_w is the
        degree of x^m in ``weight_vars``: the derivative in ``var`` with
        each monomial divided by its weighted degree plus k.  A polynomial
        that does not use ``var`` gives zero after one OR over its keys."""
        s, mask = self._slot(var)
        unit = 1 << s
        ws = [self._slot(v)[0] for v in weight_vars]
        if not reduce(or_, self.nums, 0) & mask << s:
            return MultiPoly.zero(self.vars)
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
        contain every unassigned variable of ``self``.  An assignment to a
        name that is not a variable of ``self`` is a VariableMismatchError.
        """
        for v in assignments:
            if v not in self.vars:
                raise VariableMismatchError(f"cannot substitute {v!r}: not a variable "
                                            f"of {self.vars}")
        targets = {img.vars for img in assignments.values()} or {self.vars}
        if len(targets) > 1:
            raise VariableMismatchError("assignment images disagree on variables")
        target, = targets
        images = [assignments[v] if v in assignments else MultiPoly.variable(target, v)
                  for v in self.vars]
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
        return _sum(target, parts)

    def _moved(self, vars: Vars) -> Nums:
        """The entries whose monomials use only variables in ``vars``,
        each key moved onto ``vars`` by the runs of ``_move_plan``."""
        dropped, stay, runs = _move_plan(self.vars, vars)
        return {_move_key(k, stay, runs): v for k, v in self.nums.items() if not k & dropped}

    def zero_outside(self, vars: Sequence[str]) -> "MultiPoly":
        """Image under setting every variable not in ``vars`` to zero,
        re-expressed on ``vars``; kept in canonical form as it is when no
        term is dropped."""
        vs = tuple(vars)
        nums = self._moved(vs)
        if len(nums) == len(self.nums):
            return _wrap(vs, self.den, nums)
        return _canonical(vs, self.den, nums)

    def with_vars(self, vars: Sequence[str]) -> "MultiPoly":
        """Re-express over a different variable list (a superset or a list
        still containing every variable actually used)."""
        vs = tuple(vars)
        nums = self._moved(vs)
        if len(nums) < len(self.nums):
            gone = next(v for v in self.vars if v not in vs and self.uses(v))
            raise VariableMismatchError(f"variable {gone!r} used but absent from target list")
        return _wrap(vs, self.den, nums)

    def uses(self, *vars: str) -> bool:
        """Whether some term has a positive exponent in one of ``vars``; a
        name that is not a variable of ``self`` is used by no term."""
        mask = _mask(self.vars, vars)
        return bool(mask and reduce(or_, self.nums, 0) & mask)

    # -- queries ------------------------------------------------------

    def as_constant(self) -> Optional[Tuple[int, int, int]]:
        """The triple (re, im, den) of a constant polynomial, (0, 0, 1) for
        zero, and None where some term uses a variable."""
        if self.nums.keys() - {0}:
            return None
        r, i = self.nums.get(0, (0, 0))
        return r, i, self.den

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
        # equal polynomials have equal fields; the keys' sum and count
        # tell most unequal ones apart without a pass over the numerators
        return hash((self.vars, self.den, len(self.nums), sum(self.nums)))

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Canonical text form: graded-lexicographic monomial order, each
        coefficient as ``(a/b)+(c/d)i`` with both parts in lowest terms."""
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
            c = render_gauss((r, i, den))
            parts.append(f"{c}*{mono}" if mono else c)
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"


def _derive(nums: Nums, steps) -> Nums:
    """Σ_i (re_i + i·im_i) ∂_i on raw numerators, one step (slot shift, unit
    key, slot mask, re_i, im_i) per i: the numerators of the directional
    derivative over the polynomial's denominator times the field's, zero
    entries dropped.  One step whose coefficient v is purely real or purely
    imaginary takes an entry (re, im) of exponent e to (re·c, im·c) or
    (−im·c, re·c), c = e·v: two multiplications of the numerators instead
    of six."""
    if len(steps) == 1:   # distinct keys stay distinct, and nothing cancels
        (s, unit, mask, vr, vi), = steps
        if not vi:
            return {k - unit: (r * c, i * c) for k, (r, i) in nums.items()
                    if (c := (k >> s & mask) * vr)}
        if not vr:
            return {k - unit: (-i * c, r * c) for k, (r, i) in nums.items()
                    if (c := (k >> s & mask) * vi)}
    out: Nums = {}
    for k, (r, i) in nums.items():
        for s, unit, mask, vr, vi in steps:
            e = (k >> s) & mask
            if e:
                d = k - unit
                nr, ni = (r * vr - i * vi) * e, (r * vi + i * vr) * e
                t = out.get(d)
                out[d] = (nr, ni) if t is None else (t[0] + nr, t[1] + ni)
    return _nonzero(out) if (0, 0) in out.values() else out


LAMBDA = "λ"


class LambdaSeries:
    """Formal power series in the deformation parameter λ, truncated at a
    fixed order ``L``.

    The series is one polynomial ``poly`` over (λ, *vars), with no term
    past λ^L.  Coefficient r, the polynomial multiplying λ^r, is
    ``coeff(r)``.  Every coefficientwise operator is one operation on
    ``poly``.  Instances are immutable.
    """

    __slots__ = ("order", "poly", "__weakref__")

    def __init__(self, poly: MultiPoly, order: int):
        # every series operation builds one: no slice, and no shift
        vs = poly.vars
        if not vs or vs[0] != LAMBDA:
            raise VariableMismatchError(f"a series polynomial starts with {LAMBDA!r}")
        if not 0 <= order <= _TOP:
            raise AlgebraError(f"negative series order {order}") if order < 0 else _overflow()
        self.poly = poly
        self.order = order

    @property
    def vars(self) -> Vars:
        return self.poly.vars[1:]

    def _shift(self) -> int:
        """The slot shift of λ."""
        return SLOT_BITS * (len(self.poly.vars) - 1)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str], order: int) -> "LambdaSeries":
        if LAMBDA in vars:
            raise VariableMismatchError(f"variable {LAMBDA!r} repeats in {(LAMBDA, *vars)}")
        return LambdaSeries(MultiPoly.zero((LAMBDA, *vars)), order)

    @staticmethod
    def from_poly(p: MultiPoly, order: int, shift: int = 0) -> "LambdaSeries":
        """Embed a polynomial, which may not use the name λ, at the given
        power of the parameter."""
        if LAMBDA in p.vars:
            raise VariableMismatchError(f"variable {LAMBDA!r} repeats in {(LAMBDA, *p.vars)}")
        if shift < 0:
            raise AlgebraError(f"negative λ-shift {shift}")
        if shift > order:
            return LambdaSeries.zero(p.vars, order)
        lift = shift << SLOT_BITS * len(p.vars)
        nums = {k + lift: v for k, v in p.nums.items()} if lift else p.nums
        return LambdaSeries(_wrap((LAMBDA, *p.vars), p.den, nums), order)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "LambdaSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"order {self.order} vs {other.order}")

    def __add__(self, other: "LambdaSeries") -> "LambdaSeries":
        self._check(other)
        return LambdaSeries(self.poly + other.poly, self.order)

    def __sub__(self, other: "LambdaSeries") -> "LambdaSeries":
        self._check(other)
        return LambdaSeries(self.poly - other.poly, self.order)

    def __mul__(self, other: "LambdaSeries") -> "LambdaSeries":
        """The pointwise product, truncated at the common order."""
        self._check(other)
        return LambdaSeries(self.poly * other.poly, self.order).truncate(self.order)

    def scale(self, c) -> "LambdaSeries":
        return LambdaSeries(self.poly.scale(c), self.order)

    def conjugate(self) -> "LambdaSeries":
        return LambdaSeries(self.poly.conjugate(), self.order)

    def truncate(self, order: int) -> "LambdaSeries":
        """The series at another order: powers past it are dropped."""
        bound = (order + 1) << self._shift()
        p = self.poly
        if p.nums and max(p.nums) >= bound:
            p = _canonical(p.vars, p.den, {k: v for k, v in p.nums.items() if k < bound})
        return LambdaSeries(p, order)

    # -- the polynomial operations, on every coefficient at once ----------

    def with_vars(self, vars: Sequence[str]) -> "LambdaSeries":
        return LambdaSeries(self.poly.with_vars((LAMBDA, *vars)), self.order)

    def zero_outside(self, vars: Sequence[str]) -> "LambdaSeries":
        return LambdaSeries(self.poly.zero_outside((LAMBDA, *vars)), self.order)

    def weighted_diff(self, var: str, weight_vars: Sequence[str], k: int) -> "LambdaSeries":
        return LambdaSeries(self.poly.weighted_diff(var, weight_vars, k), self.order)

    def uses(self, *vars: str) -> bool:
        return self.poly.uses(*vars)

    # -- queries ------------------------------------------------------

    def coeff(self, r: int) -> MultiPoly:
        """The polynomial multiplying λ^r."""
        s, p = self._shift(), self.poly
        low = (1 << s) - 1
        return _canonical(self.vars, p.den, {k & low: v for k, v in p.nums.items()
                                             if k >> s == r})

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def min_lambda_order(self):
        """Lowest power with a nonzero coefficient, or None for zero."""
        nums = self.poly.nums
        return min(nums) >> self._shift() if nums else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LambdaSeries)
            and self.order == other.order
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.order, self.poly))

    def render(self) -> str:
        """One line ``λ^r: …`` per nonzero coefficient, lowest power first."""
        s = self._shift()
        powers = sorted({k >> s for k in self.poly.nums})
        return "\n".join(f"λ^{r}: {self.coeff(r).render()}" for r in powers) or "0"

    def __repr__(self) -> str:
        return f"LambdaSeries({self.render()!r})"


def star_exponential(fields, f: LambdaSeries, g: LambdaSeries) -> LambdaSeries:
    """μ ∘ exp(λ Σ_k D_{a_k} ⊗ D_{b_k})(f ⊗ g), truncated at the order L of
    both series, for the rank-one factors (a_k, b_k) of ``star_fields``.

    The exponential expands over multi-indices m as
    Σ_m λ^{|m|} Π_k 1/m_k! · (D_a^m f)(D_b^m g), and λ is never
    differentiated, so one walk covers both whole series.  A step whose
    left field misses every variable of f, or whose right field every one
    of g, contributes only m_k = 0 and is dropped.  The factor of fewer
    terms is taken as the right one.  The walk reads f and g whole, moved
    into its key layout (``_walk_layout``), and its depth is top, L less
    the lowest powers of f and g.  Derivatives stay raw numerators, the
    right one taken first, and a branch stops once either is zero or its
    λ-power would pass L.  A leaf of weight d = Π_k (den_a·den_b)^{m_k}·m_k!
    goes into one ``_mul_sum`` call over den_f·den_g·D, D the lcm of the
    weights, which drops the powers past L where the inputs' top powers
    reach them, moves the keys back and, where u (the inputs' key ORs
    summed below λ) sets a guard bit, scans them for an exponent past
    32767."""
    vars, _, layouts = fields
    L = f.order
    if f.poly.vars != vars or g.poly.vars != vars:
        raise VariableMismatchError(f"a series or field is not over {vars}")
    s = SLOT_BITS * (len(vars) - 1)
    fn, gn = f.poly.nums, g.poly.nums
    if not fn or not gn:
        return LambdaSeries.zero(f.vars, L)
    lo_f, lo_g = min(fn) >> s, min(gn) >> s
    top = L - lo_f - lo_g
    if top < 0:
        return LambdaSeries.zero(f.vars, L)
    used_f, used_g = reduce(or_, fn), reduce(or_, gn)
    u = (used_f + used_g) & (1 << s) - 1
    lam, into, out, pairs = layouts.get(u) or _walk_layout(fields, u)
    # with f and g each at one power of λ, every leaf stays within λ^L
    bound = (L + 1) << lam if max(fn) >> s > lo_f or max(gn) >> s > lo_g else None
    t = into[1]
    while True:
        try:
            left = {t[k]: v for k, v in fn.items()}
            right = {t[k]: v for k, v in gn.items()}
            break
        except KeyError:
            _extend(into, [*fn, *gn])
    if len(left) < len(right):
        left, right = right, left
        steps = [(b, a, d) for ma, mb, a, b, d in pairs if ma & used_f and mb & used_g]
    else:
        steps = [(a, b, d) for ma, mb, a, b, d in pairs if ma & used_f and mb & used_g]
    # a branch: next step k, λ-depth r, both derivatives, and its weight d;
    # those of the last step are the leaves
    stack, leaves, last = [(0, 0, left, right, 1)], [], len(steps) - 1
    if last < 0:
        leaves, stack = stack, []
    while stack:
        k, r, left, right, d = stack.pop()
        a, b, den = steps[k]
        dest = leaves if k == last else stack
        dest.append((k + 1, r, left, right, d))
        for m in range(1, top - r + 1):
            right = _derive(right, b)
            if not right:
                break
            left = _derive(left, a)
            if not left:
                break
            d *= den * m
            dest.append((k + 1, r + m, left, right, d))
    D = lcm(*(d for *_, d in leaves))
    poly = _mul_sum(vars, f.poly.den * g.poly.den * D,
                    [(left, right, r << lam, D // d) for _, r, left, right, d in leaves],
                    u, bound, out)
    return LambdaSeries(poly, L)


def _walk_layout(fields, u: int) -> tuple:
    """The key layout of the walks over ``fields`` whose inputs' key ORs sum
    to ``u`` below λ: the shift of λ, the move plans of ``_walk_plans``,
    and the fields' pairs with steps on both sides narrowed onto it.  A
    variable whose slot of u holds b > 0 gets b.bit_length() bits, at least
    3, the last variable lowest, and λ leads: b bounds the sum of an
    exponent of f and one of g, so no sum carries.  The fields' cache holds
    it under u and under its slots."""
    vars, pairs, layouts = fields
    shifts, _, mask = _layout(len(vars))
    slots, at = [], 0   # (position, shift, bits)
    for j in range(len(vars) - 1, 0, -1):
        if b := u >> shifts[j] & mask:
            slots.append((j, at, max(b.bit_length(), 3)))
            at += slots[-1][2]
    slots = tuple(slots)
    layout = layouts.get(slots)
    if layout is None:
        new = {j: (t, 1 << t, (1 << w) - 1) for j, t, w in slots}
        layout = (at, *_walk_plans(len(vars), slots, at), [
            (ma, mb, [new[j] + (r, i) for j, r, i in sa if j in new],
             [new[j] + (r, i) for j, r, i in sb if j in new], da * db)
            for (da, ma, sa), (db, mb, sb) in pairs if ma & u and mb & u])
    if len(layouts) >= MAX_LAYOUTS - 1:
        layouts.clear()
    layouts[u] = layouts[slots] = layout
    return layout


@lru_cache(maxsize=MAX_LAYOUTS)
def _walk_plans(n: int, slots: tuple, lam: int) -> tuple:
    """The move plans of keys over n variables into the walk layout of
    ``slots`` (position, shift, bits) with λ at ``lam``, and back, each its
    runs and the table ``_extend`` fills.  Every key moves: a 16-bit slot
    of the layout lands whole on its slot of the n-variable key, guard bit
    and all, for the scan of ``_mul_sum``."""
    shifts = _layout(n)[0]
    runs = [(((1 << w) - 1) << t, shifts[j] - t) for j, t, w in slots] + \
        [(-1 << lam, shifts[0] - lam)]
    return ((tuple((m << d, 0, d) for m, d in runs), {}),
            (tuple((m, d, 0) for m, d in runs), {}))


@lru_cache(maxsize=64)
def star_fields(vars: Vars, terms) -> tuple:
    """The rank-one terms Σ_k a_k b_kᵀ of a constant matrix over ``vars`` as
    the fields ``star_exponential`` walks along, on series over (λ, *vars):
    that list, one pair of fields (den, key bits, steps (position, re, im))
    per term, and the walks' layouts.  A vector is a tuple of (position in
    ``vars``, (re, im, den)) pairs, for Σ_i v_i ∂_i.  Equal arguments give
    the same fields, so products built anew on one matrix share their
    layouts."""
    lvars = (LAMBDA, *vars)
    shifts, _, mask = _layout(len(lvars))

    def field(v):
        den = lcm(*(d for _, (_, _, d) in v))
        return (den, sum(mask << shifts[i + 1] for i, _ in v),
                [(i + 1, r * (den // d), m * (den // d)) for i, (r, m, d) in v])
    return lvars, [(field(a), field(b)) for a, b in terms], {}


def _pairing(matrix: tuple, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Σ B^{ij} ∂_i f ∂_j g for the matrix ``pairing`` decodes: (variables,
    den, slot mask, entries (shift of i, shift of j, re, im)) with
    B^{ij} = (re + i·im)/den.  An entry on a variable f or g does not use is
    skipped, each derivative is taken once, and every term pair goes into
    one kernel call (``_mul_sum``), put in canonical form once."""
    vars, den, mask, entries = matrix
    if f.vars != vars or g.vars != vars:
        raise VariableMismatchError(f"a bracket operand is not over {vars}")
    used_f, used_g = reduce(or_, f.nums, 0), reduce(or_, g.nums, 0)
    df, dg, pairs = {}, {}, []   # derivatives by slot shift, and the products
    for si, sj, cr, ci in entries:
        if used_f >> si & mask and used_g >> sj & mask:
            if si not in df:
                df[si] = _derive(f.nums, ((si, 1 << si, mask, 1, 0),))
            if sj not in dg:
                dg[sj] = _derive(g.nums, ((sj, 1 << sj, mask, 1, 0),))
            pairs.append(({k: (r * cr - i * ci, r * ci + i * cr)
                           for k, (r, i) in df[si].items()}, dg[sj], 0, 1))
    return _mul_sum(vars, f.den * g.den * den, pairs, used_f + used_g)


def pairing(vars: Vars, B) -> Callable[[MultiPoly, MultiPoly], MultiPoly]:
    """The bilinear map (f, g) ↦ Σ B^{ij} ∂_i f ∂_j g on polynomials over
    ``vars``, for B as (re, im, den) triples keyed by positions (i, j) in
    ``vars``.  B is decoded once, over one common denominator."""
    shifts, _, mask = _layout(len(vars))
    den = lcm(*(d for _, _, d in B.values()))
    return partial(_pairing, (vars, den, mask, tuple(
        (shifts[i], shifts[j], r * (den // d), m * (den // d))
        for (i, j), (r, m, d) in B.items())))


class ConstantOperator:
    """A differential operator Y of order at most two with constant
    coefficients, on series over (λ, *vars): the sum over ``entries`` of
    c·∂_i∂_j for an entry (i, j, c) and of c·∂_j for an entry (None, j, c),
    with i and j positions in ``vars`` and c a triple (re, im, den).  The
    entries are decoded once, over one common denominator."""

    __slots__ = ("vars", "entries", "_den", "_steps")

    def __init__(self, vars: Sequence[str], entries):
        self.vars, self.entries = tuple(vars), tuple(entries)
        shifts = _layout(len(self.vars) + 1)[0]
        self._den = den = lcm(*(d for *_, (_, _, d) in self.entries))
        self._steps = tuple((None if i is None else shifts[i + 1], shifts[j + 1],
                             r * (den // d), m * (den // d))
                            for i, j, (r, m, d) in self.entries)

    def exp(self, f: LambdaSeries, sign: int) -> LambdaSeries:
        """exp(sign·λY) f, truncated at the order of f: Y once per power of λ
        on raw numerators."""
        if f.vars != self.vars:
            raise VariableMismatchError(f"a series is not over {self.vars}")
        poly, L = f.poly, f.order
        shifts, _, mask = _layout(len(poly.vars))
        lam, bound = 1 << shifts[0], (L + 1) << shifts[0]
        # λ^k Y^k f / k! over den·Y.den^k·k!, each key stepping ∂_j, then ∂_i
        # for a second-order entry, and λ
        y = [(si, sj, (1 << sj) - lam, sign * yr, sign * yi) for si, sj, yr, yi in self._steps]
        terms, cur = [poly], poly.nums
        for k in range(1, L + 1):
            nxt: Nums = {}
            for key, (r, i) in cur.items():
                for si, sj, uj, yr, yi in y:
                    e = key >> sj & mask
                    if e:
                        d = key - uj
                        if si is not None:
                            e *= d >> si & mask
                            d -= 1 << si
                        if e and d < bound:
                            t = nxt.get(d, (0, 0))
                            nxt[d] = (t[0] + (r * yr - i * yi) * e, t[1] + (r * yi + i * yr) * e)
            cur = _nonzero(nxt)
            if not cur:
                break
            terms.append(_wrap(poly.vars, poly.den * self._den ** k * factorial(k), cur))
        return LambdaSeries(_sum(poly.vars, terms), L)


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
