"""Reference star products written apart from qkoszul.

Every product the workloads check is a constant-coefficient exponential

    f ⋆ g = μ ∘ exp(λ Σ C^{ij} ∂_i ⊗ ∂_j)(f ⊗ g)

for a matrix C of Gaussian rationals over the variables (q..., p...).  This
module evaluates that formula monomial pair by monomial pair in integer
arithmetic and renders the result in qkoszul's canonical text form, so a
product computed by the program can be compared with it as a string.  It
imports nothing from qkoszul.

Polynomials here are dicts from exponent tuples to Gaussian rationals, and a
Gaussian rational is a pair ``(re, im)`` of Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, lcm
from typing import Dict, List, Sequence, Tuple

Gauss = Tuple[Fraction, Fraction]
Poly = Dict[Tuple[int, ...], Gauss]

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def variables(labels: Sequence[int]) -> Tuple[str, ...]:
    """qkoszul's variable order on T*R^n: all q's, then all p's, by label."""
    return tuple(f"q{i}" for i in labels) + tuple(f"p{i}" for i in labels)


def kind_matrix(kind: str, n: int) -> Dict[Tuple[int, int], Gauss]:
    """The constant matrix C of a product kind on n coordinate pairs, keyed
    by (left variable index, right variable index) in ``variables`` order.

    - Weyl: C^{q_i p_i} = i/2, C^{p_i q_i} = -i/2.
    - std:  C^{p_i q_i} = -i.
    - Wick: C^{q_i q_i} = C^{p_i p_i} = 1/2, C^{q_i p_i} = i/2,
      C^{p_i q_i} = -i/2.
    """
    C: Dict[Tuple[int, int], Gauss] = {}
    for i in range(n):
        q, p = i, n + i
        if kind == "weyl":
            C[q, p] = (ZERO, HALF)
            C[p, q] = (ZERO, -HALF)
        elif kind == "std":
            C[p, q] = (ZERO, Fraction(-1))
        elif kind == "wick":
            C[q, q] = (HALF, ZERO)
            C[p, p] = (HALF, ZERO)
            C[q, p] = (ZERO, HALF)
            C[p, q] = (ZERO, -HALF)
        else:
            raise ValueError(f"unknown product kind {kind!r}")
    return C


# ---------------------------------------------------------------------------
# dense inputs
# ---------------------------------------------------------------------------

def poly_mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for ea, (ar, ai) in f.items():
        for eb, (br, bi) in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            cr, ci = out.get(e, (ZERO, ZERO))
            out[e] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return {e: c for e, c in out.items() if c[0] or c[1]}


def dense_poly(rng: random.Random, nvars: int, powers: Sequence[int]) -> Poly:
    """Product of powers of linear forms 1 + Σ c_i x_i with seeded rational
    c_i: every monomial up to the total degree appears."""
    one = (0,) * nvars
    out: Poly = {one: (Fraction(1), ZERO)}
    for k in powers:
        lin: Poly = {one: (Fraction(1), ZERO)}
        for v in range(nvars):
            e = [0] * nvars
            e[v] = 1
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            lin[tuple(e)] = (c, ZERO)
        for _ in range(k):
            out = poly_mul(out, lin)
    return out


# ---------------------------------------------------------------------------
# the constant-matrix exponential
# ---------------------------------------------------------------------------

def _falling(a: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= a - j
    return out


def _scaled(p: Poly) -> Tuple[Dict[Tuple[int, ...], Tuple[int, int]], int]:
    """Integer numerators over one common denominator."""
    den = 1
    for re, im in p.values():
        den = lcm(den, re.denominator, im.denominator)
    return {e: (int(re * den), int(im * den)) for e, (re, im) in p.items()}, den


class ConstantStar:
    """μ ∘ exp(λ Σ C^{ij} ∂_i ⊗ ∂_j) for one matrix C on ``nvars`` variables.

    The expansion of each monomial pair is kept, so repeated monomials across
    products cost one lookup.
    """

    def __init__(self, C: Dict[Tuple[int, int], Gauss], nvars: int):
        self.nvars = nvars
        den = 1
        for re, im in C.values():
            den = lcm(den, re.denominator, im.denominator)
        self.den = den
        # entries scaled to Gaussian integers s = den * C
        self.entries = [(i, j, int(re * den), int(im * den))
                        for (i, j), (re, im) in sorted(C.items())
                        if re or im]
        self._pairs: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], list] = {}

    def _expand_pair(self, a, b):
        """Terms (r, exponent, w) of the monomial pair x^a ⊗ x^b, where the
        λ^r coefficient of its product is w / (den^r r!) in total.  The
        expansion stops by itself once the derivatives exhaust a or b."""
        key = (a, b)
        hit = self._pairs.get(key)
        if hit is not None:
            return hit
        entries = self.entries
        nent = len(entries)
        acc: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        ra, rb = list(a), list(b)
        ks = [0] * nent

        def leaf(r: int) -> None:
            # r!/Π k! · Π s^k · Π falling factorials of the derivatives
            w = factorial(r)
            for k in ks:
                w //= factorial(k)
            wr, wi = w, 0
            for (i, j, sr, si), k in zip(entries, ks):
                for _ in range(k):
                    wr, wi = wr * sr - wi * si, wr * si + wi * sr
            ff = 1
            for v in range(self.nvars):
                ff *= _falling(a[v], a[v] - ra[v]) * _falling(b[v], b[v] - rb[v])
            out = tuple(x + y for x, y in zip(ra, rb))
            slot = acc.setdefault((r, out), [0, 0])
            slot[0] += wr * ff
            slot[1] += wi * ff

        def walk(idx: int, r: int) -> None:
            if idx == nent:
                leaf(r)
                return
            i, j = entries[idx][0], entries[idx][1]
            k = 0
            while True:
                walk(idx + 1, r)
                if ra[i] == 0 or rb[j] == 0:
                    break
                ra[i] -= 1
                rb[j] -= 1
                r += 1
                k += 1
                ks[idx] = k
            ra[i] += k
            rb[j] += k
            ks[idx] = 0

        walk(0, 0)
        terms = [(r, e, wr, wi) for (r, e), (wr, wi) in acc.items() if wr or wi]
        self._pairs[key] = terms
        return terms

    def __call__(self, f: Poly, g: Poly, order: int) -> List[Poly]:
        """The product truncated at λ^order, as one polynomial per power."""
        F, df = _scaled(f)
        G, dg = _scaled(g)
        acc: List[Dict[Tuple[int, ...], List[int]]] = [{} for _ in range(order + 1)]
        for ea, (fr, fi) in F.items():
            for eb, (gr_, gi) in G.items():
                cr, ci = fr * gr_ - fi * gi, fr * gi + fi * gr_
                for r, e, wr, wi in self._expand_pair(ea, eb):
                    if r > order:
                        continue
                    slot = acc[r].setdefault(e, [0, 0])
                    slot[0] += wr * cr - wi * ci
                    slot[1] += wr * ci + wi * cr
        out: List[Poly] = []
        for r, layer in enumerate(acc):
            scale = self.den ** r * factorial(r) * df * dg
            out.append({e: (Fraction(re, scale), Fraction(im, scale))
                        for e, (re, im) in layer.items() if re or im})
        return out


# ---------------------------------------------------------------------------
# qkoszul's canonical text form
# ---------------------------------------------------------------------------

def render_gauss(c: Gauss) -> str:
    re, im = c
    sign = "+" if im >= 0 else "-"
    im = abs(im)
    return f"({re.numerator}/{re.denominator}){sign}({im.numerator}/{im.denominator})i"


def render_poly(p: Poly, vars: Sequence[str]) -> str:
    """Graded-lexicographic order, as ``MultiPoly.render``."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, key=lambda e: (-sum(e), tuple(-k for k in e))):
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(vars, e) if k)
        c = render_gauss(p[e])
        parts.append(f"{c}*{mono}" if mono else c)
    return " + ".join(parts)


def render_series(layers: Sequence[Poly], vars: Sequence[str]) -> str:
    """As ``LambdaSeries.render``: one line per nonzero power of λ."""
    lines = [f"λ^{r}: {render_poly(p, vars)}" for r, p in enumerate(layers) if p]
    return "\n".join(lines) if lines else "0"
