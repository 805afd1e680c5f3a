"""Seeded random polynomial generation for check suites.

The algorithm is part of the determinism contract and must not change
between releases: with ``random.Random(seed)``,

1. draw the number of terms uniformly from 2..4,
2. per term, draw a total degree uniformly from 0..max_degree, then
   distribute it by incrementing a uniformly chosen variable slot that many
   times,
3. draw the coefficient as Fraction(randint(-6, 6), randint(1, 4)),
4. sum coincident terms; if everything cancelled, fall back to the constant 1.

A pair is two consecutive draws: ``sample_pairs(seed, vars, d, k)`` pairs
up the 2k samples of ``sample_polys(seed, vars, d, 2 * k)`` in order.

Coefficients are real so the samples are their own conjugates.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .exact import MultiPoly, _canonical, _pack


def random_poly(rng: random.Random, vars: Sequence[str], max_degree: int) -> MultiPoly:
    """One sample, from the draws above, built as integer numerators over
    12, the common denominator of every coefficient."""
    vs = tuple(vars)
    nums = {}
    for _ in range(rng.randint(2, 4)):
        deg = rng.randint(0, max_degree)
        e = [0] * len(vs)
        for _ in range(deg):
            e[rng.randrange(len(vs))] += 1
        num = rng.randint(-6, 6)
        key = _pack(e)
        nums[key] = nums.get(key, 0) + num * (12 // rng.randint(1, 4))
    nums = {k: (r, 0) for k, r in nums.items() if r}
    return _canonical(vs, 12, nums) if nums else MultiPoly.const(vs, 1)


def sample_polys(seed: int, vars: Sequence[str], max_degree: int,
                 count: int) -> List[MultiPoly]:
    rng = random.Random(seed)
    return [random_poly(rng, vars, max_degree) for _ in range(count)]


def sample_pairs(seed: int, vars: Sequence[str], max_degree: int,
                 count: int) -> List[Tuple[MultiPoly, MultiPoly]]:
    s = sample_polys(seed, vars, max_degree, 2 * count)
    return list(zip(s[::2], s[1::2]))
