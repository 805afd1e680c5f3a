"""Reduced algebras and reduced star products on flat cotangent scenarios.

The reduced phase space of a lifted translation action is again a flat
cotangent bundle, over the untranslated configuration directions.  The
paper's reduced product is i**(prol f ⋆ prol g), and it has two routes to
the correction before i*: the homological one, ``quantum_correction``, and
the closed form of Kowalzig–Neumaier–Pflaum, (id - V)^{-1} with
V F = Σ_a r_a(F)·J_a - r_a(F) ⋆ Jq_a for r_a, the grade-0 homotopy along a.
On the grade-0 chain of F, V is A = (∂ - ∂_q)h term for term, so the closed
form is ``series_correction``.

On this model prol f is f with zero exponents in the other variables, and
the context's product takes f and g over an ordered sub-list of its
variables as they are.  Their product uses no constrained p_a, which both
routes' corrections fix, nor any translated q_a, which i* drops.  So a
reduced product is its context's product on the reduced variables: no
correction runs, and nothing is moved up or down.  The routes differ only
upstairs, where ``knp.deformed_restriction_equals_quantum_restriction``
compares them on inputs that carry p_a.

A shifted or magnetic scenario is the pullback of the canonical one along a
fiber translation, so it runs as the canonical scenario in straightened
coordinates: its samples are mapped in once, and the reduced products, which
never involve the translated fiber coordinates, are the canonical ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Tuple, TypeVar

from .exact import (AlgebraError, LambdaSeries, MultiPoly, OrderMismatchError,
                    VariableMismatchError, rational)
from .koszul import ReductionContext
from .phase_space import PhaseSpace, StarProduct

# the maps below act alike on a polynomial and on a whole series
P = TypeVar("P", MultiPoly, LambdaSeries)


def elevate_context(ctx: ReductionContext, order: int) -> ReductionContext:
    """The context a reduced product of series at ``order`` runs on: the
    context itself, at its own order.  The context holds Jq truncated at
    that order and a reduced product runs at it, so any other order is an
    OrderMismatchError.  The benchmark's tracer counts its calls by this
    name, so it goes only with ROADMAP item 1b."""
    if order != ctx.order:
        raise OrderMismatchError(f"cannot {'raise' if order > ctx.order else 'lower'} a "
                                 f"context of order {ctx.order} to {order}: a reduced "
                                 f"product runs at its context's order")
    return ctx


class ReducedAlgebra:
    """Polynomials on the reduced phase space, realized on the residual
    coordinate names so the identification with the invariant constraint
    polynomials is a variable inclusion."""

    def __init__(self, ctx: ReductionContext):
        self.ctx = ctx
        residual = tuple(c for c in ctx.space.coords if c not in ctx.action.translated)
        self.space = PhaseSpace(residual)

    def up(self, f: P) -> P:
        """A reduced polynomial or series on the whole phase space."""
        if f.vars != self.space.vars:
            raise VariableMismatchError(f"{f.vars} are not the variables {self.space.vars} "
                                        "of the reduced algebra")
        return f.with_vars(self.ctx.space.vars)

    def down(self, F: P) -> P:
        """The restriction of an invariant polynomial or series on the whole
        phase space, re-keyed once onto the reduced variables; an input over
        a sub-list of them comes back over all of them.  A term with a
        translated q_a and no constrained p_a is not invariant."""
        qs = tuple(f"q{a}" for a in self.ctx.action.translated)
        if F.uses(*qs) and (G := F.zero_outside(self.ctx.cvars)).uses(*qs):
            qv = next(q for q in qs if G.uses(q))
            raise AlgebraError(f"element is not translation invariant: depends on {qv}")
        return F.zero_outside(self.space.vars)


def reduced_star(red: ReducedAlgebra) -> StarProduct:
    """i**(prol f ⋆ prol g) on f and g over an ordered sub-list V of the
    reduced variables: the context's product at its order (see the module
    docstring), with that product's bracket and Hermitian flag over V."""

    def ev(f: LambdaSeries, g: LambdaSeries) -> LambdaSeries:
        return elevate_context(red.ctx, f.order).star.eval(f, g)

    return StarProduct(red.space, lambda at, vars: (ev, *red.ctx.star.over(vars, vars)[1:]))


def knp_reduced_star(red: ReducedAlgebra) -> StarProduct:
    """The closed form of Kowalzig–Neumaier–Pflaum, which on this model is
    ``reduced_star`` (see the module docstring).  The benchmark's tracer
    tags its products by this name, so it goes only with ROADMAP item 1b."""
    return reduced_star(red)


class CotangentSplit:
    """Division of fiberwise polynomials by the momentum components of the
    translated directions: F = prolongation(restriction(F)) + Σ r_i(F)·J_i."""

    def __init__(self, ctx: ReductionContext):
        self.ctx = ctx

    def r(self, i: int, F: P) -> P:
        """The i-th division operator (1-based over the vertical
        directions) on a polynomial or a series: the grade-0 homotopy along
        direction i.  The benchmark's tracer wraps it by this name, so it
        goes only with ROADMAP item 1b."""
        return F.weighted_diff(self.ctx.constrained[i - 1], self.ctx.constrained, 0)


# ---------------------------------------------------------------------------
# fiber translations and shifted/magnetic scenarios
# ---------------------------------------------------------------------------

def build_shifted_context(base: ReductionContext,
                          b: Mapping[int, Tuple[int, Fraction]],
                          mu: Mapping[int, Fraction]) -> ReductionContext:
    """Scenario with magnetic term and shifted momentum value: the pullback
    of the base scenario along the fiber translation
    p_a -> p_a + alpha_a, alpha_a = b·q_c - mu_a.  Every piece of it is the
    exact conjugate of the base, so the result keeps the base's product and
    quantum momentum map and records the straightening p_a -> p_a - alpha_a,
    which maps the scenario's samples into the base's coordinates.

    ``b`` maps a translated coordinate label to the pair (coupled label,
    coupling constant); the coupled coordinate must not itself be
    translated, so the magnetic potential is invariant.  The constants and
    the values of ``mu`` are ints or Fractions (``exact.rational``).
    """
    space = base.space
    translated = base.action.translated
    # a shifted base composes: fiber translations add up
    straighten = dict(base.straightening)
    for a in set(b) | set(mu):
        if a not in translated:
            raise AlgebraError(f"coordinate {a} is not translated")
        alpha = MultiPoly.const(space.vars, -rational(mu.get(a, 0)))
        if a in b:
            c_label, b_val = b[a]
            if c_label in translated:
                raise AlgebraError(
                    f"magnetic coupling to translated coordinate {c_label} "
                    "breaks invariance")
            alpha = alpha + space.q(c_label).scale(rational(b_val))
        if not alpha.is_zero():
            straighten[f"p{a}"] = base.straighten(space.p(a)) - alpha
    return ReductionContext(base.action, base.star, base.Jq, base.order, straighten)
