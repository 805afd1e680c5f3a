"""The augmented (quantum) Koszul complex on a reduction scenario.

A scenario bundles a star product, momentum maps and a global good tube on a
flat cotangent bundle with a lifted translation action.  On such scenarios
the tube is total (trivial cutoff, no globalization data) and every operator
below is an exact polynomial operation.

The momentum components are the fiber coordinates p_a of the translated
directions, so the tube needs no coordinate change: the restriction keeps
the monomials x^m of vertical degree |m_v| = 0, and the contracting homotopy
at grade k sends x^m to m_a/(|m_v|+k) · x^{m-e_a}, one output per
constrained direction a.  A shifted or magnetic scenario is this canonical
scenario in straightened coordinates: its context records the straightening
p_a -> p_a - alpha_a, which maps samples in once (``straighten``).

Both boundaries are closed forms where the context's data allows.  The
classical one multiplies by J_a = p_a, a shift of every key.  Where the
product has a constant matrix C and Jq_a = p_a + λc_a with constant c_a,
the star exponential by Jq_a stops after one term:
F ⋆ Jq_a = F·p_a + λX_aF with X_a = Σ_i C^{i p_a} ∂_i + c_a.  The context
reads each X_a once, from the column of C at p_a and the λ¹ part of Jq_a,
as its ``deformation``; a context whose product has no matrix, the second
stage of a pipeline, takes the star walk for ∂_q.

The quantum restriction is the classical one after a correction series,
``quantum_correction``.  Where the product has a constant matrix and the
quantum momentum map is p_a + λc_a with constant c_a, an operator T
conjugates the quantum complex to the classical one, and the correction is
T = exp(λY) in closed form, for one operator Y with constant coefficients.
There the quantum homotopy is T⁻¹hT, with T⁻¹ = exp(-λY).  A context's
product lies on its action's space, so Y is read off the context: its
product's matrix at the positions of its constrained p_a, and its J and Jq.
``conjugate`` applies exp(±λY), by the sign it is given, to a series
through ``exact.ConstantOperator``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .exact import (
    LAMBDA,
    AlgebraError,
    ConstantOperator,
    ContractViolationError,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    VariableMismatchError,
    invert_unipotent,
    uses_test,
)
from .lie import (
    LieAlgebraData,
    QuantumMomentumMap,
    TranslationAction,
    canonical_momentum_map,
)
from .phase_space import PhaseSpace, StarProduct
from .report import check, failures

IndexKey = Tuple[int, ...]


def insert_index(alpha: int, key: IndexKey) -> Optional[Tuple[int, IndexKey]]:
    """Wedge e_alpha onto a sorted basis key; None if alpha already occurs."""
    if alpha in key:
        return None
    pos = sum(1 for i in key if i < alpha)
    sign = -1 if pos % 2 else 1
    return sign, tuple(sorted(key + (alpha,)))


def basis_label(key: IndexKey) -> str:
    """The wedge e_i^e_j^... of a basis key, rendered; "()" for grade 0."""
    return "e_" + "^e_".join(str(i) for i in key) if key else "()"


def remove_index(key: IndexKey, pos: int) -> Tuple[int, IndexKey]:
    """Insertion derivation against the pos-th factor (0-based)."""
    sign = -1 if pos % 2 else 1
    return sign, key[:pos] + key[pos + 1:]


class KoszulChain:
    """Graded element of (series) ⊗ Λ^k of the acting algebra, keyed by
    strictly increasing index tuples: each key is checked to have the
    chain's grade as its length, to increase, and to hold indices in
    1..gdim.  Each entry is one ``LambdaSeries``, so every operator below
    acts on a whole series at once."""

    __slots__ = ("gdim", "grade", "order", "vars", "terms")

    def __init__(self, gdim: int, grade: int, vars: Sequence[str], order: int,
                 terms: Mapping[IndexKey, LambdaSeries]):
        self.gdim = gdim
        self.grade = grade
        self.vars = tuple(vars)
        self.order = order
        clean: Dict[IndexKey, LambdaSeries] = {}
        for key, s in terms.items():
            if len(key) != grade or list(key) != sorted(set(key)):
                raise AlgebraError(f"bad key {key} for grade {grade}")
            if key and not 1 <= key[0] <= key[-1] <= gdim:
                raise AlgebraError(f"index out of range in {key}")
            if s.order != order or s.vars != self.vars:
                raise AlgebraError("series in chain disagree on order or variables")
            if not s.is_zero():
                clean[key] = s
        self.terms = clean

    @staticmethod
    def of_series(gdim: int, f: LambdaSeries) -> "KoszulChain":
        """Grade-0 chain wrapping a single series."""
        return KoszulChain(gdim, 0, f.vars, f.order, {(): f})

    def series(self) -> LambdaSeries:
        """The unique entry of a grade-0 chain."""
        if self.grade != 0:
            raise AlgebraError("not a grade-0 chain")
        return self.terms.get((), LambdaSeries.zero(self.vars, self.order))

    def __add__(self, other: "KoszulChain") -> "KoszulChain":
        if (self.grade, self.gdim, self.order, self.vars) != (
            other.grade, other.gdim, other.order, other.vars
        ):
            raise AlgebraError("chain shape mismatch")
        out = dict(self.terms)
        for k, s in other.terms.items():
            out[k] = out[k] + s if k in out else s
        return _chain(self.gdim, self.grade, self.vars, self.order, out)

    def __sub__(self, other: "KoszulChain") -> "KoszulChain":
        return self + other.scale(-1)

    def scale(self, c) -> "KoszulChain":
        return _chain(self.gdim, self.grade, self.vars, self.order,
                      {k: s.scale(c) for k, s in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def min_lambda_order(self):
        return min((s.min_lambda_order() for s in self.terms.values()), default=None)

    def __eq__(self, other):
        return (isinstance(other, KoszulChain)
                and (self.gdim, self.grade, self.order, self.vars)
                == (other.gdim, other.grade, other.order, other.vars)
                and self.terms == other.terms)

    def render(self) -> str:
        return " ; ".join(f"[{basis_label(key)}] {self.terms[key].render()}"
                          for key in sorted(self.terms)) or "0"


def _chain(gdim: int, grade: int, vars: Tuple[str, ...], order: int,
           terms: Dict[IndexKey, LambdaSeries]) -> KoszulChain:
    """A chain from keys, series, variables and order already checked:
    only its zero entries are dropped."""
    x = object.__new__(KoszulChain)
    x.gdim, x.grade, x.vars, x.order = gdim, grade, vars, order
    x.terms = {k: s for k, s in terms.items() if not s.is_zero()}
    return x


def _deformation(ctx: ReductionContext) -> Optional[Tuple[ConstantOperator, ...]]:
    """The operators X_a = Σ_i C^{i p_a} ∂_i + c_a over the context's
    variables, one per constrained p_a, for a product with a constant matrix
    C and Jq_a = J_a + λc_a, c_a constant: Jq_a is linear, so the star
    exponential stops after its first term, and F ⋆ Jq_a = F·p_a + λX_aF.
    None where the product has no matrix or some Jq_a - J_a is not λ times
    a constant."""
    C, vars = ctx.star.matrix, ctx.space.vars
    if C is None:
        return None
    X = []
    for p, Ja, Jqa in zip(ctx.constrained, ctx.J.components, ctx.Jq.components):
        # c_a is the λ¹ part of Jq_a, which must be a constant
        c = Jqa.coeff(1)
        if (ca := c.as_constant()) is None or Jqa - LambdaSeries.from_poly(c, Jqa.order, shift=1) \
                != LambdaSeries.from_poly(Ja, Jqa.order):
            return None
        j = vars.index(p)
        X.append(ConstantOperator(vars, [(None, i, Cij) for (i, k), Cij in sorted(C.items())
                                         if k == j] + [(None, None, ca)]))
    return tuple(X)


def _conjugation(ctx: ReductionContext) -> Optional[ConstantOperator]:
    """The operator Y over the context's variables, for a product with a
    constant matrix C and Jq_a = J_a + λc_a, c_a constant, on the positions
    P of the ``constrained`` p_a:

        Y = -Σ_a Σ_{i∉P} C^{i p_a} ∂_i∂_{p_a} - ½ Σ_{a,b} C^{p_a p_b} ∂_{p_a}∂_{p_b}
            - Σ_a c_a ∂_{p_a}.

    Then T = exp(λY) has T(f ⋆ Jq_a) = p_a·T(f).  The c_a are the constant
    terms of the X_a of the context's ``deformation``.  None where that
    does not hold: a context without a ``deformation``, or C not symmetric
    on P × P."""
    C, vars, X = ctx.star.matrix, ctx.space.vars, ctx.deformation
    if X is None:
        return None
    P = [vars.index(p) for p in ctx.constrained]
    if any(C.get((a, b)) != C.get((b, a)) for a in P for b in P):
        return None
    # each pair {i, j} once: the two halves of -½ C^{p_a p_b} ∂_{p_a}∂_{p_b}
    # for a ≠ b add up, as C is symmetric there
    y = [(i, j, (-r, -m, 2 * d if i == j else d))
         for (i, j), (r, m, d) in sorted(C.items()) if j in P and (i not in P or i <= j)]
    y += [(None, j, (-r, -m, d)) for j, Xa in zip(P, X)
          for _, i, (r, m, d) in Xa.entries if i is None and (r or m)]
    return ConstantOperator(vars, y)


class ReductionContext:
    """Everything needed to run one reduction scenario: the star product,
    the classical and quantum momentum maps, and the total good tube: the
    ``constrained`` p_a of the translated directions, all other variables
    ``cvars``.  The product lies on the action's space: one over another
    list of variables is a VariableMismatchError.  The classical momentum
    map is the canonical one of the action, and the quantum one is held
    truncated to the context's order: a component held below that order is
    an OrderMismatchError, since its missing powers are not zero but
    unknown.  A shifted scenario adds the substitution that straightens its
    samples.
    ``deformation`` holds the operators X_a of the closed-form ∂_q, read
    off the column of the product's matrix at each constrained p_a and the
    λ¹ part of Jq_a, or None where the product has no matrix or Jq is not
    J + λc: there ∂_q takes the star walk.  ``conjugation`` is the
    operator Y of T = exp(λY), through which the quantum restriction is
    computed in closed form, or None where T does not apply.  Immutable
    after construction."""

    def __init__(self, action: TranslationAction, star: StarProduct,
                 Jq: QuantumMomentumMap, order: int,
                 straighten: Optional[Mapping[str, MultiPoly]] = None):
        self.space = space = action.space
        if star.space.vars != space.vars:
            raise VariableMismatchError(f"a product over {star.space.vars} cannot reduce an "
                                        f"action over {space.vars}")
        self.action = action
        self.star = star
        self.J = canonical_momentum_map(action)
        low = [c.order for c in Jq.components if c.order < order]
        if low:   # truncate would take its missing powers as zero
            raise OrderMismatchError(f"a Jq component held at order {low[0]} cannot "
                                     f"serve a context of order {order}")
        self.Jq = QuantumMomentumMap(Jq.lie, [c.truncate(order) for c in Jq.components])
        self.order = order
        if self.Jq.classical_part() != self.J:
            raise AlgebraError("quantum momentum map does not deform the classical one")
        self.straightening = dict(straighten) if straighten else {}
        self.constrained = tuple(f"p{a}" for a in action.translated)
        self.cvars = tuple(v for v in space.vars if v not in self.constrained)
        self.gdim = len(action.translated)
        # the series of this context use a constrained p_a where this holds
        self.uses_constrained = uses_test((LAMBDA, *space.vars), self.constrained)
        self.deformation = _deformation(self)
        self.conjugation = _conjugation(self)

    @staticmethod
    def canonical(space: PhaseSpace, translated: Sequence[int], star: StarProduct,
                  order: int, Jq: Optional[QuantumMomentumMap] = None) -> "ReductionContext":
        action = TranslationAction(space, translated)
        if Jq is None:
            Jq = QuantumMomentumMap.from_classical(canonical_momentum_map(action), order)
        return ReductionContext(action, star, Jq, order)

    # -- convenience ----------------------------------------------------

    def straighten(self, f: MultiPoly) -> MultiPoly:
        """A sample of the scenario in the canonical coordinates the context
        computes in; the identity for a canonical scenario."""
        return f.substitute(self.straightening) if self.straightening else f

    def series(self, poly: MultiPoly) -> LambdaSeries:
        return self.space.series(poly, self.order)


# ---------------------------------------------------------------------------
# boundary operators
# ---------------------------------------------------------------------------

def _held(data, name: str):
    """The context's ``data``, where it holds it; a ContractViolationError
    that names it where it does not."""
    if data is None:
        raise ContractViolationError(f"the context holds no {name}, as its product and its "
                                     f"Jq do not give one")
    return data


def _boundary(x: KoszulChain, ctx: ReductionContext,
              times: Callable[[LambdaSeries, int], LambdaSeries]) -> KoszulChain:
    """The insertion derivation against the momentum components: the entry
    at a key goes to the key without index a, multiplied by component a
    through ``times(F, a)``."""
    if x.grade < 1:
        raise AlgebraError("boundary needs grade >= 1")
    out: Dict[IndexKey, LambdaSeries] = {}
    for key, F in x.terms.items():
        for pos, idx in enumerate(key):
            sign, rest = remove_index(key, pos)
            contrib = times(F, idx) if sign > 0 else times(F, idx).scale(-1)
            out[rest] = out[rest] + contrib if rest in out else contrib
    return _chain(ctx.gdim, x.grade - 1, x.vars, x.order, out)


def koszul_boundary(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    """Classical boundary: pointwise multiplication by the momentum
    components J_a = p_a, each a shift of the keys."""
    pv = ctx.constrained
    return _boundary(x, ctx, lambda F, a: F.times_variable(pv[a - 1]))


def _star_Jq(ctx: ReductionContext) -> Callable[[LambdaSeries, int], LambdaSeries]:
    """F, a ↦ F ⋆ Jq_a in closed form, F·p_a + λX_aF, on a context that
    holds the X_a as its ``deformation``."""
    X, pv = _held(ctx.deformation, "deformation"), ctx.constrained
    return lambda F, a: X[a - 1].lambda_step(F, pv[a - 1])


def quantum_koszul_boundary(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    """Quantum boundary: right star multiplication by the quantum momentum
    components, in closed form where the context holds their
    ``deformation``, and by the star walk where it does not.  A momentum
    map takes only an abelian algebra, and rejects one with structure
    constants, so there is no structure-constant correction."""
    if ctx.deformation is None:
        return _boundary(x, ctx, lambda F, a: ctx.star.eval(F, ctx.Jq.components[a - 1]))
    return _boundary(x, ctx, _star_Jq(ctx))


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg boundary on the adjoint representation
# ---------------------------------------------------------------------------

Vector = Tuple[Fraction, ...]
CEElement = Dict[IndexKey, Vector]


def ce_boundary(lie: LieAlgebraData, x: CEElement) -> CEElement:
    """Lie algebra homology boundary with coefficients in the adjoint
    representation, written with the insertion derivations and read off the
    structure constants: e_alpha acts on v by [e_alpha, v].  The grade is
    read off the keys of x, each an increasing tuple of indices in 1..dim,
    all of one length k >= 1, and every vector has ``lie.dim`` entries."""
    grades = {len(key) for key in x}
    if 0 in grades or len(grades) > 1:
        raise AlgebraError(f"boundary needs keys of one grade >= 1, got grades {sorted(grades)}")
    for key, v in x.items():
        if list(key) != sorted(set(key)) or not 1 <= key[0] <= key[-1] <= lie.dim:
            raise AlgebraError(f"basis key {key} is not increasing in 1..{lie.dim}")
        if len(v) != lie.dim:
            raise AlgebraError(f"a vector of {len(v)} entries at {key}, not {lie.dim}")
    out: CEElement = {}

    def add(key: IndexKey, v: Vector):
        cur = out.get(key)
        out[key] = tuple(a + b for a, b in zip(cur, v)) if cur else v

    for key, v in x.items():
        # representation term
        for pos, alpha in enumerate(key):
            sign, rest = remove_index(key, pos)
            ad = [Fraction(0)] * lie.dim
            for beta, vb in enumerate(v, 1):
                for gamma, c in lie.bracket_coeffs(alpha, beta).items():
                    ad[gamma - 1] += vb * sign * c
            add(rest, tuple(ad))
        # bracket part of the Lie algebra homology boundary
        for pos_b, beta in enumerate(key):
            sign_b, key_b = remove_index(key, pos_b)
            for pos_a, alpha in enumerate(key_b):
                sign_a, key_ab = remove_index(key_b, pos_a)
                for gamma, c in lie.bracket_coeffs(alpha, beta).items():
                    ins = insert_index(gamma, key_ab)
                    if ins is None:
                        continue
                    sign_g, newkey = ins
                    w = Fraction(-sign_b * sign_a * sign_g, 2) * c
                    add(newkey, tuple(vi * w for vi in v))
    return {k: v for k, v in out.items() if any(v)}


# ---------------------------------------------------------------------------
# homotopy, prolongation, restriction
# ---------------------------------------------------------------------------

def restriction(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """Classical restriction to the constraint set: zero outside ``cvars``."""
    return f.zero_outside(ctx.cvars)


def prolongation(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """Extension of a constraint-algebra element by the tube retraction; on
    a total tube this is the variable inclusion."""
    if f.vars != ctx.cvars:
        raise VariableMismatchError(f"{f.vars} is not the constraint variables {ctx.cvars}")
    return f.with_vars(ctx.space.vars)


def classical_homotopy(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    """Contracting homotopy from the good tube at the chain's grade k: x^m
    goes to m_a/(|m_v|+k) · x^{m-e_a} along each direction a not in a basis
    key, wedged onto it; |m_v| is the degree in the ``constrained`` p's."""
    k, pv = x.grade, ctx.constrained
    out: Dict[IndexKey, LambdaSeries] = {}
    for key, F in x.terms.items():
        for a in range(1, ctx.gdim + 1):
            if a not in key:
                sign, newkey = insert_index(a, key)
                G = F.weighted_diff(pv[a - 1], pv, k)
                G = G if sign > 0 else G.scale(-1)
                out[newkey] = out[newkey] + G if newkey in out else G
    return _chain(ctx.gdim, k + 1, x.vars, x.order, out)


def _corrected(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    """(id - A)^{-1} x with A = (∂ - ∂_q) h, on a chain of any grade: the
    paper's geometric series, which deforms the restriction and, on a
    context without T, the homotopy.  A raises the order in the parameter
    because the two boundaries agree at order zero."""

    def raiser(y: KoszulChain) -> KoszulChain:
        hy = classical_homotopy(y, ctx)
        return koszul_boundary(hy, ctx) - quantum_koszul_boundary(hy, ctx)

    return invert_unipotent(raiser, ctx.order)(x)


def fixed_by_corrections(f: LambdaSeries, ctx: ReductionContext) -> bool:
    """Whether every correction returns f, which has the context's order
    and lies over its variables: the homotopy and each entry of T's Y act
    through the constrained p_a alone, so f is fixed where it uses none of
    them."""
    if f.order != ctx.order:
        raise OrderMismatchError(f"a series of order {f.order} does not match the "
                                 f"context's order {ctx.order}")
    if f.vars != ctx.space.vars:
        raise VariableMismatchError(f"a series over {f.vars} does not match the context's "
                                    f"variables {ctx.space.vars}")
    return not ctx.uses_constrained(f.poly)


def series_correction(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """(id - A)^{-1} f on the grade-0 chain of a series.  This is also the
    closed-form correction (id - V)^{-1} of Kowalzig–Neumaier–Pflaum, with
    V F = Σ_a r_a(F)·J_a - r_a(F) ⋆ Jq_a and r_a the grade-0 homotopy
    along a, since A = V term for term on a grade-0 chain:
    ``classical_homotopy`` puts r_a(F) at the key (a,) with the sign +1 of
    e_a wedged onto (), and at grade 1 ``koszul_boundary`` and
    ``quantum_koszul_boundary`` send the entry at (a,) to () with the sign
    +1 of removing its only index, times J_a and star times Jq_a."""
    if fixed_by_corrections(f, ctx):
        return f
    return _corrected(KoszulChain.of_series(ctx.gdim, f), ctx).series()


def series_restriction(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """The paper's deformed restriction i** = i* (id - A)^{-1}: the
    classical restriction of the corrected grade-0 chain of f."""
    return restriction(series_correction(f, ctx), ctx)


def conjugate(f: LambdaSeries, ctx: ReductionContext, sign: int = 1) -> LambdaSeries:
    """T f = exp(λY) f, or T⁻¹ f = exp(-λY) f for a sign of -1, truncated at
    the order of f, on a context that holds its ``conjugation``."""
    if fixed_by_corrections(f, ctx):
        return f
    return _held(ctx.conjugation, "conjugation").exp(f, sign)


def quantum_correction(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """The correction before i* in i**: T f where the context has T, else (id - A)^{-1} f."""
    return series_correction(f, ctx) if ctx.conjugation is None else conjugate(f, ctx)


def quantum_restriction(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """Deformed restriction i** = i* (id - A)^{-1}, which is i* ∘ T where
    the context has T's data, as T conjugates ∂_q to ∂."""
    return restriction(quantum_correction(f, ctx), ctx)


def quantum_homotopy(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    """Quantum contracting homotopy h_q = h (id - A)^{-1}.  Where the context
    has T, it is T⁻¹hT, applied entrywise, in closed form.  Three facts give
    T⁻¹hT (id - A) = h: T∂_q = ∂T; T∘prol = prol and h∘prol = 0; and
    hTh = 0, since h = δN⁻¹ with δ = Σ_a e_a∧∂_{p_a}, δ commutes with T, and
    N⁻¹ only scales each p_a-degree component, so δN⁻¹ is zero on δ-closed
    chains.  Elsewhere h_q is the classical homotopy of the corrected chain."""
    if ctx.conjugation is None:
        return classical_homotopy(_corrected(x, ctx), ctx)

    def T(y: KoszulChain, sign: int) -> KoszulChain:
        return _chain(y.gdim, y.grade, y.vars, y.order,
                      {key: conjugate(F, ctx, sign) for key, F in y.terms.items()})

    return T(classical_homotopy(T(x, 1), ctx), -1)


# ---------------------------------------------------------------------------
# batch verification
# ---------------------------------------------------------------------------

def verify_complex_identities(ctx: ReductionContext,
                              samples: Sequence[MultiPoly]) -> List[dict]:
    """Run every classical and quantum complex identity on chains built from
    the samples.  Returns one pass/fail entry per identity.  An identity on
    one sample is a predicate of the sample, its series and its quantum
    restriction, and its witness is the sample."""
    gdim = ctx.gdim
    # several checks read each sample's quantum restriction, computed once
    # through the paper's series, whatever route ``quantum_restriction`` takes
    series = [ctx.series(f) for f in samples]
    qres = [series_restriction(fs, ctx) for fs in series]

    def chains_of_grade(k: int):
        keys = list(combinations(range(1, gdim + 1), k))
        for i in range(len(samples)):
            yield KoszulChain(gdim, k, ctx.space.vars, ctx.order,
                              {key: series[(i + j) % len(samples)]
                               for j, key in enumerate(keys)})

    def d_squared_zero(d):
        for k in range(2, gdim + 1):
            for x in chains_of_grade(k):
                if not d(d(x, ctx), ctx).is_zero():
                    yield {"grade": k, "chain": x.render()}

    def restriction_kills_boundaries(res, d):
        for x in chains_of_grade(1):
            if not res(d(x, ctx).series(), ctx).is_zero():
                yield {"chain": x.render()}

    def homotopy_identity(grades, h, d):
        """h d + d h = id; at grade 0, where the quantum identity alone is
        checked, h d is replaced by the projection prol i**."""
        for k in grades:
            # the grade-0 chains wrap the samples in order
            for x, qf in zip(chains_of_grade(k), qres):
                hd = KoszulChain.of_series(gdim, prolongation(qf, ctx)) if k == 0 \
                    else h(d(x, ctx), ctx)
                if hd + d(h(x, ctx), ctx) != x:
                    yield {"grade": k, "chain": x.render()}

    def homotopy_identity_grade_zero(f, fs, qf):
        return prolongation(restriction(fs, ctx), ctx) + koszul_boundary(
            classical_homotopy(KoszulChain.of_series(gdim, fs), ctx), ctx).series() == fs

    def homotopy_kills_prolongations(f, fs, qf):
        g = prolongation(restriction(fs, ctx), ctx)
        return classical_homotopy(KoszulChain.of_series(gdim, g), ctx).is_zero()

    def right_inverse(f, fs, qf):
        g = restriction(fs, ctx)
        return quantum_restriction(prolongation(g, ctx), ctx) == g

    def projection_idempotent(f, fs, qf):
        proj = prolongation(qf, ctx)
        return prolongation(quantum_restriction(proj, ctx), ctx) == proj

    # the kernel of the quantum restriction contains the left ideal generators
    def kernel_contains_ideal_generators():
        for f, fs in zip(samples, series):
            for a in range(gdim):
                gen = ctx.star.eval(fs, ctx.Jq.components[a])
                if not quantum_restriction(gen, ctx).is_zero():
                    yield {"f": f.render(), "generator": a + 1}

    return [
        check("koszul_d_squared_zero", d_squared_zero(koszul_boundary)),
        check("quantum_d_squared_zero", d_squared_zero(quantum_koszul_boundary)),
        check("restriction_of_boundary_zero",
              restriction_kills_boundaries(restriction, koszul_boundary)),
        check("quantum_restriction_of_quantum_boundary_zero",
              restriction_kills_boundaries(quantum_restriction, quantum_koszul_boundary)),
        check("homotopy_identity_positive_grades",
              homotopy_identity(range(1, gdim + 1), classical_homotopy, koszul_boundary)),
        check("homotopy_identity_grade_zero",
              failures(samples, homotopy_identity_grade_zero, series, qres)),
        check("homotopy_kills_prolongations",
              failures(samples, homotopy_kills_prolongations, series, qres)),
        check("quantum_restriction_classical_limit", failures(samples, lambda f, fs, qf:
              qf.coeff(0) == restriction(fs, ctx).coeff(0), series, qres)),
        # i** = i* ∘ T, where the context has T
        *([check("quantum_restriction_after_T", failures(
            samples, lambda f, fs, qf: quantum_restriction(fs, ctx) == qf, series, qres))]
          if ctx.conjugation is not None else []),
        check("quantum_restriction_right_inverse",
              failures(samples, right_inverse, series, qres)),
        check("projection_idempotent", failures(samples, projection_idempotent, series, qres)),
        check("kernel_contains_ideal_generators", kernel_contains_ideal_generators()),
        # direct sum decomposition: the complement lands in the kernel
        check("direct_sum_complement_in_kernel", failures(samples, lambda f, fs, qf:
              quantum_restriction(fs - prolongation(qf, ctx), ctx).is_zero(), series, qres)),
        *(check(f"quantum_homotopy_identity_grade_{k}",
                homotopy_identity([k], quantum_homotopy, quantum_koszul_boundary))
          for k in range(min(gdim, 2) + 1)),
    ]
