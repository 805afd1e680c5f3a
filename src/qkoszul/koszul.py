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

The quantum restriction is the classical one after a correction series,
``quantum_correction``.  Where the product has a constant matrix and the
quantum momentum map is p_a + λc_a with constant c_a, an operator T
conjugates the quantum complex to the classical one, and the correction is
T = exp(λY) in closed form, for one operator Y with constant coefficients.
There the quantum homotopy is T⁻¹hT, with T⁻¹ = exp(-λY).  Y is built here
from the product's matrix, by variable position, and
``exact.ConstantOperator`` applies exp(±λY) to a series.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .exact import (
    AlgebraError,
    ConstantOperator,
    LambdaSeries,
    MultiPoly,
    OrderMismatchError,
    VariableMismatchError,
    invert_unipotent,
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
        return KoszulChain(self.gdim, self.grade, self.vars, self.order, out)

    def __sub__(self, other: "KoszulChain") -> "KoszulChain":
        return self + other.scale(-1)

    def scale(self, c) -> "KoszulChain":
        return KoszulChain(self.gdim, self.grade, self.vars, self.order,
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


def _conjugation(action: TranslationAction, star: StarProduct,
                 Jq: QuantumMomentumMap) -> Optional[ConstantOperator]:
    """The operator Y over the variables of the action's space, for a
    product with a constant matrix C and Jq_a = p_a + λc_a, c_a constant,
    on the positions P of the translated p_a:

        Y = -Σ_a Σ_{i∉P} C^{i p_a} ∂_i∂_{p_a} - ½ Σ_{a,b} C^{p_a p_b} ∂_{p_a}∂_{p_b}
            - Σ_a c_a ∂_{p_a}.

    Then T = exp(λY) has T(f ⋆ Jq_a) = p_a·T(f).  None where that does not
    hold: a product without a matrix, some Jq_a - p_a that is not λ times
    a constant, or C not symmetric on P × P."""
    C, space, translated = star.matrix, action.space, action.translated
    if C is None or star.space.vars != space.vars:
        return None
    P = [space.vars.index(f"p{a}") for a in translated]
    if any(C.get((a, b)) != C.get((b, a)) for a in P for b in P):
        return None
    # each pair {i, j} once: the two halves of -½ C^{p_a p_b} ∂_{p_a}∂_{p_b}
    # for a ≠ b add up, as C is symmetric there
    y = [(i, j, (-r, -m, 2 * d if i == j else d))
         for (i, j), (r, m, d) in sorted(C.items()) if j in P and (i not in P or i <= j)]
    for a, Ja in zip(translated, Jq.components):
        # Jq_a must be p_a + λc_a, with c_a = coeff(1) a constant
        c = Ja.coeff(1)
        if (ca := c.as_constant()) is None or Ja - LambdaSeries.from_poly(c, Ja.order, shift=1) != \
                LambdaSeries.from_poly(space.p(a), Ja.order):
            return None
        r, m, d = ca
        if r or m:
            y.append((None, space.vars.index(f"p{a}"), (-r, -m, d)))
    return ConstantOperator(space.vars, y)


class ReductionContext:
    """Everything needed to run one reduction scenario: the star product,
    the classical and quantum momentum maps, and the total good tube: the
    ``constrained`` p_a of the translated directions, all other variables
    ``cvars``.  The classical momentum map is the canonical one of the
    action, and the quantum one is held truncated to the context's order:
    a component held below that order is an OrderMismatchError, since its
    missing powers are not zero but unknown.  A shifted scenario adds the
    substitution that straightens its samples.
    ``conjugation`` is the operator Y of T = exp(λY), through which the
    quantum restriction is computed in closed form, or None where T does
    not apply.  Immutable after construction."""

    def __init__(self, action: TranslationAction, star: StarProduct,
                 Jq: QuantumMomentumMap, order: int,
                 straighten: Optional[Mapping[str, MultiPoly]] = None):
        self.space = space = action.space
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
        self.gdim = action.dim
        self.conjugation = _conjugation(action, star, self.Jq)

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
            contrib = times(F, idx).scale(sign)
            out[rest] = out[rest] + contrib if rest in out else contrib
    return KoszulChain(ctx.gdim, x.grade - 1, ctx.space.vars, ctx.order, out)


def koszul_boundary(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    """Classical boundary: pointwise multiplication by the momentum
    components."""
    return _boundary(x, ctx, lambda F, a: F * ctx.series(ctx.J.components[a - 1]))


def quantum_koszul_boundary(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    """Quantum boundary: right star multiplication by the quantum momentum
    components.  A momentum map takes only an abelian algebra, and rejects
    one with structure constants, so there is no structure-constant
    correction."""
    return _boundary(x, ctx, lambda F, a: ctx.star.eval(F, ctx.Jq.components[a - 1]))


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
                G = F.weighted_diff(pv[a - 1], pv, k).scale(sign)
                out[newkey] = out[newkey] + G if newkey in out else G
    return KoszulChain(ctx.gdim, k + 1, ctx.space.vars, ctx.order, out)


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
    return not f.uses(*ctx.constrained)


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


def conjugate(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """T f = exp(λY) f, truncated at the order of f, on a context whose
    ``conjugation`` is not None."""
    return f if fixed_by_corrections(f, ctx) else ctx.conjugation.exp(f, 1)


def unconjugate(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """T⁻¹ f = exp(-λY) f, truncated at the order of f."""
    return f if fixed_by_corrections(f, ctx) else ctx.conjugation.exp(f, -1)


def quantum_correction(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """The correction before i* in i**: T f where the context has T, else (id - A)^{-1} f."""
    return series_correction(f, ctx) if ctx.conjugation is None else conjugate(f, ctx)


def quantum_restriction(f: LambdaSeries, ctx: ReductionContext) -> LambdaSeries:
    """Deformed restriction i** = i* (id - A)^{-1}, which is i* ∘ T where
    the context has T's data, as T conjugates ∂_q to ∂."""
    return restriction(quantum_correction(f, ctx), ctx)


def _entrywise(op: Callable[[LambdaSeries, ReductionContext], LambdaSeries],
               x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    return KoszulChain(x.gdim, x.grade, x.vars, x.order,
                       {key: op(F, ctx) for key, F in x.terms.items()})


def quantum_homotopy(x: KoszulChain, ctx: ReductionContext) -> KoszulChain:
    """Quantum contracting homotopy h_q = h (id - A)^{-1}.  Where the context
    has T, it is T⁻¹hT, applied entrywise, in closed form.  Three facts give
    T⁻¹hT (id - A) = h: T∂_q = ∂T; T∘prol = prol and h∘prol = 0; and
    hTh = 0, since h = δN⁻¹ with δ = Σ_a e_a∧∂_{p_a}, δ commutes with T, and
    N⁻¹ only scales each p_a-degree component, so δN⁻¹ is zero on δ-closed
    chains.  Elsewhere h_q is the classical homotopy of the corrected chain."""
    if ctx.conjugation is None:
        return classical_homotopy(_corrected(x, ctx), ctx)
    return _entrywise(unconjugate, classical_homotopy(_entrywise(conjugate, x, ctx), ctx), ctx)


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
