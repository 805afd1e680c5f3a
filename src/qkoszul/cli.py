"""Scenario runner.

Builds a reduction scenario from a config (builtin name or JSON file), runs
the requested check suites and emits a deterministic report: with a fixed
seed the report bytes are identical on every run.  Timing is printed to
stderr only, never into the report.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 config error
(a polynomial past a size limit included), 3 internal error (any other
algebra error: an operator broke its contract), 4 internal error (an
unexpected exception, reported with its traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import AlgebraError, ExponentOverflowError, MultiPoly, TermLimitError, render_gauss
from .koszul import ReductionContext, basis_label, ce_boundary, quantum_restriction, \
    series_restriction, verify_complex_identities
from .lie import LieAlgebraData, check_classical_equivariance, \
    check_quantum_momentum_map
from .phase_space import PhaseSpace, StarProduct, check_star_axioms
from .reduction import CotangentSplit, ReducedAlgebra, build_shifted_context, \
    knp_reduced_star, reduced_star
from .report import check, failures, prefixed
from .sampling import sample_pairs, sample_polys
from .stages import StageConfig, StagePipeline, build_compatible_prolongations, \
    check_stage_equality


class ConfigError(Exception):
    pass


def _shown(value) -> str:
    """A user's value as an error message shows it: its repr, cut to 40
    characters, so that the message stays one short line."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


# Each check suite, with what it needs: a reduction context, and a reduced
# space that is not a point.  Suite ``name`` runs as ``suite_<name>(cfg, ctx)``,
# looked up by name as it runs, so a wrapper bound in its place is what runs;
# ctx is None when no suite of the scenario needs it.
SUITES = {"axioms": (), "momentum": ("context",), "complex": ("context",),
          "reduction": ("context", "reduced"), "knp": ("context", "reduced"),
          "stages": ("context", "reduced"), "ce": ()}
# Resource caps: every builtin, and the benchmark, runs far below them, and a
# builtin with one of these fields at its cap still runs in seconds (README,
# "Limits").
MAX_N = 6
MAX_LAMBDA_ORDER = 8
MAX_DEGREE = 6
MAX_SAMPLES = 100
# the checks on the whole phase space read the first this many samples, and
# the others all of them; changing it changes every report with such a check
MAX_UPSTAIRS_SAMPLES = 6
# digits of the numerator and of the denominator of a b or mu value, in
# lowest terms
MAX_NUMBER_DIGITS = 100
# characters of a name: at 4 bytes each in UTF-8, the report's file name
# with its extension stays inside the 255 bytes common file systems allow
MAX_NAME_CHARS = 50
# checks over consecutive triples of samples need three to check anything
MIN_SAMPLES = 3


@dataclass
class ScenarioConfig:
    name: str
    n: int = 2
    translated: Tuple[int, ...] = (1,)
    star: str = "weyl"
    lambda_order: int = 4
    degree: int = 3
    samples: int = 10
    seed: int = 2024
    b: Dict[int, Tuple[int, Fraction]] = field(default_factory=dict)
    mu: Dict[int, Fraction] = field(default_factory=dict)
    stage_first: Optional[Tuple[int, ...]] = None
    checks: Tuple[str, ...] = ("axioms",)

    def validate(self) -> None:
        # a leading '.' would hide the report, as '' would name it '.json'
        if not self.name or self.name[0] == "." or not self.name.isprintable() or \
                any(sep in self.name for sep in ("/", "\\", "..")):
            raise ConfigError(f"name {_shown(self.name)} is not a plain file name")
        if len(self.name) > MAX_NAME_CHARS:
            raise ConfigError(f"name {_shown(self.name)} is longer than {MAX_NAME_CHARS} "
                              "characters")
        for key, low, cap in (("n", 1, MAX_N), ("lambda_order", 1, MAX_LAMBDA_ORDER),
                              ("degree", 1, MAX_DEGREE),
                              ("samples", MIN_SAMPLES, MAX_SAMPLES)):
            if not low <= getattr(self, key) <= cap:
                raise ConfigError(f"{key} must be between {low} and {cap}")
        if self.star not in ("weyl", "wick", "std"):
            raise ConfigError(f"unknown star kind {_shown(self.star)}")
        for a in self.translated:
            if not 1 <= a <= self.n:
                raise ConfigError(f"translated coordinate {_shown(a)} out of range 1..{self.n}")
        if len(set(self.translated)) < len(self.translated):
            raise ConfigError("a translated coordinate is listed twice")
        for a in list(self.b) + list(self.mu):
            if a not in self.translated:
                raise ConfigError(f"b/mu index {_shown(a)} is not a translated coordinate")
        for a, (c, _) in self.b.items():
            if not 1 <= c <= self.n:
                raise ConfigError(f"magnetic pair ({a}, {_shown(c)}): {_shown(c)} is out of "
                                  f"range 1..{self.n}")
            if c in self.translated:
                raise ConfigError(f"magnetic pair ({a}, {c}) couples two translated "
                                  "coordinates")
        k = len(self.translated)
        if self.stage_first is not None:
            for i in self.stage_first:
                if not 1 <= i <= k:
                    raise ConfigError(f"stage index {_shown(i)} out of range 1..{k}")
            if len(set(self.stage_first)) < len(self.stage_first):
                raise ConfigError("a stage index is listed twice")
        if not self.checks:
            raise ConfigError("no check suite selected")
        for c in self.checks:
            if c not in SUITES:
                raise ConfigError(f"unknown check suite {_shown(c)}")
        if len(set(self.checks)) < len(self.checks):
            raise ConfigError("a check suite is listed twice")
        needs = {need for c in self.checks for need in SUITES[c]}
        if "context" in needs and k == 0:
            raise ConfigError("suites on a reduction context need a translated "
                              "coordinate")
        if "reduced" in needs and k >= self.n:
            raise ConfigError("every coordinate is translated: the reduced space "
                              "is a point")
        if "stages" in self.checks and (self.stage_first is None or k < 2):
            raise ConfigError("stages suite needs a stage split and at least "
                              "two translated coordinates")
        if "stages" in self.checks and not 0 < len(self.stage_first) < k:
            raise ConfigError("stage split must leave both stages nonempty")

    def echo(self) -> dict:
        """Every field as the JSON value ``parse_config`` reads back."""
        return {f.name: _as_json(getattr(self, f.name)) for f in fields(self)}


def _as_json(value):
    """A field value as JSON: a tuple or list as a list, a dict with text
    keys in key order, a Fraction as its text, and each item likewise."""
    if isinstance(value, (tuple, list)):
        return [_as_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _as_json(v) for k, v in sorted(value.items())}
    return str(value) if isinstance(value, Fraction) else value


# The builtin scenarios, each a JSON config without its name.
SCENARIOS: Dict[str, dict] = {
    # translation reduction on T*R^3 by two commuting translations, with a
    # two-stage split
    "s1-translation": {"n": 3, "translated": [1, 2], "star": "weyl", "stage_first": [1],
                       "checks": ["momentum", "complex", "reduction", "knp", "stages"]},
    # a single translation on T*R^2
    "s1p-single": {"n": 2, "translated": [1], "star": "weyl",
                   "checks": ["momentum", "complex", "reduction", "knp"]},
    # magnetic term and shifted momentum value on T*R^2
    "s2-magnetic": {"n": 2, "translated": [1], "star": "weyl",
                    "b": {"1": [2, "1/2"]}, "mu": {"1": "3"},
                    "checks": ["momentum", "complex", "reduction", "knp"]},
    "axioms-weyl": {"n": 3, "star": "weyl", "checks": ["axioms"]},
    "axioms-wick": {"n": 3, "star": "wick", "checks": ["axioms"]},
    "axioms-std": {"n": 3, "star": "std", "checks": ["axioms"]},
    # Lie algebra homology boundary on the Heisenberg adjoint representation
    "ce-heisenberg": {"checks": ["ce"]},
}


def builtin_config(name: str) -> ScenarioConfig:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {_shown(name)}; use --list-scenarios")
    return parse_config({"name": name, **SCENARIOS[name]})


def _typed(key: str, value, kind: type):
    """``value`` if it has the JSON type ``kind``; true and false are not
    integers."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key!r} must be of type {kind.__name__}, got {_shown(value)}")


def _typed_list(key: str, value, kind: type) -> tuple:
    return tuple(_typed(key, v, kind) for v in _typed(key, value, list))


def _entries(key: str, raw: dict, parse) -> dict:
    """A JSON object keyed by labels in plain decimal (one spelling each), values parsed."""
    entries = _typed(key, raw[key], dict)
    for a in entries:
        if not (a.isascii() and a.isdigit() and (a[0] != "0" or a == "0")):
            raise ConfigError(f"bad {key!r} label {_shown(a)}: not a decimal without a "
                              "leading zero")
        # a label names a coordinate, so int() never sees one longer than MAX_N
        if len(a) > len(str(MAX_N)):
            raise ConfigError(f"bad {key!r} label {_shown(a)}: above {MAX_N}, the cap on n")
    try:
        return {int(a): parse(v) for a, v in entries.items()}
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError(f"bad {key!r} entry: {e}")


# a b or mu value written as a string: an optional '-', ASCII digits, and an
# optional '/digits' or '.digits'
NUMBER = re.compile(r"-?[0-9]+(?:[/.][0-9]+)?")


def _number(v) -> Fraction:
    """An integer or a string such as "1/10" or "0.1", read exactly, with at
    most ``MAX_NUMBER_DIGITS`` digits in its numerator and in its
    denominator, in lowest terms, so that its echo reads back; a JSON float
    holds a binary value, not the decimal it was written as."""
    if isinstance(v, float):
        raise TypeError(f"{v!r} is a JSON float, which is inexact: "
                        'write an integer or a string such as "1/10"')
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise TypeError(f"{_shown(v)} is not a number")
    shown = "an integer"
    if isinstance(v, str):
        # no value inside the cap needs more characters, and Fraction never
        # sees a longer string
        longest = 2 * MAX_NUMBER_DIGITS + 2
        shown = _shown(v)
        if len(v) > longest or not NUMBER.fullmatch(v):
            raise ValueError(f"{shown} is not written as an optional '-', ASCII digits and an "
                             f"optional '/digits' or '.digits', in at most {longest} characters")
        _, slash, den = v.partition("/")
        if slash and not den.strip("0"):
            raise ValueError(f"{shown} has a zero denominator")
    x = Fraction(v)
    if max(abs(x.numerator), x.denominator) >= 10 ** MAX_NUMBER_DIGITS:
        raise ValueError(f"{shown} is above the cap of {MAX_NUMBER_DIGITS} digits for a "
                         "numerator or a denominator in lowest terms")
    return x


def _magnetic_pair(cv) -> Tuple[int, Fraction]:
    if len(_typed("b", cv, list)) != 2:
        raise ValueError(f"{_shown(cv)} is not a [label, value] pair")
    return _typed("b", cv[0], int), _number(cv[1])


def _distinct_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object of a config file; json.load alone keeps a repeated key's last value."""
    for i, (key, _) in enumerate(pairs):
        if any(key == k for k, _ in pairs[:i]):
            raise ConfigError(f"config key {_shown(key)} is repeated")
    return dict(pairs)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_distinct_keys)
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(f"cannot read config {path!r}: {e}")
    return parse_config(raw)


def parse_config(raw) -> ScenarioConfig:
    """The config a JSON value declares, every field type-checked."""
    if not isinstance(raw, dict) or "name" not in raw:
        raise ConfigError("config must be a JSON object with a 'name' field")
    unknown = sorted(raw.keys() - {f.name for f in fields(ScenarioConfig)})
    if unknown:
        raise ConfigError(f"unknown config key {_shown(unknown[0])}")
    cfg = ScenarioConfig(name=_typed("name", raw["name"], str))
    for key in ("n", "lambda_order", "degree", "samples", "seed"):
        if key in raw:
            setattr(cfg, key, _typed(key, raw[key], int))
    if "star" in raw:
        cfg.star = _typed("star", raw["star"], str)
    if "translated" in raw:
        cfg.translated = _typed_list("translated", raw["translated"], int)
    if "checks" in raw:
        cfg.checks = _typed_list("checks", raw["checks"], str)
    if raw.get("stage_first") is not None:
        cfg.stage_first = _typed_list("stage_first", raw["stage_first"], int)
    if "b" in raw:
        cfg.b = _entries("b", raw, _magnetic_pair)
    if "mu" in raw:
        cfg.mu = _entries("mu", raw, _number)
    return cfg


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def build_context(cfg: ScenarioConfig) -> ReductionContext:
    space = PhaseSpace.of_dim(cfg.n)
    star = getattr(StarProduct, cfg.star)(space)
    ctx = ReductionContext.canonical(space, cfg.translated, star, cfg.lambda_order)
    if cfg.b or cfg.mu:
        ctx = build_shifted_context(ctx, cfg.b, cfg.mu)
    return ctx


def suite_axioms(cfg: ScenarioConfig, ctx: Optional[ReductionContext]) -> List[dict]:
    space = PhaseSpace.of_dim(cfg.n)
    samples = sample_polys(cfg.seed, space.vars, cfg.degree, cfg.samples)
    return check_star_axioms(getattr(StarProduct, cfg.star)(space), samples, cfg.lambda_order)


def raw_samples(cfg: ScenarioConfig, ctx: ReductionContext, seed: int) -> List[MultiPoly]:
    """Samples on the scenario's phase space, in its own coordinates."""
    return sample_polys(seed, ctx.space.vars, cfg.degree, min(cfg.samples, MAX_UPSTAIRS_SAMPLES))


def upstairs_samples(cfg: ScenarioConfig, ctx: ReductionContext,
                     seed: int) -> List[MultiPoly]:
    """The raw samples, straightened into the coordinates the context
    computes in."""
    return [ctx.straighten(f) for f in raw_samples(cfg, ctx, seed)]


def shift_checks(cfg: ScenarioConfig, ctx: ReductionContext,
                 raw: Sequence[MultiPoly]) -> List[dict]:
    """The straightening and the restriction of a shifted or magnetic
    context against the momentum map the config declares:
    J_a = p_a + alpha_a with alpha_a = b·q_c - mu_a."""
    space = ctx.space
    alpha = {a: MultiPoly.zero(space.vars) for a in cfg.translated}
    for a, (c, b) in cfg.b.items():
        alpha[a] = alpha[a] + space.q(c).scale(b)
    for a, mu in cfg.mu.items():
        alpha[a] = alpha[a] - MultiPoly.const(space.vars, mu)
    # on the constraint set J_a = 0, that is p_a = -alpha_a
    solved = {f"p{a}": (-al).with_vars(ctx.cvars) for a, al in alpha.items()}

    def straighten_sends_J_to_p():
        for a, al in sorted(alpha.items()):
            J = space.p(a) + al
            if ctx.straighten(J) != space.p(a):
                yield {"a": a, "J": J.render()}

    return [check("straighten_sends_J_to_p", straighten_sends_J_to_p()),
            check("restriction_solves_constraint", failures(raw, lambda f:
                  ctx.straighten(f).zero_outside(ctx.cvars) == f.substitute(solved)))]


def suite_momentum(cfg: ScenarioConfig, ctx: ReductionContext) -> List[dict]:
    raw = raw_samples(cfg, ctx, cfg.seed)
    checks = check_classical_equivariance(ctx.J, ctx.star)
    checks += check_quantum_momentum_map(ctx.star, ctx.Jq, [ctx.straighten(f) for f in raw])
    if cfg.b or cfg.mu:
        checks += shift_checks(cfg, ctx, raw)
    return checks


def suite_complex(cfg: ScenarioConfig, ctx: ReductionContext) -> List[dict]:
    return verify_complex_identities(ctx, upstairs_samples(cfg, ctx, cfg.seed))


def suite_reduction(cfg: ScenarioConfig, ctx: ReductionContext) -> List[dict]:
    red = ReducedAlgebra(ctx)
    star_red = reduced_star(red)
    samples = sample_polys(cfg.seed + 1, red.space.vars, cfg.degree, cfg.samples)
    bracket = star_red.bracket_poly

    def jacobi():
        for f, g, h in zip(samples, samples[1:], samples[2:]):
            jac = bracket(f, bracket(g, h)) + bracket(g, bracket(h, f)) + bracket(h, bracket(f, g))
            if not jac.is_zero():
                yield {"f": f.render(), "g": g.render(), "h": h.render(),
                       "jacobiator": jac.render()}

    return check_star_axioms(star_red, samples, cfg.lambda_order) + \
        [check("reduced_bracket_jacobi", jacobi())]


def suite_knp(cfg: ScenarioConfig, ctx: ReductionContext) -> List[dict]:
    red = ReducedAlgebra(ctx)
    star_red = reduced_star(red)
    knp = knp_reduced_star(red)
    pairs = sample_pairs(cfg.seed + 2, red.space.vars, cfg.degree, cfg.samples)

    def closed_form_equals_homological():
        for f, g in pairs:
            a = knp.eval_poly(f, g, cfg.lambda_order)
            b = star_red.eval_poly(f, g, cfg.lambda_order)
            if a != b:
                yield {"f": f.render(), "g": g.render(),
                       "closed_form": a.render(), "homological": b.render()}

    # upstairs samples carry p_a, so the correction is not zero
    upstairs = upstairs_samples(cfg, ctx, cfg.seed + 2)
    split = CotangentSplit(ctx)

    def deformed_restriction_equals_quantum_restriction():
        # the closed form's correction is the series, which the quantum
        # restriction does not run where the context has T
        for f in upstairs:
            F = ctx.series(f)
            a, b = series_restriction(F, ctx), quantum_restriction(F, ctx)
            if a != b:
                yield {"f": f.render(), "knp": a.render(), "quantum": b.render()}

    def division_identity(f):
        # F = prol(res F) + Σ_a r_a(F)·J_a: the tube homotopy divides by J
        recon = f.zero_outside(ctx.cvars).with_vars(ctx.space.vars)
        for a, Ja in enumerate(ctx.J.components, start=1):
            recon = recon + split.r(a, f) * Ja
        return recon == f

    return [check("closed_form_equals_homological", closed_form_equals_homological()),
            check("deformed_restriction_equals_quantum_restriction",
                  deformed_restriction_equals_quantum_restriction()),
            check("division_identity", failures(upstairs, division_identity))]


def suite_stages(cfg: ScenarioConfig, ctx: ReductionContext) -> List[dict]:
    pipe = StagePipeline(ctx, StageConfig(ctx.action.lie, cfg.stage_first))
    checks = build_compatible_prolongations(pipe, upstairs_samples(cfg, ctx, cfg.seed + 3))
    pairs = sample_pairs(cfg.seed + 4, pipe.red2.space.vars, cfg.degree,
                         cfg.samples)
    return checks + check_stage_equality(pipe, pairs)


def suite_ce(cfg: ScenarioConfig, ctx: Optional[ReductionContext]) -> List[dict]:
    lie = LieAlgebraData.heisenberg()
    rng = random.Random(cfg.seed)

    def vec():
        return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(lie.dim))

    def boundary_squared_zero(grade: int):
        x = {key: vec() for key in combinations(range(1, lie.dim + 1), grade)}
        sq = ce_boundary(lie, ce_boundary(lie, x))
        if sq:
            yield {"grade": grade, "d_squared": {basis_label(key): [render_gauss(c) for c in v]
                                                 for key, v in sorted(sq.items())}}

    def grade1_is_adjoint_action():
        # expected through lie.c, not bracket_coeffs, which ce_boundary reads
        basis = range(1, lie.dim + 1)
        for alpha in basis:
            for beta in basis:
                e_beta = tuple(Fraction(int(g == beta)) for g in basis)
                got = ce_boundary(lie, {(alpha,): e_beta}).get((), (Fraction(0),) * lie.dim)
                want = tuple(lie.c(alpha, beta, g) for g in basis)
                if got != want:
                    yield {"alpha": alpha, "beta": beta,
                           "boundary": [render_gauss(c) for c in got],
                           "bracket": [render_gauss(c) for c in want]}

    return [check(f"boundary_squared_zero_grade{grade}", boundary_squared_zero(grade))
            for grade in (2, 3)] + \
        [check("grade1_is_adjoint_action", grade1_is_adjoint_action())]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def conventions() -> Dict[str, str]:
    """Sign and normalization facts, derived for every report on a 1-dim
    space."""
    sp = PhaseSpace.of_dim(1)
    q, p = sp.q(1), sp.p(1)
    weyl = StarProduct.weyl(sp)
    std = StarProduct.std(sp)
    wick = StarProduct.wick(sp)
    qp = weyl.eval_poly(q, p, 1)
    out = {
        "weyl_q_star_p_order1": qp.coeff(1).render(),
        "weyl_commutator_q_p_order1": (qp - weyl.eval_poly(p, q, 1)).coeff(1).render(),
        "std_p_star_q_order1": std.eval_poly(p, q, 1).coeff(1).render(),
    }
    z = q + p.scale((0, 1, 1))
    zbar = q - p.scale((0, 1, 1))
    out["wick_z_star_zbar_order1"] = wick.eval_poly(z, zbar, 1).coeff(1).render()
    return out


def run_scenario(cfg: ScenarioConfig) -> dict:
    cfg.validate()
    ctx = build_context(cfg) if any("context" in SUITES[s] for s in cfg.checks) else None
    checks: List[dict] = []
    for suite in cfg.checks:
        checks += prefixed(suite, globals()[f"suite_{suite}"](cfg, ctx))
    checks.sort(key=lambda c: c["name"])
    status = "fail" if any(c["status"] == "fail" for c in checks) else "pass"
    return {
        "scenario": cfg.name,
        "status": status,
        "config": cfg.echo(),
        "conventions": conventions(),
        "checks": checks,
    }


def emit_report(report: dict, format: str = "json") -> bytes:
    if format == "json":
        return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    if format != "text":
        raise ConfigError(f"unknown format {format!r}")
    lines = [f"scenario: {report['scenario']}",
             f"status: {report['status']}",
             "config: " + json.dumps(report["config"], sort_keys=True),
             "conventions:"]
    for k in sorted(report["conventions"]):
        lines.append(f"  {k} = {report['conventions'][k]}")
    lines.append("checks:")
    for c in report["checks"]:
        lines.append(f"  [{c['status']}] {c['name']}")
        if "witness" in c:
            lines.append("    witness: " + json.dumps(c["witness"], sort_keys=True))
        if "info" in c:
            lines.append(f"    info: {c['info']}")
    return ("\n".join(lines) + "\n").encode()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line and return its exit code.  An exception no
    other handler expects is an internal error, exit 4, never exit 1,
    which says only that a check failed."""
    try:
        return _main(argv)
    except Exception as e:
        # imported only here: the module adds about a millisecond to every start
        import traceback
        print(f"internal error: unexpected {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a config error: one line at exit 2, no usage block
        raise ConfigError(message)


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = _Parser(
        prog="qkoszul",
        description="Run exact star-product and phase-space reduction check "
                    "suites on builtin or user-provided scenarios.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a JSON scenario config")
    source.add_argument("--scenario", help="builtin scenario name")
    source.add_argument("--list-scenarios", action="store_true")
    parser.add_argument("--lambda-order", type=int, help="truncation order override")
    parser.add_argument("--degree", type=int, help="sample degree override")
    parser.add_argument("--samples", type=int, help="sample count override")
    parser.add_argument("--seed", type=int, help="PRNG seed override")
    parser.add_argument("--format", choices=("json", "text"), default="json")

    try:
        args = parser.parse_args(argv)
        if args.list_scenarios:
            print("\n".join(sorted(SCENARIOS)))
            return 0
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = builtin_config(args.scenario)
        for key in ("lambda_order", "degree", "samples", "seed"):
            v = getattr(args, key)
            if v is not None:
                setattr(cfg, key, v)
        started = time.monotonic()
        report = run_scenario(cfg)
        elapsed = time.monotonic() - started
    except (ConfigError, TermLimitError, ExponentOverflowError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except AlgebraError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3

    payload = emit_report(report, args.format)
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)

    report_dir = os.environ.get("QK_REPORT_DIR")
    if report_dir:
        ext = "json" if args.format == "json" else "txt"
        path = os.path.join(report_dir, f"{cfg.name}.{ext}")
        try:
            os.makedirs(report_dir, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(payload)
        except OSError as e:
            # the OSError's own text would name the path a second time
            print(f"config error: cannot write report {path!r}: {e.strerror}", file=sys.stderr)
            return 2

    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
