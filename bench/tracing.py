"""Per-layer figures for the traced run, taken from outside the program.

``Tracer.install`` replaces qkoszul's public functions and methods with
wrappers wherever they are looked up: class attributes, and every module
attribute bound to the function (so ``stages.quantum_restriction``, bound by
``from .koszul import quantum_restriction``, is wrapped too).  Install it
before the workload builds its objects, because some products capture the
functions they call when they are built.

A span records calls and self time: its wall time minus the wall time of
the spans it encloses.  Hot coefficient operations are only counted.
Every figure is a total over the traced run (one set-up and every unit).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

SPANS_WITH_CALLS = (
    "exact.mul", "exact.substitute", "exact.diff", "exact.with_vars",
    "phase_space.eval_poly",
    "koszul.quantum_restriction", "koszul.restriction", "koszul.classical_homotopy",
    "koszul.koszul_boundary", "koszul.quantum_koszul_boundary", "koszul.quantum_homotopy",
    "reduction.homological", "reduction.knp", "reduction.split_r",
    "stages.two_stage",
)
SPANS_SELF_ONLY = (
    "phase_space.check_star_axioms",
    "lie.check_quantum_momentum_map", "lie.check_classical_equivariance",
    "koszul.verify_complex_identities",
    "reduction.build_shifted_context",
    "stages.pipeline_build", "stages.build_compatible_prolongations",
    "sampling.sample",
    "cli.run_scenario",
    *(f"cli.suite.{s}" for s in ("axioms", "momentum", "complex", "reduction",
                                  "knp", "stages", "ce")),
    "cli.conventions", "cli.emit_report",
)
COUNTS = (
    "exact.mul.term_pairs", "exact.mul.max_terms",
    "exact.coef_mul.calls", "exact.coef_add.calls",
    "exact.invert_unipotent.inversions", "exact.invert_unipotent.depth_sum",
    "exact.invert_unipotent.depth_max",
    "phase_space.eval.calls", "reduction.elevate_context.calls",
    "cli.report_bytes",
)
REPEATS = ("phase_space.eval_poly", "koszul.quantum_restriction")


def metric_specs() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric; all are better lower except
    the traced throughput."""
    specs = []
    for s in SPANS_WITH_CALLS:
        specs += [(f"{s}.calls", "count"), (f"{s}.self_s", "s")]
    specs += [(f"{s}.self_s", "s") for s in SPANS_SELF_ONLY]
    specs += [(c, "count") for c in COUNTS]
    specs += [(f"{s}.repeat_ratio", "ratio") for s in REPEATS]
    specs.append(("trace.units_per_s", "1/s"))
    return specs


def _nterms(p) -> int:
    return len(p.terms)


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._seen: Dict[str, set] = defaultdict(set)
        self._repeats: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []     # child time of each open span
        # id(product) -> (product, span name); the product is kept alive so
        # that its id is not reused
        self._tags: Dict[int, Tuple[object, str]] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn: Callable, key: Callable = None) -> Callable:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        seen, repeats = self._seen[name], self._repeats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(*args, **kwargs)
                if k in seen:
                    repeats[name] += 1
                else:
                    seen.add(k)
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dur
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every replaced attribute back.  Objects built while the
        tracer was installed keep the wrappers they captured."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def install(self) -> None:
        import qkoszul
        from qkoszul import cli, exact, koszul, lie, phase_space, reduction, sampling, stages
        modules = [qkoszul, cli, exact, koszul, lie, phase_space, reduction, sampling, stages]
        counts = self.counts

        def rebind(orig, new):
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._set(m, k, new)

        def wrap_fn(module, attr, name, key=None):
            rebind(getattr(module, attr), self.span(name, getattr(module, attr), key))

        def wrap_method(cls, attr, name, key=None):
            self._set(cls, attr, self.span(name, cls.__dict__[attr], key))

        # exact
        MP, GR = exact.MultiPoly, exact.GaussianRational
        mul = self.span("exact.mul", MP.__mul__)

        def traced_mul(a, b):
            counts["exact.mul.term_pairs"] += _nterms(a) * _nterms(b)
            out = mul(a, b)
            if _nterms(out) > counts["exact.mul.max_terms"]:
                counts["exact.mul.max_terms"] = _nterms(out)
            return out
        self._set(MP, "__mul__", traced_mul)
        wrap_method(MP, "substitute", "exact.substitute")
        wrap_method(MP, "diff", "exact.diff")
        wrap_method(MP, "with_vars", "exact.with_vars")
        self._set(GR, "__mul__", self.counter("exact.coef_mul.calls", GR.__mul__))
        self._set(GR, "__add__", self.counter("exact.coef_add.calls", GR.__add__))
        self._set(GR, "__sub__", self.counter("exact.coef_add.calls", GR.__sub__))

        invert = exact.invert_unipotent

        def traced_invert(raiser, order):
            depth = []

            def counted(x):
                depth[-1] += 1
                return raiser(x)
            inverse = invert(counted, order)

            def traced_inverse(x):
                depth.append(0)
                try:
                    return inverse(x)
                finally:
                    d = depth.pop()
                    counts["exact.invert_unipotent.inversions"] += 1
                    counts["exact.invert_unipotent.depth_sum"] += d
                    if d > counts["exact.invert_unipotent.depth_max"]:
                        counts["exact.invert_unipotent.depth_max"] = d
            return traced_inverse
        rebind(invert, traced_invert)

        # phase_space: products made by reduced_star, knp_reduced_star and the
        # second stage of a pipeline get a nested span of their own
        SP = phase_space.StarProduct
        orig_eval_poly = SP.eval_poly
        tags = self._tags

        def product_key(star, f, g, order):
            return (star, f, g, order)
        plain = self.span("phase_space.eval_poly", orig_eval_poly, product_key)
        tagged = {name: self.span("phase_space.eval_poly",
                                  self.span(name, orig_eval_poly), product_key)
                  for name in ("reduction.homological", "reduction.knp",
                               "stages.two_stage")}

        def eval_poly(star, f, g, order):
            hit = tags.get(id(star))
            return (plain if hit is None else tagged[hit[1]])(star, f, g, order)
        self._set(SP, "eval_poly", eval_poly)
        self._set(SP, "eval", self.counter("phase_space.eval.calls", SP.eval))
        wrap_fn(phase_space, "check_star_axioms", "phase_space.check_star_axioms")

        def tagging(attr, name):
            orig = getattr(reduction, attr)

            def wrapper(*args, **kwargs):
                product = orig(*args, **kwargs)
                tags[id(product)] = (product, name)
                return product
            rebind(orig, wrapper)
        tagging("reduced_star", "reduction.homological")
        tagging("knp_reduced_star", "reduction.knp")

        # lie
        wrap_fn(lie, "check_quantum_momentum_map", "lie.check_quantum_momentum_map")
        wrap_fn(lie, "check_classical_equivariance", "lie.check_classical_equivariance")

        # koszul
        wrap_fn(koszul, "quantum_restriction", "koszul.quantum_restriction",
                key=lambda f, ctx: (ctx, f))
        for attr in ("restriction", "classical_homotopy", "koszul_boundary",
                     "quantum_koszul_boundary", "quantum_homotopy",
                     "verify_complex_identities"):
            wrap_fn(koszul, attr, f"koszul.{attr}")

        # reduction
        rebind(reduction.elevate_context,
               self.counter("reduction.elevate_context.calls", reduction.elevate_context))
        wrap_method(reduction.CotangentSplit, "r", "reduction.split_r")
        wrap_fn(reduction, "build_shifted_context", "reduction.build_shifted_context")

        # stages
        build = self.span("stages.pipeline_build", stages.StagePipeline.__init__)

        def pipeline_init(pipe, *args, **kwargs):
            build(pipe, *args, **kwargs)
            tags[id(pipe.star_red2)] = (pipe.star_red2, "stages.two_stage")
        self._set(stages.StagePipeline, "__init__", pipeline_init)
        wrap_fn(stages, "build_compatible_prolongations",
                "stages.build_compatible_prolongations")

        # sampling
        wrap_fn(sampling, "sample_polys", "sampling.sample")
        wrap_fn(sampling, "sample_pairs", "sampling.sample")

        # cli
        wrap_fn(cli, "run_scenario", "cli.run_scenario")
        for suite in ("axioms", "momentum", "complex", "reduction", "knp", "stages", "ce"):
            wrap_fn(cli, f"suite_{suite}", f"cli.suite.{suite}")
        wrap_fn(cli, "conventions", "cli.conventions")
        emit = self.span("cli.emit_report", cli.emit_report)

        def emit_report(*args, **kwargs):
            out = emit(*args, **kwargs)
            counts["cli.report_bytes"] += len(out)
            return out
        rebind(cli.emit_report, emit_report)

    # -- results --------------------------------------------------------

    def metrics(self, units_per_s: float) -> Dict[str, dict]:
        out = {}
        for name, unit in metric_specs():
            span, _, field = name.rpartition(".")
            if name == "trace.units_per_s":
                value = units_per_s
            elif field == "self_s":
                value = self.self_s[span]
            elif field == "repeat_ratio":
                calls = self.calls[span]
                value = self._repeats[span] / calls if calls else 0.0
            elif name in COUNTS:
                value = self.counts[name]
            else:
                value = self.calls[span]
            out[name] = {"value": value, "unit": unit}
        return out
