"""Every statement the package holds is one the program reaches, and every
name a module of it imports is one that module reads.

``call_sweep.py`` runs every builtin scenario through the CLI, and the first
units of the dense benchmark workloads, in a fresh interpreter, and lists the
statements of ``src/qkoszul`` that no run reached.  Each one must be on
``ALLOWED``, keyed by its function and the text of its first line, with its
occurrence where that text repeats in the function, and with the reason it
stays; anything else is code only the tests reach, which is either
wired into a run or deleted.  The paper's general case stays for the tests
that build its inputs on purpose, and each of its reasons names them as
``tests/<file>.py::<name>``, which must be defined there.
"""

import ast
import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import call_sweep

SWEEP = Path(call_sweep.__file__).resolve()
SRC = SWEEP.parent.parent / "src"

# the paper's general case, which no run meets: each entry stays for the
# tests its reason names, which build such inputs on purpose
GENERAL_CASE = {
    ("koszul.quantum_homotopy", "return classical_homotopy(_corrected(x, ctx), ctx)"):
        "h (id - A)^{-1} on a context without T; only a stage-2 context lacks T, "
        "and no complex suite runs on one. "
        "tests/test_koszul.py::test_the_series_quantum_homotopy_equals_the_oracle "
        "holds it to the oracle",
    # the first return None of each, for a product without a matrix, is
    # reached by every stage-2 context
    ("koszul._conjugation", "return None [2]"):
        "no T for a matrix not symmetric on the p_a; the Weyl, Wick and std matrices "
        "are symmetric there. "
        "tests/test_koszul.py::test_contexts_without_T_take_the_series builds such a "
        "context to hold the series to T",
    ("koszul._deformation", "return None [2]"):
        "no closed-form ∂_q, and so no T, for a Jq_a other than J_a + λc_a with c_a "
        "constant; every run's Jq has that form. "
        "tests/test_koszul.py::test_contexts_without_T_take_the_series and "
        "tests/test_reduction.py::knp_contexts build such contexts to hold the "
        "series to T",
    ("exact.MultiPoly.as_constant", "return None"):
        "a polynomial that uses a variable: _conjugation's test of Jq's first-order "
        "term, which every run's Jq passes. "
        "tests/test_koszul.py::test_contexts_without_T_take_the_series and "
        "tests/test_reduction.py::knp_contexts build a Jq that fails it",
    ("phase_space._rank_one_terms", "C[k, l] = v"):
        "the fill-in of a general matrix; the Weyl, Wick and std matrices leave "
        "no nonzero residual entry. "
        "tests/test_phase_space.py::test_rank_one_terms_reproduce_the_matrix "
        "holds it to the lifted product on random matrices",
}

ALLOWED = {
    # read by bench/, which wraps or counts them by name
    ("exact.GaussianRational.__add__",
     "return GaussianRational(self.re + other.re, self.im + other.im)"):
        "bench/tracing.py counts it by name",
    ("exact.GaussianRational.__sub__",
     "return GaussianRational(self.re - other.re, self.im - other.im)"):
        "bench/tracing.py counts it by name",
    ("exact.GaussianRational.__mul__", "return GaussianRational("):
        "bench/tracing.py counts it by name",
    ("exact.MultiPoly.terms", "n, den = len(self.vars), self.den"):
        "bench/tracing.py counts terms by len(p.terms)",
    ("exact.MultiPoly.terms",
     "return {_unpack(k, n): gauss((r, i, den)) for k, (r, i) in self.nums.items()}"):
        "bench/tracing.py counts terms by len(p.terms)",
    ("exact.MultiPoly.diff", "s, mask = self._slot(var)"):
        "bench/tracing.py wraps it by name",
    ("exact.MultiPoly.diff",
     "return _canonical(self.vars, self.den, _derive(self.nums, ((s, 1 << s, mask, 1, 0),)))"):
        "bench/tracing.py wraps it by name",
    ("exact.LambdaSeries.__hash__", "return hash((self.order, self.poly))"):
        "defined beside __eq__; bench/tracing.py keys restrictions by series",
    # the old path of a closed form, kept as its oracle
    ("exact.LambdaSeries.__mul__", "self._check(other)"):
        "the pointwise product, which koszul_boundary's shift replaced; "
        "tests/test_koszul.py::test_the_closed_form_boundaries_equal_their_old_paths "
        "holds the shift to it",
    ("exact.LambdaSeries.__mul__",
     "return LambdaSeries(self.poly * other.poly, self.order).truncate(self.order)"):
        "the pointwise product, which koszul_boundary's shift replaced; "
        "tests/test_koszul.py::test_the_closed_form_boundaries_equal_their_old_paths "
        "holds the shift to it",
    # failure and error paths, which a passing run never takes
    ("exact._overflow",
     'return ExponentOverflowError(f"an exponent exceeds {_TOP}, the largest a "'):
        "builds the error of an exponent past its slot, which every caller raises",
    ("report.check", 'return {"name": name, "status": "fail", "witness": witness}'):
        "the entry of a failing check",
    ("report.expected_failure", 'return {"name": name, "status": "fail"}'):
        "the entry of a check that passes where it must fail",
    ("koszul.basis_label",
     'return "e_" + "^e_".join(str(i) for i in key) if key else "()"'):
        "labels the basis elements of a failing chain's witness",
    ("koszul.KoszulChain.render",
     'return " ; ".join(f"[{basis_label(key)}] {self.terms[key].render()}"'):
        "writes a failing chain's witness",
    **GENERAL_CASE,
    # edge values of the exact layer, whose results the runs never need
    ("exact.MultiPoly.scale", "return MultiPoly.zero(self.vars)"):
        "scaling by zero, which no run does",
    ("exact.LambdaSeries.from_poly", "return LambdaSeries.zero(p.vars, order)"):
        "a λ-shift past the order; every run embeds at λ^0 or λ^1 of an order of "
        "at least 1",
    ("exact.LambdaSeries.truncate",
     "p = _canonical(p.vars, p.den, {k: v for k, v in p.nums.items() if k < bound})"):
        "a power past the new order; every run holds Jq at its context's order, and "
        "its pointwise products multiply by the λ-free J",
    ("exact.star_exponential", "return LambdaSeries.zero(f.vars, L) [1]"):
        "a zero factor; no run multiplies one",
    ("exact.star_exponential", "return LambdaSeries.zero(f.vars, L) [2]"):
        "factors whose lowest powers of λ sum past the order; no run multiplies "
        "such a pair",
    # cache bounds, which no run reaches by design
    ("exact._extend", "table.clear()"): "a walk table past MAX_TERMS keys",
    ("exact._extend", "new = keys"): "a walk table past MAX_TERMS keys",
    ("exact._walk_layout", "layouts.clear()"): "the walk layouts past MAX_LAYOUTS",
    ("phase_space.StarProduct.over", "self.restricted.clear()"):
        "a product's restrictions past MAX_LAYOUTS variable lists",
    # reprs
    ("exact.MultiPoly.__repr__", 'return f"MultiPoly({self.render()})"'):
        "the repr, for debugging and test output",
    ("exact.LambdaSeries.__repr__", 'return f"LambdaSeries({self.render()!r})"'):
        "the repr, for debugging and test output",
}


def unread_imports(source: str) -> list:
    """The names that the module ``source`` binds by an import and never
    reads, sorted.  A name listed in its ``__all__`` counts as read, and
    ``from __future__`` binds none."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


@functools.cache
def sweep(*flags: str) -> frozenset:
    """The unreached statements that ``call_sweep.py`` lists with ``flags``."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, str(SWEEP), *flags],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    return frozenset(tuple(s) for s in json.loads(run.stdout))


def test_every_statement_is_reached_by_a_run_or_allowed():
    unreached = sweep()
    assert sorted(unreached - ALLOWED.keys()) == [], \
        "no run reaches these: wire each into a run or delete it"
    assert sorted(ALLOWED.keys() - unreached) == [], \
        "these are reached or gone: take them off ALLOWED"


def test_the_sweep_without_the_benchmark_reaches_no_more():
    # what the flagged list adds is what only the benchmark reaches
    assert sorted(sweep() - sweep("--without-bench")) == []


def test_every_name_a_module_imports_is_read_there():
    unread = {path.name: names for path in sorted((SRC / "qkoszul").glob("*.py"))
              if (names := unread_imports(path.read_text(encoding="utf-8")))}
    assert unread == {}, "these imports are never read: drop them"


def test_an_import_never_read_is_caught():
    source = textwrap.dedent("""\
        from __future__ import annotations

        import os.path
        from typing import List, Tuple
        from .exact import MultiPoly as Poly, rational

        __all__ = ["rational"]


        def size(x: List[int]) -> int:
            return len(x)
        """)
    assert unread_imports(source) == ["Poly", "Tuple", "os"]


CITED = re.compile(r"tests/(\w+\.py)::(\w+)")


def test_each_general_case_entry_cites_a_test():
    assert all(CITED.search(reason) for reason in GENERAL_CASE.values())


def test_each_cited_test_is_defined_in_its_file():
    # read with ast, so that the check imports nothing
    tests = SWEEP.parent
    for reason in ALLOWED.values():
        for file, name in CITED.findall(reason):
            tree = ast.parse((tests / file).read_text(encoding="utf-8"))
            defined = {node.name for node in ast.walk(tree) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
            assert name in defined, f"tests/{file}::{name} is cited but not defined"


def test_the_sweep_reports_the_one_statement_no_run_reaches(tmp_path):
    path = tmp_path / "demo.py"
    path.write_text(textwrap.dedent("""\
        import functools


        def used(x):
            \"\"\"Every statement of it runs, or is exempt.\"\"\"
            if x is None:
                message = "no x"
                raise ValueError(message)
            try:
                y = helper() + x
            except TypeError:
                y = 0
            if y < 0:
                yield {"witness": y}
            elif y > 100:
                pass
            return y


        @functools.cache
        def helper():
            return 1


        class K:
            @staticmethod
            def called():
                out = list(used(1))
                if not out:
                    return "empty"
                return "planted"


        if __name__ == "__main__":
            K.called()
        """), encoding="utf-8")

    def run():
        # the import runs under the trace, so the module's own statements count
        spec = importlib.util.spec_from_file_location("demo", path)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        demo.K.called()

    assert call_sweep.unreached([path], run) == [("demo.K.called", 'return "planted"')]


def test_a_repeated_statement_is_named_by_its_occurrence(tmp_path):
    path = tmp_path / "demo.py"
    path.write_text(textwrap.dedent("""\
        def pick(x):
            if x:
                return None
            y = -x
            if y:
                return None
            return y
        """), encoding="utf-8")

    def run():
        spec = importlib.util.spec_from_file_location("demo", path)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        demo.pick(1)
        demo.pick(0)

    # the first return None runs; the second, with the same text, does not
    assert call_sweep.unreached([path], run) == [("demo.pick", "return None [2]")]
