"""Every function the package defines is one the program calls.

``call_sweep.py`` runs every builtin scenario through the CLI in a fresh
interpreter and lists the module-level functions and class methods of
``src/qkoszul`` that no call reached.  Each one must be on ``ALLOWED``, with
the reason it stays; anything else is code only the tests reach, which is
either wired into a suite or deleted.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import call_sweep

SWEEP = Path(call_sweep.__file__).resolve()
SRC = SWEEP.parent.parent / "src"

ALLOWED = {
    # read by bench/, which builds inputs with them or wraps them by name
    "exact.gr": "bench/workloads.py and bench/selfcheck.py build coefficients with it",
    "exact.GaussianRational.__add__": "bench/tracing.py counts it by name",
    "exact.GaussianRational.__sub__": "bench/tracing.py counts it by name",
    "exact.GaussianRational.__mul__": "bench/tracing.py counts it by name",
    "exact.MultiPoly.__init__": "bench/workloads.py and bench/selfcheck.py build inputs "
                                "from exponent tuples",
    "exact.MultiPoly.terms": "bench/tracing.py counts terms by len(p.terms)",
    "exact.MultiPoly.diff": "bench/tracing.py wraps it by name",
    "exact.LambdaSeries.__hash__": "defined beside __eq__; bench/tracing.py keys "
                                   "restrictions by series",
    # failure and error paths, which a passing builtin never takes
    "exact._overflow": "the error of an exponent past its slot",
    "koszul.basis_label": "labels the basis elements of a failing chain's witness",
    "koszul.KoszulChain.render": "writes a failing chain's witness",
    # reprs
    "exact.MultiPoly.__repr__": "the repr, for debugging and test output",
    "exact.LambdaSeries.__repr__": "the repr, for debugging and test output",
}


def test_every_function_is_called_by_a_builtin_or_allowed():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, str(SWEEP)], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    uncalled = set(json.loads(run.stdout))
    assert sorted(uncalled - ALLOWED.keys()) == [], \
        "no builtin calls these: wire each into a suite or delete it"
    assert sorted(ALLOWED.keys() - uncalled) == [], \
        "these are called or gone: take them off ALLOWED"


def test_the_sweep_reports_a_function_defined_but_never_called(tmp_path):
    path = tmp_path / "demo.py"
    path.write_text(textwrap.dedent("""\
        import functools


        def used():
            return helper()


        @functools.cache
        def helper():
            return 1


        def unused():
            return 2


        class K:
            @staticmethod
            def called():
                return used()

            def never(self):
                return 3
        """), encoding="utf-8")
    spec = importlib.util.spec_from_file_location("demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert call_sweep.uncalled([path], demo.K.called) == ["demo.K.never", "demo.unused"]
