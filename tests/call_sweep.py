"""Which statements of the package no run of the program reaches.

``unreached`` lists every statement of the given modules, found in their
syntax trees, on none of whose lines ``run`` executed code under
``sys.settrace``.  A statement is named by its function, qualified by module
and class (the module alone at module level), and by the text of its first
line, so a name stays put when lines move; where that text starts more than
one statement of the function, the name adds the statement's occurrence, as
``return None [2]`` for the second, counted in source order.  An unreached
compound statement is listed once, without the statements inside it.

Some statements are exempt by their syntax, as no passing run takes them:

- a ``raise`` statement, with the statements before it in its block, which
  build its error;
- the body of an ``except`` handler;
- the ``if __name__ == "__main__":`` guard;
- a ``yield`` of a dict, the failure witness of a check.

A docstring, ``pass`` and a ``global`` or ``nonlocal`` declaration are not
counted, and neither is the ``def`` or ``class`` statement itself: its body
is.

Run as a script, it runs every builtin scenario through ``cli.main`` in
json and in text, one of them through ``--config``, one with the override
flags and one with ``QK_REPORT_DIR`` set, and ``--list-scenarios``; then the
first units of the dense workloads of ``bench/workloads.py``, through their
``build``, ``warm_up_units`` and ``run``; with ``--without-bench`` it skips
those units, so the statements that only the benchmark reaches are the ones
that list adds.  It prints the unreached statements of ``src/qkoszul`` as a
JSON list of [function, statement] pairs.  It needs a fresh interpreter: the
package must be imported under the trace, and the body of a
``functools.cache`` function runs only on a cache miss, so an earlier call
in the same process would hide whether the program reaches it.

    PYTHONPATH=src python tests/call_sweep.py [--without-bench]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qkoszul"
# the builtin that also runs from a config file: it sets b and mu, so it
# reads the most config fields
CONFIGURED = "s2-magnetic"
# the workloads whose units are products, and how many of each one's first
# round the sweep runs after its warm-up units.  The first 10 of star-dense,
# its Weyl and Wick units, reach every row of exact._mul_sum.  The results
# are not checked here; bench/run.py checks them
DENSE = {"star-dense": 10, "reduce-magnetic": 3, "stages-dense": 3}

Statement = Tuple[str, str]


def _exempt(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Raise, ast.Pass, ast.Global, ast.Nonlocal)):
        return True
    if isinstance(node, ast.Expr):
        value = node.value
        return (isinstance(value, ast.Constant) and isinstance(value.value, str)
                or isinstance(value, ast.Yield) and isinstance(value.value, ast.Dict))
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _statements(body: List[ast.stmt], scope: str) -> Iterator[Tuple[str, ast.stmt]]:
    """Every statement of ``body`` and of the blocks inside it, an except
    body and a match case included, with the function it belongs to."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _statements(node.body, f"{scope}.{node.name}")
            continue
        yield scope, node
        for block in (node, *getattr(node, "handlers", ()), *getattr(node, "cases", ())):
            for field in ("body", "orelse", "finalbody"):
                yield from _statements(getattr(block, field, []), scope)


def _walk(body: List[ast.stmt], lines: Set[int],
          names: Dict[ast.stmt, Statement]) -> Iterator[Statement]:
    """The statements of ``body`` and of the blocks inside it on none of
    whose ``lines`` code ran, each by its name in ``names``; an unreached
    statement's inner blocks are not walked."""
    if body and isinstance(body[-1], ast.Raise):
        return   # the statements before a raise build its error
    for node in body:
        if _exempt(node):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _walk(node.body, lines, names)
            continue
        if not lines.intersection(range(node.lineno, node.end_lineno + 1)):
            yield names[node]
            continue
        # an except body is exempt; its handler line is part of the try
        for field in ("body", "orelse", "finalbody"):
            yield from _walk(getattr(node, field, []), lines, names)
        for case in getattr(node, "cases", []):
            yield from _walk(case.body, lines, names)


def statements(path: Path, lines: Set[int]) -> List[Statement]:
    """The statements of the module at ``path`` on none of whose ``lines``
    code ran, in source order."""
    source = path.read_text(encoding="utf-8")
    tree, text = ast.parse(source), source.splitlines()
    every = [(scope, text[node.lineno - 1].strip(), node) for scope, node in sorted(
        _statements(tree.body, path.stem), key=lambda s: (s[1].lineno, s[1].col_offset))]
    total = Counter((scope, first) for scope, first, _ in every)
    seen: Counter = Counter()
    names: Dict[ast.stmt, Statement] = {}
    for scope, first, node in every:
        seen[scope, first] += 1
        names[node] = (scope, first if total[scope, first] == 1
                       else f"{first} [{seen[scope, first]}]")
    return list(_walk(tree.body, lines, names))


def unreached(paths: Iterable[Path], run: Callable[[], object]) -> List[Statement]:
    """The unreached statements of the modules at ``paths`` while ``run``
    runs, each name once, sorted."""
    paths = [Path(os.path.realpath(p)) for p in paths]
    hits: Dict[str, Set[int]] = {str(p): set() for p in paths}
    local_of: Dict[str, Callable] = {}

    def local_for(lines: Set[int]) -> Callable:
        add = lines.add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        # only frames of the swept files trace their lines
        name = frame.f_code.co_filename
        if name not in local_of:
            lines = hits.get(os.path.realpath(name))
            local_of[name] = None if lines is None else local_for(lines)
        return local_of[name]

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return sorted({s for p in paths for s in statements(p, hits[str(p)])})


def _cli(cli, argv: List[str]) -> None:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"qkoszul {' '.join(argv)} exited {code}")


def run_program(bench: bool = True) -> None:
    """The runs the module docstring lists, the dense workloads' units only
    with ``bench``; the imports run inside, so import-time statements count.
    A run that does not exit 0 stops the sweep."""
    from qkoszul import cli

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, f"{CONFIGURED}.json")
        config.write_text(json.dumps({"name": CONFIGURED, **cli.SCENARIOS[CONFIGURED]}),
                          encoding="utf-8")
        for name in sorted(cli.SCENARIOS):
            for fmt in ("json", "text"):
                _cli(cli, ["--scenario", name, "--format", fmt])
        _cli(cli, ["--config", str(config)])
        _cli(cli, ["--list-scenarios"])
        _cli(cli, ["--scenario", "s1p-single", "--lambda-order", "3", "--degree", "2",
                   "--samples", "4", "--seed", "7"])
        os.environ["QK_REPORT_DIR"] = str(Path(tmp, "reports"))
        try:
            _cli(cli, ["--scenario", "ce-heisenberg", "--format", "text"])
        finally:
            del os.environ["QK_REPORT_DIR"]

    if not bench:
        return
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name, count in DENSE.items():
        workload = workloads.WORKLOADS[name]()
        fixed = workload.build()
        for unit in workload.warm_up_units() + workload.units(1, 1)[:count]:
            workload.run(fixed, unit)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="List the statements no run reaches.")
    parser.add_argument("--without-bench", action="store_true",
                        help="skip the units of the dense benchmark workloads")
    bench = not parser.parse_args().without_bench
    print(json.dumps(unreached(sorted(PACKAGE.glob("*.py")), lambda: run_program(bench)),
                     indent=1))
