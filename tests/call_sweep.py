"""Which functions of the package no run of the program reaches.

``uncalled`` lists every module-level function and every method of a
module-level class, found in the modules' syntax trees, whose code object
no call reached while ``run`` ran under ``sys.setprofile``.  A function is
known by its file, its first line (that of its first decorator, if any) and
its name, so nested functions, lambdas and comprehensions count for nothing.

Run as a script, it runs every builtin scenario through ``cli.main`` in
json and in text, and one of them through ``--config``, and prints the
uncalled functions of ``src/qkoszul`` as a JSON list of names such as
``exact.MultiPoly.diff``.  It needs a fresh interpreter: the body of a
``functools.cache`` function runs only on a cache miss, so an earlier call
in the same process would hide whether the program reaches it.

    PYTHONPATH=src python tests/call_sweep.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkoszul"
# the builtin that also runs from a config file: it sets b and mu, so it
# reads the most config fields
CONFIGURED = "s2-magnetic"

Key = Tuple[str, int, str]


def definitions(paths: Iterable[Path]) -> Dict[Key, str]:
    """(file, first line, name) of each module-level function and method
    of a module-level class, to its name qualified by module and class."""
    out: Dict[Key, str] = {}
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in paths:
        path = os.path.realpath(path)
        module = Path(path).stem
        scopes = [(module, ast.parse(Path(path).read_text(encoding="utf-8")).body)]
        for node in scopes[0][1]:
            if isinstance(node, ast.ClassDef):
                scopes.append((f"{module}.{node.name}", node.body))
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, funcs):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    out[path, first, node.name] = f"{prefix}.{node.name}"
    return out


def uncalled(paths: Iterable[Path], run: Callable[[], object]) -> List[str]:
    """The sorted names of the functions of ``paths`` that ``run`` never
    calls."""
    defined = definitions(paths)
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    called = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in seen}
    return sorted(name for key, name in defined.items() if key not in called)


def run_builtins() -> None:
    """Every builtin through ``cli.main`` in both formats, and one through
    ``--config``; the import runs inside, so import-time calls count.  A
    run that does not exit 0 stops the sweep."""
    from qkoszul import cli

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, f"{CONFIGURED}.json")
        config.write_text(json.dumps({"name": CONFIGURED, **cli.SCENARIOS[CONFIGURED]}),
                          encoding="utf-8")
        runs = [["--scenario", name, "--format", fmt]
                for name in sorted(cli.SCENARIOS) for fmt in ("json", "text")]
        runs.append(["--config", str(config)])
        for argv in runs:
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"qkoszul {' '.join(argv)} exited {code}")


if __name__ == "__main__":
    print(json.dumps(uncalled(sorted(PACKAGE.glob("*.py")), run_builtins), indent=1))
