"""The sizes of the package that ROADMAP.md tracks.  Printed, not a gate.

    python3 tests/sizes.py ROOT

prints, for the checkout at ROOT, the lines of ``src/qkoszul/*.py`` and of
``tests/*.py`` (as ``cat ... | wc -l`` counts them), each src module's code
lines and their total, and each src module's parser tokens and their
total.  A module past 8,192 parser tokens is marked, and annotated as a
GitHub Actions warning on its file: compiling one that large adds about
half a MiB to the peak RSS.

    python3 tests/sizes.py BASE HEAD

prints one GitHub Actions notice with the three sizes each change states,
at the checkout BASE and at HEAD: the lines of src, its code lines, and
the parser tokens of ``exact.py``.

Code lines are the lines that hold a token other than a comment or a
docstring, so that cut prose does not read as cut code.  Parser tokens are
the ``tokenize`` tokens other than COMMENT, NL and ENCODING.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = "src/qkoszul"
LIMIT = 8192
PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def tokens(source: bytes) -> list:
    return list(tokenize.tokenize(io.BytesIO(source).readline))


def code_lines(source: bytes) -> int:
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for t in tokens(source):
        if t.type not in PROSE:
            code.update(range(t.start[0], t.end[0] + 1))
    return len(code - docs)


def parser_tokens(source: bytes) -> int:
    return sum(t.type not in SKIP for t in tokens(source))


def modules(root: Path) -> list:
    """(path from ``root``, source) of each module of the package, in order."""
    return [(f"{PACKAGE}/{p.name}", p.read_bytes())
            for p in sorted((root / PACKAGE).glob("*.py"))]


def lines(root: Path, pattern: str) -> int:
    return sum(p.read_bytes().count(b"\n") for p in root.glob(pattern))


def report(root: Path) -> None:
    print(f"src:   {lines(root, PACKAGE + '/*.py')}")
    print(f"tests: {lines(root, 'tests/*.py')}")
    total = 0
    for path, source in modules(root):
        count = code_lines(source)
        total += count
        print(f"{count:6d} code lines {path}")
    print(f"{total:6d} code lines in src")
    total = 0
    for path, source in modules(root):
        count = parser_tokens(source)
        total += count
        print(f"{count:6d} {path}" + (f"  past {LIMIT}" if count > LIMIT else ""))
        if count > LIMIT:
            print(f"::warning file={path}::{count} parser tokens, past {LIMIT}")
    print(f"{total:6d} parser tokens in src")


def stated(root: Path) -> tuple:
    """The lines of src, its code lines and the parser tokens of exact.py."""
    sources = dict(modules(root))
    return (lines(root, PACKAGE + "/*.py"), sum(map(code_lines, sources.values())),
            parser_tokens(sources[f"{PACKAGE}/exact.py"]))


def compare(base: Path, head: Path) -> None:
    names = ("src lines", "code lines", "exact.py parser tokens")
    pairs = zip(names, stated(base), stated(head))
    print("::notice title=sizes::" + "; ".join(
        f"{name} {b:,} at base, {h:,} at head" for name, b, h in pairs))


if __name__ == "__main__":
    roots = [Path(a) for a in sys.argv[1:]]
    if len(roots) == 1:
        report(*roots)
    elif len(roots) == 2:
        compare(*roots)
    else:
        sys.exit("usage: sizes.py ROOT | sizes.py BASE HEAD")
