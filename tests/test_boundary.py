"""The monomial key format stays inside ``qkoszul.exact``.

No other module of the package calls ``_layout`` or reads a polynomial's
``nums`` or ``den``, and none imports a private name from ``exact``, except
``sampling``, whose sampler builds its keys through ``_pack`` and
``_canonical``.  Other modules name variables by name or by position, and
hand coefficients over as (re, im, den) triples."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qkoszul"
PRIVATE_IMPORTS = {"sampling": {"_pack", "_canonical"}}
FIELDS = {"nums", "den", "_layout"}


def crossings(source: str, module: str) -> list:
    """Every place in ``source`` where ``module`` reaches into the key
    format: a private name imported from ``exact`` beyond those it is
    allowed, a ``_layout`` call by name, and an attribute of ``FIELDS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("exact", "qkoszul.exact"):
            found += [a.name for a in node.names if a.name.startswith("_")
                      and a.name not in PRIVATE_IMPORTS.get(module, ())]
        elif isinstance(node, ast.Attribute) and (
                node.attr in FIELDS or isinstance(node.value, ast.Name)
                and node.value.id == "exact" and node.attr.startswith("_")):
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id == "_layout":
            found.append(node.id)
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "exact"),
                         ids=lambda p: p.stem)
def test_no_module_but_exact_knows_the_key_format(path):
    assert crossings(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_check_sees_each_kind_of_crossing():
    source = ("from .exact import _layout, _wrap, _pack\n"
              "import qkoszul.exact as exact\n"
              "shifts = _layout(3)[0]\n"
              "k = f.poly.nums, f.poly.den, exact._sum\n")
    assert sorted(crossings(source, "koszul")) == \
        sorted(["_layout", "_wrap", "_pack", "_layout", "nums", "den", "_sum"])
    # sampling may import its two encoder names, and only those
    assert sorted(crossings(source, "sampling")) == \
        sorted(["_layout", "_wrap", "_layout", "nums", "den", "_sum"])
