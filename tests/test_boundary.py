"""The monomial key format and the Gaussian-rational type stay inside
``qkoszul.exact``.

No other module of the package calls ``_layout`` or reads a polynomial's
``nums`` or ``den``, and none imports a private name from ``exact``, except
``sampling``, whose sampler builds its keys through ``_pack`` and
``_canonical``.  Other modules name variables by name or by position, and
hand coefficients over as ints, Fractions and (re, im, den) triples, which
``exact.gauss`` reads: no module but ``exact``, not even the package's
``__init__``, imports or names ``GaussianRational``, ``gr``, ``GR_I`` or
``GR_MINUS_I``.

The slot width ``SLOT_BITS`` is a constant: the caches of ``exact`` do not
key by it, so no test module may set it."""

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

from qkoszul import exact, koszul, phase_space

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qkoszul"
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


GAUSSIAN = {"GaussianRational", "gr", "GR_I", "GR_MINUS_I"}


def gaussian_names(source: str) -> list:
    """Every place in ``source`` that imports or names a name of
    ``GAUSSIAN``: an import of it, or of everything, from ``exact``; a name;
    an attribute; and a string, as ``getattr`` takes it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in GAUSSIAN
                      or a.name == "*" and node.module in ("exact", "qkoszul.exact")]
        elif isinstance(node, ast.Name) and node.id in GAUSSIAN:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in GAUSSIAN:
            found.append(node.attr)
        elif isinstance(node, ast.Constant) and node.value in GAUSSIAN:
            found.append(node.value)
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "exact"),
                         ids=lambda p: p.stem)
def test_no_module_but_exact_names_a_gaussian_rational(path):
    assert gaussian_names(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_way_to_name_a_gaussian_rational():
    source = ("from .exact import GR_I, gr as g\n"
              "from qkoszul.exact import *\n"
              "Matrix = Dict[int, GaussianRational]\n"
              "c = exact.gr(1) * exact.GR_MINUS_I\n"
              "make = getattr(exact, 'GaussianRational')\n"
              # other names, and the words of a docstring, are not caught
              "from .exact import gauss, render_gauss\n"
              "from . import exact\n"
              '"""GaussianRational is only the type of the entries."""\n'
              "grade = gauss((0, 1, 1))\n")
    assert sorted(gaussian_names(source)) == sorted(
        ["GR_I", "gr", "*", "GaussianRational", "gr", "GR_MINUS_I", "GaussianRational"])


def test_the_retired_readers_and_constants_are_gone():
    # i is the triple (0, 1, 1) where a module scales by it, and
    # _conjugation reads c_a through MultiPoly.as_constant, not the terms view
    assert not {"GR_I", "GR_MINUS_I"} & vars(exact).keys()
    assert not hasattr(phase_space, "_triple")
    tree = ast.parse(textwrap.dedent(inspect.getsource(koszul._conjugation)))
    assert [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "terms"] == []


def slot_width_settings(source: str) -> list:
    """The line of every place in ``source`` that may set ``SLOT_BITS``: an
    assignment to an attribute or an item of that name, and a call that
    names it in a string argument, such as ``setattr``, ``monkeypatch``'s
    ``setattr`` and ``setitem``, or a ``pytest.param`` whose attribute name
    a test then sets."""
    def names_it(node):
        return (isinstance(node, ast.Attribute) and node.attr == "SLOT_BITS"
                or isinstance(node, ast.Subscript) and names_it(node.slice)
                or isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.split(".")[-1] == "SLOT_BITS")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = [t for target in node.targets for t in ast.walk(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            targets = [a for a in node.args if isinstance(a, ast.Constant)]
        else:
            continue
        if any(map(names_it, targets)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.stem)
def test_no_test_sets_the_slot_width(path):
    assert slot_width_settings(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_way_to_set_the_slot_width():
    source = ("monkeypatch.setattr(exact, 'SLOT_BITS', 3)\n"
              "setattr(qkoszul.exact, 'SLOT_BITS', 3)\n"
              "monkeypatch.setattr('qkoszul.exact.SLOT_BITS', 3)\n"
              "exact.SLOT_BITS = 3\n"
              "exact.SLOT_BITS, n = 3, 2\n"
              "exact.SLOT_BITS += 1\n"
              "vars(exact)['SLOT_BITS'] = 3\n"
              "monkeypatch.setitem(vars(exact), 'SLOT_BITS', 3)\n"
              "pytest.param('SLOT_BITS', 3, id='narrow-slot')\n"
              # reads, and settings of other names
              "mask = (1 << exact.SLOT_BITS) - 1\n"
              "monkeypatch.setattr(exact, 'MAX_TERMS', 3)\n")
    assert slot_width_settings(source) == [1, 2, 3, 4, 5, 6, 7, 8, 9]
