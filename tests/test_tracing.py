"""The benchmark's tracer finds every name it wraps and puts each back."""

import importlib.util
import inspect
from pathlib import Path

import qkoszul
from qkoszul import cli, exact, koszul, lie, phase_space, reduction, sampling, stages

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = (qkoszul, cli, exact, koszul, lie, phase_space, reduction, sampling, stages)


def attributes():
    """Every module attribute and every class attribute of the package."""
    out = {}
    for m in MODULES:
        for k, v in vars(m).items():
            out[m.__name__, k] = v
            if inspect.isclass(v) and v.__module__.startswith("qkoszul"):
                for a, w in vars(v).items():
                    out[v.__qualname__, a] = w
    return out


def test_install_then_uninstall_restores_every_attribute():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = attributes()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        replaced = [k for k, v in attributes().items() if before.get(k) is not v]
        assert replaced
    finally:
        tracer.uninstall()
    after = attributes()
    assert after.keys() == before.keys()
    assert [k for k, v in after.items() if before[k] is not v] == []
