"""Report entries.

Every check of a report is one entry: its ``name``, its ``status`` and, when
it fails, the ``witness`` of the first input it fails on.  A check is written
as a generator of witness dicts, one for each input that violates the
identity, and ``check`` reads no further than the first of them, so a check
stops at its first failure.  An identity on one sample at a time is a
predicate, and ``failures`` makes its generator, whose witness is the sample
alone.  A check that must fail is an ``expected_failure``, and a property
reported but not required is an ``info``."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List


def check(name: str, witnesses: Iterable[dict]) -> dict:
    """The entry of the check ``name``: a pass when ``witnesses`` is empty,
    else a fail carrying its first item.  Nothing after that item is
    consumed."""
    witness = next(iter(witnesses), None)
    if witness is None:
        return {"name": name, "status": "pass"}
    return {"name": name, "status": "fail", "witness": witness}


def failures(samples: Iterable, holds: Callable[..., bool], *columns: Iterable) -> Iterator[dict]:
    """The witness ``{"f": f.render()}`` of each sample f on which
    ``holds(f, *entries)`` is false, where ``entries`` are the items of
    ``columns`` at f's place.  Lazy: a sample is tested only when the
    witness before it has been read."""
    return ({"f": f.render()} for f, *entries in zip(samples, *columns)
            if not holds(f, *entries))


def expected_failure(name: str, witnesses: Iterable[dict]) -> dict:
    """The entry of a check that must fail: a pass carrying the first item
    of ``witnesses``, else a fail."""
    witness = next(iter(witnesses), None)
    if witness is None:
        return {"name": name, "status": "fail"}
    return {"name": name, "status": "pass", "witness": witness}


def info(name: str, text: str) -> dict:
    """The entry of a property reported but not required: a pass with ``text``."""
    return {"name": name, "status": "pass", "info": text}


def prefixed(suite: str, checks: List[dict]) -> List[dict]:
    """The entries of one suite, each name prefixed with the suite's."""
    return [{**c, "name": f"{suite}.{c['name']}"} for c in checks]
