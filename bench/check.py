"""Comparison of operation reports against the frozen reference corpus.

Numbers must agree within ``ATOL`` (absolute), booleans, strings and
``None`` exactly, and lists and objects in shape.  The ``versions``
block of a CLI report names the interpreter and numpy of the machine
that ran it, so it is left out.
"""

from __future__ import annotations

import json

ATOL = 1e-9
IGNORED_KEYS = frozenset({"versions"})


def normalize(report: dict) -> dict:
    """The report as JSON would carry it (tuples become lists)."""
    return json.loads(json.dumps(report, allow_nan=False))


def compare(got, want, atol: float = ATOL, path: str = "$") -> list[str]:
    """Every mismatch between ``got`` and ``want``, one line each."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return [] if abs(got - want) <= atol else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        keys = set(want) | set(got)
        out = []
        for key in sorted(keys - IGNORED_KEYS):
            if key not in got or key not in want:
                out.append(f"{path}.{key}: present on one side only")
            else:
                out += compare(got[key], want[key], atol, f"{path}.{key}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, atol, f"{path}[{i}]")
        return out
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]
