"""Span recording for the traced benchmark run.

The traced run wraps catent's public functions from the outside: every
binding of a wrapped function in a ``catent`` module namespace is
replaced (``catent.catfactory.apply`` as well as ``catent.locc.apply``),
and so are ``numpy.linalg.eigh`` and ``eigvalsh``.  No file of the
package changes, and the timed runs install no wrappers at all.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index
of the enclosing span in the same list, or -1 at the top level, and
``attrs`` holds the sizes measured at that boundary (Kraus counts,
dimensions, outcome counts) or None.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence


def _kraus_attrs(args, kwargs, out):
    k = out.kraus[0]
    return {"kraus": len(out.kraus), "bytes": len(out.kraus) * k.shape[0] * k.shape[1] * 16}


def _apply_attrs(args, kwargs, out):
    return {"kraus": len(args[0].kraus)}


def _state_attrs(args, kwargs, out):
    return {"dim": args[0].total_dim}


def _eig_attrs(args, kwargs, out):
    return {"dim": args[0].shape[-1]}


def _synth_attrs(args, kwargs, out):
    return {"outcomes": sum(len(s.instrument.outcomes) for s in out.steps)}


def _squashed_attrs(args, kwargs, out):
    budget = kwargs["search_budget"] if "search_budget" in kwargs else args[2]
    return {"rounds": budget}


def _mc_attrs(args, kwargs, out):
    samples = kwargs["samples"] if "samples" in kwargs else args[1]
    return {"copies": round(samples * out)}


# (module, attribute, span name, attrs at the boundary).  An attribute
# of the form "Class.method" is patched on the class.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("catent.cli", "run", "cli.run", None),
    ("catent.locc", "load_protocol", "io.load", None),
    ("catent.qstate", "load_state", "io.load", None),
    ("catent.catfactory", "build_catalyst", "catfactory.build", None),
    ("catent.catfactory", "verify_catalysis", "catfactory.verify", None),
    ("catent.catfactory", "iterate_reuse", "catfactory.reuse", None),
    ("catent.catfactory", "verify_marginal_reduction", "catfactory.reduce", None),
    ("catent.locc", "flatten", "locc.flatten", _kraus_attrs),
    ("catent.locc", "apply", "locc.apply", _apply_attrs),
    ("catent.locc", "apply_to_factors", "locc.apply_to_factors", _apply_attrs),
    ("catent.qstate", "QState.__init__", "qstate.state", _state_attrs),
    ("catent.qstate", "partial_trace", "qstate.partial_trace", None),
    ("catent.qstate", "trace_norm_dist", "qstate.metric", None),
    ("catent.qstate", "fidelity", "qstate.metric", None),
    ("catent.qstate", "von_neumann_entropy", "qstate.metric", None),
    ("catent.qstate", "is_pure", "qstate.metric", None),
    ("numpy.linalg", "eigh", "linalg.eig", _eig_attrs),
    ("numpy.linalg", "eigvalsh", "linalg.eig", _eig_attrs),
    ("catent.purecat", "synthesize_pure_protocol", "purecat.synth", _synth_attrs),
    ("catent.purecat", "majorizes", "purecat.majorize", None),
    ("catent.measures", "squashed_upper", "measures.squashed", _squashed_attrs),
    ("catent.measures", "cqmi", "measures.cqmi", None),
    ("catent.measures", "decoupling_check", "measures.decoupling", None),
    ("catent.measures", "compose_superadditive", "measures.superadd", None),
    ("catent.measures", "hashing_bounds", "measures.hashing", None),
    ("catent.distill", "expected_copies_mc", "distill.mc", _mc_attrs),
    ("catent.distill", "distill_to", "distill.run", None),
)


class Tracer:
    """In-memory span recorder; single-threaded, like the benchmark."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def wrap(self, fn: Callable, name: str, attrs: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, _, _, _ in targets:
            importlib.import_module(module_name)
        namespaces = [m for n, m in sys.modules.items() if n == "catent" or n.startswith("catent.")]
        for module_name, attr, name, attrs in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(getattr(cls, meth), name, attrs))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, attrs)
            for ns in [module] + namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


# ---------------------------------------------------------------------------
# derived quantities


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class SpanStats:
    """Per-name totals over one list of spans."""

    def __init__(self, spans: Sequence[Sequence]) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.attr_sum: dict[tuple[str, str], float] = {}
        self.attr_max: dict[tuple[str, str], float] = {}
        selfs = self_times(spans)
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[i]
            if not _has_ancestor_named(spans, parent, name):
                self.busy[name] = self.busy.get(name, 0.0) + (end - start)
            for key, value in (attrs or {}).items():
                k = (name, key)
                self.attr_sum[k] = self.attr_sum.get(k, 0) + value
                self.attr_max[k] = max(self.attr_max.get(k, value), value)


def _has_ancestor_named(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _calls(n):
    return lambda st: st.calls.get(n, 0)


def _busy(n):
    return lambda st: st.busy.get(n, 0.0)


def _self(n):
    return lambda st: st.self_s.get(n, 0.0)


def _sum(n, key):
    return lambda st: st.attr_sum.get((n, key), 0)


def _max(n, key):
    return lambda st: st.attr_max.get((n, key), 0)


# name -> (unit, better, value from one traced pass's SpanStats)
LAYER_METRICS: dict[str, tuple[str, str, Callable[[SpanStats], float]]] = {
    "locc.flatten_calls": ("count", "lower", _calls("locc.flatten")),
    "locc.flatten_s": ("s", "lower", _busy("locc.flatten")),
    "locc.flatten_kraus_max": ("count", "lower", _max("locc.flatten", "kraus")),
    "locc.flatten_kraus_total": ("count", "lower", _sum("locc.flatten", "kraus")),
    "locc.flatten_bytes": ("B", "lower", _sum("locc.flatten", "bytes")),
    "locc.apply_calls": ("count", "lower", _calls("locc.apply")),
    "locc.apply_s": ("s", "lower", _busy("locc.apply")),
    "locc.apply_kraus_total": ("count", "lower", _sum("locc.apply", "kraus")),
    "locc.apply_to_factors_s": ("s", "lower", _busy("locc.apply_to_factors")),
    "qstate.state_calls": ("count", "lower", _calls("qstate.state")),
    "qstate.state_s": ("s", "lower", _busy("qstate.state")),
    "qstate.state_max_dim": ("dim", "lower", _max("qstate.state", "dim")),
    "qstate.partial_trace_calls": ("count", "lower", _calls("qstate.partial_trace")),
    "qstate.partial_trace_s": ("s", "lower", _busy("qstate.partial_trace")),
    "qstate.metric_calls": ("count", "lower", _calls("qstate.metric")),
    "qstate.metric_s": ("s", "lower", _busy("qstate.metric")),
    "linalg.eig_calls": ("count", "lower", _calls("linalg.eig")),
    "linalg.eig_s": ("s", "lower", _busy("linalg.eig")),
    "linalg.eig_max_dim": ("dim", "lower", _max("linalg.eig", "dim")),
    "purecat.synth_calls": ("count", "lower", _calls("purecat.synth")),
    "purecat.synth_s": ("s", "lower", _busy("purecat.synth")),
    "purecat.synth_outcomes_max": ("count", "lower", _max("purecat.synth", "outcomes")),
    "purecat.majorize_calls": ("count", "lower", _calls("purecat.majorize")),
    "purecat.majorize_s": ("s", "lower", _busy("purecat.majorize")),
    "measures.squashed_s": ("s", "lower", _busy("measures.squashed")),
    "measures.squashed_rounds": ("count", "lower", _sum("measures.squashed", "rounds")),
    "measures.cqmi_calls": ("count", "lower", _calls("measures.cqmi")),
    "measures.decoupling_calls": ("count", "lower", _calls("measures.decoupling")),
    "measures.decoupling_s": ("s", "lower", _busy("measures.decoupling")),
    "measures.superadd_s": ("s", "lower", _busy("measures.superadd")),
    "measures.hashing_s": ("s", "lower", _busy("measures.hashing")),
    "distill.mc_s": ("s", "lower", _busy("distill.mc")),
    "distill.mc_copies": ("count", "lower", _sum("distill.mc", "copies")),
    "distill.run_s": ("s", "lower", _busy("distill.run")),
    "catfactory.build_s": ("s", "lower", _busy("catfactory.build")),
    "catfactory.build_self_s": ("s", "lower", _self("catfactory.build")),
    "catfactory.verify_s": ("s", "lower", _busy("catfactory.verify")),
    "catfactory.verify_self_s": ("s", "lower", _self("catfactory.verify")),
    "catfactory.reuse_s": ("s", "lower", _busy("catfactory.reuse")),
    "catfactory.reuse_self_s": ("s", "lower", _self("catfactory.reuse")),
    "catfactory.reduce_s": ("s", "lower", _busy("catfactory.reduce")),
    "cli.run_s": ("s", "lower", _busy("cli.run")),
    "cli.self_s": ("s", "lower", _self("cli.run")),
    "io.load_s": ("s", "lower", _busy("io.load")),
}


def layer_metrics(passes: Iterable[Sequence[Sequence]]) -> dict[str, float]:
    """Median over traced passes of every layer metric."""
    stats = [SpanStats(spans) for spans in passes]
    return {
        name: statistics.median(fn(st) for st in stats)
        for name, (_, _, fn) in LAYER_METRICS.items()
    }
