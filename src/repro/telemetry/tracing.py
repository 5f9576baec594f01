"""Execution flight recorder: hierarchical spans, counters, run reports.

The execution core (five engines, a plan cache, a fault-tolerance
ladder) needs a DCDB-grade telemetry substrate: the paper's operations
story rests on "continuous and holistic collection of operational
metrics", and the measured-cost router that routes
device traffic (ROADMAP.md, "Route device traffic by measured cost")
trains on exactly the per-run feature vector captured here.

Design constraints, in order of importance:

1. **Zero RNG impact.** Tracing never draws random numbers and never
   changes instruction visit order — seeded counts are bit-identical
   with tracing on or off.
2. **Near-zero cost when off.** ``span()`` returns a single shared
   no-op context manager when no tracer is active (no allocation, no
   branch beyond one context-variable read), and ``count``/``note``
   return immediately.
3. **Context-local.** Whether a run is traced is the ``trace`` field
   of the request's :class:`~repro.simulator.config.ExecutionConfig`,
   and the active tracer lives in a context variable, so concurrent
   runs on different threads never write into each other's report.

Usage::

    with engine_mode("mps", trace=True):
        counts = sample_counts(qc, shots=1024, seed=7)
    report = tracing.last_report()
    store.record_execution(report, timestamp)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ExecutionReport",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "consume_last_report",
    "count",
    "exec_counters",
    "last_report",
    "note",
    "note_max",
    "run_scope",
    "span",
]

#: The tracer for the run executing in the current context, or ``None``.
#: Context-local like the :class:`~repro.simulator.config.ExecutionConfig`
#: it is armed from, so an untraced run on one thread never writes into
#: a traced run on another.
_ACTIVE: ContextVar[Optional["Tracer"]] = ContextVar(
    "repro_active_tracer", default=None
)

#: Most recent completed report, for ``last_report``/``consume_last_report``.
_LAST_REPORT: Optional["ExecutionReport"] = None

#: Process-cumulative counters for the DCDB plugin: every finished
#: traced run folds its totals in here so one collector cycle can
#: snapshot execution activity without holding individual reports.
_CUMULATIVE_LOCK = threading.Lock()
_CUMULATIVE: Dict[str, float] = {}


class _NoopSpan:
    """Shared do-nothing span used whenever tracing is inactive.

    A single module-level instance is handed out for *every* disabled
    ``span()`` call, so the disabled path allocates nothing — pinned by
    ``tests/test_tracing.py`` via an identity assertion.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class SpanRecord:
    """One node of the span tree: name, wall time, attributes, children."""

    __slots__ = ("name", "attrs", "children", "seconds")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.children: List["SpanRecord"] = []
        self.seconds = 0.0

    def set(self, **attrs: Any) -> "SpanRecord":
        """Attach attributes after entry (e.g. a result computed inside)."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterable["SpanRecord"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class Tracer:
    """Collects one run's span tree, counters, and scalar notes.

    Not thread-safe by design — a run executes on one thread and the
    active tracer is context-local.
    """

    def __init__(self) -> None:
        self.roots: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self.counters: Dict[str, int] = {}
        self.notes: Dict[str, Any] = {}
        self.max_notes: Dict[str, float] = {}

    @contextmanager
    def span(self, name: str, **attrs: Any):
        record = SpanRecord(name, attrs)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.roots.append(record)
        else:
            parent.children.append(record)
        self._stack.append(record)
        started = perf_counter()
        try:
            yield record
        finally:
            record.seconds = perf_counter() - started
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def note(self, key: str, value: Any) -> None:
        self.notes[key] = value

    def note_max(self, key: str, value: float) -> None:
        prev = self.max_notes.get(key)
        if prev is None or value > prev:
            self.max_notes[key] = value

    # -- aggregation ---------------------------------------------------

    def span_aggregates(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(name -> cumulative seconds, name -> entry count)`` over the
        span tree."""
        seconds: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for root in self.roots:
            for record in root.walk():
                seconds[record.name] = seconds.get(record.name, 0.0) + record.seconds
                counts[record.name] = counts.get(record.name, 0) + 1
        return seconds, counts


# -- module-level hot-path API ----------------------------------------


def span(name: str, **attrs: Any):
    """Open a hierarchical span on the active tracer; a shared no-op
    context manager when tracing is inactive."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


def count(name: str, amount: int = 1) -> None:
    """Bump a monotonic counter on the active tracer (no-op otherwise)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.count(name, amount)


def note(key: str, value: Any) -> None:
    """Record a scalar fact about the run (last write wins)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.note(key, value)


def note_max(key: str, value: float) -> None:
    """Record the running maximum of a scalar (e.g. peak bond dimension)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.note_max(key, value)


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE.get()


# -- run lifecycle -----------------------------------------------------


@dataclass(frozen=True)
class ExecutionReport:
    """Structured record of one sampling run — the feature vector the
    measured-cost router trains on."""

    engine: Optional[str]
    mode: Optional[str]
    num_qubits: Optional[int]
    shots: Optional[int]
    wall_seconds: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    span_counts: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    estimated_peak_bytes: Optional[int] = None
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    max_bond_dimension: Optional[int] = None
    truncation_error: Optional[float] = None
    resilience_events: Dict[str, int] = field(default_factory=dict)

    @property
    def plan_cache_hit(self) -> bool:
        return self.plan_cache_hits > 0 and self.plan_cache_misses == 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready flat dict (what REST attaches to finished jobs)."""
        return {
            "engine": self.engine,
            "mode": self.mode,
            "num_qubits": self.num_qubits,
            "shots": self.shots,
            "wall_seconds": self.wall_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "span_counts": dict(self.span_counts),
            "counters": dict(self.counters),
            "estimated_peak_bytes": self.estimated_peak_bytes,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_cache_hit": self.plan_cache_hit,
            "max_bond_dimension": self.max_bond_dimension,
            "truncation_error": self.truncation_error,
            "resilience_events": dict(self.resilience_events),
        }


def _build_report(tracer: Tracer, wall_seconds: float) -> ExecutionReport:
    seconds, span_counts = tracer.span_aggregates()
    notes = tracer.notes
    counters = dict(tracer.counters)
    resilience_events = {
        name: n for name, n in counters.items() if name.startswith("resilience.")
    }
    max_bond = tracer.max_notes.get("max_bond_dimension")
    trunc = tracer.max_notes.get("truncation_error")
    return ExecutionReport(
        engine=notes.get("engine"),
        mode=notes.get("mode"),
        num_qubits=notes.get("num_qubits"),
        shots=notes.get("shots"),
        wall_seconds=wall_seconds,
        phase_seconds=seconds,
        span_counts=span_counts,
        counters=counters,
        estimated_peak_bytes=notes.get("estimated_peak_bytes"),
        plan_cache_hits=counters.get("plan_cache.hits", 0),
        plan_cache_misses=counters.get("plan_cache.misses", 0),
        max_bond_dimension=None if max_bond is None else int(max_bond),
        truncation_error=None if trunc is None else float(trunc),
        resilience_events=resilience_events,
    )


def _fold_cumulative(report: ExecutionReport) -> None:
    with _CUMULATIVE_LOCK:
        c = _CUMULATIVE
        c["runs"] = c.get("runs", 0.0) + 1.0
        c["wall_seconds"] = c.get("wall_seconds", 0.0) + report.wall_seconds
        c["shots"] = c.get("shots", 0.0) + float(report.shots or 0)
        for name, n in report.counters.items():
            key = f"events.{name}"
            c[key] = c.get(key, 0.0) + float(n)


@contextmanager
def run_scope(name: str, *, enabled: bool, **attrs: Any):
    """Top-level scope for one sampling run.

    No-op unless *enabled* — the entry point passes its config's
    ``trace`` field (``engine_mode(trace=True)`` sets it), so whether a
    run is traced is decided once, at run entry; inner ``span()`` calls
    key off the active tracer.  If a tracer is already active (e.g. a
    ``run_with_fallback`` ladder around its per-mode ``sample_counts``
    calls) this opens a nested span instead of a second tracer, so one
    run yields exactly one :class:`ExecutionReport`.
    """
    global _LAST_REPORT
    if not enabled:
        yield None
        return
    active = _ACTIVE.get()
    if active is not None:
        with active.span(name, **attrs) as record:
            yield record
        return
    tracer = Tracer()
    token = _ACTIVE.set(tracer)
    started = perf_counter()
    try:
        with tracer.span(name, **attrs) as record:
            yield record
    finally:
        _ACTIVE.reset(token)
        report = _build_report(tracer, perf_counter() - started)
        _LAST_REPORT = report
        _fold_cumulative(report)


# -- report / counter access ------------------------------------------


def last_report() -> Optional[ExecutionReport]:
    """The report from the most recent traced run, if any."""
    return _LAST_REPORT


def consume_last_report() -> Optional[ExecutionReport]:
    """Return and clear the most recent report (so e.g. the scheduler
    attaches each run's report to exactly one job)."""
    global _LAST_REPORT
    report = _LAST_REPORT
    _LAST_REPORT = None
    return report


def exec_counters() -> Dict[str, float]:
    """Process-cumulative execution counters (for the DCDB plugin)."""
    with _CUMULATIVE_LOCK:
        return dict(_CUMULATIVE)


def reset_exec_counters() -> None:
    with _CUMULATIVE_LOCK:
        _CUMULATIVE.clear()
