"""Execution flight recorder: hierarchical spans, counters, run reports.

The execution core (five engines, a plan cache, shot sharding, a
fault-tolerance ladder) needs a DCDB-grade telemetry substrate: the
paper's operations story rests on "continuous and holistic collection
of operational metrics", and the adaptive-routing work in ROADMAP item 5
trains on exactly the per-run feature vector captured here.

Design constraints, in order of importance:

1. **Zero RNG impact.** Tracing never draws random numbers and never
   changes instruction visit order — seeded counts are bit-identical
   with tracing on or off.
2. **Near-zero cost when off.** ``span()`` returns a single shared
   no-op context manager when no tracer is active (no allocation, no
   branch beyond one global load), and ``count``/``note`` return
   immediately.
3. **Fork-safe.** Whether a run is traced is the ``trace`` field of
   the request's :class:`~repro.simulator.config.ExecutionConfig`, and
   shard block tasks carry that config to their workers; workers open a
   fresh tracer per block and ship a picklable summary back alongside
   the block's ``Counts``, which the parent merges ``Counts.merge``-style
   — traces survive worker kills because every completed block carries
   its own summary.

Usage::

    with engine_mode("mps", trace=True):
        counts = sample_counts(qc, shots=1024, seed=7)
    report = tracing.last_report()
    store.record_execution(report, timestamp)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "ExecutionReport",
    "SpanRecord",
    "Tracer",
    "absorb_block_summaries",
    "active_tracer",
    "block_trace",
    "consume_last_report",
    "count",
    "exec_counters",
    "last_report",
    "note",
    "note_max",
    "run_scope",
    "span",
]

#: The tracer for the run currently executing in this process, or
#: ``None``.  Module-global (not thread/context local) on purpose: shard
#: workers are forked processes, and the sampler itself is not
#: re-entrant within a process.
_ACTIVE: Optional["Tracer"] = None

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

    Not thread-safe by design — a run executes on one thread (workers
    are separate processes with their own tracer).
    """

    def __init__(self) -> None:
        self.roots: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self.counters: Dict[str, int] = {}
        self.notes: Dict[str, Any] = {}
        self.max_notes: Dict[str, float] = {}
        # worker-side span summaries merged in, name -> [count, seconds]
        self.block_spans: Dict[str, List[float]] = {}

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
        local span tree (worker block summaries are kept separate)."""
        seconds: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for root in self.roots:
            for record in root.walk():
                seconds[record.name] = seconds.get(record.name, 0.0) + record.seconds
                counts[record.name] = counts.get(record.name, 0) + 1
        return seconds, counts

    def summary(self) -> Dict[str, Any]:
        """Picklable digest of this tracer, shipped from shard workers
        back to the parent alongside each block's ``Counts``."""
        seconds, counts = self.span_aggregates()
        return {
            "spans": {
                name: [counts[name], seconds[name]] for name in sorted(seconds)
            },
            "counters": dict(self.counters),
            "max_notes": dict(self.max_notes),
        }

    def absorb_summary(self, summary: Mapping[str, Any]) -> None:
        """Merge one worker block summary into this (parent) tracer."""
        for name, (n, secs) in summary.get("spans", {}).items():
            slot = self.block_spans.setdefault(name, [0, 0.0])
            slot[0] += int(n)
            slot[1] += float(secs)
        for name, amount in summary.get("counters", {}).items():
            self.count(name, amount)
        for key, value in summary.get("max_notes", {}).items():
            self.note_max(key, float(value))


# -- module-level hot-path API ----------------------------------------


def span(name: str, **attrs: Any):
    """Open a hierarchical span on the active tracer; a shared no-op
    context manager when tracing is inactive."""
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


def count(name: str, amount: int = 1) -> None:
    """Bump a monotonic counter on the active tracer (no-op otherwise)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.count(name, amount)


def note(key: str, value: Any) -> None:
    """Record a scalar fact about the run (last write wins)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.note(key, value)


def note_max(key: str, value: float) -> None:
    """Record the running maximum of a scalar (e.g. peak bond dimension)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.note_max(key, value)


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


# -- run lifecycle -----------------------------------------------------


@dataclass(frozen=True)
class ExecutionReport:
    """Structured record of one sampling run — the feature vector the
    ROADMAP item 5 cost-model router trains on."""

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
    shard_spans: Dict[str, Dict[str, float]] = field(default_factory=dict)

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
            "shard_spans": {k: dict(v) for k, v in self.shard_spans.items()},
        }


def _build_report(tracer: Tracer, wall_seconds: float) -> ExecutionReport:
    seconds, span_counts = tracer.span_aggregates()
    notes = tracer.notes
    counters = dict(tracer.counters)
    resilience_events = {
        name: n
        for name, n in counters.items()
        if name.startswith("resilience.") or name.startswith("shard.")
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
        shard_spans={
            name: {"count": n, "seconds": secs}
            for name, (n, secs) in sorted(tracer.block_spans.items())
        },
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
    key off the active tracer.  If a tracer is already active (e.g.
    ``sample_counts`` delegating to the sharded path) this opens a
    nested span instead of a second tracer, so one run yields exactly
    one :class:`ExecutionReport`.
    """
    global _ACTIVE, _LAST_REPORT
    if not enabled:
        yield None
        return
    if _ACTIVE is not None:
        with _ACTIVE.span(name, **attrs) as record:
            yield record
        return
    tracer = Tracer()
    _ACTIVE = tracer
    started = perf_counter()
    try:
        with tracer.span(name, **attrs) as record:
            yield record
    finally:
        _ACTIVE = None
        report = _build_report(tracer, perf_counter() - started)
        _LAST_REPORT = report
        _fold_cumulative(report)


@contextmanager
def block_trace():
    """Worker-side scope for one shard block: installs a *fresh* tracer
    (the fork-inherited parent tracer must never be mutated in a worker)
    and yields it so the caller can ship ``tracer.summary()`` home."""
    global _ACTIVE
    saved = _ACTIVE
    tracer = Tracer()
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = saved


def absorb_block_summaries(summaries: Iterable[Mapping[str, Any]]) -> None:
    """Merge worker block summaries into the active (parent) tracer."""
    tracer = _ACTIVE
    if tracer is None:
        return
    for summary in summaries:
        tracer.absorb_summary(summary)


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
