"""Fault-tolerant execution: admission control and the degradation ladder.

Production service paths cannot afford the two failure shapes the raw
engines exhibit: an oversized request allocates until the process (or
the OOM killer) dies mid-run, and an engine that turns out to be the
wrong tool (an MPS whose truncation blows its budget, a dense route a
width past the limit) fails the whole request even when a slower-but-
correct backend was one hop away.  This module is the policy layer that
turns both into **specified, observable degradation**:

Pre-flight admission control
----------------------------
:func:`estimate_resources` asks the routed engine class for its
predicted peak footprint (``ExecutionEngine.estimate_peak_bytes`` — a
pure function of the circuit and the engine's configuration, computable
*before* any allocation), and :func:`check_admission` rejects requests
whose estimate exceeds the request's budget
(``ExecutionConfig.max_state_bytes``) with a structured
:class:`~repro.errors.ResourceAdmissionError` instead of a mid-run
``MemoryError``.  The budget defaults to the dense engine's peak at the
dense qubit limit (:data:`DEFAULT_MAX_STATE_BYTES`, so every
historically-valid request still admits) and is set per block via
``engine_mode(max_state_bytes=...)``.

Graceful-degradation ladder
---------------------------
:func:`run_with_fallback` walks a declared per-mode fallback chain
(:data:`FALLBACK_CHAINS`): when a mode fails admission — or samples
lossily because the MPS truncation budget was exceeded — the request
hops to the next mode in the chain, recording every hop
(:class:`FallbackHop`) instead of silently changing semantics.  The
chain is data, not code, so operators can read the ladder straight from
this module (it is also pinned in ``docs/architecture.md``).

Observability
-------------
Every recovery and degradation event increments a module-level counter
(:func:`counters`): ``retries``, ``pool_rebuilds`` and
``inline_fallbacks`` from the sharding layer's crash recovery,
``admission_rejects`` from here, ``engine_fallbacks`` from the ladder.
:meth:`repro.telemetry.store.MetricStore.record_resilience` snapshots
them into the ``simulator.resilience.*`` sensor family.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple, Type

from repro.circuits.circuit import QuantumCircuit
from repro.errors import ResourceAdmissionError, SimulationError
from repro.simulator.config import (
    DEFAULT_MAX_STATE_BYTES,
    ExecutionConfig,
    current_config,
)
from repro.simulator.counts import Counts
from repro.simulator.engines.base import ExecutionEngine
from repro.simulator.noise import NoiseModel, QuantumError
from repro.telemetry import tracing as _tracing
from repro.testing import faults as _faults

# ---------------------------------------------------------------------------
# resilience counters
# ---------------------------------------------------------------------------

#: The sensor short-names exported as ``simulator.resilience.<name>``.
COUNTER_NAMES = (
    "retries",
    "pool_rebuilds",
    "inline_fallbacks",
    "admission_rejects",
    "engine_fallbacks",
)

_counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
_counters_lock = threading.Lock()


def count_event(name: str, amount: int = 1) -> None:
    """Increment one resilience counter (sharding calls this too)."""
    with _counters_lock:
        _counters[name] += int(amount)


def counters() -> Dict[str, int]:
    """A snapshot of the cumulative resilience counters."""
    with _counters_lock:
        return dict(_counters)


def reset_counters() -> None:
    """Zero all counters (test isolation)."""
    with _counters_lock:
        for name in COUNTER_NAMES:
            _counters[name] = 0


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceEstimate:
    """Predicted peak footprint of one request on one engine.

    ``peak_bytes`` is ``None`` when the routed backend declares no
    estimate (custom engines without ``estimate_peak_bytes``); such
    requests admit unconditionally.
    """

    engine: str
    mode: str
    num_qubits: int
    peak_bytes: Optional[int]


def estimate_resources(
    circuit: QuantumCircuit,
    mode: Optional[str] = None,
    *,
    engine_cls: Optional[Type[ExecutionEngine]] = None,
    config: Optional[ExecutionConfig] = None,
) -> ResourceEstimate:
    """Estimate the peak state memory *circuit* needs under *mode*.

    *config* defaults to the current ``engine_mode`` config and *mode*
    to its mode; pass *engine_cls* to skip routing when the caller
    already resolved it.  Pure prediction — nothing is allocated.
    """
    from repro.simulator.engines import select_engine

    if config is None:
        config = current_config()
    if mode is None:
        mode = config.mode
    if engine_cls is None:
        engine_cls = select_engine(mode, circuit)
    peak = engine_cls.estimate_peak_bytes(circuit, config)
    return ResourceEstimate(
        engine=engine_cls.name,
        mode=str(mode),
        num_qubits=circuit.num_qubits,
        peak_bytes=None if peak is None else int(peak),
    )


def check_admission(
    circuit: QuantumCircuit,
    mode: Optional[str] = None,
    *,
    engine_cls: Optional[Type[ExecutionEngine]] = None,
    config: Optional[ExecutionConfig] = None,
) -> ResourceEstimate:
    """Admit or reject *circuit* against ``config.max_state_bytes``.

    *config* defaults to the current ``engine_mode`` config and *mode*
    to its mode.  Returns the :class:`ResourceEstimate` on admit; raises
    a structured :class:`~repro.errors.ResourceAdmissionError` (and
    increments the ``admission_rejects`` counter) when the estimate
    exceeds the budget.  Runs before any state allocation by
    construction.
    """
    if config is None:
        config = current_config()
    _faults.fault_point("resilience.admission")
    with _tracing.span("resilience.admission"):
        estimate = estimate_resources(
            circuit, mode, engine_cls=engine_cls, config=config
        )
    budget = config.max_state_bytes
    if estimate.peak_bytes is not None and estimate.peak_bytes > budget:
        count_event("admission_rejects")
        _tracing.count("resilience.admission_rejects")
        raise ResourceAdmissionError(
            f"admission control rejected circuit {circuit.name!r}: the "
            f"{estimate.engine!r} engine needs an estimated "
            f"{estimate.peak_bytes} bytes for {estimate.num_qubits} qubits, "
            f"over the {budget}-byte budget "
            "(engine_mode(max_state_bytes=...) scopes the budget; "
            "run_with_fallback degrades to a cheaper engine)",
            engine=estimate.engine,
            requested_bytes=estimate.peak_bytes,
            budget_bytes=budget,
            num_qubits=estimate.num_qubits,
        )
    return estimate


# ---------------------------------------------------------------------------
# graceful-degradation ladder
# ---------------------------------------------------------------------------

#: Declared per-mode fallback chains, walked left to right by
#: :func:`run_with_fallback`.  Dense-family modes degrade toward the
#: bounded-memory MPS; an MPS whose truncation budget blows *escalates*
#: to exact engines.
FALLBACK_CHAINS: Mapping[str, Tuple[str, ...]] = {
    "fast": ("mps",),
    "stabilizer": ("fast", "mps"),
    "hybrid": ("mps",),
    "mps": ("hybrid", "fast"),
    "auto": ("mps", "hybrid"),
}

#: Stable prefix of the lossy-sampling warning the MPS engine emits;
#: :func:`run_with_fallback` keys truncation escalation off it.
_TRUNCATION_WARNING_PREFIX = "sampling a truncated MPS"


@dataclass(frozen=True)
class FallbackHop:
    """One recorded degradation step: *from_mode* failed for *reason*,
    the request moved to *to_mode*."""

    from_mode: str
    to_mode: str
    reason: str


@dataclass(frozen=True)
class FallbackResult:
    """The counts plus the degradation trail that produced them."""

    counts: Counts
    mode: str
    hops: Tuple[FallbackHop, ...]


def run_with_fallback(
    circuit: QuantumCircuit,
    shots: int,
    *,
    noise: Optional[NoiseModel] = None,
    seed: Optional[int] = None,
    mode: Optional[str] = None,
    instruction_errors: Optional[Mapping[int, QuantumError]] = None,
    config: Optional[ExecutionConfig] = None,
) -> FallbackResult:
    """Sample under *mode*, degrading along :data:`FALLBACK_CHAINS`.

    Two failure shapes trigger a hop: the mode fails admission control
    (:class:`~repro.errors.ResourceAdmissionError`), or its sampling was
    lossy because the MPS truncation budget was exceeded (detected via
    the engine's stable lossy-sampling warning) and a stronger mode
    remains in the chain.  Every hop is recorded on the result and
    counted in ``engine_fallbacks``; when the chain is exhausted the
    last admission error propagates.  *seed* must be an ``int`` or
    ``None`` — a hop re-runs the request from the start, which a live
    generator cannot replay.

    *config* defaults to the current ``engine_mode`` config and *mode*
    to its mode; each step runs under ``replace(config, mode=step)``, so
    every other setting carries across the hops.
    """
    import numpy as np

    from repro.simulator import sampler

    if isinstance(seed, np.random.Generator):
        raise SimulationError(
            "run_with_fallback needs an int seed or None, not a live "
            "Generator: a degradation hop re-runs the request from the start"
        )
    if config is None:
        config = current_config()
    first = mode if mode is not None else config.mode
    chain = (first,) + tuple(FALLBACK_CHAINS.get(first, ()))
    hops = []
    # One run scope spans the whole ladder: each attempt's sampler scope
    # nests inside it, so a degraded request still yields exactly one
    # ExecutionReport whose counters record every hop.
    with _tracing.run_scope("resilience.fallback", enabled=config.trace, mode=first):
        for position, step in enumerate(chain):
            following = chain[position + 1] if position + 1 < len(chain) else None
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    counts = sampler.sample_counts(
                        circuit,
                        shots,
                        noise=noise,
                        rng=seed,
                        instruction_errors=instruction_errors,
                        config=replace(config, mode=step),
                    )
            except ResourceAdmissionError as exc:
                if following is None:
                    raise
                hops.append(FallbackHop(step, following, f"admission: {exc}"))
                count_event("engine_fallbacks")
                _tracing.count("resilience.engine_fallbacks")
                with _tracing.span(
                    "resilience.fallback_hop",
                    from_mode=step,
                    to_mode=following,
                    reason="admission",
                ):
                    pass
                continue
            truncated = [
                w
                for w in caught
                if str(w.message).startswith(_TRUNCATION_WARNING_PREFIX)
            ]
            if truncated and following is not None:
                # Lossy counts: discard them and escalate to an exact mode.
                hops.append(
                    FallbackHop(
                        step, following, f"truncation: {truncated[0].message}"
                    )
                )
                count_event("engine_fallbacks")
                _tracing.count("resilience.engine_fallbacks")
                with _tracing.span(
                    "resilience.fallback_hop",
                    from_mode=step,
                    to_mode=following,
                    reason="truncation",
                ):
                    pass
                continue
            # Replay any unrelated warnings the recording context swallowed.
            for w in caught:
                if w not in truncated:
                    warnings.warn_explicit(
                        w.message, w.category, w.filename, w.lineno
                    )
            return FallbackResult(counts=counts, mode=step, hops=tuple(hops))
    raise AssertionError("unreachable: chain always returns or raises")


__all__ = [
    "COUNTER_NAMES",
    "DEFAULT_MAX_STATE_BYTES",
    "FALLBACK_CHAINS",
    "FallbackHop",
    "FallbackResult",
    "ResourceEstimate",
    "check_admission",
    "count_event",
    "counters",
    "estimate_resources",
    "reset_counters",
    "run_with_fallback",
]
