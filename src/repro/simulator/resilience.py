"""Admission control: reject an oversized request before it allocates.

An oversized request would otherwise allocate until the process (or the
OOM killer) dies mid-run.  This module turns that into a **specified,
observable rejection**:

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
``engine_mode(max_state_bytes=...)``.  A rejected request is the
caller's to re-issue: under a larger budget, or under ``"auto"`` or
``"mps"``, whose routes reach engines with smaller footprints.

Observability
-------------
Every rejection increments the module-level ``admission_rejects``
counter (:func:`counters`);
:meth:`repro.telemetry.store.MetricStore.record_resilience` snapshots
it into the ``simulator.resilience.*`` sensor family.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.circuits.circuit import QuantumCircuit
from repro.errors import ResourceAdmissionError
from repro.simulator.config import (
    DEFAULT_MAX_STATE_BYTES,
    ExecutionConfig,
    current_config,
)
from repro.simulator.engines.base import ExecutionEngine
from repro.telemetry import tracing as _tracing
from repro.testing import faults as _faults

# ---------------------------------------------------------------------------
# resilience counters
# ---------------------------------------------------------------------------

#: The sensor short-names exported as ``simulator.resilience.<name>``.
COUNTER_NAMES = ("admission_rejects",)

_counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
_counters_lock = threading.Lock()


def count_event(name: str, amount: int = 1) -> None:
    """Increment one resilience counter."""
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
            "(raise it with engine_mode(max_state_bytes=...), or run "
            "under engine_mode(\"auto\") or engine_mode(\"mps\"), whose "
            "routes reach engines with smaller footprints)",
            engine=estimate.engine,
            requested_bytes=estimate.peak_bytes,
            budget_bytes=budget,
            num_qubits=estimate.num_qubits,
        )
    return estimate


__all__ = [
    "COUNTER_NAMES",
    "DEFAULT_MAX_STATE_BYTES",
    "ResourceEstimate",
    "check_admission",
    "count_event",
    "counters",
    "estimate_resources",
    "reset_counters",
]
