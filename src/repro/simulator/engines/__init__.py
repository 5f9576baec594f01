"""Pluggable execution-engine registry and mode routing.

This subpackage is the simulator's dispatch layer: every backend lives
behind the :class:`~repro.simulator.engines.base.ExecutionEngine`
protocol, registers itself by name, and is *routed to* per circuit by
:func:`select_engine` according to the active engine mode
(:func:`repro.simulator.engine_mode` is the user-facing switch).

Backends
--------
``dense``
    :class:`DenseEngine` — the ``2^n`` amplitude vector (exact, any
    gate).
``tableau``
    :class:`TableauEngine` — the Aaronson–Gottesman stabilizer tableau
    (Clifford-only, polynomial, hundreds of qubits).
``hybrid``
    :class:`HybridSegmentEngine` — segment-granular mixed execution:
    the maximal Clifford prefix runs on a tableau, the state crosses to
    (sparse, then dense) amplitudes at the first non-Clifford gate.
``mps``
    :class:`MPSEngine` — bounded-bond matrix-product-state execution
    (any gate, cost polynomial in qubits at fixed bond dimension):
    low-entanglement circuits run far beyond the dense limit.

Routing
-------
:func:`select_engine` maps ``(mode, circuit) → engine class``; the
mode-string table lives in :func:`repro.simulator.engine_mode`'s
docstring and ``docs/architecture.md``.  :func:`prepare_engine` is the
expectation-path helper: route, instantiate, advance through the
circuit's unitary part, return the prepared engine.
"""

from __future__ import annotations

from typing import Optional, Type

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import clifford_segments, is_clifford_circuit
from repro.errors import EngineModeError
from repro.simulator.config import ExecutionConfig, current_config
from repro.simulator.engines.base import (
    ExecutionEngine,
    engine_registry,
    get_engine,
    register_engine,
)
from repro.simulator.engines.dense import DenseEngine, inject_into_dense
from repro.simulator.engines.hybrid import HybridSegmentEngine
from repro.simulator.engines.mps import MPSEngine, MPSState, is_line_like, simulate_mps
from repro.simulator.engines.sparse import SPARSE_QUBIT_LIMIT, SparseAmplitudes
from repro.simulator.engines.tableau import TableauEngine, inject_into_tableau
from repro.simulator.statevector import DENSE_QUBIT_LIMIT
from repro.utils.rng import RandomState, as_rng


def _clifford_prefix_entangles(circuit: QuantumCircuit) -> bool:
    """Whether the maximal Clifford prefix contains an entangling gate,
    the structure worth running on a tableau before the crossing."""
    segments = clifford_segments(circuit)
    if not segments or not segments[0].is_clifford:
        return False
    return any(
        not inst.is_directive and len(inst.qubits) == 2
        for inst in circuit.instructions[segments[0].start : segments[0].stop]
    )


def _tail_preserves_sparse_support(circuit: QuantumCircuit) -> bool:
    """Whether every gate after the maximal Clifford prefix is diagonal
    or a generalized permutation — i.e. the hybrid engine's sparse
    amplitude support can never grow in the tail, so segment execution
    is guaranteed to stay cheap at any width."""
    segments = clifford_segments(circuit)
    start = segments[0].stop if segments and segments[0].is_clifford else 0
    for inst in circuit.instructions[start:]:
        if inst.is_directive or inst.is_diagonal():
            continue
        matrix = inst.matrix()
        if not bool(np.all(np.count_nonzero(matrix, axis=0) == 1)):
            return False
    return True


def select_engine(mode: str, circuit: QuantumCircuit) -> Type[ExecutionEngine]:
    """Route one circuit to an engine class under *mode*.

    The mode-string semantics (see also ``docs/architecture.md``):

    ``fast``
        Dense engine, except Clifford circuits *wider than the dense
        limit*, which auto-route to the tableau.
    ``mps``
        The matrix-product-state engine for every circuit (the gate
        library is 1q/2q, which is all an MPS needs).
    ``auto``
        Best-known routing: tableau for Clifford circuits; MPS for every
        other circuit wider than the sparse-amplitude packing limit
        (:data:`~repro.simulator.engines.sparse.SPARSE_QUBIT_LIMIT`,
        62 qubits), where the hybrid engine cannot cross its segment
        boundary; between the dense limit and that, hybrid when the
        post-prefix tail can never grow the sparse support, otherwise
        MPS for line-like circuits (bounded entanglement growth) and
        hybrid as the last resort; at dense widths, hybrid when the
        Clifford prefix contains entangling structure, dense for the
        rest.

    This is the structural answer: the per-shot walk and admission
    control use it as is.  Under ``fast`` and ``auto`` the sampler's
    grouped walk then serves a Clifford circuit within the dense limit
    (dense under ``fast``, tableau under ``auto`` here) on whichever of
    the dense engine and the tableau its fitted cost estimate calls
    cheaper for the trajectory groups the run realizes, among those
    whose peak estimate fits the admission budget
    (``sampler._route_by_cost``).  Whether a dense route's grouped walk
    advances its trajectory groups one at a time or stacked is not a
    routing decision either: the sampler picks that form itself under
    every mode.
    """
    # Resolve through the registry (not the imported classes) so that
    # re-registering a name really does swap the backend dispatch serves.
    dense = get_engine(DenseEngine.name)
    tableau = get_engine(TableauEngine.name)
    hybrid = get_engine(HybridSegmentEngine.name)
    if mode == "fast":
        if circuit.num_qubits > DENSE_QUBIT_LIMIT and is_clifford_circuit(circuit):
            return tableau
        return dense
    if mode == "mps":
        return get_engine(MPSEngine.name)
    if mode == "auto":
        if is_clifford_circuit(circuit):
            return tableau
        if circuit.num_qubits > SPARSE_QUBIT_LIMIT:
            # Hybrid would fail at its first non-Clifford gate: the
            # boundary crossing packs basis indices into int64 words.
            return get_engine(MPSEngine.name)
        if circuit.num_qubits > DENSE_QUBIT_LIMIT:
            # Dense cannot represent it at all.  Prefer the hybrid
            # engine when its sparse tail is guaranteed (Clifford prefix
            # + diagonal/permutation tail); otherwise a line-like
            # interaction graph means bounded entanglement growth — the
            # MPS engine's home turf; anything else falls back to
            # hybrid, the historical wide route.
            if _tail_preserves_sparse_support(circuit):
                return hybrid
            if is_line_like(circuit):
                return get_engine(MPSEngine.name)
            return hybrid
        if _clifford_prefix_entangles(circuit):
            return hybrid
        return dense
    raise EngineModeError(
        f"unknown engine mode {mode!r}; cannot route circuit {circuit.name!r}"
    )


def prepare_engine(
    circuit: QuantumCircuit,
    mode: Optional[str] = None,
    *,
    rng: RandomState = None,
    config: Optional[ExecutionConfig] = None,
) -> ExecutionEngine:
    """Run *circuit*'s unitary part on the engine *mode* routes it to.

    The registry-facing analogue of ``simulate_statevector`` /
    ``simulate_tableau``: measurements are skipped (sampling is the
    sampler's job), resets collapse stochastically using *rng*, barriers
    and delays are no-ops.  *config* defaults to the
    :func:`~repro.simulator.config.current_config` that
    :func:`repro.simulator.engine_mode` installed, and *mode* to its
    mode; the engine runs under *config*'s sub-options either way.
    """
    if config is None:
        config = current_config()
    if mode is None:
        mode = config.mode
    engine_cls = select_engine(mode, circuit)
    # Same pre-flight admission gate as the sampling path: the
    # expectation path allocates engine state too, so an over-budget
    # request must fail structurally before the allocation.
    from repro.simulator import resilience

    resilience.check_admission(circuit, mode, engine_cls=engine_cls, config=config)
    engine = engine_cls(circuit, config)
    r = as_rng(rng)
    for inst in circuit:
        if inst.name == "measure":
            continue
        if inst.name == "reset":
            engine.reset(inst.qubits[0], r)
            continue
        engine.advance((inst,))
    return engine


__all__ = [
    "ExecutionEngine",
    "DenseEngine",
    "TableauEngine",
    "HybridSegmentEngine",
    "MPSEngine",
    "MPSState",
    "SparseAmplitudes",
    "simulate_mps",
    "is_line_like",
    "register_engine",
    "get_engine",
    "engine_registry",
    "select_engine",
    "prepare_engine",
    "inject_into_dense",
    "inject_into_tableau",
]
