"""Quantum state simulation: state vectors, stabilizer tableaux, channels,
noise, sampling, and the pluggable execution-engine registry.

Four computational substrates live here — the dense
:class:`~repro.simulator.statevector.StateVector` engine (exact, any
gate, exponential in qubits), the
:class:`~repro.simulator.stabilizer.Tableau` engine (Clifford-only,
polynomial, bit-packed, past 1000 qubits), the segment-granular hybrid
(tableau→dense) engine that runs a circuit's maximal Clifford prefix on
a tableau before crossing to amplitudes, and the bounded-bond
:class:`~repro.simulator.engines.mps.MPSState` tensor-network engine
for low-entanglement circuits beyond the dense limit.  All of them sit
behind the
:mod:`repro.simulator.engines` registry; the shot sampler routes per
circuit and :func:`~repro.simulator.sampler.engine_mode` is the
canonical switch: it sets the current
:class:`~repro.simulator.config.ExecutionConfig`, the one frozen value
every entry point reads once and passes down.  See
``docs/architecture.md`` for the full engine registry and mode
contract.
"""

from repro.simulator.channels import (
    KrausChannel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    identity_channel,
    pauli_channel,
    phase_damping_channel,
    phase_flip_channel,
    thermal_relaxation_kraus,
    thermal_relaxation_twirl,
)
from repro.simulator.batched import BatchedStateVector
from repro.simulator.config import ExecutionConfig, current_config
from repro.simulator.counts import Counts
from repro.simulator.density import DensityMatrix, simulate_density
from repro.simulator.engines import (
    DenseEngine,
    ExecutionEngine,
    HybridSegmentEngine,
    MPSEngine,
    MPSState,
    SparseAmplitudes,
    TableauEngine,
    engine_registry,
    get_engine,
    prepare_engine,
    register_engine,
    select_engine,
    simulate_mps,
)
from repro.simulator.noise import (
    ErrorTerm,
    NoiseModel,
    QuantumError,
    ReadoutError,
    depolarizing_error,
    pauli_error,
    thermal_relaxation_error,
)
from repro.simulator.resilience import (
    FALLBACK_CHAINS,
    FallbackHop,
    FallbackResult,
    ResourceEstimate,
    check_admission,
    estimate_resources,
    run_with_fallback,
)
from repro.simulator.sampler import engine_mode, ideal_probabilities, sample_counts
from repro.simulator.stabilizer import (
    CosetSupport,
    Tableau,
    ghz_tableau,
    simulate_tableau,
)
from repro.simulator.statevector import (
    StateVector,
    circuit_unitary,
    ghz_state,
    simulate_statevector,
)

__all__ = [
    "KrausChannel",
    "amplitude_damping_channel",
    "bit_flip_channel",
    "depolarizing_channel",
    "identity_channel",
    "pauli_channel",
    "phase_damping_channel",
    "phase_flip_channel",
    "thermal_relaxation_kraus",
    "thermal_relaxation_twirl",
    "Counts",
    "DensityMatrix",
    "simulate_density",
    "ErrorTerm",
    "NoiseModel",
    "QuantumError",
    "ReadoutError",
    "depolarizing_error",
    "pauli_error",
    "thermal_relaxation_error",
    "engine_mode",
    "ExecutionConfig",
    "current_config",
    "ideal_probabilities",
    "sample_counts",
    "FALLBACK_CHAINS",
    "FallbackHop",
    "FallbackResult",
    "ResourceEstimate",
    "check_admission",
    "estimate_resources",
    "run_with_fallback",
    "ExecutionEngine",
    "BatchedStateVector",
    "DenseEngine",
    "TableauEngine",
    "HybridSegmentEngine",
    "MPSEngine",
    "MPSState",
    "simulate_mps",
    "SparseAmplitudes",
    "engine_registry",
    "get_engine",
    "prepare_engine",
    "register_engine",
    "select_engine",
    "CosetSupport",
    "Tableau",
    "ghz_tableau",
    "simulate_tableau",
    "StateVector",
    "circuit_unitary",
    "ghz_state",
    "simulate_statevector",
]
