"""The seed engine, kept as an oracle beside :mod:`repro.testing.faults`.

Every trajectory group is re-simulated from ``|0…0⟩`` through the
generic ``moveaxis`` contraction
(:meth:`~repro.simulator.statevector.StateVector.apply_matrix_generic`):
no specialized kernels, no prefix sharing, no plans, no admission
control, no tracing.  The test-suite pins the production engines against
it, and ``scripts/bench.py`` times it as the "before" lane of its
gate-apply, grouped-sampling and VQE benchmarks.  No production module
imports it.

Seeded counts reproduce the historical seed engine bit for bit (pinned
by ``tests/test_fast_kernels.py``).  Its per-group RNG order differs
from the production walk, which visits groups in first-error-site
order, so compare distributions, not seeded dicts, across the two.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import UNITARY_NOOPS
from repro.simulator import sampler as _sampler
from repro.simulator.counts import Counts
from repro.simulator.engines import DenseEngine, inject_into_dense
from repro.simulator.noise import NoiseModel, QuantumError
from repro.simulator.statevector import StateVector
from repro.utils.rng import RandomState, as_rng


class _GenericStateVector(StateVector):
    """A state whose every operator, error injections included, goes
    through the generic contraction."""

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "_GenericStateVector":
        return self.apply_matrix_generic(matrix, qubits)


def simulate_statevector(circuit: QuantumCircuit) -> StateVector:
    """The unitary part of *circuit* on the generic kernel (measurements,
    barriers and delays are skipped)."""
    state = _GenericStateVector(circuit.num_qubits)
    for inst in circuit:
        if inst.name not in UNITARY_NOOPS:
            state.apply_matrix(inst.matrix(), inst.qubits)
    return state


def sample_counts(
    circuit: QuantumCircuit,
    shots: int,
    *,
    noise: Optional[NoiseModel] = None,
    rng: RandomState = None,
    instruction_errors: Optional[Mapping[int, QuantumError]] = None,
) -> Counts:
    """Sample *circuit* the way the seed engine did.

    Takes the arguments of :func:`repro.simulator.sampler.sample_counts`
    but ignores :func:`~repro.simulator.engine_mode` and validates
    nothing.  Circuits with mid-circuit measurement or reset run the shared
    per-shot walk on :class:`~repro.simulator.engines.DenseEngine`; the
    seed engine never had a per-shot walk of its own.
    """
    r = as_rng(rng)
    extra = dict(instruction_errors or {})
    if _sampler._needs_per_shot(circuit):
        bits = _sampler._sample_per_shot(
            circuit, int(shots), noise, r, extra, DenseEngine
        )
    else:
        bits = _sample_grouped(circuit, int(shots), noise, r, extra)
    return Counts.from_bit_array(_sampler._apply_readout(circuit, bits, noise, r))


def _run_trajectory(
    circuit: QuantumCircuit,
    pattern: Dict[int, int],
    errors: Dict[int, QuantumError],
) -> Tuple[StateVector, Dict[int, int]]:
    """One trajectory from ``|0…0⟩``: *pattern* maps instruction index
    to the error term injected after it.  Returns the final state and
    the qubit → clbit measurement map."""
    state = _GenericStateVector(circuit.num_qubits)
    mapping: Dict[int, int] = {}
    for idx, inst in enumerate(circuit):
        if inst.name == "measure":
            mapping[inst.qubits[0]] = inst.clbits[0]
        elif inst.name in UNITARY_NOOPS:
            pass
        else:
            state.apply_matrix(inst.matrix(), inst.qubits)
        if idx in pattern:
            inject_into_dense(state, inst, errors[idx], pattern[idx])
    return state, mapping


def _sample_grouped(
    circuit: QuantumCircuit,
    shots: int,
    noise: Optional[NoiseModel],
    rng: np.random.Generator,
    extra: Mapping[int, QuantumError],
) -> np.ndarray:
    """The seed grouped walk: every realization group re-simulated from
    scratch, in the order the groups were first drawn."""
    noisy = _sampler._noisy_ops(circuit, noise, extra)
    errors = dict(noisy)
    groups = _sampler._group_realizations(noisy, shots, rng)
    width = circuit.num_clbits
    chunks: List[np.ndarray] = []
    for key, group_shots in groups.items():
        state, mapping = _run_trajectory(circuit, dict(key), errors)
        qubits = sorted(mapping)
        sampled = state.sample(group_shots, rng, qubits=qubits)
        bits = np.zeros((group_shots, width), dtype=np.uint8)
        for col, q in enumerate(qubits):
            bits[:, mapping[q]] = sampled[:, col]
        chunks.append(bits)
    return np.concatenate(chunks, axis=0)


__all__ = ["sample_counts", "simulate_statevector"]
