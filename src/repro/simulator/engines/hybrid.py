"""Segment-granular hybrid (tableau→dense) execution engine.

The highest-value open item after the stabilizer fast path: circuits
with a Clifford *prefix* and a non-Clifford *tail* — GHZ preparation
followed by T-gate layers, QAOA with Clifford mixers, magic-state
benchmarks — previously paid full dense cost for the whole circuit.
:class:`HybridSegmentEngine` runs the maximal Clifford prefix (the first
run :func:`repro.circuits.dag.clifford_segments` reports) on a
stabilizer tableau and only crosses into amplitude land when the first
non-Clifford gate actually arrives.

The payoff compounds in the grouped noise sampler: trajectory forks and
Pauli error injections inside the prefix are ``O(n²)`` tableau bit-ops,
and each group converts *its own* boundary tableau via
:meth:`Tableau.coset_amplitudes` — ``O(2^k · k)`` for a coset of
dimension ``k``, two amplitudes for a GHZ prefix at any width — instead
of copying and replaying a ``2^n`` amplitude vector per group.

Three representations, crossed strictly left to right:

1. **tableau** — the bit-packed :class:`Tableau`, while every gate seen
   so far is Clifford;
2. **sparse amplitudes** (:class:`SparseAmplitudes`) — from the first
   non-Clifford gate; diagonal/permutation tails never grow the
   support, so this regime routinely outlives the whole tail and can be
   *wider than the dense limit*;
3. **dense** (:class:`StateVector`) — once the support outgrows the
   sparse regime (more than 1/8 of the full dimension) or a >2-qubit
   operator appears.

RNG parity: the sampler drives this engine through the same grouped /
per-shot walks as every other backend, and both amplitude
representations invert the same outcome CDF the dense engine does, so
seeded hybrid runs match dense-engine counts to float precision (exact
in practice; pinned by ``tests/test_engines.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.gates import UNITARY_NOOPS
from repro.errors import SimulationError
from repro.simulator.engines.base import ExecutionEngine, register_engine
from repro.simulator.engines.dense import inject_into_dense
from repro.simulator.engines.sparse import SparseAmplitudes
from repro.simulator.engines.tableau import (
    inject_into_tableau,
    sample_tableau_shared,
)
from repro.simulator.noise import QuantumError
from repro.simulator.stabilizer import CosetSupport, Tableau
from repro.simulator.statevector import DENSE_QUBIT_LIMIT, StateVector

#: Cap on sparse support width beyond the dense limit (where densifying
#: is impossible): generous enough for branching tails on ~30-qubit
#: states, small enough to fail fast instead of thrashing.
_WIDE_SPARSE_CAP = 1 << 22


class _HybridPhases:
    """Symbolic names for the engine's representation phases."""

    TABLEAU = "tableau"
    SPARSE = "sparse"
    DENSE = "dense"


@register_engine
class HybridSegmentEngine(ExecutionEngine):
    """Tableau for the Clifford prefix, amplitudes for the tail."""

    name = "hybrid"

    #: From the plan this backend reads the bind-time Clifford boundary:
    #: inside it every instruction is known Clifford, so the prefix walk
    #: skips the per-gate ``clifford_primitives()`` classification.
    plan_artifacts = ("clifford_boundary",)

    @classmethod
    def estimate_peak_bytes(cls, circuit: QuantumCircuit, config) -> int:
        # At dense widths the engine may densify outright, so the dense
        # peak is the honest bound.  Beyond the dense limit densification
        # is impossible: the peak is the prefix tableau plus the sparse
        # tail at its hard entry cap (index + amplitude per entry).
        from repro.simulator.engines.dense import DenseEngine
        from repro.simulator.engines.tableau import TableauEngine

        n = circuit.num_qubits
        if n <= DENSE_QUBIT_LIMIT:
            return DenseEngine.estimate_peak_bytes(circuit, config)
        tableau = TableauEngine.estimate_peak_bytes(circuit, config)
        return tableau + _WIDE_SPARSE_CAP * 24

    def prepare(self, circuit: QuantumCircuit) -> None:
        self._tab: Optional[Tableau] = Tableau(circuit.num_qubits)
        self._sparse: Optional[SparseAmplitudes] = None
        self._dense: Optional[StateVector] = None
        self._shared_support: List[CosetSupport] = []
        # Whether this trajectory's tableau still has the X/Z structure
        # every structure-preserving fork shares (Pauli injections keep
        # it; reset collapses and measurements break it).
        self._structure_shared = True

    @property
    def phase(self) -> str:
        """Current representation: ``tableau``, ``sparse`` or ``dense``."""
        if self._tab is not None:
            return _HybridPhases.TABLEAU
        if self._sparse is not None:
            return _HybridPhases.SPARSE
        return _HybridPhases.DENSE

    def fork(self) -> "HybridSegmentEngine":
        # type(self), not HybridSegmentEngine: subclassed backends must
        # survive the trajectory fork.
        cls = type(self)
        dup = cls.__new__(cls)
        dup.config = self.config
        dup.circuit = self.circuit
        dup._tab = self._tab.copy() if self._tab is not None else None
        dup._sparse = self._sparse.copy() if self._sparse is not None else None
        dup._dense = self._dense.copy() if self._dense is not None else None
        dup._shared_support = self._shared_support
        dup._structure_shared = self._structure_shared
        dup._plan = self._plan
        return dup

    # -- representation transitions --------------------------------------------

    def _sparse_cap(self) -> int:
        n = self.circuit.num_qubits
        if n > DENSE_QUBIT_LIMIT:
            return _WIDE_SPARSE_CAP
        # Past 1/8 of the full dimension the coalescing overhead of the
        # sparse form loses to flat dense kernels.
        return (1 << n) >> 3

    def _cross_boundary(self) -> None:
        """Tableau → amplitudes (the segment conversion).

        Structure-preserving trajectories (the grouped sampler's common
        case: forks differing only by Pauli injections) share one
        request-scoped :class:`CosetSupport`, so each group's conversion
        skips rebuilding the coset constraint system and only resolves
        its own sign-dependent offset and phases.

        The coset dimension ``k`` is known from the support *before*
        enumerating ``2^k`` amplitudes, so a boundary state too dense
        for the sparse regime converts straight to a full
        :class:`StateVector` — or fails fast with a clear error beyond
        the dense qubit limit — instead of thrashing through an
        exponential enumeration.
        """
        if self._tab is None:
            return
        support = None
        if self._structure_shared and self._shared_support:
            support = self._shared_support[0]
        if support is None:
            support = self._tab.coset_support()
            if self._structure_shared:
                self._shared_support.append(support)
        if (1 << min(support.dimension, 63)) > max(self._sparse_cap(), 1):
            if self.circuit.num_qubits > DENSE_QUBIT_LIMIT:
                raise SimulationError(
                    f"hybrid execution of this {self.circuit.num_qubits}-qubit "
                    f"circuit reached a segment boundary with coset dimension "
                    f"{support.dimension} — too dense for the sparse regime "
                    f"and beyond the {DENSE_QUBIT_LIMIT}-qubit dense limit"
                )
            indices, amps = self._tab.coset_amplitudes(support)
            self._dense = SparseAmplitudes(
                self._tab.num_qubits, indices, amps
            ).to_statevector()
            self._tab = None
            return
        indices, amps = self._tab.coset_amplitudes(support)
        self._sparse = SparseAmplitudes(self._tab.num_qubits, indices, amps)
        self._tab = None

    def _densify(self) -> None:
        self._cross_boundary()
        if self._sparse is not None:
            if self.circuit.num_qubits > DENSE_QUBIT_LIMIT:
                raise SimulationError(
                    f"hybrid execution of this {self.circuit.num_qubits}-qubit "
                    "circuit outgrew the sparse-amplitude regime and cannot "
                    f"densify beyond the {DENSE_QUBIT_LIMIT}-qubit dense limit"
                )
            self._dense = self._sparse.to_statevector()
            self._sparse = None

    def _amplitude_rep(self):
        """The active amplitude representation (crossing if needed)."""
        self._cross_boundary()
        return self._sparse if self._sparse is not None else self._dense

    # -- protocol --------------------------------------------------------------

    def advance(self, ops: Sequence[Instruction]) -> None:
        for inst in ops:
            if inst.name in UNITARY_NOOPS:
                continue
            if self._tab is not None:
                if inst.clifford_primitives() is not None:
                    self._tab.apply_instruction(inst)
                    continue
                self._cross_boundary()
            self._apply_amplitude_op(inst)

    def advance_span(self, instructions, start: int, stop: int) -> None:
        plan = self._plan
        if plan is not None and self._tab is not None and stop <= plan.clifford_boundary:
            # Plan artifact: the whole window is inside the Clifford
            # prefix, so replay it straight on the tableau without
            # re-classifying each gate.  Identical updates to advance()
            # (both resolve the same memoized compiled programs).
            self._tab.apply_instructions(instructions[start:stop])
            return
        self.advance(instructions[start:stop])

    def _apply_amplitude_op(self, inst: Instruction) -> None:
        if self._sparse is not None:
            if len(inst.qubits) <= 2 and self._sparse.nnz <= self._sparse_cap():
                self._sparse.apply_matrix(inst.matrix(), inst.qubits)
                if self._sparse.nnz > self._sparse_cap():
                    self._densify()
                return
            self._densify()
        self._dense.apply_matrix(inst.matrix(), inst.qubits)

    def inject(
        self, instruction: Instruction, error: QuantumError, term_index: int
    ) -> bool:
        if self._tab is not None:
            preserved = inject_into_tableau(self._tab, instruction, error, term_index)
            self._structure_shared &= preserved
            return preserved
        return inject_into_dense(self._amplitude_rep(), instruction, error, term_index)

    def sample(
        self,
        shots: int,
        rng: np.random.Generator,
        qubits: Optional[Sequence[int]] = None,
        *,
        shares_structure: bool = True,
    ) -> np.ndarray:
        if self._tab is not None:
            # Degenerate all-Clifford case (the router normally sends
            # those to TableauEngine): same shared-support discipline.
            return sample_tableau_shared(
                self._tab,
                self._shared_support,
                shots,
                rng,
                qubits,
                shares_structure=shares_structure,
            )
        return self._amplitude_rep().sample(shots, rng, qubits=qubits)

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        if self._tab is not None:
            self._structure_shared = False  # collapse rewrites X/Z rows
            return self._tab.measure(qubit, rng)
        return self._amplitude_rep().measure(qubit, rng)

    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        if self._tab is not None:
            self._structure_shared = False  # collapse rewrites X/Z rows
            self._tab.reset(qubit, rng)
        else:
            self._amplitude_rep().reset(qubit, rng)

    def to_dense(self) -> StateVector:
        if self._tab is not None:
            return self._tab.to_statevector()
        if self._sparse is not None:
            return self._sparse.to_statevector()
        return self._dense

    def expectation(self, hamiltonian) -> float:
        from repro.hybrid.observables import (
            expectation_sparse,
            expectation_stabilizer,
            expectation_statevector,
        )

        if self._tab is not None:
            return expectation_stabilizer(hamiltonian, self._tab)
        if self._sparse is not None:
            return expectation_sparse(hamiltonian, self._sparse)
        return expectation_statevector(hamiltonian, self._dense)


__all__ = ["HybridSegmentEngine"]
