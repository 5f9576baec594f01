"""Stabilizer-tableau execution engine.

Wraps the bit-packed :class:`~repro.simulator.stabilizer.Tableau`
behind the :class:`~repro.simulator.engines.base.ExecutionEngine`
protocol, with the two grouped-sampler wins from the stabilizer fast
path: trajectory forks copy ``O(n²)`` bits instead of ``2^n``
amplitudes (two lists of column words and one integer), and because
Pauli injection only flips tableau signs, every structure-preserving
trajectory of one sampling request shares a single
:class:`~repro.simulator.stabilizer.CosetSupport` factorization (forks
share the holder by reference; groups that genuinely collapse a qubit
recompute their own).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.simulator.engines.base import ExecutionEngine, register_engine
from repro.simulator.noise import QuantumError
from repro.simulator.stabilizer import CosetSupport, Tableau
from repro.simulator.statevector import StateVector


def inject_into_tableau(
    tableau: Tableau, instruction: Instruction, error: QuantumError, term_index: int
) -> bool:
    """Tableau counterpart of
    :func:`~repro.simulator.engines.dense.inject_into_dense`.

    Returns ``True`` when the injection preserved the tableau's X/Z
    structure (every Pauli term, and the deterministic branches of a
    reset) so the caller can keep sharing one :class:`CosetSupport`
    across trajectories; a genuine collapse returns ``False``.
    """
    term = error.terms[term_index]
    if term.kind == "pauli":
        tableau.apply_pauli(term.pauli, instruction.qubits[: len(term.pauli)])
        return True
    q = instruction.qubits[term.reset_operand]
    # Same dominant-branch semantics as the dense engine: |1⟩ flips,
    # a superposed qubit collapses onto |0⟩, |0⟩ is left alone.
    p1 = tableau.marginal_probability_one(q)
    if p1 == 1.0:
        tableau.apply_pauli("X", [q])
        return True
    if p1 == 0.5:
        tableau.collapse(q, 0)
        return False
    return True


def sample_tableau_shared(
    tableau: Tableau,
    shared_support: List[CosetSupport],
    shots: int,
    rng: np.random.Generator,
    qubits: Optional[Sequence[int]] = None,
    *,
    shares_structure: bool = True,
) -> np.ndarray:
    """Sample a tableau through a request-scoped shared factorization.

    *shared_support* is the one-element holder forks share by
    reference: the first structure-preserving sampler populates it, and
    every later trajectory with the same X/Z structure reuses it.
    Structure-breaking trajectories (``shares_structure=False``) pay a
    fresh factorization.  One copy of this discipline serves both the
    tableau engine and the hybrid engine's all-Clifford degenerate case.
    The factorization is built through ``tableau.coset_support()``.
    """
    if not shares_structure:
        return tableau.sample(shots, rng, qubits=qubits)
    if not shared_support:
        shared_support.append(tableau.coset_support())
    return tableau.sample(shots, rng, qubits=qubits, support=shared_support[0])


@register_engine
class TableauEngine(ExecutionEngine):
    """The Aaronson–Gottesman backend (Clifford-only, polynomial)."""

    name = "tableau"

    #: Plans carry nothing a tableau walk can reuse — Clifford updates
    #: are already O(n) per gate with no matrices to premultiply — so
    #: this backend accepts plans (forks keep them) but consumes none.
    plan_artifacts = ()

    @classmethod
    def estimate_peak_bytes(cls, circuit: QuantumCircuit) -> int:
        # A loose upper bound: one byte per tableau bit plus phases
        # (~4n² + 2n bytes), several times the packed column and row
        # words.  Doubled for the trajectory fork the grouped walk keeps
        # live.
        n = circuit.num_qubits
        return 2 * (4 * n * n + 2 * n)

    def prepare(self, circuit: QuantumCircuit) -> None:
        self._tab = Tableau(circuit.num_qubits)
        # One factorization per sampling request, shared across forks by
        # reference — see sample()'s shares_structure contract.
        self._shared_support: List[CosetSupport] = []

    def fork(self) -> "TableauEngine":
        # type(self), not TableauEngine: subclassed backends must
        # survive the trajectory fork.
        cls = type(self)
        dup = cls.__new__(cls)
        dup.circuit = self.circuit
        dup._tab = self._tab.copy()
        dup._shared_support = self._shared_support
        dup._plan = self._plan
        return dup

    def advance(self, ops: Sequence[Instruction]) -> None:
        self._tab.apply_instructions(ops)

    def inject(
        self, instruction: Instruction, error: QuantumError, term_index: int
    ) -> bool:
        return inject_into_tableau(self._tab, instruction, error, term_index)

    def sample(
        self,
        shots: int,
        rng: np.random.Generator,
        qubits: Optional[Sequence[int]] = None,
        *,
        shares_structure: bool = True,
    ) -> np.ndarray:
        return sample_tableau_shared(
            self._tab,
            self._shared_support,
            shots,
            rng,
            qubits,
            shares_structure=shares_structure,
        )

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        return self._tab.measure(qubit, rng)

    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        self._tab.reset(qubit, rng)

    def to_dense(self) -> StateVector:
        return self._tab.to_statevector()

    def expectation(self, hamiltonian) -> float:
        from repro.hybrid.observables import expectation_stabilizer

        return expectation_stabilizer(hamiltonian, self._tab)


__all__ = ["TableauEngine", "inject_into_tableau", "sample_tableau_shared"]
