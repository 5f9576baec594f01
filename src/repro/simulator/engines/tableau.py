"""Stabilizer-tableau execution engine.

Wraps the bit-packed :class:`~repro.simulator.stabilizer.Tableau`
behind the :class:`~repro.simulator.engines.base.ExecutionEngine`
protocol, and owns the grouped walk the sampler runs on it,
:func:`grouped_sign_walk`.

A Pauli error only flips tableau signs, and the signs never feed back
into the X/Z bits, so a trajectory group whose errors are all Pauli
terms ends at the clean run's X/Z bits with the clean signs XOR one
mask per injection, each read off the clean tableau at its site
(:meth:`~repro.simulator.stabilizer.Tableau.pauli_mask`).  The walk
therefore advances one clean tableau through the circuit and gives
those groups no tableau of their own; only groups with a reset term —
whose branch depends on the state — fork and replay their suffix.
Every group then samples through the
:class:`~repro.simulator.stabilizer.CosetSupport` of its final X/Z
structure, from one uniform draw for the whole request; factorizations
are kept per process in a byte-bounded table keyed by structure, so a
structure met by an earlier request is not factorized again.

The engine's per-group surface (``fork``/``inject``/``sample`` with a
request-scoped shared factorization, :func:`sample_tableau_shared`)
serves the sampler's generic replay walk: the hybrid engine's
all-Clifford case and the byte-tableau reference engine of
:mod:`repro.testing.reference` run on it.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.simulator.engines.base import ExecutionEngine, register_engine
from repro.simulator.noise import QuantumError
from repro.simulator.stabilizer import (
    CosetSupport,
    Tableau,
    sample_cosets,
    unpack_bit_matrix,
)
from repro.simulator.statevector import StateVector
from repro.telemetry import tracing as _tracing
from repro.testing import faults as _faults

#: A trajectory group as the sampler orders them: its realization key
#: ``((site, term), ...)`` (empty for the clean group) and its shots.
Group = Tuple[Tuple[Tuple[int, int], ...], int]


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
    fresh factorization.  One copy of this discipline serves the
    sampler's per-group replay walk on a tableau: the hybrid engine's
    all-Clifford degenerate case and engines derived from
    :class:`TableauEngine` (the byte-tableau reference).  The production
    :class:`TableauEngine` itself samples through
    :func:`grouped_sign_walk` instead.  The factorization is built
    through ``tableau.coset_support()``.
    """
    if not shares_structure:
        return tableau.sample(shots, rng, qubits=qubits)
    if not shared_support:
        shared_support.append(tableau.coset_support())
    return tableau.sample(shots, rng, qubits=qubits, support=shared_support[0])


#: Coset factorizations by final X/Z structure
#: (:meth:`~repro.simulator.stabilizer.Tableau.structure_key`), shared by
#: every request of the process: device jobs of one circuit keep meeting
#: the same few collapsed structures.  A support reads nothing but its
#: key and its arrays are read-only, so sharing one across requests and
#: threads is safe.  Bounded by :data:`_SUPPORTS_MAX_BYTES` of estimated
#: footprint (:func:`_entry_bytes`) and cleared whole at the bound, as
#: :data:`~repro.simulator.stabilizer._PROGRAMS` is.  Lookups take no
#: lock; a miss stores its support and updates the byte tally under
#: :data:`_SUPPORTS_LOCK`, since a lost ``+=`` would let the table pass
#: its bound.
_SUPPORTS: Dict[tuple, CosetSupport] = {}
_SUPPORTS_MAX_BYTES = 4 << 20
_SUPPORTS_LOCK = threading.Lock()
_supports_bytes = 0


def _entry_bytes(structure: tuple, support: CosetSupport) -> int:
    """Estimated footprint of one :data:`_SUPPORTS` entry: the key tuple
    and its column words plus the support's arrays (about 2 kB at 12
    qubits, 415 kB at 1024)."""
    return (
        sys.getsizeof(structure)
        + sum(map(sys.getsizeof, structure))
        + support.nbytes
    )


def _remember_support(structure: tuple, support: CosetSupport) -> CosetSupport:
    """Store *support* under *structure* in :data:`_SUPPORTS`, clearing
    the table first when the entry would take it past the byte bound,
    and return the table's support for *structure* (another thread's,
    if it stored one first).  An entry larger than the bound is not
    kept."""
    global _supports_bytes
    size = _entry_bytes(structure, support)
    if size > _SUPPORTS_MAX_BYTES:
        return support
    with _SUPPORTS_LOCK:
        stored = _SUPPORTS.get(structure)
        if stored is not None:
            return stored
        if _supports_bytes + size > _SUPPORTS_MAX_BYTES:
            _SUPPORTS.clear()
            _supports_bytes = 0
        _SUPPORTS[structure] = support
        _supports_bytes += size
    return support


def grouped_sign_walk(
    circuit: QuantumCircuit,
    shots: int,
    ordered: Sequence[Group],
    errors: Mapping[int, QuantumError],
    rng: np.random.Generator,
    qubits: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The grouped walk of the production :class:`TableauEngine`.

    Returns the ``(shots, k)`` outcome bits of the trajectory groups in
    *ordered* (the sampler's visit order: first error site, clean group
    last), column *j* being ``qubits[j]`` (default every qubit).

    One clean tableau advances once over the circuit.  At every site a
    Pauli-only group injects at, it records the sign mask of each term
    used there; such a group's final signs are the clean final signs
    XOR its masks, bit for bit, so it gets no fork, injection or replay.
    A group with a reset term forks from the clean tableau at its first
    site and replays its suffix, because a reset's branch depends on the
    state; groups with the same leading ``(site, term)`` pairs share the
    state after them.

    Sampling: each group's :class:`CosetSupport` comes from the
    process-wide table :data:`_SUPPORTS`, keyed by its final X/Z
    structure (:meth:`~repro.simulator.stabilizer.Tableau.structure_key`)
    and built only on a miss, and
    all groups draw together through
    :func:`~repro.simulator.stabilizer.sample_cosets` — one uniform
    draw for the request wherever every coset is narrow enough.  Seeded
    counts and the stream position equal the per-group replay walk's
    (``tests/test_sign_walk.py``).

    The ``engine.span`` fault point fires once per group in visit order,
    as the clean walk reaches the group's first site.
    """
    instructions = list(circuit)
    n = circuit.num_qubits
    replayed = [
        any(errors[site].terms[term].kind == "reset" for site, term in key)
        for key, _ in ordered
    ]
    # Terms whose masks some Pauli-only group needs, by site, and the
    # groups each site starts, in visit order.
    masked: Dict[int, set] = {}
    starts: Dict[int, List[int]] = {}
    for index, (key, _) in enumerate(ordered):
        if key:
            starts.setdefault(key[0][0], []).append(index)
        if not replayed[index]:
            for site, term in key:
                masked.setdefault(site, set()).add(term)
    clean = Tableau(n)
    masks: Dict[Tuple[int, int], int] = {}
    finals: List[Optional[Tableau]] = [None] * len(ordered)
    pos = 0
    for site in sorted(masked.keys() | starts.keys()):
        clean.apply_instructions(instructions[pos : site + 1])
        pos = site + 1
        started = starts.get(site, ())
        for index in started:
            _faults.fault_point("engine.span", index)
        _replay_groups(
            clean,
            [(index, ordered[index][0]) for index in started if replayed[index]],
            instructions,
            errors,
            finals,
        )
        inst = instructions[site]
        for term in masked.get(site, ()):
            pauli = errors[site].terms[term].pauli
            masks[site, term] = clean.pauli_mask(pauli, inst.qubits[: len(pauli)])
    if ordered and not ordered[-1][0]:
        _faults.fault_point("engine.span", len(ordered) - 1)
    clean.apply_instructions(instructions[pos:])

    # Final signs, and the factorization of each distinct final
    # structure from the process-wide table; Pauli-only groups read the
    # clean structure.
    clean_key = clean.structure_key()
    supports: List[CosetSupport] = []
    support_of: Dict[tuple, int] = {}
    sampled: List[Tuple[int, int, int]] = []
    builds = 0
    for index, (key, group_shots) in enumerate(ordered):
        tab = finals[index]
        if tab is None:
            tab, structure, word = clean, clean_key, clean.sign_word
            for pair in key:
                word ^= masks[pair]
        else:
            structure, word = tab.structure_key(), tab.sign_word
        found = support_of.get(structure)
        if found is None:
            support = _SUPPORTS.get(structure)
            if support is None:
                support = _remember_support(structure, tab.coset_support())
                builds += 1
            found = support_of[structure] = len(supports)
            supports.append(support)
        sampled.append((found, word >> n, group_shots))
    _tracing.count(
        "tableau.sign_groups",
        sum(1 for (key, _), replay in zip(ordered, replayed) if key and not replay),
    )
    _tracing.count("tableau.replayed_groups", sum(replayed))
    _tracing.count("tableau.coset_builds", builds)
    rows = sample_cosets(supports, sampled, rng)
    bits = unpack_bit_matrix(rows, n)
    if qubits is None:
        return bits
    return bits[:, np.asarray(qubits, dtype=np.int64)]


def _replay_groups(
    clean: Tableau,
    groups: Sequence[Tuple[int, Tuple[Tuple[int, int], ...]]],
    instructions: Sequence[Instruction],
    errors: Mapping[int, QuantumError],
    finals: List[Optional[Tableau]],
) -> None:
    """Replay the reset groups that start at the clean tableau's current
    site: fork it, inject, advance to the end, and store each group's
    final tableau at its visit index in *finals*.  The state after a
    leading run of ``(site, term)`` pairs that more than one of the
    groups shares is kept and resumed from instead of replayed."""
    shared: Dict[tuple, int] = {}
    for _, key in groups:
        for depth in range(1, len(key) + 1):
            shared[key[:depth]] = shared.get(key[:depth], 0) + 1
    ckpts: Dict[tuple, Tableau] = {}
    end = len(instructions)
    for index, key in groups:
        depth = len(key)
        while depth and key[:depth] not in ckpts:
            depth -= 1
        if depth:
            state = ckpts[key[:depth]].copy()
            prev = key[depth - 1][0]
        else:
            # The clean tableau already stands past the first site.
            state = clean.copy()
            prev = key[0][0]
        for site, term in key[depth:]:
            state.apply_instructions(instructions[prev + 1 : site + 1])
            inject_into_tableau(state, instructions[site], errors[site], term)
            prev = site
            depth += 1
            if shared[key[:depth]] > 1:
                ckpts[key[:depth]] = state.copy()
        state.apply_instructions(instructions[prev + 1 : end])
        finals[index] = state


@register_engine
class TableauEngine(ExecutionEngine):
    """The Aaronson–Gottesman backend (Clifford-only, polynomial)."""

    name = "tableau"

    #: Plans carry nothing a tableau walk can reuse — Clifford updates
    #: are already O(n) per gate with no matrices to premultiply — so
    #: this backend accepts plans (forks keep them) but consumes none.
    plan_artifacts = ()

    @classmethod
    def estimate_peak_bytes(cls, circuit: QuantumCircuit, config) -> int:
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
        dup.config = self.config
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


__all__ = [
    "TableauEngine",
    "grouped_sign_walk",
    "inject_into_tableau",
    "sample_tableau_shared",
]
