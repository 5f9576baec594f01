"""Pauli observables and counts-based expectation estimation.

The tightly-coupled workloads of Section 2.6 (VQE and friends) need
Hamiltonian expectation values estimated from measurement histograms.
This module provides :class:`PauliTerm`/:class:`PauliSum`, the basis
rotation circuits that map each term onto a Z-string measurement, and
the estimator combining counts into ``⟨H⟩``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.errors import ReproError
from repro.simulator.counts import Counts


@dataclass(frozen=True)
class PauliTerm:
    """A weighted Pauli string: ``coefficient · P₀ ⊗ P₁ ⊗ …``.

    ``paulis`` maps qubit index → label in {X, Y, Z} (identity omitted).
    """

    coefficient: float
    paulis: Tuple[Tuple[int, str], ...]  # sorted ((qubit, label), ...)

    @classmethod
    def make(cls, coefficient: float, paulis: Mapping[int, str]) -> "PauliTerm":
        cleaned: Dict[int, str] = {}
        for q, label in paulis.items():
            label = label.upper()
            if label == "I":
                continue
            if label not in ("X", "Y", "Z"):
                raise ReproError(f"invalid Pauli label {label!r}")
            cleaned[int(q)] = label
        return cls(float(coefficient), tuple(sorted(cleaned.items())))

    @property
    def is_identity(self) -> bool:
        return not self.paulis

    @property
    def qubits(self) -> Tuple[int, ...]:
        return tuple(q for q, _ in self.paulis)

    def measurement_basis_circuit(self, num_qubits: int) -> QuantumCircuit:
        """Rotations mapping this term's eigenbasis onto the Z basis:
        H for X, S†·H for Y, nothing for Z."""
        qc = QuantumCircuit(num_qubits, name="basis-rotation")
        for q, label in self.paulis:
            if label == "X":
                qc.h(q)
            elif label == "Y":
                qc.sdg(q)
                qc.h(q)
        return qc

    def expectation_from_counts(self, counts: Counts) -> float:
        """``⟨P⟩`` from counts measured *after* the basis rotation."""
        if self.is_identity:
            return 1.0
        return counts.expectation_z(self.qubits)

    def __repr__(self) -> str:
        body = " ".join(f"{label}{q}" for q, label in self.paulis) or "I"
        return f"{self.coefficient:+.6g}·{body}"


class PauliSum:
    """A Hamiltonian: sum of weighted Pauli strings."""

    def __init__(self, terms: Iterable[PauliTerm]):
        merged: Dict[Tuple[Tuple[int, str], ...], float] = {}
        for t in terms:
            merged[t.paulis] = merged.get(t.paulis, 0.0) + t.coefficient
        self.terms: Tuple[PauliTerm, ...] = tuple(
            PauliTerm(c, p) for p, c in merged.items() if abs(c) > 1e-15
        )

    @classmethod
    def from_list(cls, spec: Sequence[Tuple[float, Mapping[int, str]]]) -> "PauliSum":
        """``PauliSum.from_list([(0.5, {0: "Z"}), (-0.2, {0: "X", 1: "X"})])``"""
        return cls(PauliTerm.make(c, p) for c, p in spec)

    @property
    def num_qubits(self) -> int:
        highest = -1
        for t in self.terms:
            for q, _ in t.paulis:
                highest = max(highest, q)
        return highest + 1

    @property
    def identity_offset(self) -> float:
        return sum(t.coefficient for t in self.terms if t.is_identity)

    def measured_terms(self) -> List[PauliTerm]:
        return [t for t in self.terms if not t.is_identity]

    def grouped_terms(self) -> List[List[PauliTerm]]:
        """Group qubit-wise-commuting terms so one measured circuit serves
        several terms (the standard shot-saving trick): two terms
        group when no qubit carries conflicting bases."""
        groups: List[Tuple[Dict[int, str], List[PauliTerm]]] = []
        for term in sorted(
            self.measured_terms(), key=lambda t: -len(t.paulis)
        ):
            placed = False
            for basis, members in groups:
                if all(basis.get(q, label) == label for q, label in term.paulis):
                    basis.update(dict(term.paulis))
                    members.append(term)
                    placed = True
                    break
            if not placed:
                groups.append((dict(term.paulis), [term]))
        return [members for _, members in groups]

    def matrix(self) -> np.ndarray:
        """Dense matrix (little-endian), for validation on small systems."""
        n = self.num_qubits
        if n > 12:
            raise ReproError("dense Hamiltonian limited to 12 qubits")
        from repro.simulator.channels import PAULI_MATRICES

        dim = 1 << max(n, 1)
        out = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            labels = {q: label for q, label in term.paulis}
            m = np.eye(1, dtype=complex)
            for q in reversed(range(max(n, 1))):
                m = np.kron(m, PAULI_MATRICES[labels.get(q, "I")])
            out += term.coefficient * m
        return out

    def exact_ground_energy(self) -> float:
        """Smallest eigenvalue (validation reference)."""
        return float(np.linalg.eigvalsh(self.matrix())[0])

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return " ".join(repr(t) for t in self.terms) or "0"


@lru_cache(maxsize=64)
def _parity_signs(k: int) -> np.ndarray:
    """``(-1)^popcount(j)`` for the ``2^k`` indices of a k-qubit marginal."""
    idx = np.arange(1 << k)
    parity = idx
    for shift in (16, 8, 4, 2, 1):
        parity = parity ^ (parity >> shift)
    return 1.0 - 2.0 * (parity & 1)


def expectation_statevector(hamiltonian: PauliSum, state) -> float:
    """Exact ``⟨H⟩`` on a prepared :class:`~repro.simulator.statevector.StateVector`.

    Terms are evaluated through their qubit-wise-commuting groups: each
    group needs at most one basis-rotated copy of the state (none at all
    for Z-only groups) and exactly one probability vector, after which
    every member term is a Z-string contracted as a signed marginal —
    no per-term state copies or full-state allocations.  This is the
    zero-shot-noise expectation path used by tight-loop benchmarking
    and algorithm validation.
    """
    n = state.num_qubits
    total = hamiltonian.identity_offset
    for group in hamiltonian.grouped_terms():
        basis: Dict[int, str] = {}
        for term in group:
            basis.update(dict(term.paulis))
        if all(label == "Z" for label in basis.values()):
            work = state  # already diagonal; no copy, no rotation
        else:
            work = state.copy()
            rotation = PauliTerm.make(1.0, basis).measurement_basis_circuit(n)
            for inst in rotation:
                work.apply_gate(inst.name, inst.qubits)
        tensor = work.probabilities().reshape((2,) * n)
        for term in group:
            qs = set(term.qubits)
            # qubit q lives on tensor axis n-1-q; marginalize the rest
            other_axes = tuple(n - 1 - q for q in range(n) if q not in qs)
            marginal = tensor.sum(axis=other_axes).reshape(-1)
            total += term.coefficient * float(
                marginal @ _parity_signs(len(qs))
            )
    return float(total)


def expectation_stabilizer(hamiltonian: PauliSum, tableau) -> float:
    """Exact ``⟨H⟩`` on a prepared :class:`~repro.simulator.stabilizer.Tableau`.

    Every Pauli term of a stabilizer state evaluates to exactly ``−1``,
    ``0`` or ``+1`` (zero whenever the term anticommutes with any
    stabilizer generator), so the contraction is a per-term popcount
    walk over the tableau's packed row words with no state copies —
    hundreds of qubits are fine.  This is the Z-basis expectation path
    the hybrid layer uses for Clifford ansätze and calibration-style
    circuits.
    """
    total = hamiltonian.identity_offset
    for term in hamiltonian.measured_terms():
        labels = "".join(label for _, label in term.paulis)
        total += term.coefficient * tableau.expectation_pauli(labels, term.qubits)
    return float(total)


def expectation_sparse(hamiltonian: PauliSum, sparse) -> float:
    """Exact ``⟨H⟩`` on a prepared
    :class:`~repro.simulator.engines.sparse.SparseAmplitudes` state.

    Each Pauli term contracts over the stored support only (``O(nnz)``
    per term), so Clifford-prefix + sparse-tail states — including
    widths beyond the dense limit — evaluate without ever materializing
    ``2^n`` amplitudes.  This is the expectation path of the hybrid
    segment engine while its tail stays sparse.
    """
    total = hamiltonian.identity_offset
    for term in hamiltonian.measured_terms():
        labels = "".join(label for _, label in term.paulis)
        total += term.coefficient * sparse.expectation_pauli(labels, term.qubits)
    return float(total)


def expectation_mps(hamiltonian: PauliSum, mps) -> float:
    """Exact ``⟨H⟩`` on a prepared
    :class:`~repro.simulator.engines.mps.MPSState`.

    Each Pauli term runs the MPO-free local transfer-matrix sweep
    (:meth:`~repro.simulator.engines.mps.MPSState.expectation_pauli`):
    with the canonical center inside the term's site span, only the
    spanned sites contract — ``O(span · chi³)`` per term, independent
    of the total qubit count, so 50–100+ qubit low-entanglement ansätze
    evaluate without ever materializing ``2^n`` amplitudes.  "Exact"
    means exact on the (possibly truncated) MPS; the state's cumulative
    ``truncation_error`` bounds the representation loss.
    """
    total = hamiltonian.identity_offset
    for term in hamiltonian.measured_terms():
        labels = "".join(label for _, label in term.paulis)
        total += term.coefficient * mps.expectation_pauli(labels, term.qubits)
    return float(total)


def exact_expectation(hamiltonian: PauliSum, circuit: QuantumCircuit) -> float:
    """Exact ``⟨H⟩`` on the state prepared by *circuit*, engine-dispatched.

    Routed through the execution-engine registry
    (:func:`repro.simulator.engines.prepare_engine`): Clifford-only
    circuits evaluate on a stabilizer tableau (polynomial, exact ±1/0
    term values), circuits with an entangling Clifford prefix on the
    hybrid segment engine (whichever representation the tail ended in),
    and dense states through the grouped
    :func:`expectation_statevector` contraction.  Expectations carry no
    RNG stream, so the default ``"fast"`` sampling mode upgrades to the
    ``"auto"`` routing here; every other mode is honoured as-is.
    """
    from repro.simulator import sampler
    from repro.simulator.engines import prepare_engine

    mode = "auto" if sampler.ENGINE == "fast" else sampler.ENGINE
    return prepare_engine(circuit, mode).expectation(hamiltonian)


def estimate_expectation(
    hamiltonian: PauliSum,
    run_circuit,
    base_circuit: QuantumCircuit,
    *,
    shots: int = 1024,
) -> float:
    """Estimate ``⟨H⟩`` on the state prepared by *base_circuit*.

    *run_circuit* is any callable ``circuit, shots -> Counts`` — in the
    tight HPC loop it is ``client.run``; tests pass the noiseless
    sampler.  One measured circuit is executed per commuting group.
    """
    total = hamiltonian.identity_offset
    n = base_circuit.num_qubits
    for group in hamiltonian.grouped_terms():
        basis: Dict[int, str] = {}
        for term in group:
            basis.update(dict(term.paulis))
        meas = base_circuit.copy(name=f"{base_circuit.name}-meas")
        rotation = PauliTerm.make(1.0, basis).measurement_basis_circuit(n)
        meas.compose(rotation)
        meas.measure_all()
        counts = run_circuit(meas, shots)
        for term in group:
            total += term.coefficient * term.expectation_from_counts(counts)
    return float(total)


# ---------------------------------------------------------------------------
# stock Hamiltonians
# ---------------------------------------------------------------------------


def h2_hamiltonian(bond_length: float = 0.735) -> PauliSum:
    """The standard 2-qubit reduced H₂ Hamiltonian (parity mapping).

    Coefficients at the equilibrium bond length 0.735 Å (O'Malley et al.
    / Kandala et al. convention); ground energy ≈ −1.852 Hartree
    (including nuclear repulsion absorbed into the identity term).
    Other bond lengths use a crude Morse-flavoured interpolation that
    keeps the VQE landscape realistic without a chemistry package.
    """
    base = {
        "g0": -1.05237, "g1": 0.39793, "g2": -0.39793,
        "g3": -0.01128, "g4": 0.18093,
    }
    stretch = bond_length / 0.735
    scale = 1.0 / stretch
    g = {
        "g0": base["g0"] * (0.8 + 0.2 * scale),
        "g1": base["g1"] * scale,
        "g2": base["g2"] * scale,
        "g3": base["g3"] * scale,
        "g4": base["g4"] * scale**0.5,
    }
    return PauliSum.from_list(
        [
            (g["g0"], {}),
            (g["g1"], {0: "Z"}),
            (g["g2"], {1: "Z"}),
            (g["g3"], {0: "Z", 1: "Z"}),
            (g["g4"], {0: "X", 1: "X"}),
            (g["g4"], {0: "Y", 1: "Y"}),
        ]
    )


def transverse_field_ising(
    num_qubits: int, *, j: float = 1.0, h: float = 1.0, periodic: bool = False
) -> PauliSum:
    """1-D transverse-field Ising chain: ``-J Σ ZᵢZᵢ₊₁ - h Σ Xᵢ``."""
    if num_qubits < 2:
        raise ReproError("Ising chain needs >= 2 qubits")
    spec: List[Tuple[float, Mapping[int, str]]] = []
    for i in range(num_qubits - 1):
        spec.append((-j, {i: "Z", i + 1: "Z"}))
    if periodic:
        spec.append((-j, {num_qubits - 1: "Z", 0: "Z"}))
    for i in range(num_qubits):
        spec.append((-h, {i: "X"}))
    return PauliSum.from_list(spec)


__all__ = [
    "PauliTerm",
    "PauliSum",
    "estimate_expectation",
    "exact_expectation",
    "expectation_mps",
    "expectation_sparse",
    "expectation_stabilizer",
    "expectation_statevector",
    "h2_hamiltonian",
    "transverse_field_ising",
]
