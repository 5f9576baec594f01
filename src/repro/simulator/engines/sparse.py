"""Sparse computational-basis amplitude state for hybrid-segment tails.

A stabilizer state handed off at a segment boundary has at most ``2^k``
nonzero amplitudes (``k`` = coset dimension) — a GHZ state has two at
*any* width.  Non-Clifford tails made of diagonal gates (T layers, RZ/CP
phase layers, QAOA cost unitaries) never grow that support, so
materializing the full ``2^n`` dense vector per trajectory group would
waste almost all of its memory traffic.  :class:`SparseAmplitudes`
stores only ``(indices, amplitudes)`` pairs and applies gates by support
class:

* **diagonal** — elementwise phase multiply, no growth;
* **generalized permutation** (X, Y, CX, SWAP, iSWAP, …) — index
  remapping, no growth;
* **general 1q/2q** — branch into up to 2×/4× contributions, then
  coalesce duplicate indices (support at most doubles per branching
  qubit).

The hybrid engine densifies to a full :class:`StateVector` once the
support outgrows the sparse regime (or a >2-qubit operator appears); up
to that point widths beyond the dense qubit limit are fine, which is how
hybrid execution reaches workloads the dense engine cannot represent at
all.

RNG-parity: :meth:`sample` sorts the support by basis index and inverts
the cumulative distribution exactly like the dense engine's
``rng.choice`` (zero-probability entries contribute nothing to either
CDF), consuming one uniform per shot — seeded hybrid runs reproduce
dense-engine outcomes to float precision.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simulator.channels import PAULI_MATRICES
from repro.simulator.statevector import StateVector
from repro.utils.rng import RandomState, as_rng

#: Widest register sparse amplitudes (and the tableau's
#: ``coset_amplitudes`` that feeds them) can index: basis labels are
#: packed into int64 words.  The hybrid engine cannot cross its segment
#: boundary above it.
SPARSE_QUBIT_LIMIT = 62


def _coalesce(indices: np.ndarray, amps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum duplicate indices and drop exactly-cancelled amplitudes."""
    uniq, inverse = np.unique(indices, return_inverse=True)
    merged = np.zeros(uniq.size, dtype=complex)
    np.add.at(merged, inverse, amps)
    keep = merged != 0.0
    return uniq[keep], merged[keep]


class SparseAmplitudes:
    """A pure state stored as ``Σ amps[i] · |indices[i]⟩`` (little-endian).

    Indices are unique int64 basis labels; no ordering invariant is
    maintained between operations (sampling sorts on demand).
    """

    def __init__(
        self, num_qubits: int, indices: np.ndarray, amplitudes: np.ndarray
    ) -> None:
        if num_qubits < 1:
            raise SimulationError("state needs at least one qubit")
        if num_qubits > SPARSE_QUBIT_LIMIT:
            raise SimulationError(
                "sparse amplitudes pack basis indices into int64 words; "
                f"{num_qubits} qubits exceeds the {SPARSE_QUBIT_LIMIT}-qubit "
                "packing limit"
            )
        self.num_qubits = int(num_qubits)
        self.indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        self.amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if self.indices.shape != self.amplitudes.shape:
            raise SimulationError("indices and amplitudes must align")

    @classmethod
    def from_tableau(cls, tableau) -> "SparseAmplitudes":
        """Convert a stabilizer tableau at the segment boundary."""
        indices, amps = tableau.coset_amplitudes()
        return cls(tableau.num_qubits, indices, amps)

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) amplitudes."""
        return int(self.indices.size)

    def copy(self) -> "SparseAmplitudes":
        """An independent deep copy (``O(nnz)``)."""
        dup = SparseAmplitudes.__new__(SparseAmplitudes)
        dup.num_qubits = self.num_qubits
        dup.indices = self.indices.copy()
        dup.amplitudes = self.amplitudes.copy()
        return dup

    def norm(self) -> float:
        """Euclidean norm of the stored amplitudes."""
        return float(np.linalg.norm(self.amplitudes))

    # -- gate application ------------------------------------------------------

    def _check_qubit(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit state"
            )
        return int(qubit)

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "SparseAmplitudes":
        """Apply a 1- or 2-qubit operator to the stored support.

        Larger operators are not supported here — the hybrid engine
        densifies first (:meth:`to_statevector`).
        """
        matrix = np.asarray(matrix, dtype=complex)
        k = len(qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise SimulationError(
                f"matrix shape {matrix.shape} does not match {k} qubits"
            )
        if len(set(qubits)) != k:
            raise SimulationError(f"operands must be distinct, got {tuple(qubits)}")
        if k == 1:
            return self._apply_1q(matrix, self._check_qubit(qubits[0]))
        if k == 2:
            return self._apply_2q(
                matrix, self._check_qubit(qubits[0]), self._check_qubit(qubits[1])
            )
        raise SimulationError(
            "sparse amplitudes handle 1- and 2-qubit operators; "
            "densify before applying larger blocks"
        )

    def _apply_1q(self, matrix: np.ndarray, qubit: int) -> "SparseAmplitudes":
        mask = np.int64(1) << qubit
        bit = (self.indices & mask) != 0
        m00, m01, m10, m11 = matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1]
        if m01 == 0.0 and m10 == 0.0:  # diagonal
            self.amplitudes *= np.where(bit, m11, m00)
            return self
        if m00 == 0.0 and m11 == 0.0:  # anti-diagonal: pure bit flip
            self.indices = self.indices ^ mask
            self.amplitudes *= np.where(bit, m01, m10)
            return self
        # general: each entry branches into both values of the bit
        base = self.indices & ~mask
        to0 = np.where(bit, m01, m00) * self.amplitudes
        to1 = np.where(bit, m11, m10) * self.amplitudes
        self.indices, self.amplitudes = _coalesce(
            np.concatenate([base, base | mask]), np.concatenate([to0, to1])
        )
        return self

    def _apply_2q(self, matrix: np.ndarray, q0: int, q1: int) -> "SparseAmplitudes":
        mask0 = np.int64(1) << q0
        mask1 = np.int64(1) << q1
        sub = (((self.indices & mask1) != 0).astype(np.int64) << 1) | (
            (self.indices & mask0) != 0
        ).astype(np.int64)
        off_diag = matrix[~np.eye(4, dtype=bool)]
        if not off_diag.any():  # diagonal
            self.amplitudes *= np.diag(matrix)[sub]
            return self
        if np.all((matrix != 0.0).sum(axis=0) == 1):  # generalized permutation
            perm = np.argmax(matrix != 0.0, axis=0)
            factor = matrix[perm, np.arange(4)]
            out = perm[sub]
            base = self.indices & ~(mask0 | mask1)
            self.indices = (
                base | np.where(out & 1, mask0, 0) | np.where(out & 2, mask1, 0)
            )
            self.amplitudes *= factor[sub]
            return self
        base = self.indices & ~(mask0 | mask1)
        all_indices = []
        all_amps = []
        for row in range(4):
            coeff = matrix[row, sub]
            target = base | (mask0 if row & 1 else 0) | (mask1 if row & 2 else 0)
            all_indices.append(target)
            all_amps.append(coeff * self.amplitudes)
        self.indices, self.amplitudes = _coalesce(
            np.concatenate(all_indices), np.concatenate(all_amps)
        )
        return self

    def apply_pauli(self, pauli: str, qubits: Sequence[int]) -> "SparseAmplitudes":
        """Apply a Pauli string (index *i* acts on ``qubits[i]``); support
        is remapped, never grown."""
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        for label, q in zip(pauli.upper(), qubits):
            if label == "I":
                continue
            if label not in PAULI_MATRICES:
                raise SimulationError(f"unknown Pauli label {label!r}")
            self._apply_1q(PAULI_MATRICES[label], self._check_qubit(q))
        return self

    # -- measurement -----------------------------------------------------------

    def marginal_probability_one(self, qubit: int) -> float:
        """``P(qubit = 1)`` summed over the stored support."""
        mask = np.int64(1) << self._check_qubit(qubit)
        ones = self.amplitudes[(self.indices & mask) != 0]
        return float(np.real(np.vdot(ones, ones)))

    def collapse(self, qubit: int, outcome: int) -> float:
        """Project *qubit* onto *outcome* and renormalize; returns the
        pre-collapse probability (raises if numerically zero)."""
        return self._project(qubit, outcome, self.marginal_probability_one(qubit))

    def _project(self, qubit: int, outcome: int, p1: float) -> float:
        """:meth:`collapse` given ``p1 = P(qubit = 1)`` already computed."""
        prob = p1 if outcome else 1.0 - p1
        if prob < 1e-15:
            raise SimulationError(
                f"cannot collapse qubit {qubit} onto impossible outcome {outcome}"
            )
        mask = np.int64(1) << qubit
        keep = ((self.indices & mask) != 0) == bool(outcome)
        self.indices = self.indices[keep]
        self.amplitudes = self.amplitudes[keep] * (1.0 / math.sqrt(prob))
        return prob

    def measure(self, qubit: int, rng: RandomState = None) -> int:
        """Projectively measure one qubit (same draw discipline as the
        dense engine: one uniform, ``outcome = u < P(1)``)."""
        r = as_rng(rng)
        p1 = self.marginal_probability_one(qubit)
        outcome = 1 if r.random() < p1 else 0
        self._project(qubit, outcome, p1)
        return outcome

    def reset(self, qubit: int, rng: RandomState = None) -> "SparseAmplitudes":
        """Measure-and-flip reset of one qubit to ``|0⟩``."""
        if self.measure(qubit, rng):
            self.indices = self.indices ^ (np.int64(1) << qubit)
        return self

    def sample(
        self,
        shots: int,
        rng: RandomState = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Draw *shots* basis-state samples without collapsing.

        Same contract and CDF inversion as :meth:`StateVector.sample`:
        support sorted by basis index, cumulative sum, one uniform per
        shot searched with ``side="right"`` — zero-probability basis
        states contribute nothing to either engine's CDF, so outcomes
        match the dense engine's on the same seeded stream.
        """
        r = as_rng(rng)
        order = np.argsort(self.indices, kind="stable")
        sorted_indices = self.indices[order]
        probs = np.abs(self.amplitudes[order]) ** 2
        probs = probs / probs.sum()
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        u = r.random(int(shots))
        outcomes = sorted_indices[np.searchsorted(cdf, u, side="right")]
        qs = (
            np.arange(self.num_qubits, dtype=np.int64)
            if qubits is None
            else np.asarray(list(qubits), dtype=np.int64)
        )
        return ((outcomes[:, None] >> qs[None, :]) & 1).astype(np.uint8)

    # -- observables / conversion ----------------------------------------------

    def expectation_pauli(self, pauli: str, qubits: Sequence[int]) -> float:
        """``⟨ψ| P |ψ⟩`` contracted over the stored support only."""
        work = self.copy()
        work.apply_pauli(pauli, qubits)
        order_s = np.argsort(self.indices, kind="stable")
        order_w = np.argsort(work.indices, kind="stable")
        si = self.indices[order_s]
        wi = work.indices[order_w]
        pos = np.searchsorted(si, wi)
        pos_clip = np.minimum(pos, si.size - 1)
        valid = si[pos_clip] == wi
        return float(
            np.real(
                np.sum(
                    np.conj(self.amplitudes[order_s][pos_clip[valid]])
                    * work.amplitudes[order_w][valid]
                )
            )
        )

    def to_statevector(self) -> StateVector:
        """Densify into a full :class:`StateVector` (raises beyond the
        dense qubit limit — sparse states can be wider than dense ones)."""
        from repro.simulator.statevector import DENSE_QUBIT_LIMIT

        if self.num_qubits > DENSE_QUBIT_LIMIT:
            raise SimulationError(
                f"cannot densify a {self.num_qubits}-qubit sparse state: "
                f"the dense engine caps at {DENSE_QUBIT_LIMIT} qubits"
            )
        data = np.zeros(1 << self.num_qubits, dtype=complex)
        data[self.indices] = self.amplitudes
        return StateVector(self.num_qubits, data=data)

    def __repr__(self) -> str:
        return (
            f"<SparseAmplitudes {self.num_qubits} qubits, nnz {self.nnz}, "
            f"norm {self.norm():.6f}>"
        )


__all__ = ["SparseAmplitudes", "SPARSE_QUBIT_LIMIT"]
