"""Dense state-vector engine with specialized fast gate kernels.

This is the computational substrate standing in for the paper's physical
QPU: a little-endian ``2^n`` complex state with vectorized gate
application.  Twenty qubits — the size of the modeled device — is a
16 MiB state, so per-gate memory traffic dominates the cost of every
workload built on top (shot sampling, GHZ calibration checks, the
VQE/QAOA loops, the 146-day operations run).

Kernel dispatch
---------------
:meth:`StateVector.apply_matrix` routes each operator to the cheapest
kernel that handles it:

* **1-qubit kernels** (:meth:`StateVector._apply_1q`): the state is
  viewed as ``(high, 2, low)`` with ``low = 2^q`` — a pure reshape, no
  axis movement or copy.  Diagonal matrices (Z, S, T, RZ, P) become one
  or two in-place elementwise multiplies; anti-diagonal matrices (X, Y)
  a scaled half-swap; the general case two half-state AXPY updates.
* **2-qubit kernels** (:meth:`StateVector._apply_2q`): the state is
  viewed as ``(high, 2, mid, 2, low)`` exposing both operand bits as
  axes.  Diagonal matrices (CZ, CP, RZZ) are elementwise multiplies on
  quarter slices; rows of the 4×4 matrix that act as the identity (the
  control-off subspace of CX, the fixed points of SWAP) are skipped
  entirely, so permutation-like gates touch only the slices they move.
* **generic fallback** (:meth:`StateVector.apply_matrix_generic`): the
  original ``moveaxis``-based contraction, kept for k-qubit operators
  and as the reference kernel of :mod:`repro.testing.reference`, the
  seed engine the equivalence tests and the perf harness compare
  against.

Measurement helpers (:meth:`marginal_probability_one`,
:meth:`collapse`) operate on the same bit-sliced views and never
materialize the full ``2^n`` probability tensor; :meth:`sample`
extracts outcome bits with a single vectorized shift-and-mask.

Conventions
-----------
* little-endian: basis index ``i = Σ_q b_q · 2^q`` (qubit 0 is the LSB);
* two-qubit matrices are indexed ``i = b_{q1}·2 + b_{q0}`` for operands
  ``(q0, q1)``, matching :mod:`repro.circuits.gates`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import UNITARY_NOOPS
from repro.errors import SimulationError
from repro.utils.rng import RandomState, as_rng

_PAULIS: Dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Widest state the dense engine will allocate (a 1 GiB amplitude
#: vector).  The sampler's automatic stabilizer routing keys off this
#: same constant, so raising it moves both limits together.
DENSE_QUBIT_LIMIT = 26


def sorted_diagonal(
    diagonal: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> Tuple[np.ndarray, List[int]]:
    """Validate a ``2^k``-entry diagonal table and re-index it so bit
    *j* of the table index corresponds to the *j*-th smallest operand.

    Returns ``(diag, sorted_qubits)``.  Shared by the scalar
    :meth:`StateVector.apply_diagonal` kernel and its batched variant
    (:class:`repro.simulator.batched.BatchedStateVector`), so the two
    agree on the operand convention by construction.
    """
    k = len(qubits)
    diag = np.asarray(diagonal, dtype=complex).reshape(-1)
    if diag.shape != (1 << k,):
        raise SimulationError(
            f"diagonal length {diag.size} does not match {k} qubits"
        )
    if len(set(qubits)) != k:
        raise SimulationError(f"operands must be distinct, got {tuple(qubits)}")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise SimulationError(
                f"qubit {q} out of range for {num_qubits}-qubit state"
            )
    order = sorted(range(k), key=lambda j: qubits[j])
    if order != list(range(k)):
        # Re-index so bit j corresponds to the j-th smallest operand.
        idx = np.arange(1 << k)
        src = np.zeros(1 << k, dtype=np.int64)
        for new_bit, old_bit in enumerate(order):
            src |= ((idx >> new_bit) & 1) << old_bit
        diag = diag[src]
    return diag, sorted(qubits)


def placement_permutation(
    perm: Optional[Sequence[int]],
    qubits: Iterable[int],
    tile_qubits: int,
    num_qubits: int,
) -> Optional[List[int]]:
    """The minimal-move logical→physical permutation that places every
    qubit in *qubits* below *tile_qubits*, starting from *perm*
    (``None`` = canonical).  Returns ``None`` when the current layout
    already satisfies the placement.

    Each misplaced qubit swaps positions with whichever qubit currently
    owns a free low slot, so unrelated qubits move at most once.  The
    move rule behind :meth:`StateVector.remap_low`.
    """
    current = list(perm) if perm is not None else list(range(num_qubits))
    need = [q for q in qubits if current[q] >= tile_qubits]
    if not need:
        return None
    wanted = set(qubits)
    owner = [0] * num_qubits
    for q, p in enumerate(current):
        owner[p] = q
    free = iter(p for p in range(tile_qubits) if owner[p] not in wanted)
    for q in need:
        p = next(free)
        displaced, high = owner[p], current[q]
        current[q], current[displaced] = p, high
        owner[p], owner[high] = q, displaced
    return current


def permutation_transpose_order(
    old: Sequence[int], new: Sequence[int], num_qubits: int
) -> List[int]:
    """Tensor-axis order moving amplitudes from layout *old* to *new*.

    Axis ``n-1-p`` of the ``(2,)*n`` view carries physical bit *p*;
    logical qubit *q* must move from axis ``n-1-old[q]`` to axis
    ``n-1-new[q]``, which is exactly ``order[n-1-new[q]] = n-1-old[q]``
    under NumPy's ``transpose`` convention."""
    order = [0] * num_qubits
    for q in range(num_qubits):
        order[num_qubits - 1 - new[q]] = num_qubits - 1 - old[q]
    return order


class StateVector:
    """A mutable n-qubit pure state.

    Created in ``|0…0⟩`` unless an explicit amplitude vector is given.
    """

    def __init__(self, num_qubits: int, data: Optional[np.ndarray] = None) -> None:
        if num_qubits < 1:
            raise SimulationError("state needs at least one qubit")
        if num_qubits > DENSE_QUBIT_LIMIT:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the dense-state limit "
                f"({DENSE_QUBIT_LIMIT})"
            )
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        if data is None:
            self._data = np.zeros(dim, dtype=complex)
            self._data[0] = 1.0
        else:
            arr = np.asarray(data, dtype=complex).reshape(-1)
            if arr.shape != (dim,):
                raise SimulationError(
                    f"state vector for {num_qubits} qubits must have length {dim}, "
                    f"got {arr.shape}"
                )
            self._data = arr.copy()

    # -- basic accessors ------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The amplitude vector in canonical qubit order (a live view;
        mutate with care).  Unwinds any pending lazy qubit remap first,
        so callers never observe a permuted layout."""
        self.unwind_remap()
        return self._data

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2^n``."""
        return self._data.size

    def copy(self) -> "StateVector":
        """An independent deep copy of the state."""
        # Fast path: a single allocation.  Routing through __init__ would
        # copy the amplitude array twice (once here, once in the ``data``
        # validation branch).
        dup = StateVector.__new__(StateVector)
        dup.num_qubits = self.num_qubits
        dup._data = self._data.copy()
        dup._perm = self._perm  # forks stay lazily remapped
        return dup

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector (1 for a valid state)."""
        self.unwind_remap()
        return float(np.linalg.norm(self._data))

    def normalize(self) -> "StateVector":
        """Rescale to unit norm in place; raises on a numerically zero state."""
        n = self.norm()
        if n < 1e-300:
            raise SimulationError("cannot normalize a zero state")
        self._data /= n
        return self

    def probabilities(self) -> np.ndarray:
        """Basis-state probabilities ``|ψ_i|²``."""
        self.unwind_remap()
        return np.abs(self._data) ** 2

    def fidelity(self, other: "StateVector") -> float:
        """``|⟨self|other⟩|²``."""
        if other.num_qubits != self.num_qubits:
            raise SimulationError("fidelity requires equal qubit counts")
        self.unwind_remap()
        other.unwind_remap()
        return float(abs(np.vdot(self._data, other._data)) ** 2)

    # -- lazy qubit remap -----------------------------------------------------

    #: Logical→physical qubit permutation, or ``None`` when the layout is
    #: canonical.  ``_perm[q]`` is the physical bit position currently
    #: holding logical qubit *q*.  The blocked sweep executor
    #: (:mod:`repro.simulator.engines.dense`) moves high-order operands
    #: into tile-local positions via :meth:`remap_low`; the permutation
    #: is applied transparently to later ``apply_*`` operands and unwound
    #: at every observation boundary (``data``, norms, probabilities,
    #: measurement, sampling), so RNG draw order and seeded counts are
    #: untouched.  A class-level default keeps ``__new__``-based
    #: construction sites (copy / row aliases) canonical for free.
    _perm: Optional[Tuple[int, ...]] = None

    def remap_low(self, qubits: Iterable[int], tile_qubits: int) -> None:
        """Permute the physical layout so every listed logical qubit
        occupies a position below *tile_qubits* (one transpose pass,
        ~0.1–0.2 full gate applications; a no-op when already placed)."""
        target = placement_permutation(
            self._perm, qubits, tile_qubits, self.num_qubits
        )
        if target is not None:
            self._apply_permutation(target)

    def unwind_remap(self) -> None:
        """Restore the canonical layout (a no-op when already canonical)."""
        if self._perm is not None:
            self._apply_permutation(range(self.num_qubits))

    def _apply_permutation(self, new_perm: Sequence[int]) -> None:
        """Physically transpose amplitudes from the current layout into
        *new_perm* and record it (``None`` when it is the identity)."""
        n = self.num_qubits
        old = self._perm if self._perm is not None else tuple(range(n))
        new = tuple(new_perm)
        identity = tuple(range(n))
        if new != old:
            order = permutation_transpose_order(old, new, n)
            tensor = self._data.reshape((2,) * n).transpose(order)
            self._data = np.ascontiguousarray(tensor).reshape(-1)
        self._perm = None if new == identity else new

    def _physical(self, qubits: Sequence[int]) -> Sequence[int]:
        """Translate logical operands into the current physical layout.
        Out-of-range operands pass through untouched so the kernels'
        own validation raises the canonical error."""
        perm = self._perm
        if perm is None:
            return qubits
        return [perm[q] if 0 <= q < len(perm) else q for q in qubits]

    # -- gate application -------------------------------------------------------

    def _axis(self, qubit: int) -> int:
        """Tensor axis of *qubit* in the C-ordered ``(2,)*n`` view."""
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit state"
            )
        return self.num_qubits - 1 - qubit

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "StateVector":
        """Apply a ``2^k × 2^k`` unitary (or Kraus operator) to *qubits*.

        ``qubits`` lists operands least-significant-first with respect to
        the matrix's own index convention.  One- and two-qubit operators
        dispatch to specialized bit-sliced kernels; larger operators fall
        back to :meth:`apply_matrix_generic`.
        """
        k = len(qubits)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (1 << k, 1 << k):
            raise SimulationError(
                f"matrix shape {matrix.shape} does not match {k} qubits"
            )
        if len(set(qubits)) != k:
            raise SimulationError(f"operands must be distinct, got {tuple(qubits)}")
        for q in qubits:
            self._axis(q)  # range check
        phys = self._physical(qubits)
        if k == 1:
            return self._apply_1q(matrix, phys[0])
        if k == 2:
            return self._apply_2q(matrix, phys[0], phys[1])
        return self._apply_generic(matrix, phys)

    def apply_matrix_generic(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "StateVector":
        """The generic k-qubit ``moveaxis`` contraction (reference path).

        Semantically identical to :meth:`apply_matrix` but allocates the
        full contracted state; the equivalence suite pins the fast
        kernels against it.
        """
        return self._apply_generic(matrix, self._physical(qubits))

    def _apply_generic(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "StateVector":
        """:meth:`apply_matrix_generic` on already-physical operands."""
        matrix = np.asarray(matrix, dtype=complex)
        k = len(qubits)
        n = self.num_qubits
        tensor = self._data.reshape((2,) * n)
        # Move operand axes to the front, most-significant operand first,
        # so the C-order flattening of the leading block matches the
        # matrix convention (index = Σ b_{q_j} 2^j).
        axes = [self._axis(q) for q in reversed(qubits)]
        tensor = np.moveaxis(tensor, axes, range(k))
        block = tensor.reshape(1 << k, -1)
        block = matrix @ block
        tensor = block.reshape((2,) * n)
        tensor = np.moveaxis(tensor, range(k), axes)
        self._data = np.ascontiguousarray(tensor).reshape(-1)
        return self

    def _apply_1q(self, matrix: np.ndarray, qubit: int) -> "StateVector":
        """In-place single-qubit kernel on the ``(high, 2, low)`` view."""
        view = self._data.reshape(-1, 2, 1 << qubit)
        a = view[:, 0, :]
        b = view[:, 1, :]
        m00, m01 = matrix[0, 0], matrix[0, 1]
        m10, m11 = matrix[1, 0], matrix[1, 1]
        if m01 == 0.0 and m10 == 0.0:  # diagonal: Z, S, T, RZ, P
            if m00 != 1.0:
                a *= m00
            if m11 != 1.0:
                b *= m11
        elif m00 == 0.0 and m11 == 0.0:  # anti-diagonal: X, Y
            new_a = m01 * b
            view[:, 1, :] = m10 * a if m10 != 1.0 else a
            view[:, 0, :] = new_a
        elif (1 << qubit) >= 16:
            # Dense, wide inner block: one batched BLAS contraction
            # ((2,2) @ (2, low) per high-index) beats four AXPY passes.
            self._data = np.matmul(matrix, view).reshape(-1)
        elif qubit == 0:
            # Inner block of width 1: einsum handles the interleaved
            # layout better than strided AXPY or tiny-batch matmul.
            out = np.empty_like(view)
            np.einsum("ij,ajb->aib", matrix, view, out=out)
            self._data = out.reshape(-1)
        else:
            new_a = m00 * a + m01 * b
            new_b = m10 * a + m11 * b
            view[:, 0, :] = new_a
            view[:, 1, :] = new_b
        return self

    def _apply_2q(self, matrix: np.ndarray, q0: int, q1: int) -> "StateVector":
        """In-place two-qubit kernel on the ``(high, 2, mid, 2, low)`` view.

        Matrix sub-index ``j`` has bit 0 = operand ``q0``, bit 1 =
        operand ``q1``; ``slices[j]`` is the corresponding state slice
        regardless of which operand is the more significant qubit.
        """
        ql, qh = (q0, q1) if q0 < q1 else (q1, q0)
        view = self._data.reshape(-1, 2, 1 << (qh - ql - 1), 2, 1 << ql)
        if q0 < q1:
            slices = [view[:, j >> 1, :, j & 1, :] for j in range(4)]
        else:
            slices = [view[:, j & 1, :, j >> 1, :] for j in range(4)]
        off_diagonal = [
            (i, j) for i in range(4) for j in range(4) if i != j and matrix[i, j] != 0.0
        ]
        if not off_diagonal:  # diagonal: CZ, CP, RZZ
            for j in range(4):
                d = matrix[j, j]
                if d != 1.0:
                    slices[j] *= d
            return self
        # Rows acting as the identity (CX control-off subspace, SWAP fixed
        # points) are never written; only sources feeding a written row
        # need saving, and only if that source row is itself rewritten.
        active = [
            i
            for i in range(4)
            if not (
                matrix[i, i] == 1.0
                and all(matrix[i, j] == 0.0 for j in range(4) if j != i)
            )
        ]
        sources = {j for i in active for j in range(4) if matrix[i, j] != 0.0}
        saved = {
            j: (slices[j].copy() if j in active else slices[j]) for j in sources
        }
        for i in active:
            acc: Optional[np.ndarray] = None
            for j in range(4):
                c = matrix[i, j]
                if c == 0.0:
                    continue
                term = saved[j] if c == 1.0 else c * saved[j]
                if acc is None:
                    acc = term if term is not saved[j] else term.copy()
                else:
                    acc += term
            slices[i][...] = acc if acc is not None else 0.0
        return self

    def apply_diagonal(
        self, diagonal: np.ndarray, qubits: Sequence[int]
    ) -> "StateVector":
        """Apply a ``2^k``-entry diagonal operator to *qubits* in one
        elementwise pass over the state.

        *diagonal* is indexed little-endian over the operand list (bit
        *j* of the index is ``qubits[j]``), the same convention as
        :meth:`apply_matrix`.  This is the kernel behind diagonal-run
        fusion: a whole run of adjacent diagonal gates (Z/S/T/RZ/CZ/CP/
        RZZ…) collapses to one precomputed table and a single broadcast
        multiply, instead of one full-state traversal per gate.
        """
        diag, sorted_qs = sorted_diagonal(
            diagonal, self._physical(qubits), self.num_qubits
        )
        # C-order reshape puts the table's most-significant bit (the
        # largest operand qubit) on the leading broadcast axis — which
        # is exactly that qubit's tensor axis, since axis = n-1-q.
        shape = [1] * self.num_qubits
        for q in sorted_qs:
            shape[self._axis(q)] = 2
        tensor = self._data.reshape((2,) * self.num_qubits)
        tensor *= diag.reshape(shape)
        return self

    def apply_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> "StateVector":
        """Apply a library gate by mnemonic."""
        from repro.circuits import gates as gate_lib

        spec = gate_lib.spec(name)
        if spec.directive:
            raise SimulationError(
                f"{name!r} is a directive, not a unitary; use the sampler"
            )
        return self.apply_matrix(spec.matrix(params), qubits)

    def apply_pauli(self, pauli: str, qubits: Sequence[int]) -> "StateVector":
        """Apply a Pauli string like ``"XZY"`` to the listed qubits
        (string index i acts on ``qubits[i]``)."""
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        for label, q in zip(pauli.upper(), qubits):
            if label == "I":
                continue
            try:
                self.apply_matrix(_PAULIS[label], [q])
            except KeyError:
                raise SimulationError(f"unknown Pauli label {label!r}") from None
        return self

    # -- measurement ------------------------------------------------------------

    def marginal_probability_one(self, qubit: int) -> float:
        """``P(qubit = 1)``, computed on the half-state slice alone (the
        full ``2^n`` probability tensor is never materialized)."""
        self._axis(qubit)  # range check
        self.unwind_remap()
        ones = self._data.reshape(-1, 2, 1 << qubit)[:, 1, :]
        return float(np.real(np.vdot(ones, ones)))

    def collapse(self, qubit: int, outcome: int) -> float:
        """Project *qubit* onto *outcome* and renormalize.

        Returns the pre-collapse probability of the outcome.  Raises if
        that probability is (numerically) zero.
        """
        p1 = self.marginal_probability_one(qubit)
        prob = p1 if outcome else 1.0 - p1
        if prob < 1e-15:
            raise SimulationError(
                f"cannot collapse qubit {qubit} onto impossible outcome {outcome}"
            )
        view = self._data.reshape(-1, 2, 1 << qubit)
        view[:, 1 - outcome, :] = 0.0
        self._data *= 1.0 / math.sqrt(prob)
        return prob

    def measure(self, qubit: int, rng: RandomState = None) -> int:
        """Projectively measure one qubit, collapsing the state."""
        r = as_rng(rng)
        p1 = self.marginal_probability_one(qubit)
        outcome = 1 if r.random() < p1 else 0
        self.collapse(qubit, outcome)
        return outcome

    def reset(self, qubit: int, rng: RandomState = None) -> "StateVector":
        """Measure-and-flip reset of one qubit to ``|0⟩``."""
        outcome = self.measure(qubit, rng)
        if outcome:
            self.apply_matrix(_PAULIS["X"], [qubit])
        return self

    def sample(
        self, shots: int, rng: RandomState = None, qubits: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Draw *shots* basis-state samples without collapsing.

        Returns an ``(shots, k)`` uint8 array of bits, column *j* being
        qubit ``qubits[j]`` (default: all qubits in index order).

        Builds the outcome CDF once and inverts it for all shots in one
        vectorized ``searchsorted`` — skipping the re-validation and
        re-accumulation ``rng.choice`` performs on every call, which the
        grouped sampler would otherwise pay once per trajectory group.
        The inversion applies the exact floating-point pipeline
        ``rng.choice`` uses internally (normalize, ``cumsum``, divide by
        the last entry, search with ``side="right"``) after drawing the
        same ``shots`` uniforms, so outcomes *and* the consumed stream
        are bit-identical to ``rng.choice``.
        """
        r = as_rng(rng)
        probs = self.probabilities()
        # Guard against drift from accumulated float error.
        probs = probs / probs.sum()
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        u = r.random(int(shots))
        outcomes = np.searchsorted(cdf, u, side="right")
        qs = (
            np.arange(self.num_qubits, dtype=np.int64)
            if qubits is None
            else np.asarray(list(qubits), dtype=np.int64)
        )
        # One vectorized shift-and-mask over the whole (shots, k) grid.
        return ((outcomes[:, None] >> qs[None, :]) & 1).astype(np.uint8)

    # -- observables --------------------------------------------------------------

    def expectation_pauli(self, pauli: str, qubits: Sequence[int]) -> float:
        """``⟨ψ| P |ψ⟩`` for a Pauli string on the listed qubits.

        Strings diagonal in the computational basis (I/Z only) are
        evaluated as a signed probability sum without copying the state;
        anything with X or Y content falls back to apply-and-overlap.
        """
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        labels = pauli.upper()
        for label in labels:
            if label not in "IXYZ":
                raise SimulationError(f"unknown Pauli label {label!r}")
        self.unwind_remap()
        if set(labels) <= {"I", "Z"}:
            signed = self.probabilities()
            for label, q in zip(labels, qubits):
                if label == "Z":
                    self._axis(q)  # range check
                    signed.reshape(-1, 2, 1 << q)[:, 1, :] *= -1.0
            return float(signed.sum())
        work = self.copy()
        work.apply_pauli(labels, qubits)
        return float(np.real(np.vdot(self._data, work._data)))

    def expectation_diagonal(self, diagonal: np.ndarray) -> float:
        """Expectation of an operator diagonal in the computational basis."""
        diag = np.asarray(diagonal, dtype=float).reshape(-1)
        if diag.shape != (self.dim,):
            raise SimulationError("diagonal length must equal state dimension")
        return float(np.dot(self.probabilities(), diag))

    def __repr__(self) -> str:
        return f"<StateVector {self.num_qubits} qubits, norm {self.norm():.6f}>"


def simulate_statevector(
    circuit: QuantumCircuit,
    *,
    initial: Optional[StateVector] = None,
    rng: RandomState = None,
) -> StateVector:
    """Run *circuit*'s unitary part, returning the final state.

    Measurements are *skipped* (sampling is the sampler's job); resets
    collapse stochastically using *rng*; barriers and delays are no-ops
    in the noiseless engine.
    """
    state = initial.copy() if initial is not None else StateVector(circuit.num_qubits)
    if state.num_qubits != circuit.num_qubits:
        raise SimulationError("initial state size does not match circuit")
    r = as_rng(rng)
    for inst in circuit:
        if inst.name in UNITARY_NOOPS:
            continue
        if inst.name == "reset":
            state.reset(inst.qubits[0], r)
            continue
        state.apply_matrix(inst.matrix(), inst.qubits)
    return state


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Full ``2^n × 2^n`` unitary of a measurement-free circuit.

    Exponential in qubits — intended for the test suite (n ≤ 10).
    """
    n = circuit.num_qubits
    if n > 12:
        raise SimulationError("circuit_unitary is limited to 12 qubits")
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for inst in circuit:
        if inst.name in ("barrier", "delay", "id"):
            continue
        if inst.is_directive:
            raise SimulationError(
                f"circuit_unitary cannot handle directive {inst.name!r}"
            )
        full = _embed(inst.matrix(), inst.qubits, n)
        u = full @ u
    return u


def _embed(matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed a k-qubit matrix into the full Hilbert space."""
    state_dim = 1 << num_qubits
    out = np.zeros((state_dim, state_dim), dtype=complex)
    k = len(qubits)
    rest = [q for q in range(num_qubits) if q not in qubits]
    for col in range(state_dim):
        sub_col = 0
        for j, q in enumerate(qubits):
            sub_col |= ((col >> q) & 1) << j
        base = col
        for q in qubits:
            base &= ~(1 << q)
        col_vec = matrix[:, sub_col]
        for sub_row, amp in enumerate(col_vec):
            if amp == 0:
                continue
            row = base
            for j, q in enumerate(qubits):
                row |= ((sub_row >> j) & 1) << q
            out[row, col] += amp
    return out


def ghz_state(num_qubits: int) -> StateVector:
    """The ideal ``(|0…0⟩ + |1…1⟩)/√2`` state (Section 3.2's benchmark target)."""
    sv = StateVector(num_qubits)
    sv.data[0] = 1.0 / math.sqrt(2.0)
    sv.data[-1] = 1.0 / math.sqrt(2.0)
    sv.data[1:-1] = 0.0
    return sv


__all__ = [
    "StateVector",
    "simulate_statevector",
    "circuit_unitary",
    "ghz_state",
    "sorted_diagonal",
    "placement_permutation",
    "permutation_transpose_order",
]
