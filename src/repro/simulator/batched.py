"""Batched dense states: every trajectory group in one kernel call.

The grouped sampler spends its time advancing many *independent*
``2^n`` states — one per trajectory group — through the same window of
instructions.  Scalar execution pays one Python/NumPy dispatch per gate
*per group*; at the widths the paper's device models (10–20 qubits)
that per-call overhead, not arithmetic, dominates.
:class:`BatchedStateVector` stacks the group states into a single
``(rows, 2^n)`` C-contiguous array so one kernel call advances every
row at once.

Kernel reuse, not kernel duplication
------------------------------------
A ``(rows, 2^n)`` C-ordered array flattens to the concatenation of its
rows, and the scalar 1q/2q kernels in
:class:`~repro.simulator.statevector.StateVector` only ever view the
state as ``reshape(-1, 2, low)`` / ``reshape(-1, 2, mid, 2, low)`` —
shapes that are agnostic to how much data sits in the leading axis.
Flattening the batch therefore makes the *unmodified* scalar kernels
operate on all rows simultaneously, with bit-identical per-row
arithmetic: the batched path runs the same branches, the same BLAS
calls on the same block shapes, the same elementwise multiplies.  Only
:meth:`apply_diagonal` (whose scalar form reshapes to ``(2,)*n``) needs
an explicit batch axis, and it shares the diagonal-table re-indexing
helper :func:`~repro.simulator.statevector.sorted_diagonal` with the
scalar kernel.

Measurement helpers are vectorized across rows:
:meth:`marginal_probability_one` returns a ``(rows,)`` vector,
:meth:`collapse` projects every row onto a per-row outcome, and
:meth:`cdfs` builds every row's sampling CDF in one pass — applying,
per row, the exact floating-point pipeline of the scalar
:meth:`~repro.simulator.statevector.StateVector.sample` fast path so a
``searchsorted`` against ``cdfs()[i]`` reproduces the scalar engine's
outcomes (and consumed RNG stream) bit for bit.

Rows that must diverge from the batch — error injection, per-group
sampling oddities — drop back to the scalar path through
:meth:`row_view`/:meth:`store_row`: a zero-copy
:class:`~repro.simulator.statevector.StateVector` alias of one row,
with an explicit write-back for scalar kernels that rebind their
buffer.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import SimulationError
from repro.simulator.statevector import (
    DENSE_QUBIT_LIMIT,
    StateVector,
    placement_permutation,
    permutation_transpose_order,
    sorted_diagonal,
)
from repro.utils.rng import RandomState, as_rng


class BatchedStateVector:
    """A stack of ``rows`` independent n-qubit pure states.

    Rows are created in ``|0…0⟩`` unless an explicit ``(rows, 2^n)``
    amplitude array is given.
    """

    def __init__(
        self,
        num_qubits: int,
        rows: int,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if num_qubits < 1:
            raise SimulationError("state needs at least one qubit")
        if num_qubits > DENSE_QUBIT_LIMIT:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the dense-state limit "
                f"({DENSE_QUBIT_LIMIT})"
            )
        if rows < 1:
            raise SimulationError("batch needs at least one row")
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        if data is None:
            self._data = np.zeros((rows, dim), dtype=complex)
            self._data[:, 0] = 1.0
        else:
            arr = np.asarray(data, dtype=complex)
            if arr.shape != (rows, dim):
                raise SimulationError(
                    f"batch for {rows}×{num_qubits} qubits must have shape "
                    f"({rows}, {dim}), got {arr.shape}"
                )
            self._data = np.ascontiguousarray(arr).copy()

    # -- basic accessors ------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The ``(rows, 2^n)`` amplitude array in canonical qubit order
        (a live view; any pending remap is unwound first)."""
        self.unwind_remap()
        return self._data

    @property
    def rows(self) -> int:
        """Number of stacked states."""
        return self._data.shape[0]

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2^n`` of each row."""
        return self._data.shape[1]

    def copy(self) -> "BatchedStateVector":
        dup = BatchedStateVector.__new__(BatchedStateVector)
        dup.num_qubits = self.num_qubits
        dup._data = self._data.copy()
        dup._perm = self._perm
        return dup

    def narrow(self, rows: int) -> "BatchedStateVector":
        """A zero-copy view of the first *rows* rows.

        In-place kernels on the view mutate this batch; kernels that
        internally allocate copy their result back into the shared
        buffer, so the alias never goes stale.  The view starts in the
        canonical layout (any pending remap on this batch is unwound
        first): remaps applied *through* the view permute the shared
        buffer rows, so the blocked batch walk unwinds the view before
        handing rows back.
        """
        if not 1 <= rows <= self.rows:
            raise SimulationError(
                f"cannot narrow {self.rows}-row batch to {rows} rows"
            )
        self.unwind_remap()
        dup = BatchedStateVector.__new__(BatchedStateVector)
        dup.num_qubits = self.num_qubits
        dup._data = self._data[:rows]
        return dup

    # -- lazy qubit remap -----------------------------------------------------

    #: Logical→physical qubit permutation shared by every row, or
    #: ``None`` when canonical — the batch analogue of
    #: :attr:`StateVector._perm`, moved by the blocked sweep executor
    #: and unwound at every row-interop / measurement boundary.
    _perm = None

    def remap_low(self, qubits, tile_qubits: int) -> None:
        """Place the listed logical qubits below *tile_qubits* in every
        row (same moves as :meth:`StateVector.remap_low`)."""
        target = placement_permutation(
            self._perm, qubits, tile_qubits, self.num_qubits
        )
        if target is not None:
            self._apply_permutation(target)

    def unwind_remap(self) -> None:
        """Restore the canonical layout (a no-op when already canonical)."""
        if self._perm is not None:
            self._apply_permutation(range(self.num_qubits))

    def _apply_permutation(self, new_perm) -> None:
        n = self.num_qubits
        old = self._perm if self._perm is not None else tuple(range(n))
        new = tuple(new_perm)
        identity = tuple(range(n))
        if new != old:
            order = permutation_transpose_order(old, new, n)
            tensor = self._data.reshape((self.rows,) + (2,) * n)
            moved = np.ascontiguousarray(
                tensor.transpose((0,) + tuple(a + 1 for a in order))
            )
            # Write back in place — never rebind: narrow()/row_view()
            # aliases share this buffer and must not go stale.
            self._data[...] = moved.reshape(self._data.shape)
        self._perm = None if new == identity else new

    def _physical(self, qubits):
        """Translate logical operands into the current physical layout."""
        perm = self._perm
        if perm is None:
            return qubits
        return [perm[q] if 0 <= q < len(perm) else q for q in qubits]

    # -- scalar interop -------------------------------------------------------

    def set_row(self, row: int, amplitudes: np.ndarray) -> None:
        """Overwrite one row with a copy of *amplitudes* (canonical
        layout; any pending remap is unwound first)."""
        self.unwind_remap()
        self._data[row] = np.asarray(amplitudes, dtype=complex).reshape(-1)

    def row_view(self, row: int) -> StateVector:
        """A scalar :class:`StateVector` aliasing one row's memory.

        In-place scalar kernels mutate the batch directly.  Kernels
        that rebind their buffer (the wide-``low`` matmul and qubit-0
        einsum branches, the generic fallback) leave the alias pointing
        at fresh memory — callers that mutate through the view must
        finish with :meth:`store_row`, which writes back if (and only
        if) the alias was rebound.  The alias is canonical: any pending
        batch remap is unwound first.
        """
        self.unwind_remap()
        sv = StateVector.__new__(StateVector)
        sv.num_qubits = self.num_qubits
        sv._data = self._data[row]
        return sv

    def store_row(self, row: int, sv: StateVector) -> None:
        """Write a (possibly rebound) row alias back into the batch."""
        target = self._data[row]
        if not np.shares_memory(sv._data, target):
            target[...] = sv._data

    # -- gate application -----------------------------------------------------

    def _apply_flat(self, op) -> None:
        """Run a scalar kernel over the flattened ``rows·2^n`` buffer.

        The scalar 1q/2q kernels view the state as ``(-1, 2, low)`` /
        ``(-1, 2, mid, 2, low)``, so the stacked rows ride along in the
        leading axis with per-row arithmetic identical to the scalar
        engine.  Kernels that rebind ``_data`` (matmul/einsum branches)
        are copied back into the original buffer so outside views stay
        valid.
        """
        sv = StateVector.__new__(StateVector)
        sv.num_qubits = self.num_qubits
        flat = self._data.reshape(-1)
        sv._data = flat
        op(sv)
        if sv._data is not flat:
            self._data[...] = sv._data.reshape(self._data.shape)

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "BatchedStateVector":
        """Apply a ``2^k × 2^k`` operator to *qubits* of **every** row.

        One- and two-qubit operators run through the scalar fast
        kernels on the flattened batch (one call for all rows); larger
        operators fall back to the per-row generic contraction.
        """
        matrix = np.asarray(matrix, dtype=complex)
        qubits = self._physical(qubits)
        k = len(qubits)
        if k <= 2:
            self._apply_flat(lambda sv: sv.apply_matrix(matrix, qubits))
            return self
        for row in range(self.rows):
            sv = self._raw_row_view(row)
            sv.apply_matrix(matrix, qubits)
            self.store_row(row, sv)
        return self

    def _raw_row_view(self, row: int) -> StateVector:
        """Row alias in the *current physical* layout (no unwind) — the
        internal form behind already-translated per-row kernels."""
        sv = StateVector.__new__(StateVector)
        sv.num_qubits = self.num_qubits
        sv._data = self._data[row]
        return sv

    def apply_diagonal(
        self, diagonal: np.ndarray, qubits: Sequence[int]
    ) -> "BatchedStateVector":
        """Apply a ``2^k``-entry diagonal table (e.g. a fused
        diagonal-run table from
        :func:`~repro.simulator.engines.dense.plan_diagonal_fusion`) to
        every row in one broadcast multiply."""
        diag, sorted_qs = sorted_diagonal(
            diagonal, self._physical(qubits), self.num_qubits
        )
        n = self.num_qubits
        shape = [1] * n
        for q in sorted_qs:
            shape[n - 1 - q] = 2
        tensor = self._data.reshape((self.rows,) + (2,) * n)
        tensor *= diag.reshape([1] + shape)
        return self

    # -- measurement ----------------------------------------------------------

    def norms(self) -> np.ndarray:
        """Per-row Euclidean norms, shape ``(rows,)``."""
        self.unwind_remap()
        return np.linalg.norm(self._data, axis=1)

    def probabilities(self) -> np.ndarray:
        """Per-row basis probabilities, shape ``(rows, 2^n)``."""
        self.unwind_remap()
        return np.abs(self._data) ** 2

    def marginal_probability_one(self, qubit: int) -> np.ndarray:
        """``P(qubit = 1)`` for every row, shape ``(rows,)``."""
        self.unwind_remap()
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit state"
            )
        ones = self._data.reshape(self.rows, -1, 2, 1 << qubit)[:, :, 1, :]
        flat = ones.reshape(self.rows, -1)
        return np.einsum("ri,ri->r", flat.conj(), flat).real

    def collapse(
        self, qubit: int, outcomes: Union[int, Sequence[int], np.ndarray]
    ) -> np.ndarray:
        """Project *qubit* of each row onto its entry of *outcomes* and
        renormalize.  Returns the per-row pre-collapse probabilities.

        *outcomes* broadcasts: a scalar applies one outcome to every
        row; a length-``rows`` sequence assigns per-row outcomes.
        """
        want = np.broadcast_to(np.asarray(outcomes, dtype=np.int64), (self.rows,))
        p1 = self.marginal_probability_one(qubit)
        prob = np.where(want == 1, p1, 1.0 - p1)
        if np.any(prob < 1e-15):
            bad = int(np.argmin(prob))
            raise SimulationError(
                f"cannot collapse qubit {qubit} of row {bad} onto impossible "
                f"outcome {int(want[bad])}"
            )
        view = self._data.reshape(self.rows, -1, 2, 1 << qubit)
        ones = want == 1
        view[ones, :, 0, :] = 0.0
        view[~ones, :, 1, :] = 0.0
        self._data *= (1.0 / np.sqrt(prob))[:, None]
        return prob

    def cdfs(self) -> np.ndarray:
        """Every row's sampling CDF in one vectorized pass.

        Row *i* of the result equals the CDF the scalar
        :meth:`StateVector.sample` fast path would build for that row
        (normalize, row-wise ``cumsum``, divide by the last entry), so
        ``searchsorted(cdfs()[i], rng.random(shots), side="right")``
        reproduces the scalar engine's outcomes bit for bit from the
        same stream.
        """
        probs = self.probabilities()
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        return cdf

    def sample(
        self,
        shots: int,
        rng: RandomState = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Draw *shots* samples from every row.

        Returns a ``(rows, shots, k)`` uint8 bit array.  The CDFs are
        built vectorized across rows; the uniforms are drawn row by row
        in row order, so row *i*'s outcomes (and the consumed stream)
        match ``row_view(i).sample(shots, rng, qubits)`` exactly.
        """
        r = as_rng(rng)
        cdf = self.cdfs()
        qs = (
            np.arange(self.num_qubits, dtype=np.int64)
            if qubits is None
            else np.asarray(list(qubits), dtype=np.int64)
        )
        out = np.empty((self.rows, int(shots), qs.size), dtype=np.uint8)
        for row in range(self.rows):
            u = r.random(int(shots))
            outcomes = np.searchsorted(cdf[row], u, side="right")
            out[row] = ((outcomes[:, None] >> qs[None, :]) & 1).astype(np.uint8)
        return out

    def __repr__(self) -> str:
        return (
            f"<BatchedStateVector {self.rows}×{self.num_qubits} qubits>"
        )


__all__ = ["BatchedStateVector"]
