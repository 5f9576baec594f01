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
:meth:`~repro.simulator.statevector.StateVector.sample` fast path.
:meth:`sample_outcomes` then samples every row from **one** uniform
draw: ``rng.random(Σ shots)`` yields the same numbers as one
``rng.random(shots_i)`` per row in row order, and an ``n``-step
vectorized binary search over the flattened CDFs (``searchsorted(…,
side="right")`` semantics: the count of CDF entries ``≤ u``) inverts
each shot against its own row.  Outcomes and the consumed stream are
the scalar engine's bit for bit.

The grouped walk drives a batch through two plain functions:
:func:`advance_batch_span` (one lockstep window over every row, with
the scalar dense engine's fused window items) and :func:`inject_site`
(every error that fires at one error site, in one call).

Injection per site
------------------
A Pauli term is a qubit-wise product of X (swap the ``|0⟩``/``|1⟩``
halves of the qubit's ``(…, 2, low)`` view), Z (scale the ``|1⟩`` half
by −1) and Y (swap, then scale by ∓i).  :func:`inject_site` applies,
per operand qubit, one strided half-swap to the rows whose label flips
the qubit and one broadcast multiply by a per-row ``(2,)`` factor table
— the entries of the very matrices
:func:`~repro.simulator.engines.dense.inject_into_dense` applies row by
row.  Every factor is ±1 or ±i, so each product is exact and the result
equals the per-row kernels' up to the sign of zero, which no
probability sees.  Rows that fire at a site are contiguous when they
join the batch there (groups are stacked in first-error-site order), so
the common case works on a slice of the batch in place; later
injections of multi-error rows gather and scatter their rows.  No
per-amplitude index array is ever built.  Gathering costs about one
pass per row, which is cheap next to a dispatch per row for narrow rows
but not for wide ones: from :data:`WIDE_ROW_AMPLITUDES` (11 qubits) up,
where a site holds a handful of rows per chunk, each row's halves are
swapped and scaled in place instead — the same factors, one row at a
time, still without the per-row ``apply_matrix`` dispatch.  The choice
reads the row width only, never a setting.

Thermal-relaxation ``reset`` terms renormalize by the row's own
``P(1)``; the batched einsum reduction does not round like the scalar
``vdot``, so reset rows stay on the scalar path through
:meth:`row_view`/:meth:`store_row` — a zero-copy
:class:`~repro.simulator.statevector.StateVector` alias of one row,
with an explicit write-back for kernels that rebind their buffer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Instruction
from repro.circuits.gates import UNITARY_NOOPS
from repro.errors import SimulationError
from repro.simulator.channels import PAULI_MATRICES as _PAULI
from repro.simulator.engines import dense as _dense
from repro.simulator.noise import QuantumError
from repro.simulator.statevector import (
    DENSE_QUBIT_LIMIT,
    StateVector,
    sorted_diagonal,
)
from repro.telemetry import tracing as _tracing
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
        """The ``(rows, 2^n)`` amplitude array (a live view)."""
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
        return dup

    def narrow(self, rows: int) -> "BatchedStateVector":
        """A zero-copy view of the first *rows* rows.

        In-place kernels on the view mutate this batch; kernels that
        internally allocate copy their result back into the shared
        buffer, so the alias never goes stale.
        """
        if not 1 <= rows <= self.rows:
            raise SimulationError(
                f"cannot narrow {self.rows}-row batch to {rows} rows"
            )
        dup = BatchedStateVector.__new__(BatchedStateVector)
        dup.num_qubits = self.num_qubits
        dup._data = self._data[:rows]
        return dup

    # -- scalar interop -------------------------------------------------------

    def set_row(self, row: int, amplitudes: np.ndarray) -> None:
        """Overwrite one row with a copy of *amplitudes*."""
        self._data[row] = np.asarray(amplitudes, dtype=complex).reshape(-1)

    def row_view(self, row: int) -> StateVector:
        """A scalar :class:`StateVector` aliasing one row's memory.

        In-place scalar kernels mutate the batch directly.  Kernels
        that rebind their buffer (the wide-``low`` matmul and qubit-0
        einsum branches, the generic fallback) leave the alias pointing
        at fresh memory — callers that mutate through the view must
        finish with :meth:`store_row`, which writes back if (and only
        if) the alias was rebound.
        """
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
        k = len(qubits)
        if k <= 2:
            self._apply_flat(lambda sv: sv.apply_matrix(matrix, qubits))
            return self
        for row in range(self.rows):
            sv = self.row_view(row)
            sv.apply_matrix(matrix, qubits)
            self.store_row(row, sv)
        return self

    def apply_diagonal(
        self, diagonal: np.ndarray, qubits: Sequence[int]
    ) -> "BatchedStateVector":
        """Apply a ``2^k``-entry diagonal table (e.g. a fused
        diagonal-run table from
        :func:`~repro.simulator.engines.dense.materialize_entry`) to
        every row in one broadcast multiply."""
        diag, sorted_qs = sorted_diagonal(diagonal, qubits, self.num_qubits)
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
        return np.linalg.norm(self._data, axis=1)

    def probabilities(self) -> np.ndarray:
        """Per-row basis probabilities, shape ``(rows, 2^n)``."""
        return np.abs(self._data) ** 2

    def marginal_probability_one(self, qubit: int) -> np.ndarray:
        """``P(qubit = 1)`` for every row, shape ``(rows,)``."""
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
        inverting ``cdfs()[i]`` reproduces the scalar engine's outcomes
        bit for bit from the same stream.
        """
        probs = self.probabilities()
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        return cdf

    def sample_outcomes(
        self,
        shots: Union[int, Sequence[int], np.ndarray],
        rng: RandomState = None,
    ) -> np.ndarray:
        """Basis-state outcomes for every row, from one uniform draw.

        *shots* is one count for every row or a per-row sequence.
        Returns the ``Σ shots`` outcome indices as one int64 array, row
        0's first.  ``rng.random(Σ shots)`` consumes the same stream as
        one ``rng.random(shots_i)`` per row in row order, and each
        uniform is inverted against its own row's CDF with
        ``searchsorted(cdf, u, side="right")`` semantics — so row *i*'s
        outcomes match ``row_view(i).sample`` exactly.
        """
        r = as_rng(rng)
        per_row = np.broadcast_to(np.asarray(shots, dtype=np.int64), (self.rows,))
        cdf = self.cdfs().reshape(-1)
        u = r.random(int(per_row.sum()))
        # Flat offset of each shot's row; the search runs over all rows
        # at once, n gather steps instead of one searchsorted per row.
        base = np.repeat(np.arange(self.rows, dtype=np.int64) * self.dim, per_row)
        found = np.zeros(u.size, dtype=np.int64)
        for bit in reversed(range(self.num_qubits)):
            step = 1 << bit
            found += (cdf[base + found + (step - 1)] <= u) * step
        # Every CDF ends at exactly 1.0 > u, so the count of entries
        # ``≤ u`` stays below 2^n and n steps find it.
        return found

    def sample(
        self,
        shots: int,
        rng: RandomState = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Draw *shots* samples from every row.

        Returns a ``(rows, shots, k)`` uint8 bit array.  All rows sample
        from one draw (:meth:`sample_outcomes`), so row *i*'s outcomes
        (and the consumed stream) match
        ``row_view(i).sample(shots, rng, qubits)`` in row order exactly.
        """
        qs = (
            np.arange(self.num_qubits, dtype=np.int64)
            if qubits is None
            else np.asarray(list(qubits), dtype=np.int64)
        )
        outcomes = self.sample_outcomes(int(shots), rng).reshape(self.rows, -1)
        return ((outcomes[..., None] >> qs) & 1).astype(np.uint8)

    def __repr__(self) -> str:
        return (
            f"<BatchedStateVector {self.rows}×{self.num_qubits} qubits>"
        )


def advance_batch_span(
    batch: BatchedStateVector,
    instructions: Sequence[Instruction],
    start: int,
    stop: int,
    plan=None,
) -> None:
    """Advance every row of *batch* through ``instructions[start:stop]``.

    The batch analogue of
    :meth:`~repro.simulator.engines.dense.DenseEngine.advance_span`: the
    same fused window items (from the plan-cache memos when *plan* is
    bound, re-derived otherwise), each applied to the whole row stack in
    one call.  A batch is cache-resident by construction — the grouped
    walk only stacks rows narrower than a sweep tile
    (:func:`~repro.simulator.engines.dense.batched_walk_fits`) — so its
    windows never block: the register's own width stands in for the
    tile, and the resolver schedules no sweeps.
    """
    with _tracing.span(
        "engine.batched_window", rows=batch.rows, start=start, stop=stop
    ):
        if stop - start > 1:
            n = batch.num_qubits
            items, _ = _dense.window_program(instructions, start, stop, plan, n, n)
            if items is not None:
                _dense.apply_items(batch, items)
                return
        for i in range(start, stop):
            inst = instructions[i]
            if inst.name in UNITARY_NOOPS:
                continue
            batch.apply_matrix(inst.matrix(), inst.qubits)


#: What one Pauli factor does to its qubit's ``(…, 2, low)`` halves:
#: whether it swaps them, then the factors scaling the new ``|0⟩`` and
#: ``|1⟩`` halves — the entries of the matrices
#: :func:`~repro.simulator.engines.dense.inject_into_dense` applies.
_PAULI_ACTION = {
    label: (True, (m[0, 1], m[1, 0])) if m[0, 0] == 0 else (False, (m[0, 0], m[1, 1]))
    for label, m in _PAULI.items()
}
_UNSCALED = _PAULI_ACTION["I"][1]

#: Row width (amplitudes) from which :func:`inject_site` applies Pauli
#: terms row by row, in place, instead of across the site's rows at
#: once.  Gathering a row set costs about a pass per row; below this
#: width that is cheaper than a dispatch per row, above it dearer.
WIDE_ROW_AMPLITUDES = 1 << 11


def inject_site(
    batch: BatchedStateVector,
    rows: Sequence[int],
    terms: Sequence[int],
    instruction: Instruction,
    error: QuantumError,
) -> None:
    """Apply ``error.terms[terms[k]]`` to row ``rows[k]`` of *batch*, for
    every *k*: all the errors that fire after *instruction*, in one call.
    *rows* are distinct (one realization fires at most once per site).

    Pauli terms go through one half-swap and one broadcast multiply per
    operand qubit, or row by row in place for rows of
    :data:`WIDE_ROW_AMPLITUDES` or more (see the module docstring);
    ``reset`` terms run the
    scalar :func:`~repro.simulator.engines.dense.inject_into_dense` on a
    row alias.  The result equals per-row ``inject_into_dense`` up to
    the sign of zero.
    """
    with _tracing.span("engine.batched_inject", rows=len(rows)):
        pauli_rows: List[int] = []
        labels: List[str] = []
        resets: List[Tuple[int, int]] = []
        for row, index in zip(rows, terms):
            term = error.terms[index]
            if term.kind == "pauli":
                pauli_rows.append(row)
                labels.append(term.pauli.upper())
            else:
                resets.append((row, index))
        if pauli_rows:
            _inject_paulis(batch, pauli_rows, labels, instruction.qubits)
        for row, index in resets:
            sv = batch.row_view(row)
            _dense.inject_into_dense(sv, instruction, error, index)
            batch.store_row(row, sv)


def _inject_paulis(
    batch: BatchedStateVector,
    rows: List[int],
    labels: List[str],
    qubits: Sequence[int],
) -> None:
    """Apply Pauli string ``labels[k]`` (index *j* acting on
    ``qubits[j]``) to row ``rows[k]`` of *batch*."""
    if batch.dim >= WIDE_ROW_AMPLITUDES:
        for row, label in zip(rows, labels):
            amplitudes = batch.data[row]
            for offset, char in enumerate(label):
                swap, (f0, f1) = _PAULI_ACTION[char]
                halves = amplitudes.reshape(-1, 2, 1 << qubits[offset])
                _act(halves[:, 0, :], halves[:, 1, :], swap, f0, f1)
        return
    k = len(rows)
    first = rows[0]
    contiguous = rows == list(range(first, first + k))
    # A contiguous run of rows is a view, mutated in place; any other
    # set is gathered once and scattered back at the end.
    sub = batch.data[first : first + k] if contiguous else batch.data[rows]
    for offset in range(max(len(label) for label in labels)):
        actions = [
            _PAULI_ACTION[label[offset] if offset < len(label) else "I"]
            for label in labels
        ]
        swapped = [i for i, (swap, _) in enumerate(actions) if swap]
        scales = [scale for _, scale in actions]
        scaled = any(scale != _UNSCALED for scale in scales)
        if not swapped and not scaled:
            continue
        halves = sub.reshape(k, -1, 2, 1 << qubits[offset])
        if len(swapped) == k:
            halves[...] = halves[:, :, ::-1, :].copy()
        elif swapped:
            halves[swapped] = halves[swapped, :, ::-1, :]
        if scaled:
            halves *= np.array(scales)[:, None, :, None]
    if not contiguous:
        batch.data[rows] = sub


def _act(zero: np.ndarray, one: np.ndarray, swap: bool, f0: complex, f1: complex) -> None:
    """One Pauli factor on one row's ``|0⟩``/``|1⟩`` halves, in place."""
    if swap:
        saved = zero.copy()
        np.multiply(one, f0, out=zero)
        np.multiply(saved, f1, out=one)
    else:
        if f0 != 1:
            zero *= f0
        if f1 != 1:
            one *= f1


__all__ = ["BatchedStateVector", "advance_batch_span", "inject_site"]
