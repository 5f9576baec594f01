"""Dense state-vector execution engine.

Wraps :class:`~repro.simulator.statevector.StateVector` behind the
:class:`~repro.simulator.engines.base.ExecutionEngine` protocol.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.dag import scan_diagonal_runs
from repro.circuits.gates import UNITARY_NOOPS
from repro.simulator.channels import PAULI_MATRICES as _PAULI
from repro.simulator.engines.base import ExecutionEngine, register_engine
from repro.simulator.noise import QuantumError
from repro.simulator.statevector import StateVector
from repro.telemetry import tracing as _tracing

#: Diagonal-run kernel fusion switch: adjacent diagonal 1q/2q gates in
#: an advance window collapse into one precomputed elementwise multiply.
#: The perf harness toggles this to isolate the fusion win; production
#: code leaves it ``True``.
FUSE_DIAGONAL_RUNS = True

#: Generalized block-fusion switch (pass 2 of the window partition):
#: maximal contiguous runs of plain 1q/2q gates whose qubit union stays
#: within :data:`BLOCK_FUSION_MAX_QUBITS` collapse into one premultiplied
#: matrix, so a run of single-qubit rotations costs one kernel call.
FUSE_BLOCKS = True

#: Cap on the fused operand set: a run whose qubit union exceeds this is
#: split greedily, keeping every phase table at most ``2^cap`` entries.
_FUSION_MAX_QUBITS = 10

#: Cap on a fused *block*'s qubit union.  2 keeps every premultiplied
#: matrix at most 4×4 — the shapes the specialized fast kernels accept —
#: so block fusion never falls off the fast-kernel path.
BLOCK_FUSION_MAX_QUBITS = 2

#: Cache-blocked sweep switch: advance windows at widths beyond the
#: tile (:func:`blocked_tile_qubits`) are executed tile by tile — every
#: item of a sweep segment applies to one cache-resident contiguous
#: tile before the next tile streams in, so a window costs one DRAM pass
#: instead of one per item.  High-order operands are made tile-local by
#: the lazy qubit remap layer
#: (:meth:`~repro.simulator.statevector.StateVector.remap_low`).  The
#: perf harness toggles this to isolate the blocking win.
BLOCKED_SWEEPS = True

#: One tile is ``1/divisor`` of the working-set budget
#: (``ExecutionConfig.batch_max_bytes``, default
#: :data:`~repro.simulator.config.DEFAULT_BATCH_MAX_BYTES`): sweeps
#: re-read the tile once per item, so it must stay resident alongside
#: kernel temporaries.  8 puts the default 2 MiB budget at 2^14 amplitudes
#: (256 KiB) — measured best-or-tied from 16 to 20 qubits on an L2 of
#: the budget's size.
_TILE_BUDGET_DIVISOR = 8

#: Minimum rows per chunk for the batched grouped walk to engage.
#: Fewer stacked states than this amortize too little per-gate dispatch
#: to beat the scalar walk, whose single state stays cache-resident.
_BATCH_MIN_CHUNK_ROWS = 16


def batched_walk_fits(num_qubits: int, batch_max_bytes: int) -> bool:
    """Whether the sampler's batched grouped walk can engage at this
    width under the working-set budget *batch_max_bytes*.

    The walk stacks trajectory groups in chunks sized to fit the budget
    whole, and cache residency between gates is its entire advantage
    (its element work equals the scalar walk's), so it engages only
    where :data:`_BATCH_MIN_CHUNK_ROWS` stacked states fit.  Such a
    register is always narrower than a sweep tile
    (:func:`blocked_tile_qubits` takes 1/8 of the same budget), so
    batched windows never block.  :meth:`DenseEngine.estimate_peak_bytes`
    reads the same predicate, so admission sees the walk's extra
    working set exactly where it can be allocated.
    """
    return (16 << num_qubits) * _BATCH_MIN_CHUNK_ROWS <= batch_max_bytes


def blocked_tile_qubits(batch_max_bytes: int) -> int:
    """Tile width (in qubits) for cache-blocked sweeps, derived from the
    working-set budget *batch_max_bytes*; blocking engages only for
    states wider than this."""
    amps = max(4, int(batch_max_bytes) // (16 * _TILE_BUDGET_DIVISOR))
    return max(2, amps.bit_length() - 1)


def _fused_diagonal(instructions) -> tuple:
    """One ``(diagonal, qubits)`` table for a list of diagonal gates.

    The table is indexed little-endian over the *sorted* qubit union.
    Gates are first combined per operand set (all 1q diagonals on one
    qubit multiply into a single 2-vector, all 2q diagonals on one pair
    into a 4-vector), then the combined factors expand into the table —
    the expansion work scales with distinct operand sets, not run
    length.
    """
    qs = sorted({q for inst in instructions for q in inst.qubits})
    k = len(qs)
    pos = {q: i for i, q in enumerate(qs)}
    ones2 = np.ones(2, dtype=complex)
    one_q: dict = {}
    two_q: dict = {}
    for inst in instructions:
        d = np.diagonal(inst.matrix())
        if len(inst.qubits) == 1:
            q = inst.qubits[0]
            prev = one_q.get(q)
            one_q[q] = d if prev is None else prev * d
        else:
            a, b = inst.qubits
            if a > b:
                # Swap operand bits so the 4-vector is indexed with the
                # smaller qubit as bit 0.
                a, b = b, a
                d = d[[0, 2, 1, 3]]
            prev = two_q.get((a, b))
            two_q[(a, b)] = d if prev is None else prev * d
    # Tensor the 1q factors together, smallest qubit as the lowest bit.
    diag = np.ones(1, dtype=complex)
    for q in qs:
        vec = one_q.get(q, ones2)
        diag = (vec[:, None] * diag[None, :]).reshape(-1)
    if two_q:
        idx = np.arange(1 << k)
        for (a, b), d4 in two_q.items():
            sub = ((idx >> pos[a]) & 1) | (((idx >> pos[b]) & 1) << 1)
            diag = diag * d4[sub]
    return diag, qs


def _sub_index(i: int, bits) -> int:
    """Project the union-space index *i* onto the gate's operand bits."""
    s = 0
    for j, b in enumerate(bits):
        s |= ((i >> b) & 1) << j
    return s


def _embed_in_union(matrix, qubits, pos, dim):
    """Embed a gate matrix into the block's union space.

    ``pos`` maps qubit → bit position in the union (little-endian over
    the sorted union, matching ``StateVector.apply_matrix``); identity
    on union qubits the gate does not touch.
    """
    bits = [pos[q] for q in qubits]
    if (1 << len(bits)) == dim and all(b == j for j, b in enumerate(bits)):
        return matrix
    mask = 0
    for b in bits:
        mask |= 1 << b
    rest = (dim - 1) ^ mask
    out = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        sr = _sub_index(r, bits)
        base = r & rest
        for c in range(dim):
            if (c & rest) == base:
                out[r, c] = matrix[sr, _sub_index(c, bits)]
    return out


def _fused_block(instructions) -> tuple:
    """One ``(matrix, qubits)`` item for a contiguous run of 1q/2q gates.

    Gates multiply in program order (later gates on the left), each
    embedded into the sorted qubit union, so applying the product once
    is exactly applying the run gate by gate — up to float rounding of
    the premultiplication.
    """
    qs = sorted({q for inst in instructions for q in inst.qubits})
    pos = {q: i for i, q in enumerate(qs)}
    dim = 1 << len(qs)
    combined = _embed_in_union(
        instructions[0].matrix(), instructions[0].qubits, pos, dim
    )
    for inst in instructions[1:]:
        combined = _embed_in_union(inst.matrix(), inst.qubits, pos, dim) @ combined
    return combined, qs


def _chunk_positions(ops, run):
    """Split one diagonal run (a tuple of positions) greedily so no
    fused table spans more than :data:`_FUSION_MAX_QUBITS` qubits."""
    chunks = []
    chunk: list = []
    chunk_qubits: set = set()
    for p in run:
        union = chunk_qubits | set(ops[p].qubits)
        if chunk and len(union) > _FUSION_MAX_QUBITS:
            chunks.append(tuple(chunk))
            chunk = [p]
            chunk_qubits = set(ops[p].qubits)
        else:
            chunk.append(p)
            chunk_qubits = union
    if chunk:
        chunks.append(tuple(chunk))
    return chunks


def _blockable(inst: Instruction) -> bool:
    """Plain unitary 1q/2q gates qualify for block fusion; directives,
    noops, and anything wider than the block cap do not."""
    return (
        inst.name not in UNITARY_NOOPS
        and inst.name != "reset"
        and not inst.clbits
        and len(inst.qubits) <= BLOCK_FUSION_MAX_QUBITS
    )


def _merge_blocks(ops, entries):
    """Pass 2: merge maximal runs of adjacent ``("apply", p)`` entries
    whose qubit union fits :data:`BLOCK_FUSION_MAX_QUBITS`.

    Entries are already a valid reordering of the window (pass 1 only
    moved commuting diagonals), so merging *adjacent* entries is always
    sound — no further commutation analysis needed.
    """
    out: list = []
    block: list = []
    union: set = set()

    def flush() -> None:
        nonlocal block, union
        if len(block) > 1:
            out.append(("block", tuple(block)))
        elif block:
            out.append(("apply", block[0]))
        block = []
        union = set()

    for entry in entries:
        kind, val = entry
        if kind == "apply" and _blockable(ops[val]):
            u = union | set(ops[val].qubits)
            if block and len(u) > BLOCK_FUSION_MAX_QUBITS:
                flush()
                u = set(ops[val].qubits)
            block.append(val)
            union = u
        else:
            flush()
            out.append(entry)
    flush()
    return out


def partition_window(ops):
    """Value-independent fusion partition of an advance window.

    Returns a tuple of entries — ``("apply", pos)`` for a pass-through
    instruction, ``("diag", positions)`` for a fused diagonal table,
    ``("block", positions)`` for a premultiplied gate block — or
    ``None`` when nothing fuses.  Pass 1 is PR 4's DAG commutation scan
    (:func:`repro.circuits.dag.scan_diagonal_runs`): each run is
    replaced at its head position, which is exact because every later
    member commutes back past the interleaved gates.  Pass 2
    (:func:`_merge_blocks`) generalizes fusion to contiguous
    non-diagonal 1q/2q blocks.

    The partition depends only on gate names, wires, and memoized
    diagonality — never on parameter values — which is what lets
    ``repro.compiler.plans`` memoize it across requests under the
    structural hash (whose per-instruction diagonality bit pins the
    value-edge cases).
    """
    n = len(ops)
    entries: list = []
    runs = scan_diagonal_runs(ops) if FUSE_DIAGONAL_RUNS else []
    head = {run[0]: run for run in runs}
    member = {p for run in runs for p in run}
    for p in range(n):
        if p in head:
            for chunk in _chunk_positions(ops, head[p]):
                entries.append(
                    ("diag", chunk) if len(chunk) > 1 else ("apply", chunk[0])
                )
        elif p not in member:
            entries.append(("apply", p))
    if FUSE_BLOCKS:
        entries = _merge_blocks(ops, entries)
    if len(entries) == n:  # every entry a singleton: nothing fused
        return None
    return tuple(entries)


def entry_is_static(ops, entry) -> bool:
    """True when a partition entry materializes identically for every
    circuit sharing the structural hash: fused items whose members all
    take zero parameters (their matrices are shared registry constants,
    so the table is bit-identical regardless of instance identity).
    Parameterized members — numeric or symbolic — make an item dynamic,
    because parameter *values* are masked from the structural hash."""
    kind, val = entry
    if kind == "apply":
        return False
    return all(not ops[p].params for p in val)


def materialize_entry(ops, entry):
    """Build one partition entry's applicable item: the raw
    :class:`Instruction` for ``apply``, ``(1-D table, qubits)`` for
    ``diag``, ``(2-D matrix, qubits)`` for ``block``."""
    kind, val = entry
    if kind == "apply":
        return ops[val]
    members = [ops[p] for p in val]
    return _fused_diagonal(members) if kind == "diag" else _fused_block(members)


def materialize_items(ops, partition):
    """Build the applicable item list for a whole partition."""
    return [materialize_entry(ops, entry) for entry in partition]


def _apply_single(state, item) -> None:
    """Apply one materialized item (an :class:`Instruction`, a 1-D
    diagonal table, or a 2-D matrix) to a dense-semantics state."""
    if isinstance(item, Instruction):
        if item.name not in UNITARY_NOOPS:
            state.apply_matrix(item.matrix(), item.qubits)
    else:
        arr, qs = item
        if arr.ndim == 1:
            state.apply_diagonal(arr, qs)
        else:
            state.apply_matrix(arr, qs)


def apply_items(state, items) -> None:
    """Apply a materialized item list to any dense-semantics state
    (``StateVector`` or a ``BatchedStateVector`` row stack)."""
    for item in items:
        _apply_single(state, item)


def plan_blocked_window(ops, partition, num_qubits, tile_qubits):
    """The cache-blocked sweep schedule of one advance window, or
    ``None`` when blocking is off, the state fits the tile, or the
    window is too short to amortize the sweeps.

    *partition* is the window's fusion partition
    (:func:`partition_window`; ``None`` means every instruction is its
    own entry).  The schedule is a tuple of segments
    ``(placement, entry_indices, wide)`` executed strictly in order —
    entries are **never** reordered or commuted, so arbitrary gate mixes
    stay exact:

    * a *sweep* segment (``wide=False``) is a maximal contiguous run of
      entries whose non-diagonal operand union fits *tile_qubits*;
      ``placement`` lists the logical qubits the remap layer must make
      tile-local before the sweep.  Diagonal entries ride in whatever
      segment they fall in regardless of operand locality (within one
      tile the high operand bits are constant, so their tables slice).
    * a *wide* segment (``wide=True``) is a single non-diagonal entry
      whose operand set exceeds the tile; it applies full-state through
      the remap-aware ``apply_*`` path.

    *tile_qubits* is the sweep tile width (:func:`blocked_tile_qubits`
    of the request's budget).  Like :func:`partition_window` the
    schedule is value-independent
    (names, wires, memoized diagonality only), so the plan cache can
    memoize it per circuit structure under the options key, which pins
    the toggles and the budget the tile derives from.
    """
    if not BLOCKED_SWEEPS or num_qubits <= tile_qubits:
        return None
    if partition is None:
        partition = tuple(("apply", p) for p in range(len(ops)))
    segments: list = []
    indices: list = []
    union: set = set()
    applied = 0

    def flush() -> None:
        nonlocal indices, union
        if indices:
            segments.append((tuple(sorted(union)), tuple(indices), False))
        indices = []
        union = set()

    for i, (kind, val) in enumerate(partition):
        if kind == "apply":
            inst = ops[val]
            if inst.name in UNITARY_NOOPS:
                indices.append(i)  # rides along; the executor skips it
                continue
            qubits = set(inst.qubits)
            diagonal = inst.is_diagonal()
        elif kind == "diag":
            indices.append(i)
            applied += 1
            continue
        else:  # "block": non-diagonal by construction
            qubits = {q for p in val for q in ops[p].qubits}
            diagonal = False
        if diagonal:
            indices.append(i)
            applied += 1
            continue
        if len(qubits) > tile_qubits:
            flush()
            segments.append(((), (i,), True))
            applied += 1
            continue
        if indices and len(union | qubits) > tile_qubits:
            flush()
        indices.append(i)
        union |= qubits
        applied += 1
    flush()
    sweeps = sum(1 for seg in segments if not seg[2])
    # A sweep whose placement reaches above the tile forces a remap — a
    # full out-of-place transpose, costing roughly one extra pass over
    # the state on top of the sweep itself.  (Approximate: whether a
    # remap actually fires depends on the permutation left by the
    # previous window, which the value-independent schedule cannot see.)
    moves = sum(
        1
        for placement, _, wide in segments
        if not wide and any(q >= tile_qubits for q in placement)
    )
    # Worth blocking only when each pass over the state — sweeps and
    # remap transposes alike — amortizes over several items; short or
    # remap-heavy windows keep the one-pass-per-item path (identical
    # math).
    if sweeps == 0 or applied < 2 * (sweeps + moves):
        return None
    return tuple(segments)


def _diagonal_tile_slicer(table, phys, tile_qubits):
    """Per-tile closure for a diagonal whose operands include high-order
    physical bits: within one tile the high bits are constant, so the
    ``2^k`` table collapses to a ``2^k_low`` slice selected by the tile
    index (all-high operands collapse to a scalar multiply)."""
    table = np.asarray(table, dtype=complex).reshape(-1)
    low = [(j, p) for j, p in enumerate(phys) if p < tile_qubits]
    high = [(j, p - tile_qubits) for j, p in enumerate(phys) if p >= tile_qubits]
    idx = np.arange(1 << len(low))
    offsets = np.zeros(1 << len(low), dtype=np.int64)
    for new_bit, (j, _) in enumerate(low):
        offsets |= ((idx >> new_bit) & 1) << j
    low_qubits = [p for _, p in low]

    def apply(tsv, tile_index):
        base = 0
        for j, shift in high:
            base |= ((tile_index >> shift) & 1) << j
        tsv.apply_diagonal(table[offsets | base], low_qubits)

    return apply


def _prepare_tile_items(state, items, indices, tile_qubits):
    """Compile a sweep segment's items into per-tile closures.

    Operands translate through the state's current remap once, up
    front.  Tile-local operators apply directly via the scalar kernels
    on the tile alias; diagonal items with high-bit operands go through
    :func:`_diagonal_tile_slicer`.  The scheduler guarantees every
    non-diagonal item in a sweep segment is tile-local after placement.
    """
    perm = state._perm
    prepared = []
    for i in indices:
        item = items[i]
        if isinstance(item, Instruction):
            if item.name in UNITARY_NOOPS:
                continue
            arr, qs = item.matrix(), item.qubits
        else:
            arr, qs = item
        phys = [perm[q] for q in qs] if perm is not None else list(qs)
        local = all(p < tile_qubits for p in phys)
        if arr.ndim == 2:
            if local:
                if arr.shape[0] == 4 and np.count_nonzero(arr) == 16:
                    # Fully dense fused 4x4 block: at tile width the
                    # one-shot moveaxis/matmul contraction beats the
                    # structured slice kernel (which pays its sparsity
                    # analysis per tile and saves nothing on a matrix
                    # with no identity rows).
                    prepared.append(
                        lambda tsv, ti, m=arr, q=phys: tsv._apply_generic(m, q)
                    )
                else:
                    prepared.append(
                        lambda tsv, ti, m=arr, q=phys: tsv.apply_matrix(m, q)
                    )
            else:
                # Only diagonal entries may sit high in a sweep segment.
                prepared.append(
                    _diagonal_tile_slicer(np.diagonal(arr), phys, tile_qubits)
                )
        elif local:
            prepared.append(
                lambda tsv, ti, d=arr, q=phys: tsv.apply_diagonal(d, q)
            )
        else:
            prepared.append(_diagonal_tile_slicer(arr, phys, tile_qubits))
    return prepared


def execute_blocked(state, items, schedule, tile_qubits) -> None:
    """Run one window's materialized *items* under a blocked *schedule*.

    *state* is a :class:`StateVector` wider than the tile.  Each sweep
    segment remaps its placement low, then streams the state tile by
    tile, applying every segment item to the resident tile through the
    scalar kernels on a reusable tile-sized alias.  Remaps are left
    pending after the window — the next segment or the state's
    observation boundaries coalesce or unwind them.
    """
    tile_dim = 1 << tile_qubits
    with _tracing.span(
        "engine.blocked_sweep", segments=len(schedule), tile_qubits=tile_qubits
    ):
        _run_blocked_schedule(state, items, schedule, tile_qubits, tile_dim)


def _run_blocked_schedule(state, items, schedule, tile_qubits, tile_dim) -> None:
    for placement, indices, wide in schedule:
        if wide:
            for i in indices:
                _apply_single(state, items[i])
            continue
        if placement:
            state.remap_low(placement, tile_qubits)
        prepared = _prepare_tile_items(state, items, indices, tile_qubits)
        if not prepared:
            continue
        tiles = state._data.reshape(-1, tile_dim)
        tsv = StateVector.__new__(StateVector)
        tsv.num_qubits = tile_qubits
        for ti in range(tiles.shape[0]):
            row = tiles[ti]
            tsv._data = row
            for fn in prepared:
                fn(tsv, ti)
            if tsv._data is not row:
                row[...] = tsv._data  # a kernel rebound the alias


def window_program(instructions, start, stop, plan, num_qubits, tile_qubits):
    """Resolve one advance window into ``(items, schedule)``: the fused
    item list (or ``None`` when nothing fuses) and the blocked sweep
    schedule (or ``None`` when blocking does not engage).

    With a bound plan both come from the cross-request memos (the plan
    was compiled for the same budget, so its schedules use the same
    *tile_qubits*); otherwise they are re-derived from the same
    partition code path.  Shared by
    the scalar, span, and batched advance paths so planned and unplanned
    execution stay one code path (the batched path passes its own width
    as the tile, so it never gets a schedule).
    """
    fusing = FUSE_DIAGONAL_RUNS or FUSE_BLOCKS
    if plan is not None:
        items = plan.window_items(start, stop) if fusing else None
        schedule = (
            plan.window_block_schedule(start, stop) if BLOCKED_SWEEPS else None
        )
    else:
        ops = instructions[start:stop]
        partition = partition_window(ops) if fusing else None
        items = (
            materialize_items(ops, partition) if partition is not None else None
        )
        schedule = plan_blocked_window(ops, partition, num_qubits, tile_qubits)
    if schedule is not None and items is None:
        # Nothing fused, but the window still blocks: sweep the raw
        # instructions themselves.
        items = list(instructions[start:stop])
    return items, schedule


def plan_diagonal_fusion(ops):
    """Fusion items for an advance window, or ``None`` when nothing
    fuses.

    Thin wrapper over :func:`partition_window` +
    :func:`materialize_items`, kept as the historical entry point; the
    plan cache calls the two halves separately so the partition can be
    memoized across requests while parameter-dependent items
    rematerialize per binding.
    """
    partition = partition_window(ops)
    if partition is None:
        return None
    return materialize_items(ops, partition)


def inject_into_dense(
    state, instruction: Instruction, error: QuantumError, term_index: int
) -> bool:
    """Apply error term *term_index* to a dense-semantics state.

    *state* needs ``apply_matrix`` / ``marginal_probability_one`` /
    ``_project`` (``collapse`` with the marginal already computed, so a
    reset reads it once) — :class:`StateVector`,
    :class:`~repro.simulator.engines.sparse.SparseAmplitudes` and
    :class:`~repro.simulator.engines.mps.MPSState` qualify, which is how
    the hybrid and MPS engines reuse these exact semantics.  Returns
    ``True`` always: the "did this preserve shareable structure"
    contract exists for the tableau's benefit
    (:func:`~repro.simulator.engines.tableau.inject_into_tableau`), and
    amplitude states share nothing.
    """
    term = error.terms[term_index]
    if term.kind == "pauli":
        for offset, label in enumerate(term.pauli.upper()):
            if label == "I":
                continue
            state.apply_matrix(_PAULI[label], [instruction.qubits[offset]])
    else:
        q = instruction.qubits[term.reset_operand]
        # Stochastic-event reset: project to |0⟩ deterministically by
        # collapsing on the dominant branch; exact behaviour of the
        # twirled thermal channel (population transfer to ground).
        p1 = state.marginal_probability_one(q)
        if p1 > 1.0 - 1e-12:
            state.apply_matrix(_PAULI["X"], [q])
        elif p1 > 1e-12:
            state._project(q, 0, p1)
    return True


@register_engine
class DenseEngine(ExecutionEngine):
    """The ``2^n`` amplitude-vector backend (exact, any gate)."""

    name = "dense"
    plan_artifacts = (
        "window_partitions",
        "diagonal_tables",
        "block_matrices",
        "block_schedules",
    )

    #: Live ``2^n`` amplitude vectors at the grouped walk's peak: the
    #: shared clean prefix, the active trajectory fork, and one suffix
    #: checkpoint.  The admission estimate multiplies by this rather than
    #: pretending a request costs exactly one state.
    PEAK_STATES = 3

    @classmethod
    def estimate_peak_bytes(cls, circuit: QuantumCircuit, config) -> int:
        peak = cls.PEAK_STATES * (16 << circuit.num_qubits)
        if batched_walk_fits(circuit.num_qubits, config.batch_max_bytes):
            # Batched-walk chunks are sized to fit the working-set
            # budget whole, so that budget is exactly the extra memory
            # the walk can add where it engages.
            peak += config.batch_max_bytes
        return peak

    def prepare(self, circuit: QuantumCircuit) -> None:
        with _tracing.span(
            "engine.prepare", engine=self.name, qubits=circuit.num_qubits
        ):
            self._state = StateVector(circuit.num_qubits)
        self._tile_qubits = blocked_tile_qubits(self.config.batch_max_bytes)

    def fork(self) -> "DenseEngine":
        # type(self), not DenseEngine: subclassed backends must survive
        # the trajectory fork.
        cls = type(self)
        dup = cls.__new__(cls)
        dup.config = self.config
        dup.circuit = self.circuit
        dup._state = self._state.copy()
        dup._tile_qubits = self._tile_qubits
        dup._plan = self._plan
        return dup

    def advance(self, ops: Sequence[Instruction]) -> None:
        # Always unplanned: *ops* may be any ad-hoc window, so the
        # plan's (start, stop)-keyed memos do not apply here.
        state = self._state
        if len(ops) > 1:
            tile = self._tile_qubits
            items, schedule = window_program(
                ops, 0, len(ops), None, state.num_qubits, tile
            )
            if schedule is not None:
                execute_blocked(state, items, schedule, tile)
                return
            if items is not None:
                apply_items(state, items)
                return
        for inst in ops:
            if inst.name in UNITARY_NOOPS:
                continue
            state.apply_matrix(inst.matrix(), inst.qubits)

    def advance_span(self, instructions, start: int, stop: int) -> None:
        state = self._state
        with _tracing.span("engine.advance_window", start=start, stop=stop):
            if stop - start > 1:
                # Cross-request memo: with a bound plan the partition, any
                # static tables, and the block schedule come from the plan
                # cache; parameter-dependent items were materialized once
                # for this binding.
                tile = self._tile_qubits
                items, schedule = window_program(
                    instructions, start, stop, self._plan, state.num_qubits, tile
                )
                if schedule is not None:
                    execute_blocked(state, items, schedule, tile)
                    return
                if items is not None:
                    apply_items(state, items)
                    return
            for i in range(start, stop):
                inst = instructions[i]
                if inst.name in UNITARY_NOOPS:
                    continue
                state.apply_matrix(inst.matrix(), inst.qubits)

    def inject(
        self, instruction: Instruction, error: QuantumError, term_index: int
    ) -> bool:
        return inject_into_dense(self._state, instruction, error, term_index)

    def sample(
        self,
        shots: int,
        rng: np.random.Generator,
        qubits: Optional[Sequence[int]] = None,
        *,
        shares_structure: bool = True,
    ) -> np.ndarray:
        return self._state.sample(shots, rng, qubits=qubits)

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        return self._state.measure(qubit, rng)

    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        self._state.reset(qubit, rng)

    def to_dense(self) -> StateVector:
        return self._state

    def expectation(self, hamiltonian) -> float:
        from repro.hybrid.observables import expectation_statevector

        return expectation_statevector(hamiltonian, self._state)


__all__ = [
    "DenseEngine",
    "inject_into_dense",
    "plan_diagonal_fusion",
    "partition_window",
    "materialize_entry",
    "materialize_items",
    "apply_items",
    "entry_is_static",
    "plan_blocked_window",
    "execute_blocked",
    "window_program",
    "blocked_tile_qubits",
    "batched_walk_fits",
    "FUSE_DIAGONAL_RUNS",
    "FUSE_BLOCKS",
    "BLOCKED_SWEEPS",
    "BLOCK_FUSION_MAX_QUBITS",
]
