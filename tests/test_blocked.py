"""Cache-blocked wide-state execution.

Covers the three layers PR 8 added, bottom-up:

* the lazy qubit-remap layer on :class:`StateVector`
  (``placement_permutation``, ``permutation_transpose_order``,
  ``remap_low``/``unwind_remap``);
* the value-independent sweep schedule (``plan_blocked_window``) and its
  worthwhileness heuristic, plus the shared ``window_program`` resolver
  that keeps planned and unplanned execution on one code path;
* end-to-end seeded-count parity against the unblocked walk
  (``helpers.parity.unblocked``) — the same bit-identical standard the
  engine matrix pins, here across the blocked/unblocked axis for
  grouped and per-shot walks.

Tile widths derive from the config's ``batch_max_bytes``, so the suite
shrinks the budget (``engine_mode(..., batch_max_bytes=...)`` or explicit
``tile_qubits=``) to exercise the wide regime at tier-1-cheap widths.
"""

import contextlib

import numpy as np
import pytest

from helpers.parity import (
    HYBRID_ROUTE,
    assert_counts_identical,
    counts_under_mode,
    ghz_t,
    heavy_noise,
    unblocked,
)
from repro.circuits import QuantumCircuit, brickwork_circuit, ghz_circuit
from repro.compiler import plans
from repro.simulator import (
    DenseEngine,
    ExecutionConfig,
    NoiseModel,
    depolarizing_error,
    engine_mode,
)
from repro.simulator.engines import dense
from repro.simulator.statevector import (
    StateVector,
    placement_permutation,
    permutation_transpose_order,
)


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def brickwork_noise() -> NoiseModel:
    """Noise on the brickwork gate set (cz/ry, not the GHZ cx/h)."""
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.02, 2), "cz")
    nm.add_gate_error(depolarizing_error(0.01, 1), "ry")
    return nm


class TestRemapLayer:
    def test_placement_permutation_none_when_already_low(self):
        assert placement_permutation(None, [0, 2], 3, 6) is None
        # and starting from a non-trivial perm that already satisfies it
        perm = [1, 0, 2, 3, 4, 5]
        assert placement_permutation(perm, [0, 1], 3, 6) is None

    def test_placement_permutation_swaps_minimally(self):
        perm = placement_permutation(None, [5], 2, 6)
        assert perm is not None
        assert perm[5] < 2
        # the displaced low qubit took qubit 5's old slot; nobody else moved
        displaced = perm.index(5)
        moved = [q for q in range(6) if perm[q] != q]
        assert sorted(moved) == sorted([5, displaced])
        # a permutation is still a permutation
        assert sorted(perm) == list(range(6))

    def test_placement_permutation_keeps_wanted_low_qubits(self):
        # qubit 1 is wanted *and* already low: the free-slot scan must
        # not evict it to make room for qubit 4.
        perm = placement_permutation(None, [1, 4], 2, 5)
        assert perm is not None
        assert perm[1] < 2 and perm[4] < 2

    def test_transpose_order_round_trips(self):
        n = 4
        rng = np.random.default_rng(3)
        new = list(rng.permutation(n))
        old = list(range(n))
        arr = np.arange(1 << n)
        moved = (
            arr.reshape((2,) * n)
            .transpose(permutation_transpose_order(old, new, n))
            .reshape(-1)
        )
        back = (
            moved.reshape((2,) * n)
            .transpose(permutation_transpose_order(new, old, n))
            .reshape(-1)
        )
        assert np.array_equal(back, arr)

    def test_remap_low_is_exact_and_unwinds_at_data(self):
        sv = StateVector(5, random_state(5, 7))
        ref = sv._data.copy()
        sv.remap_low([4], 2)
        assert sv._perm is not None
        assert not np.array_equal(sv._data, ref)  # buffer really moved
        # .data unwinds: a transpose is a pure reordering, bit-exact
        assert np.array_equal(sv.data, ref)
        assert sv._perm is None

    def test_gates_on_remapped_state_match_canonical(self):
        plain = StateVector(5, random_state(5, 11))
        remapped = plain.copy()
        remapped.remap_low([3, 4], 2)
        h = QuantumCircuit(1)
        h.h(0)
        gate = next(iter(h)).matrix()
        cx = QuantumCircuit(2)
        cx.cx(0, 1)
        cx_m = next(iter(cx)).matrix()
        for sv in (plain, remapped):
            sv.apply_matrix(gate, [4])
            sv.apply_matrix(cx_m, [3, 0])
            sv.apply_diagonal(np.array([1.0, 1j]), [2])
        np.testing.assert_allclose(remapped.data, plain.data, rtol=0, atol=1e-14)


class TestBlockedSchedule:
    def _ops(self, builders, n):
        qc = QuantumCircuit(n)
        for name, qubits in builders:
            qc.append(name, list(qubits))
        return list(qc)

    def test_none_when_state_fits_the_tile(self):
        ops = self._ops([("h", [0])] * 8, 3)
        assert dense.plan_blocked_window(ops, None, 3, tile_qubits=3) is None

    def test_sweep_splits_when_the_union_overflows(self):
        ops = self._ops([("h", [0]), ("h", [1])] * 3 + [("h", [2])] * 6, 6)
        sched = dense.plan_blocked_window(ops, None, 6, tile_qubits=2)
        assert sched is not None
        assert [seg[0] for seg in sched] == [(0, 1), (2,)]
        assert [seg[1] for seg in sched] == [tuple(range(6)), tuple(range(6, 12))]
        assert all(not seg[2] for seg in sched)

    def test_diagonals_and_noops_ride_in_any_segment(self):
        # t(5) is diagonal and sits above the tile; barrier is a noop —
        # neither may split the low sweep or widen its placement.
        ops = self._ops(
            [("h", [0]), ("t", [5]), ("barrier", []), ("h", [1]), ("h", [0])], 6
        )
        sched = dense.plan_blocked_window(ops, None, 6, tile_qubits=2)
        assert sched == (((0, 1), (0, 1, 2, 3, 4), False),)

    def test_oversized_entry_becomes_a_wide_singleton(self):
        ops = self._ops([("h", [0])] * 4 + [("cx", [0, 1])] + [("h", [0])] * 4, 6)
        sched = dense.plan_blocked_window(ops, None, 6, tile_qubits=1)
        wides = [seg for seg in sched if seg[2]]
        assert wides == [((), (4,), True)]

    def test_short_window_is_not_worth_a_sweep(self):
        ops = self._ops([("h", [0])], 6)
        assert dense.plan_blocked_window(ops, None, 6, tile_qubits=2) is None

    def test_remap_heavy_window_is_not_worth_blocking(self):
        # Two sweeps, one forcing a remap (placement reaches qubit 2+):
        # 4 applied items never amortize 2 sweeps + 1 transpose …
        high_low = self._ops([("h", [2]), ("h", [3]), ("h", [0]), ("h", [1])], 6)
        assert dense.plan_blocked_window(high_low, None, 6, tile_qubits=2) is None
        # … while the same item count entirely inside the tile does.
        low = self._ops([("h", [0]), ("h", [1]), ("h", [0]), ("h", [1])], 6)
        assert dense.plan_blocked_window(low, None, 6, tile_qubits=2) is not None

    def test_tile_width_tracks_the_batch_budget(self):
        assert dense.blocked_tile_qubits(2 * 1024 * 1024) == 14
        assert dense.blocked_tile_qubits(1024) == 3
        with engine_mode("fast", batch_max_bytes=1024) as config:
            assert DenseEngine(ghz_circuit(4), config)._tile_qubits == 3
            assert plans.plan_for(ghz_circuit(4)).tile_qubits == 3


class TestExecuteBlocked:
    @staticmethod
    def _local_then_high(seed: int) -> QuantumCircuit:
        """A 6-qubit window that blocks at tile 3: a dense tile-local
        chunk with high-qubit diagonals riding (tile slicer), then a
        chunk on qubits 3–4 whose sweep forces a remap."""
        rng = np.random.default_rng(seed)
        qc = QuantumCircuit(6)
        for _ in range(3):
            for q in (0, 1, 2):
                qc.ry(float(rng.uniform(-np.pi, np.pi)), q)
            qc.cz(0, 1)
            qc.cx(1, 2)
            qc.t(4)
            qc.rz(float(rng.uniform(-np.pi, np.pi)), 5)
        for _ in range(3):
            qc.h(3)
            qc.cx(3, 4)
            qc.ry(float(rng.uniform(-np.pi, np.pi)), 4)
            qc.cz(3, 4)
        return qc

    def _window(self, qc, num_qubits, tile_qubits):
        ops = [inst for inst in qc if inst.name != "measure"]
        partition = dense.partition_window(ops)
        items = (
            dense.materialize_items(ops, partition)
            if partition is not None
            else list(ops)
        )
        sched = dense.plan_blocked_window(
            ops, partition, num_qubits, tile_qubits=tile_qubits
        )
        assert sched is not None, "workload must engage blocking"
        return items, sched

    def test_blocked_sweep_matches_plain_application_scalar(self):
        qc = self._local_then_high(5)
        items, sched = self._window(qc, 6, 3)
        blocked = StateVector(6, random_state(6, 21))
        plain = blocked.copy()
        dense.execute_blocked(blocked, items, sched, tile_qubits=3)
        dense.apply_items(plain, items)
        np.testing.assert_allclose(blocked.data, plain.data, rtol=0, atol=1e-12)

    def test_window_program_agrees_planned_and_unplanned(self):
        qc = brickwork_circuit(5, 8, seed=2, measure=False)
        instructions = list(qc)
        with engine_mode("fast", batch_max_bytes=1024):
            plans.plan_cache_clear()
            bound = plans.plan_for(qc).bind(instructions)
            stop = len(instructions)
            unplanned = dense.window_program(instructions, 0, stop, None, 5, 3)
            planned = dense.window_program(instructions, 0, stop, bound, 5, 3)
        assert planned[1] == unplanned[1]  # identical segment tuples
        sv_a = StateVector(5, random_state(5, 31))
        sv_b = sv_a.copy()
        dense.apply_items(sv_a, unplanned[0])
        dense.apply_items(sv_b, planned[0])
        np.testing.assert_allclose(sv_a.data, sv_b.data, rtol=0, atol=1e-14)

    def test_options_key_pins_the_blocking_toggles(self):
        """The plan key pins the budget the sweep tile derives from:
        plans compiled under different budgets are distinct entries,
        each with its own tile."""
        qc = brickwork_circuit(5, 4, seed=2, measure=False)
        small = plans.plan_for(qc, ExecutionConfig(batch_max_bytes=4096))
        default = plans.plan_for(qc, ExecutionConfig())
        assert small is not default
        assert small.tile_qubits < default.tile_qubits


class TestBlockedParity:
    """Seeded counts must be bit-identical with blocking on vs off."""

    @staticmethod
    def _counts(qc, mode, *, blocked, noise, seed, **opts):
        with (contextlib.nullcontext if blocked else unblocked)():
            return counts_under_mode(qc, mode, seed, noise=noise, shots=192, **opts)

    @pytest.mark.parametrize("mode", ["fast", HYBRID_ROUTE])
    def test_blocked_toggle_keeps_seeded_counts(self, mode):
        qc = ghz_t(8)
        for seed in (0, 1):
            on = self._counts(
                qc, mode, blocked=True, noise=heavy_noise(), seed=seed,
                batch_max_bytes=2048,
            )
            off = self._counts(
                qc, mode, blocked=False, noise=heavy_noise(), seed=seed,
                batch_max_bytes=2048,
            )
            assert_counts_identical(on, off, context=(mode, "blocked-toggle", seed))

    @pytest.mark.parametrize("mode", ["fast"])
    def test_blocked_toggle_on_deep_brickwork_grouped_walks(self, mode):
        # Sparse injection sites at depth: long suffix windows between
        # them, so the scalar walk's sweeps block.
        qc = brickwork_circuit(7, 16, seed=1)
        on = self._counts(
            qc, mode, blocked=True, noise=brickwork_noise(), seed=5,
            batch_max_bytes=1024,
        )
        off = self._counts(
            qc, mode, blocked=False, noise=brickwork_noise(), seed=5,
            batch_max_bytes=1024,
        )
        assert_counts_identical(on, off, context=(mode, "brickwork", 5))

    def test_clean_circuit_blocked_toggle(self):
        qc = ghz_t(9)
        on = self._counts(
            qc, "fast", blocked=True, noise=None, seed=8, batch_max_bytes=1024
        )
        off = self._counts(
            qc, "fast", blocked=False, noise=None, seed=8, batch_max_bytes=1024
        )
        assert_counts_identical(on, off, context=("fast", "clean", 8))
