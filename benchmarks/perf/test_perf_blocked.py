"""Perf microbenchmarks for cache-blocked wide-state execution.

CI-sized counterparts of the ``blocked_wide_dense`` /
``batched_wide_grouped`` lanes in ``scripts/bench.py``.  The assertions
are deliberately loose sanity floors (exact numbers belong to the
harness), but they pin the orderings that make blocking worth shipping:

* past the tile width, a deep-brickwork dense advance with blocked
  sweeps on must beat the same advance with them off — the whole win is
  one DRAM pass per window instead of one per item;
* below the tile width the schedule must not engage at all (the plain
  path is already cache-resident, so any blocked overhead there would
  be a regression);
* above the old cache-resident cap, the batched grouped walk riding the
  blocked sweeps must track the scalar fast walk (its benefit is shared
  DRAM traffic, not dispatch, so "no slower than scalar" is the pin).
"""

import time

from benchmarks.conftest import report
from repro.circuits import brickwork_circuit
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    engine_mode as _engine,
    sample_counts,
)
from repro.simulator.config import DEFAULT_BATCH_MAX_BYTES
from repro.simulator.engines import DenseEngine
from repro.simulator.engines import dense as _dense

#: Wall-clock assertions tolerate this much CI noise before going red.
TIMING_SLACK = 1.5


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _advance_seconds(circuit, blocked, repeats=3):
    ops = list(circuit)

    def advance_once():
        DenseEngine(circuit).advance(ops)

    with _engine("fast"):
        prev = _dense.BLOCKED_SWEEPS
        _dense.BLOCKED_SWEEPS = blocked
        try:
            return _best_of(advance_once, repeats)
        finally:
            _dense.BLOCKED_SWEEPS = prev


def test_perf_blocked_sweeps_beat_plain_advance_past_the_tile():
    """Deep brickwork at 16 qubits (two tiles at the default budget):
    every window re-reads 1 MiB of amplitudes per item unblocked, once
    per sweep blocked.  The committed bench floor is 1.3×; here we
    require the blocked lane simply wins with slack."""
    circuit = brickwork_circuit(16, 8, measure=False)
    unblocked = _advance_seconds(circuit, blocked=False)
    blocked = _advance_seconds(circuit, blocked=True)
    report(
        "perf_blocked_wide_dense",
        f"16q x depth-8 brickwork dense advance\n"
        f"unblocked: {unblocked:.4f}s\n"
        f"blocked:   {blocked:.4f}s\n"
        f"speedup:   {unblocked / blocked:.2f}x",
    )
    # measured ~2x on the reference machine; 1.3 is the committed floor
    # and TIMING_SLACK absorbs CI noise on top of it
    assert unblocked >= blocked * 1.3 / TIMING_SLACK, (unblocked, blocked)
    assert blocked <= unblocked  # the blocked lane must win outright


def test_perf_blocked_schedule_stays_off_below_the_tile():
    """At 12 qubits (64 KiB state, well under one tile) the scheduler
    must return no schedule for any window: blocking there could only
    add overhead, never save a DRAM pass."""
    circuit = brickwork_circuit(12, 8, measure=False)
    ops = [inst for inst in circuit]
    partition = _dense.partition_window(ops)
    tile = _dense.blocked_tile_qubits(DEFAULT_BATCH_MAX_BYTES)
    assert _dense.plan_blocked_window(ops, partition, 12, tile) is None


def test_perf_batched_wide_grouped_tracks_scalar():
    """16-qubit noisy brickwork grouped sampling — the regime above the
    old 13-qubit batched engagement cap.  The wide batched walk rides
    the same blocked sweeps in 4-row chunks; it must stay within CI
    slack of the scalar walk (measured ~parity on the reference
    machine, with identical seeded counts)."""
    circuit = brickwork_circuit(16, 12)
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.002, 2), "cz")
    nm.add_gate_error(depolarizing_error(0.001, 1), "ry")
    shots = 48

    with _engine("fast"):
        scalar = _best_of(
            lambda: sample_counts(circuit, shots, noise=nm, rng=7), repeats=2
        )
    with _engine("batched"):
        batched = _best_of(
            lambda: sample_counts(circuit, shots, noise=nm, rng=7), repeats=2
        )
    report(
        "perf_batched_wide_grouped",
        f"16q x depth-12 brickwork, {shots} shots, sparse depolarizing\n"
        f"scalar fast: {scalar:.4f}s\n"
        f"batched:     {batched:.4f}s\n"
        f"ratio:       {scalar / batched:.2f}x",
    )
    assert batched <= scalar * TIMING_SLACK, (batched, scalar)
