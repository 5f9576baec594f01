"""Perf microbenchmarks for cache-blocked wide-state execution.

CI-sized counterpart of the ``blocked_wide_dense`` lane in
``scripts/bench.py``.  The assertions
are deliberately loose sanity floors (exact numbers belong to the
harness), but they pin the orderings that make blocking worth shipping:

* past the tile width, a deep-brickwork dense advance with blocked
  sweeps on must beat the same advance with them off — the whole win is
  one DRAM pass per window instead of one per item;
* below the tile width the schedule must not engage at all (the plain
  path is already cache-resident, so any blocked overhead there would
  be a regression).
"""

import time

from benchmarks.conftest import report
from repro.circuits import brickwork_circuit
from repro.simulator import engine_mode as _engine
from repro.simulator.config import DEFAULT_BATCH_MAX_BYTES
from repro.simulator.engines import DenseEngine
from repro.simulator.engines import dense as _dense

#: Wall-clock assertions tolerate this much CI noise before going red.
TIMING_SLACK = 1.5


def _advance_seconds(circuit, repeats=5):
    """Best unblocked and best blocked advance of *circuit*, timed in
    alternating rounds so a slow spell on a shared machine lands on both
    lanes rather than on whichever happened to run during it."""
    ops = list(circuit)
    best = {False: float("inf"), True: float("inf")}
    with _engine("fast"):
        prev = _dense.BLOCKED_SWEEPS
        try:
            for _ in range(repeats):
                for blocked in (False, True):
                    _dense.BLOCKED_SWEEPS = blocked
                    start = time.perf_counter()
                    DenseEngine(circuit).advance(ops)
                    elapsed = time.perf_counter() - start
                    best[blocked] = min(best[blocked], elapsed)
        finally:
            _dense.BLOCKED_SWEEPS = prev
    return best[False], best[True]


def test_perf_blocked_sweeps_beat_plain_advance_past_the_tile():
    """Deep brickwork at 16 qubits (two tiles at the default budget):
    every window re-reads 1 MiB of amplitudes per item unblocked, once
    per sweep blocked.  The committed bench floor is 1.3×; here we
    require the blocked lane simply wins with slack."""
    circuit = brickwork_circuit(16, 8, measure=False)
    unblocked, blocked = _advance_seconds(circuit)
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
