"""Perf microbenchmarks for batched trajectory execution and sharding.

CI-sized counterparts of the ``batched_ghz_grouped`` /
``sharded_throughput`` lanes in ``scripts/bench.py``.  The assertions
are deliberately loose sanity floors (exact numbers belong to the
harness), but they pin two orderings:

* at a cache-resident width the batched grouped walk must beat the
  scalar fast walk outright (its whole reason to exist is dispatch
  amortization over many stacked trajectory states);
* at 16–20 qubits — beyond the cache-working-set budget — the batched
  walk engages only in the **blocked-wide regime** (register wider than
  a sweep tile *and* realized injection sites sparse enough that the
  lockstep windows can actually block).  GHZ under per-gate noise has a
  site at every gate, so the walk must still disengage there and
  ``engine_mode("batched")`` must track ``"fast"`` exactly; the
  engaged wide path is covered by ``test_perf_blocked.py`` and the
  ``batched_wide_grouped`` bench lane.
"""

import time

from benchmarks.conftest import report
from repro.circuits import ghz_circuit
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    engine_mode as _engine,
    sample_counts,
    sample_counts_sharded,
)
from repro.simulator import sampler as _sampler

#: Wall-clock assertions tolerate this much CI noise before going red.
TIMING_SLACK = 1.5


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _noise():
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.02, 2), "cx")
    nm.add_gate_error(depolarizing_error(0.01, 1), "h")
    return nm


def test_perf_batched_beats_scalar_at_cache_resident_width():
    """GHZ-10 grouped sampling, hundreds of trajectory groups: one
    kernel call per lockstep window across ~128 stacked 16 KiB states
    must beat per-group dispatch.  Counts are bit-identical by the
    parity suite, so this is pure dispatch amortization."""
    circuit = ghz_circuit(10)
    noise = _noise()
    shots = 4096

    def run():
        sample_counts(circuit, shots, noise=noise, rng=7)

    with _engine("fast"):
        scalar = _best_of(run)
    with _engine("batched"):
        batched = _best_of(run)

    lines = [
        f"ghz-10, {shots} shots, depolarizing noise, grouped path",
        f"scalar fast : {scalar * 1e3:8.2f} ms   ({shots / scalar:8.0f} shots/s)",
        f"batched     : {batched * 1e3:8.2f} ms   ({shots / batched:8.0f} shots/s)",
        f"speedup     : {scalar / batched:8.2f} x",
    ]
    report("perf_batched_grouped", "\n".join(lines))
    assert batched * 1.2 <= scalar, (
        "batched grouped walk lost to the scalar walk at a cache-resident width"
    )


def test_perf_batched_ordering_holds_at_wide_registers():
    """16–20 qubits with ≥8 trajectory groups: GHZ under per-gate noise
    realizes an injection site at nearly every gate, so the blocked-wide
    window-length gate keeps the batched walk disengaged (fragmented
    windows can't block; unblocked wide rows would run DRAM-bound where
    the scalar walk's suffix sharing wins) and "batched" must track
    "fast" — never trail it beyond timing noise.  In the gap between
    the cache-resident and blocked-wide regimes the walk must also
    disengage regardless of site density: there the scalar walk is
    cache-resident by construction and stacking rows would evict it."""
    import numpy as np

    from repro.simulator.engines import select_engine
    from repro.simulator.engines import dense as _dense

    with _engine("batched") as config:
        gap_width = _dense.blocked_tile_qubits(config.batch_max_bytes)
        gap_circuit = ghz_circuit(gap_width)
        assert not _sampler._use_batched_walk(
            select_engine("batched", gap_circuit), gap_circuit, 64, config
        ), f"batched walk engaged in the regime gap at {gap_width} qubits"
    for num_qubits, shots in ((16, 512), (18, 256), (20, 96)):
        circuit = ghz_circuit(num_qubits)
        noise = _noise()

        def run():
            sample_counts(circuit, shots, noise=noise, rng=7)

        with _engine("fast"):
            scalar = _best_of(run, repeats=2)
        with _engine("batched") as config:
            # the realized site density must keep the walk disengaged
            noisy = _sampler._noisy_ops(circuit, noise, {})
            groups = _sampler._group_realizations(
                noisy, shots, np.random.default_rng(7)
            )
            ordered = sorted(groups.items(), key=lambda kv: kv[0] or ((1 << 30, 0),))
            assert not _sampler._use_batched_walk(
                select_engine("batched", circuit),
                circuit,
                len(ordered),
                config,
                ordered=ordered,
            ), f"batched walk engaged on site-dense ghz-{num_qubits}"
            batched = _best_of(run, repeats=2)
        # the pinned workload produces well over 8 groups
        noisy = _sampler._noisy_ops(circuit, noise, {})
        assert len(noisy) >= 8
        report(
            f"perf_batched_wide_{num_qubits}q",
            (
                f"ghz-{num_qubits}, {shots} shots: scalar "
                f"{scalar * 1e3:.2f} ms, batched {batched * 1e3:.2f} ms "
                f"(ratio {scalar / batched:.2f}x)"
            ),
        )
        assert batched <= scalar * TIMING_SLACK, (
            f"batched mode slower than fast at {num_qubits} qubits despite "
            "scalar fallback"
        )


def test_perf_sharded_throughput_stays_interactive():
    """The sharding layer end to end (block partition, derived streams,
    prefix sharing, merge) on the reference workload: overhead over the
    plain driver must stay small and the whole run interactive."""
    circuit = ghz_circuit(12)
    noise = _noise()
    shots = 2048

    start = time.perf_counter()
    counts = sample_counts_sharded(circuit, shots, noise=noise, seed=7, workers=1)
    seconds = time.perf_counter() - start
    assert counts.shots == shots
    report(
        "perf_sharded_throughput",
        (
            f"ghz-12, {shots} shots, workers=1: {seconds * 1e3:8.2f} ms "
            f"({shots / seconds:8.0f} shots/s)"
        ),
    )
    assert seconds < 30.0, "sharded sampling left the interactive regime"
