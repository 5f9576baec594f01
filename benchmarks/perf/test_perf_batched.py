"""Perf microbenchmarks for batched trajectory execution.

CI-sized counterpart of the ``batched_ghz_grouped`` lane in
``scripts/bench.py``.  The assertions
are deliberately loose sanity floors (exact numbers belong to the
harness), but they pin one ordering: at a cache-resident width the
batched grouped walk, which the default config takes by itself there,
must beat the scalar walk outright (its whole reason to exist is
dispatch amortization over many stacked trajectory states).  Beyond
the cache-working-set width the batched walk never engages
(``tests/test_batched.py`` pins that routing).
"""

import time

from benchmarks.conftest import report
from repro.circuits import ghz_circuit
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    engine_mode as _engine,
    sample_counts,
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


def test_perf_batched_beats_scalar_at_cache_resident_width(monkeypatch):
    """GHZ-10 grouped sampling, hundreds of trajectory groups: one
    kernel call per lockstep window across ~128 stacked 16 KiB states
    must beat per-group dispatch.  Counts are bit-identical by the
    parity suite, so this is pure dispatch amortization.  The scalar
    side raises the batched walk's group threshold out of reach."""
    circuit = ghz_circuit(10)
    noise = _noise()
    shots = 4096

    def run():
        sample_counts(circuit, shots, noise=noise, rng=7)

    with _engine("fast"):
        batched = _best_of(run)
        with monkeypatch.context() as scalar_only:
            scalar_only.setattr(_sampler, "_BATCH_MIN_GROUPS", 1 << 62)
            scalar = _best_of(run)

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
