"""Cross-engine parity helpers shared by the sampler/batched/fuzz suites.

The repeated pattern across those suites: build a standard noisy
workload, sample it under several ``engine_mode`` settings with the same
seed, and assert the seeded counts are **bit-identical** — not merely
statistically close.  One copy of that machinery lives here so every
suite pins the same contract with the same words.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Optional, Sequence

from repro.circuits import QuantumCircuit, ghz_circuit
from repro.simulator import (
    Counts,
    NoiseModel,
    depolarizing_error,
    engine_mode,
    sample_counts,
)
from repro.simulator import sampler as _sampler

#: Label for ``"fast"`` with the grouped walk held to its scalar form —
#: the scalar side of every batched≡scalar pin.  Not an engine mode:
#: :func:`counts_under_mode` resolves it through :func:`scalar_walk`.
SCALAR_FAST = "fast-scalar"

#: The engine matrix every differential pin sweeps by default.  Plain
#: ``"fast"`` takes the batched grouped walk wherever it engages, so the
#: pair ``"fast"``/``SCALAR_FAST`` pins batched≡scalar.
ALL_ENGINE_MODES = ("fast", SCALAR_FAST, "stabilizer", "hybrid", "mps")


@contextmanager
def unplanned() -> Iterator[None]:
    """Run the sampler with no bound plan for the block — the engines'
    ``plan=None`` path, the reference every planned run must match."""
    saved = _sampler._bound_plan
    _sampler._bound_plan = lambda circuit, config: None
    try:
        yield
    finally:
        _sampler._bound_plan = saved


@contextmanager
def scalar_walk() -> Iterator[None]:
    """Force the scalar grouped walk for the block by raising the
    batched walk's group threshold out of reach."""
    saved = _sampler._BATCH_MIN_GROUPS
    _sampler._BATCH_MIN_GROUPS = 1 << 62
    try:
        yield
    finally:
        _sampler._BATCH_MIN_GROUPS = saved


def light_noise() -> NoiseModel:
    """Mild depolarizing noise: a handful of realization groups."""
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.02, 2), "cx")
    nm.add_gate_error(depolarizing_error(0.01, 1), "h")
    return nm


def heavy_noise() -> NoiseModel:
    """High rates force many multi-error realizations — the regime
    where grouped walks share leading injections and batched rows take
    later injections mid-walk."""
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.15, 2), "cx")
    nm.add_gate_error(depolarizing_error(0.10, 1), "h")
    nm.add_gate_error(depolarizing_error(0.08, 1), "t")
    return nm


def ghz_t(n: int) -> QuantumCircuit:
    """GHZ preparation plus a T layer: Clifford prefix, diagonal tail —
    exercises fusion windows, the hybrid boundary, and heavy-noise
    grouping all at once."""
    qc = ghz_circuit(n, measure=False)
    for q in range(n):
        qc.t(q)
    qc.measure_all()
    return qc


def counts_under_mode(
    qc: QuantumCircuit,
    mode: str,
    seed,
    noise: Optional[NoiseModel] = None,
    shots: int = 512,
    **mode_options,
) -> Counts:
    """Sample *qc* under ``engine_mode(mode, **mode_options)``
    (:data:`SCALAR_FAST` runs ``"fast"`` under :func:`scalar_walk`)."""
    if mode == SCALAR_FAST:
        with scalar_walk():
            return counts_under_mode(qc, "fast", seed, noise, shots, **mode_options)
    with engine_mode(mode, **mode_options):
        return sample_counts(qc, shots, noise=noise, rng=seed)


def assert_counts_identical(a: Counts, b: Counts, context=None) -> None:
    """The bit-identical pin: seeded counts must match exactly."""
    da, db = a.to_dict(), b.to_dict()
    assert da == db, f"seeded counts diverged ({context}): {da} vs {db}"


def engine_matrix_counts(
    qc: QuantumCircuit,
    seed,
    modes: Sequence[str] = ALL_ENGINE_MODES,
    noise: Optional[NoiseModel] = None,
    shots: int = 512,
) -> Dict[str, Counts]:
    """Run *qc* under every mode in *modes* with the same seed."""
    return {
        mode: counts_under_mode(qc, mode, seed, noise=noise, shots=shots)
        for mode in modes
    }


def assert_engine_matrix_identical(
    qc: QuantumCircuit,
    seeds: Iterable,
    modes: Sequence[str] = ALL_ENGINE_MODES,
    noise: Optional[NoiseModel] = None,
    shots: int = 512,
) -> None:
    """Assert every engine in *modes* produces identical seeded counts
    on *qc*, for each seed (the first listed mode is the reference)."""
    for seed in seeds:
        results = engine_matrix_counts(qc, seed, modes, noise=noise, shots=shots)
        ref_mode = modes[0]
        for mode in modes[1:]:
            assert_counts_identical(
                results[ref_mode], results[mode], context=(ref_mode, mode, seed)
            )


__all__ = [
    "ALL_ENGINE_MODES",
    "SCALAR_FAST",
    "assert_counts_identical",
    "assert_engine_matrix_identical",
    "counts_under_mode",
    "engine_matrix_counts",
    "ghz_t",
    "heavy_noise",
    "light_noise",
    "scalar_walk",
    "unplanned",
]
