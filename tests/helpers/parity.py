"""Cross-engine parity helpers shared by the sampler/batched/fuzz suites.

The repeated pattern across those suites: build a standard noisy
workload, sample it under several engine modes or engine holds
(:func:`engine_route`) with the same seed, and assert the seeded counts
are **bit-identical** — not merely statistically close.  One copy of that machinery lives here so every
suite pins the same contract with the same words.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.circuits import QuantumCircuit, ghz_circuit
from repro.simulator import (
    Counts,
    NoiseModel,
    depolarizing_error,
    engine_mode,
    sample_counts,
)
from repro.simulator import engines as _engines
from repro.simulator import sampler as _sampler
from repro.simulator.engines import dense as _dense
from repro.simulator.engines import get_engine
from repro.telemetry import tracing as _tracing

#: Label for ``"fast"`` held on the dense engine — the batched side of
#: every batched≡scalar pin.  Not an engine mode: :func:`counts_under_mode`
#: resolves it through ``engine_route("dense")``.
DENSE_FAST = "fast-dense"

#: Label for ``"fast"`` held on the dense engine with the grouped walk
#: held to its scalar form — the scalar side of every batched≡scalar
#: pin.  Not an engine mode: :func:`counts_under_mode` resolves it
#: through ``engine_route("dense")`` and :func:`scalar_walk`.
SCALAR_FAST = "fast-scalar"

#: Label for every request held on the production tableau (Clifford
#: circuits only).  Not an engine mode: :func:`counts_under_mode`
#: resolves it through ``engine_route("tableau")``.
TABLEAU_ROUTE = "tableau"

#: Label for every request held on the segment-granular hybrid engine.
#: Not an engine mode: :func:`counts_under_mode` resolves it through
#: ``engine_route("hybrid")``.
HYBRID_ROUTE = "hybrid"

#: The engine each engine-holding label runs on.
_ROUTED_LABELS = {DENSE_FAST: "dense", TABLEAU_ROUTE: "tableau", HYBRID_ROUTE: "hybrid"}

#: The engine matrix the traced≡untraced pins sweep.  Plain
#: ``"fast"`` is the default config, cost routing included; on the dense
#: engine it takes the batched grouped walk wherever it engages, and
#: ``SCALAR_FAST`` pins the scalar walk beside it.  The matrix runs
#: non-Clifford circuits, so it names no tableau route.
ALL_ENGINE_MODES = ("fast", SCALAR_FAST, HYBRID_ROUTE, "mps")


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
def unfused() -> Iterator[None]:
    """Run the dense engine with no window fusion for the block: every
    partition reads "nothing fuses", so each gate applies on its own —
    the reference every fused walk must match.  Nests :func:`unplanned`
    so no cached plan memoizes the unfused partitions."""
    saved = _dense.partition_window
    _dense.partition_window = lambda ops: None
    try:
        with unplanned():
            yield
    finally:
        _dense.partition_window = saved


@contextmanager
def unblocked() -> Iterator[None]:
    """Run the dense engine with no cache-blocked sweeps for the block:
    every window applies full-state, item by item — the reference every
    blocked walk must match.  Nests :func:`unplanned` so no cached plan
    memoizes the missing schedules."""
    saved = _dense.plan_blocked_window
    _dense.plan_blocked_window = lambda ops, partition, num_qubits, tile_qubits: None
    try:
        with unplanned():
            yield
    finally:
        _dense.plan_blocked_window = saved


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


@contextmanager
def engine_route(name: str) -> Iterator[None]:
    """Serve every request of the block on the registered engine *name*
    (``"dense"``, ``"tableau"``, ``"hybrid"`` or ``"mps"``), whatever the
    mode would route it to: the sampler's routing call
    (``sampler.select_engine``), the grouped walk's cost choice
    (``sampler._route_by_cost``) and the routing behind
    :func:`~repro.simulator.engines.prepare_engine` all answer with that
    engine.  Admission control still runs, on that engine's estimate."""
    engine_cls = get_engine(name)
    saved = (_sampler.select_engine, _engines.select_engine, _sampler._route_by_cost)
    _sampler.select_engine = _engines.select_engine = lambda mode, circuit: engine_cls
    _sampler._route_by_cost = lambda routed, *args: engine_cls
    try:
        yield
    finally:
        _sampler.select_engine, _engines.select_engine, _sampler._route_by_cost = saved


@contextmanager
def replayed_tableau() -> Iterator[None]:
    """Run the production tableau on the sampler's per-group replay walk
    for the block — a fork, injections and a suffix replay per group —
    instead of its sign-mask walk
    (:func:`repro.simulator.engines.tableau.grouped_sign_walk`), the
    reference every sign walk must match."""
    saved = _sampler._use_sign_walk
    _sampler._use_sign_walk = lambda engine_cls: False
    try:
        yield
    finally:
        _sampler._use_sign_walk = saved


@contextmanager
def traced_run(mode: Optional[str] = None, **options) -> Iterator[object]:
    """Trace the block as one run under ``engine_mode(mode, trace=True,
    **options)``.  Yields the run handle of the block's own
    ``tracing.run_scope``: its ``report`` is the block's
    :class:`~repro.telemetry.tracing.ExecutionReport` once the block
    exits, also when it raises.  The ``sample_counts`` calls inside nest
    in the run as spans, as they do in a QRM job's scope."""
    with engine_mode(mode, trace=True, **options):
        with _tracing.run_scope("test.run", enabled=True) as run:
            yield run


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
    (:data:`DENSE_FAST` runs ``"fast"`` under ``engine_route("dense")``,
    :data:`SCALAR_FAST` also under :func:`scalar_walk`;
    :data:`TABLEAU_ROUTE` and :data:`HYBRID_ROUTE` run ``"fast"`` under
    :func:`engine_route` of the engine they name)."""
    if mode == SCALAR_FAST:
        with scalar_walk():
            return counts_under_mode(qc, DENSE_FAST, seed, noise, shots, **mode_options)
    if mode in _ROUTED_LABELS:
        with engine_route(_ROUTED_LABELS[mode]):
            return counts_under_mode(qc, "fast", seed, noise, shots, **mode_options)
    with engine_mode(mode, **mode_options):
        return sample_counts(qc, shots, noise=noise, rng=seed)


def assert_counts_identical(a: Counts, b: Counts, context=None) -> None:
    """The bit-identical pin: seeded counts must match exactly."""
    da, db = a.to_dict(), b.to_dict()
    assert da == db, f"seeded counts diverged ({context}): {da} vs {db}"


__all__ = [
    "ALL_ENGINE_MODES",
    "DENSE_FAST",
    "HYBRID_ROUTE",
    "SCALAR_FAST",
    "TABLEAU_ROUTE",
    "assert_counts_identical",
    "counts_under_mode",
    "engine_route",
    "ghz_t",
    "heavy_noise",
    "light_noise",
    "replayed_tableau",
    "scalar_walk",
    "traced_run",
    "unblocked",
    "unfused",
    "unplanned",
]
