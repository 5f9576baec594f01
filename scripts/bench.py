#!/usr/bin/env python
"""Simulator perf harness: before/after numbers for the simulation engines.

Measures the hot paths every workload in the stack bottoms out in —
gate application, noisy shot sampling, VQE iteration latency — across
the engine lanes :func:`repro.simulator.engine_mode` exposes:

* **baseline** — the seed engine (:mod:`repro.testing.reference`):
  generic ``moveaxis`` gate application
  (``StateVector.apply_matrix_generic``) and from-scratch trajectory
  groups; the gate-apply, ``ghz_shot_sampling_grouped`` and VQE lanes
  time it as their "before" side;
* **fast** — the default dispatch: specialized 1q/2q kernels plus
  trajectory prefix-sharing;
* **stabilizer** — the Aaronson–Gottesman tableau backend for
  Clifford-only circuits (``ghz_sampling_stabilizer`` pits it against
  the fast dense engine at device scale; ``stabilizer_scaling_ghz``
  lanes run widths no dense engine can represent, so they record a
  single ``seconds`` lane instead of a before/after pair);
* **hybrid** — segment-granular mixed (tableau→dense) execution
  (``hybrid_segment_ghz_t`` runs a GHZ Clifford prefix followed by a
  T-gate layer: the hybrid engine forks and replays trajectory groups
  on the tableau and converts each group's boundary state to sparse
  amplitudes, against the fast dense engine paying full ``2^n`` forks);
* **packed tableau** — the bit-packed word-parallel tableau, the only
  production tableau (``stabilizer_packed_ghz`` pits it against the
  retired one-bit-per-byte tableau, kept as the oracle
  ``reference.sample_counts_tableau``, on the same grouped walk over
  100-qubit GHZ; the ``stabilizer_scaling_ghz`` lanes reach
  256/512/1024 qubits);
* **diagonal-run fusion** — ``diagonal_fusion_dense`` toggles the dense
  engine's diagonal-run kernel fusion on a T/RZ/CP-heavy sampling
  workload (fast kernels in both lanes; this isolates the fusion win);
* **mps** — the bounded-bond matrix-product-state engine
  (``mps_brickwork`` pits it against the fast dense engine on a shallow
  brickwork circuit at dense-representable width; ``mps_qaoa_wide``
  runs a QAOA-style chain at widths no other non-Clifford path can
  represent — a single-lane entry carrying a ``max_seconds``
  feasibility ceiling plus the engine's reported truncation error);
* **batched** — the batched grouped walk (``batched_ghz_grouped`` pits
  the default ``"fast"`` config, which takes the batched walk by itself
  at a cache-resident width, against the same config with the scalar
  walk forced, on noisy GHZ grouped sampling: every trajectory group
  advances in one kernel call per lockstep window, with bit-identical
  seeded counts in both lanes);
* **device job** — the quickstart's native GHZ-5 device job
  (``noisy_device_ghz5``: depolarizing, thermal-relaxation and idle
  noise on the compacted 5-qubit register, 2048 shots) under the
  default walk vs the forced-scalar walk; bookkeeping-bound, so it
  measures the batched walk's per-group cost.  Two same-seed devices
  alternate job by job; the entry records per-job medians and the
  quartiles of each lane and of the per-job ratio;
* **blocked sweeps** — cache-blocked wide-state execution
  (``blocked_wide_dense`` toggles ``dense.BLOCKED_SWEEPS`` off vs on
  around a deep-brickwork dense advance past the tile width: the
  blocked lane streams the state in L2-sized tiles and applies every
  tile-local window item per resident tile, one DRAM pass per window
  instead of one per item);
* **plan cache** — compiled execution plans
  (``plan_cache_parameterized`` samples N parameter bindings of one
  ansatz with the cross-request plan cache cleared before every binding
  vs primed once: the structural hash masks parameter values, so warm
  bindings reuse the cached fusion partition and every zero-parameter
  fused table instead of re-planning per request).

Results are printed as a table and written to ``BENCH_simulator.json``
(schema ``repro.bench.simulator/v11``) so later PRs have a perf
trajectory to beat.  Acceptance-gate lanes carry a ``floor`` — the
minimum speedup later runs must preserve — and wide single-lane entries
may carry a ``max_seconds`` feasibility ceiling; ``--check`` runs the
quick configuration and exits nonzero if any fresh speedup drops below
the floor (or any ceiling-carrying lane exceeds its ceiling) recorded
in the committed reference artifact (the tier-1 bench regression
guard).  ``--quick`` shrinks sizes to fit the tier-1 CI budget; the
default configuration runs the paper-scale 20-qubit GHZ shot-sampling
benchmarks whose speedups the acceptance gates check.

Usage::

    PYTHONPATH=src python scripts/bench.py [--quick] [--out PATH]
    PYTHONPATH=src python scripts/bench.py --check [--reference PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

_REPO = pathlib.Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

import numpy as np  # noqa: E402

from repro.circuits import brickwork_circuit, ghz_circuit  # noqa: E402
from repro.circuits.gates import cx_matrix, rz_matrix, spec  # noqa: E402
from repro.hybrid import VQE, expectation_statevector, h2_hamiltonian  # noqa: E402
from repro.simulator import (  # noqa: E402
    NoiseModel,
    depolarizing_error,
    sample_counts,
)
from repro.simulator.config import ExecutionConfig  # noqa: E402
from repro.simulator.engines import DenseEngine  # noqa: E402
from repro.simulator.sampler import _sample_per_shot  # noqa: E402
from repro.simulator.sampler import engine_mode as engine  # noqa: E402
from repro.simulator.statevector import StateVector  # noqa: E402
from repro.testing import reference  # noqa: E402

SCHEMA = "repro.bench.simulator/v11"

#: Speedup floors for the acceptance-gate lanes, recorded into the
#: artifact (``floor`` field) and enforced by ``--check``.  Values are
#: conservative enough to hold at the ``--quick`` sizes on a noisy CI
#: machine while still catching a genuine engine regression.
FLOORS: Dict[str, float] = {
    "ghz_shot_sampling_grouped": 1.5,
    "grouped_vs_per_shot": 2.0,
    "ghz_sampling_stabilizer": 1.5,
    "hybrid_segment_ghz_t": 2.0,
    "stabilizer_packed_ghz": 2.5,
    "diagonal_fusion_dense": 1.3,
    # Recalibrated from 1.2 when the dense baseline gained cache-blocked
    # sweeps (which compress every dense-relative ratio at >tile widths):
    # the full-config margin stays ~1.4x, but the --quick 16-qubit size
    # now sits near parity.
    "mps_brickwork": 1.0,
    "batched_ghz_grouped": 1.5,
    # The quickstart's device job, default vs forced-scalar walk: the
    # array-at-a-time walk measured a 3.4x median (quick and full
    # sizes alike, interquartile 3.3-3.5x); the floor sits at ~75% of
    # it, above the 2.6x the per-row walk reached.
    "noisy_device_ghz5": 2.5,
    "blocked_wide_dense": 1.3,
    "plan_cache_parameterized": 2.0,
    # Paired tracing lane: speedup is tracing-off / tracing-on on the
    # same workload, so this floor pins the *enabled* flight recorder's
    # overhead at ≤ ~10%; the disabled (no-op) path rides the existing
    # grouped-lane floors, which catch any off-mode regression.
    "tracing_overhead": 0.9,
}

#: Wall-clock feasibility ceilings (seconds) for single-lane entries at
#: widths no other engine can represent — the "this workload is
#: runnable at all, interactively" gates.  Deliberately generous: a
#: regression that matters here is an order of magnitude, not noise.
CEILINGS: Dict[str, float] = {
    "mps_qaoa_wide": 60.0,
}


def _timed(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of *fn*."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(
    name: str,
    params: Dict[str, object],
    baseline_seconds: float,
    fast_seconds: float,
    throughput_unit: Optional[str] = None,
    work_items: Optional[int] = None,
) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "name": name,
        "params": dict(params),
        "baseline_seconds": baseline_seconds,
        "fast_seconds": fast_seconds,
        "speedup": baseline_seconds / fast_seconds if fast_seconds > 0 else None,
    }
    if throughput_unit and work_items:
        entry["throughput_unit"] = throughput_unit
        entry["baseline_throughput"] = work_items / baseline_seconds
        entry["fast_throughput"] = work_items / fast_seconds
    floor = FLOORS.get(name)
    if floor is not None:
        entry["floor"] = floor
    return entry


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------


def bench_gate_apply(num_qubits: int, reps: int, repeats: int) -> List[Dict[str, object]]:
    """1q/2q/diagonal gate-application throughput on an n-qubit state."""
    h = spec("h").matrix()
    cx = cx_matrix()
    rz = rz_matrix(0.37)
    cz = spec("cz").matrix()
    cases = [
        ("gate_apply_1q_dense", h, lambda i: [i % num_qubits]),
        ("gate_apply_1q_diag", rz, lambda i: [i % num_qubits]),
        (
            "gate_apply_2q_cx",
            cx,
            lambda i: [i % num_qubits, (i + 1) % num_qubits],
        ),
        (
            "gate_apply_2q_diag_cz",
            cz,
            lambda i: [i % num_qubits, (i + 1) % num_qubits],
        ),
    ]
    out = []
    for name, matrix, operands in cases:
        def run(apply):
            sv = StateVector(num_qubits)
            for i in range(reps):
                apply(sv, matrix, operands(i))

        base = _timed(lambda: run(StateVector.apply_matrix_generic), repeats)
        with engine("fast"):
            fast = _timed(lambda: run(StateVector.apply_matrix), repeats)
        out.append(
            _entry(
                name,
                {"num_qubits": num_qubits, "gates": reps},
                base,
                fast,
                throughput_unit="gates_per_sec",
                work_items=reps,
            )
        )
    return out


def _ghz_noise() -> NoiseModel:
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.01, 2), "cx")
    nm.add_gate_error(depolarizing_error(0.005, 1), "h")
    return nm


def bench_ghz_sampling(num_qubits: int, shots: int, repeats: int) -> Dict[str, object]:
    """The acceptance benchmark: GHZ shot sampling, grouped path, under
    depolarizing noise — seed engine vs fast engine."""
    circuit = ghz_circuit(num_qubits)
    noise = _ghz_noise()
    base = _timed(
        lambda: reference.sample_counts(circuit, shots, noise=noise, rng=7), repeats
    )
    with engine("fast"):
        fast = _timed(lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats)
    return _entry(
        "ghz_shot_sampling_grouped",
        {"num_qubits": num_qubits, "shots": shots, "noise": "depolarizing"},
        base,
        fast,
        throughput_unit="shots_per_sec",
        work_items=shots,
    )


def bench_tracing_overhead(
    num_qubits: int, shots: int, repeats: int
) -> Dict[str, object]:
    """Flight-recorder cost on the acceptance workload: GHZ grouped
    sampling with tracing off vs on (fast engine in both lanes).

    The "baseline" lane is tracing *off* and the "fast" lane tracing
    *on*, so ``speedup`` = off/on and the committed floor bounds the
    enabled recorder's overhead; counts are bit-identical either way
    (pinned by ``tests/test_tracing.py``)."""
    circuit = ghz_circuit(num_qubits)
    noise = _ghz_noise()
    # A paired ratio near 1.0x is much more load-sensitive than the
    # big-speedup lanes, so always take best-of-2 even in quick mode.
    repeats = max(repeats, 2)
    with engine("fast"):
        off = _timed(
            lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats
        )
    with engine("fast", trace=True):
        on = _timed(
            lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats
        )
    return _entry(
        "tracing_overhead",
        {"num_qubits": num_qubits, "shots": shots, "noise": "depolarizing"},
        off,
        on,
        throughput_unit="shots_per_sec",
        work_items=shots,
    )


def bench_grouped_vs_per_shot(
    num_qubits: int, shots: int, repeats: int
) -> Dict[str, object]:
    """Shots/sec of the grouped path vs the per-shot path (fast engine
    in both lanes; this isolates the trajectory-grouping win)."""
    circuit = ghz_circuit(num_qubits)
    noise = _ghz_noise()
    with engine("fast"):
        per_shot = _timed(
            lambda: _sample_per_shot(
                circuit,
                shots,
                noise,
                np.random.default_rng(7),
                {},
                DenseEngine,
                ExecutionConfig(),
            ),
            repeats,
        )
        grouped = _timed(
            lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats
        )
    return _entry(
        "grouped_vs_per_shot",
        {"num_qubits": num_qubits, "shots": shots, "noise": "depolarizing"},
        per_shot,
        grouped,
        throughput_unit="shots_per_sec",
        work_items=shots,
    )


def bench_stabilizer_ghz(num_qubits: int, shots: int, repeats: int) -> Dict[str, object]:
    """Tableau engine vs the fast dense engine on Clifford grouped
    sampling — the stabilizer acceptance benchmark (≥10× at 20 qubits)."""
    circuit = ghz_circuit(num_qubits)
    noise = _ghz_noise()
    with engine("fast"):
        dense = _timed(lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats)
    with engine("stabilizer"):
        stab = _timed(lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats)
    entry = _entry(
        "ghz_sampling_stabilizer",
        {"num_qubits": num_qubits, "shots": shots, "noise": "depolarizing"},
        dense,
        stab,
        throughput_unit="shots_per_sec",
        work_items=shots,
    )
    entry["lanes"] = {"baseline": "statevector-fast", "fast": "stabilizer"}
    return entry


def bench_stabilizer_scaling(
    sizes: Sequence[int], shots: int, repeats: int
) -> List[Dict[str, object]]:
    """Stabilizer-only lanes at widths the dense engine cannot represent.

    Single-lane entries (``seconds`` instead of a before/after pair):
    there is no dense baseline beyond 26 qubits, which is the point.
    """
    out: List[Dict[str, object]] = []
    for num_qubits in sizes:
        circuit = ghz_circuit(num_qubits)
        noise = _ghz_noise()
        with engine("stabilizer"):
            seconds = _timed(
                lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats
            )
        out.append(
            {
                "name": "stabilizer_scaling_ghz",
                "params": {
                    "num_qubits": num_qubits,
                    "shots": shots,
                    "noise": "depolarizing",
                },
                "seconds": seconds,
                "throughput_unit": "shots_per_sec",
                "throughput": shots / seconds,
            }
        )
    return out


def bench_packed_tableau(num_qubits: int, shots: int, repeats: int) -> Dict[str, object]:
    """Bit-packed word-parallel tableau vs the byte tableau on wide GHZ
    grouped sampling — the packed-engine acceptance benchmark (≥5× at
    100 qubits on the full configuration).  The byte side is the oracle
    ``reference.sample_counts_tableau``, which runs the same grouped
    walk; both lanes are bit-identical in sampled counts, so this
    measures representation speed alone."""
    circuit = ghz_circuit(num_qubits)
    noise = _ghz_noise()
    uint8 = _timed(
        lambda: reference.sample_counts_tableau(circuit, shots, noise=noise, rng=7),
        repeats,
    )
    with engine("stabilizer"):
        packed = _timed(
            lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats
        )
    entry = _entry(
        "stabilizer_packed_ghz",
        {"num_qubits": num_qubits, "shots": shots, "noise": "depolarizing"},
        uint8,
        packed,
        throughput_unit="shots_per_sec",
        work_items=shots,
    )
    entry["lanes"] = {"baseline": "tableau-uint8", "fast": "tableau-packed"}
    return entry


def _diagonal_heavy_circuit(num_qubits: int, layers: int):
    """QAOA-style workload: T/CP/RZ cost runs with an H mixer wall every
    fourth layer — each run between walls is one fusible diagonal block."""
    from repro.circuits.circuit import QuantumCircuit

    qc = QuantumCircuit(num_qubits, name=f"diagruns{num_qubits}")
    qc.h(0)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    for layer in range(layers):
        for q in range(num_qubits):
            qc.t(q)
        for q in range(num_qubits - 1):
            qc.cp(0.31, q, q + 1)
        for q in range(num_qubits):
            qc.rz(0.7, q)
        if layer % 4 == 3:
            for q in range(num_qubits):
                qc.h(q)
    return qc


def bench_diag_fusion(num_qubits: int, layers: int, repeats: int) -> Dict[str, object]:
    """Dense-engine window advance with diagonal-run kernel fusion off
    vs on (fast kernels in both lanes) over a T/CP/RZ-heavy circuit —
    isolates the satellite fusion win: each diagonal run costs one
    elementwise pass instead of one full-state traversal per gate."""
    from repro.simulator.engines import dense as dense_mod

    circuit = _diagonal_heavy_circuit(num_qubits, layers)
    ops = list(circuit)

    def advance_once():
        DenseEngine(circuit).advance(ops)

    with engine("fast"):
        prev = (dense_mod.FUSE_DIAGONAL_RUNS, dense_mod.FUSE_BLOCKS)
        try:
            # the unfused lane must disable *both* fusion passes, or
            # block fusion keeps firing and shrinks the measured ratio
            dense_mod.FUSE_DIAGONAL_RUNS = False
            dense_mod.FUSE_BLOCKS = False
            unfused = _timed(advance_once, repeats)
            dense_mod.FUSE_DIAGONAL_RUNS = True
            dense_mod.FUSE_BLOCKS = True
            fused = _timed(advance_once, repeats)
        finally:
            dense_mod.FUSE_DIAGONAL_RUNS, dense_mod.FUSE_BLOCKS = prev
    entry = _entry(
        "diagonal_fusion_dense",
        {"num_qubits": num_qubits, "layers": layers, "gates": len(ops)},
        unfused,
        fused,
        throughput_unit="gates_per_sec",
        work_items=len(ops),
    )
    entry["lanes"] = {"baseline": "dense-fast-unfused", "fast": "dense-fast-fused"}
    return entry


def _ghz_t_circuit(num_qubits: int):
    """GHZ Clifford prefix + one T-gate layer + terminal measurement —
    the canonical Clifford-prefix / non-Clifford-tail workload."""
    circuit = ghz_circuit(num_qubits, measure=False, name=f"ghz{num_qubits}+t")
    for q in range(num_qubits):
        circuit.t(q)
    circuit.measure_all()
    return circuit


def bench_hybrid_segment(num_qubits: int, shots: int, repeats: int) -> Dict[str, object]:
    """Hybrid segment engine vs the fast dense engine on a GHZ-prefix +
    T-layer grouped-sampling workload — the mixed-execution acceptance
    benchmark (≥3× at 24 qubits; in practice orders of magnitude,
    because every trajectory group forks on the tableau and converts a
    two-element coset instead of copying a ``2^n`` amplitude vector)."""
    circuit = _ghz_t_circuit(num_qubits)
    noise = _ghz_noise()
    with engine("fast"):
        dense = _timed(lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats)
    with engine("hybrid"):
        hybrid = _timed(lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats)
    entry = _entry(
        "hybrid_segment_ghz_t",
        {"num_qubits": num_qubits, "shots": shots, "noise": "depolarizing"},
        dense,
        hybrid,
        throughput_unit="shots_per_sec",
        work_items=shots,
    )
    entry["lanes"] = {"baseline": "statevector-fast", "fast": "hybrid-segment"}
    return entry


def _brickwork_noise() -> NoiseModel:
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.002, 2), "cz")
    nm.add_gate_error(depolarizing_error(0.001, 1), "ry")
    return nm


def bench_mps_brickwork(
    num_qubits: int, depth: int, shots: int, repeats: int
) -> Dict[str, object]:
    """MPS engine vs the fast dense engine on shallow-brickwork grouped
    sampling at a dense-representable width — the MPS acceptance
    benchmark.  Per trajectory group the dense engine copies and
    replays a ``2^n`` amplitude vector; the MPS engine forks ``O(n ·
    chi²)`` tensors, replays cheap local contractions, and only pays a
    single exact contraction at sampling time (which is also what keeps
    its seeded counts bit-comparable to the dense engine's)."""
    circuit = brickwork_circuit(num_qubits, depth)
    noise = _brickwork_noise()
    with engine("fast"):
        dense = _timed(lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats)
    with engine("mps"):
        mps = _timed(lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats)
    entry = _entry(
        "mps_brickwork",
        {
            "num_qubits": num_qubits,
            "depth": depth,
            "shots": shots,
            "noise": "depolarizing",
        },
        dense,
        mps,
        throughput_unit="shots_per_sec",
        work_items=shots,
    )
    entry["lanes"] = {"baseline": "statevector-fast", "fast": "mps"}
    return entry


def bench_mps_qaoa_wide(
    num_qubits: int, layers: int, shots: int, repeats: int
) -> Dict[str, object]:
    """MPS-only lane: a QAOA-style chain (H wall, RZZ cost layers, RX
    mixers) at a width where *every* other non-Clifford path is
    infeasible — the RX mixer branches, so the hybrid engine's sparse
    tail blows up, and the dense engine cannot represent the state at
    all.  Single-lane entry with a ``max_seconds`` feasibility ceiling;
    the engine's reported cumulative truncation error and peak bond
    dimension are recorded alongside the timing."""
    from repro.circuits.circuit import QuantumCircuit
    from repro.simulator.engines import prepare_engine

    qc = QuantumCircuit(num_qubits, name=f"qaoa{num_qubits}")
    for q in range(num_qubits):
        qc.h(q)
    for _ in range(layers):
        for q in range(num_qubits - 1):
            qc.rzz(0.4, q, q + 1)
        for q in range(num_qubits):
            qc.rx(0.9, q)
    qc.measure_all()
    noise = _ghz_noise()  # h-gate depolarizing reaches the H wall
    with engine("mps"):
        seconds = _timed(
            lambda: sample_counts(qc, shots, noise=noise, rng=7), repeats
        )
        state = prepare_engine(qc, "mps")
    entry: Dict[str, object] = {
        "name": "mps_qaoa_wide",
        "params": {
            "num_qubits": num_qubits,
            "layers": layers,
            "shots": shots,
            "noise": "depolarizing",
            "chi": state.chi,
        },
        "seconds": seconds,
        "throughput_unit": "shots_per_sec",
        "throughput": shots / seconds,
        "truncation_error": state.truncation_error,
        "max_bond_dimension": state.max_bond_dimension,
    }
    ceiling = CEILINGS.get("mps_qaoa_wide")
    if ceiling is not None:
        entry["max_seconds"] = ceiling
    return entry


def bench_batched_grouped(num_qubits: int, shots: int, repeats: int) -> Dict[str, object]:
    """The default config's grouped walk vs the same config with the
    scalar walk forced, on noisy GHZ grouped sampling — the
    batched-execution acceptance benchmark (≥1.5× at a cache-resident
    width; both lanes draw identical RNG streams, so seeded counts are
    bit-identical and the entry measures dispatch amortization alone).
    The width is deliberately small: the batched walk only engages where
    a ``batch_max_bytes`` chunk
    (:data:`~repro.simulator.config.DEFAULT_BATCH_MAX_BYTES`) keeps many
    stacked states cache-resident, and the sampler keeps the scalar walk
    beyond it.  The scalar lane raises the sampler's group threshold
    (``_BATCH_MIN_GROUPS``) out of reach for its timing."""
    from repro.simulator import sampler as sampler_mod

    circuit = ghz_circuit(num_qubits)
    noise = _ghz_noise()
    with engine("fast"):
        saved = sampler_mod._BATCH_MIN_GROUPS
        try:
            sampler_mod._BATCH_MIN_GROUPS = 1 << 62
            scalar = _timed(
                lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats
            )
        finally:
            sampler_mod._BATCH_MIN_GROUPS = saved
        batched = _timed(lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats)
    entry = _entry(
        "batched_ghz_grouped",
        {"num_qubits": num_qubits, "shots": shots, "noise": "depolarizing"},
        scalar,
        batched,
        throughput_unit="shots_per_sec",
        work_items=shots,
    )
    entry["lanes"] = {"baseline": "dense-scalar-walk", "fast": "dense-batched-walk"}
    return entry


def bench_noisy_device_ghz5(jobs: int) -> Dict[str, object]:
    """The quickstart's device job — native GHZ-5 on the 20-qubit
    device, compacted to its five active qubits, with the calibrated
    depolarizing, thermal-relaxation and idle noise, at 2048 shots —
    under the default grouped walk vs the same config with the scalar
    walk forced (``_BATCH_MIN_GROUPS`` raised).

    This job is bookkeeping-bound (about 80 trajectory groups of 32
    amplitudes), so the lane measures the batched walk's per-group
    cost: realization grouping, per-site injection, one-draw sampling.
    Two devices built from one seed run the lanes job by job, in
    alternation, so calibration drift falls on both alike and both
    lanes draw the same streams.  ``baseline_seconds``/``fast_seconds``
    are per-job medians; the quartiles of each lane and of the per-job
    ratio are recorded beside them."""
    from repro.qpu import QPUDevice
    from repro.simulator import sampler as sampler_mod
    from repro.transpiler import transpile

    shots = 2048
    devices = {lane: QPUDevice(seed=11) for lane in ("scalar", "batched")}
    ref = devices["scalar"]
    native = transpile(ghz_circuit(5), ref.topology, snapshot=ref.calibration()).circuit
    seconds: Dict[str, List[float]] = {"scalar": [], "batched": []}
    saved = sampler_mod._BATCH_MIN_GROUPS
    with engine("fast"):
        for job in range(jobs + 2):
            for lane, device in devices.items():
                sampler_mod._BATCH_MIN_GROUPS = 1 << 62 if lane == "scalar" else saved
                try:
                    start = time.perf_counter()
                    device.execute(native, shots=shots)
                    elapsed = time.perf_counter() - start
                finally:
                    sampler_mod._BATCH_MIN_GROUPS = saved
                if job >= 2:  # the first jobs warm the plan cache
                    seconds[lane].append(elapsed)
    scalar = np.asarray(seconds["scalar"])
    batched = np.asarray(seconds["batched"])

    def quartiles(values: np.ndarray) -> List[float]:
        return [float(q) for q in np.percentile(values, [25, 50, 75])]

    entry = _entry(
        "noisy_device_ghz5",
        {"num_qubits": 5, "shots": shots, "noise": "device", "jobs": jobs},
        float(np.median(scalar)),
        float(np.median(batched)),
        throughput_unit="shots_per_sec",
        work_items=shots,
    )
    entry["baseline_quartiles"] = quartiles(scalar)
    entry["fast_quartiles"] = quartiles(batched)
    entry["speedup_quartiles"] = quartiles(scalar / batched)
    entry["lanes"] = {"baseline": "dense-scalar-walk", "fast": "dense-batched-walk"}
    return entry


def bench_blocked_wide(num_qubits: int, depth: int, repeats: int) -> Dict[str, object]:
    """Cache-blocked sweeps off vs on over a deep-brickwork dense
    advance at a width past the tile (fast kernels in both lanes; this
    isolates the blocking win).  The unblocked lane streams the full
    ``2^n`` state through DRAM once per window item; the blocked lane
    remaps high operands tile-local and applies every item of a sweep
    segment to one L2-resident tile before the next tile streams in."""
    from repro.simulator.engines import dense as dense_mod

    circuit = brickwork_circuit(num_qubits, depth, measure=False)
    ops = list(circuit)

    def advance_once():
        DenseEngine(circuit).advance(ops)

    with engine("fast") as config:
        prev = dense_mod.BLOCKED_SWEEPS
        try:
            dense_mod.BLOCKED_SWEEPS = False
            unblocked = _timed(advance_once, repeats)
            dense_mod.BLOCKED_SWEEPS = True
            blocked = _timed(advance_once, repeats)
        finally:
            dense_mod.BLOCKED_SWEEPS = prev
        budget = config.batch_max_bytes
        tile = dense_mod.blocked_tile_qubits(budget)
    entry = _entry(
        "blocked_wide_dense",
        {
            "num_qubits": num_qubits,
            "depth": depth,
            "gates": len(ops),
            "batch_max_bytes": budget,
            "tile_qubits": tile,
        },
        unblocked,
        blocked,
        throughput_unit="gates_per_sec",
        work_items=len(ops),
    )
    entry["lanes"] = {"baseline": "dense-fast-unblocked", "fast": "dense-fast-blocked"}
    return entry


def _plan_cache_ansatz(num_qubits: int, layers: int):
    """Parameterized hardware-efficient ansatz whose *static* structure
    is expensive to plan: every layer alternates a parameterized RY wall
    (rebound per iteration) with long zero-parameter diagonal T/S/Z/CZ
    runs whose fused ``2^k`` tables the plan caches across bindings.
    The diagonal gates must be genuinely parameter-free (no numeric
    angles): the structural hash masks values, so any gate *carrying* a
    value is rematerialized per binding and would dilute the ratio."""
    from repro.circuits.circuit import QuantumCircuit
    from repro.circuits.parameters import Parameter

    qc = QuantumCircuit(num_qubits, name=f"plancache{num_qubits}")
    for q in range(num_qubits):
        qc.h(q)
    for layer in range(layers):
        # Sparse parameterized walls: rebinding still exercises the
        # dynamic-window path every iteration, but the workload stays
        # dominated by the static structure the cache amortizes.  The
        # non-diagonal RY walls are also the only run separators, so
        # the T/CZ/S/Z cost layers between them coalesce into long
        # zero-parameter diagonal runs — one fused table each, built
        # once per cached plan and reused by every warm binding.
        if layer % 4 == 0:
            for q in range(num_qubits):
                qc.ry(Parameter(f"t{layer}_{q}"), q)
        for _ in range(2):
            for q in range(num_qubits):
                qc.t(q)
            for q in range(num_qubits - 1):
                qc.cz(q, q + 1)
            for q in range(num_qubits):
                qc.s(q)
            for q in range(num_qubits):
                qc.z(q)
    qc.measure_all()
    return qc


def bench_plan_cache(
    num_qubits: int, layers: int, bindings: int, shots: int, repeats: int
) -> Dict[str, object]:
    """Plan-cache amortization on N parameter bindings of one ansatz —
    the compiled-execution-plan acceptance benchmark (≥2× warm over
    cold).  Both lanes sample the same N bound circuits with the same
    seeds; the cold lane clears the plan cache before every binding
    (every request re-runs the fusion-partition scan and rebuilds every
    fused table), the warm lane plans once and rebinds — parameter
    values are masked out of the structural hash, so all N bindings hit
    one cached plan and only the parameterized windows rematerialize."""
    from repro.compiler import plans

    ansatz = _plan_cache_ansatz(num_qubits, layers)
    rng = np.random.default_rng(11)
    bound = [
        ansatz.bind_values(rng.uniform(0.1, 3.0, size=len(ansatz.parameters)))
        for _ in range(bindings)
    ]

    def run_cold():
        for qc in bound:
            plans.plan_cache_clear()
            sample_counts(qc, shots, rng=7)

    def run_warm():
        for qc in bound:
            sample_counts(qc, shots, rng=7)

    with engine("fast"):
        cold = _timed(run_cold, repeats)
        plans.plan_cache_clear()
        sample_counts(bound[0], shots, rng=7)  # prime the cache
        warm = _timed(run_warm, repeats)
    info = plans.plan_cache_info()
    plans.plan_cache_clear()
    entry = _entry(
        "plan_cache_parameterized",
        {
            "num_qubits": num_qubits,
            "layers": layers,
            "bindings": bindings,
            "shots": shots,
        },
        cold,
        warm,
        throughput_unit="bindings_per_sec",
        work_items=bindings,
    )
    entry["lanes"] = {"baseline": "plan-cold", "fast": "plan-warm"}
    entry["cache_hits"] = info["hits"]
    return entry


def bench_vqe_iteration(shots: int, repeats: int) -> List[Dict[str, object]]:
    """Latency of one VQE energy evaluation (the tight-loop unit of work):
    the sampled estimator and the exact state-vector path.  The "before"
    lanes run the same evaluation on :mod:`repro.testing.reference`."""
    ham = h2_hamiltonian()

    def make_vqe(sampler):
        # Fresh seeded RNG per lane: both lanes must consume identical
        # shot-noise streams, otherwise they time different workloads.
        rng = np.random.default_rng(5)
        runner = lambda qc, s: sampler(qc, s, rng=rng)  # noqa: E731
        return VQE(ham, runner, depth=2, shots=shots)

    def reference_energy_exact(vqe, values):
        bound = vqe.template.bind(dict(zip(vqe.parameters, map(float, values))))
        return expectation_statevector(ham, reference.simulate_statevector(bound))

    values = np.linspace(-0.4, 0.4, len(make_vqe(sample_counts).parameters))
    out = []
    for name, before, after in (
        ("vqe_iteration_sampled", VQE.energy, VQE.energy),
        ("vqe_iteration_exact", reference_energy_exact, VQE.energy_exact),
    ):
        vqe = make_vqe(reference.sample_counts)
        base = _timed(lambda: before(vqe, values), repeats)
        with engine("fast"):
            vqe = make_vqe(sample_counts)
            fast = _timed(lambda: after(vqe, values), repeats)
        out.append(
            _entry(
                name,
                {"hamiltonian": "h2", "shots": shots, "ansatz_depth": 2},
                base,
                fast,
                throughput_unit="iterations_per_sec",
                work_items=1,
            )
        )
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(quick: bool) -> Dict[str, object]:
    if quick:
        config = {
            "gate_qubits": 14,
            "gate_reps": 40,
            "ghz_qubits": 12,
            "ghz_shots": 256,
            # The paired tracing lane needs a workload where per-span
            # cost is small relative to gate work, or the quick ratio
            # is all fixed overhead; 16q keeps --check honest and fast.
            "tracing_qubits": 16,
            "tracing_shots": 256,
            "per_shot_qubits": 8,
            "per_shot_shots": 64,
            "vqe_shots": 128,
            "stabilizer_qubits": 12,
            "stabilizer_shots": 256,
            "stabilizer_scaling_sizes": [40, 256],
            "stabilizer_scaling_shots": 128,
            "hybrid_qubits": 16,
            "hybrid_shots": 192,
            "packed_qubits": 100,
            "packed_shots": 512,
            "diag_fusion_qubits": 16,
            "diag_fusion_layers": 4,
            "mps_brickwork_qubits": 16,
            "mps_brickwork_depth": 4,
            "mps_brickwork_shots": 256,
            "mps_qaoa_qubits": 40,
            "mps_qaoa_layers": 2,
            "mps_qaoa_shots": 256,
            "batched_qubits": 10,
            "batched_shots": 2048,
            "device_ghz5_jobs": 15,
            "blocked_qubits": 18,
            "blocked_depth": 6,
            "plan_cache_qubits": 10,
            "plan_cache_layers": 6,
            "plan_cache_bindings": 8,
            "plan_cache_shots": 16,
        }
        repeats = 1
    else:
        config = {
            "gate_qubits": 20,
            "gate_reps": 60,
            "ghz_qubits": 20,
            "ghz_shots": 512,
            "tracing_qubits": 20,
            "tracing_shots": 512,
            "per_shot_qubits": 10,
            "per_shot_shots": 200,
            "vqe_shots": 512,
            "stabilizer_qubits": 20,
            "stabilizer_shots": 512,
            "stabilizer_scaling_sizes": [50, 100, 256, 512, 1024],
            "stabilizer_scaling_shots": 512,
            "hybrid_qubits": 24,
            "hybrid_shots": 160,
            "packed_qubits": 100,
            "packed_shots": 1024,
            "diag_fusion_qubits": 20,
            "diag_fusion_layers": 8,
            "mps_brickwork_qubits": 20,
            "mps_brickwork_depth": 4,
            "mps_brickwork_shots": 256,
            "mps_qaoa_qubits": 64,
            "mps_qaoa_layers": 2,
            "mps_qaoa_shots": 512,
            "batched_qubits": 10,
            "batched_shots": 4096,
            "device_ghz5_jobs": 60,
            "blocked_qubits": 20,
            "blocked_depth": 4,
            "plan_cache_qubits": 10,
            "plan_cache_layers": 10,
            "plan_cache_bindings": 16,
            "plan_cache_shots": 16,
        }
        repeats = 2
    benchmarks: List[Dict[str, object]] = []
    benchmarks += bench_gate_apply(config["gate_qubits"], config["gate_reps"], repeats)
    benchmarks.append(
        bench_ghz_sampling(config["ghz_qubits"], config["ghz_shots"], repeats)
    )
    benchmarks.append(
        bench_tracing_overhead(
            config["tracing_qubits"], config["tracing_shots"], repeats
        )
    )
    benchmarks.append(
        bench_grouped_vs_per_shot(
            config["per_shot_qubits"], config["per_shot_shots"], repeats
        )
    )
    benchmarks.append(
        bench_stabilizer_ghz(
            config["stabilizer_qubits"], config["stabilizer_shots"], repeats
        )
    )
    benchmarks += bench_stabilizer_scaling(
        config["stabilizer_scaling_sizes"], config["stabilizer_scaling_shots"], repeats
    )
    benchmarks.append(
        bench_hybrid_segment(config["hybrid_qubits"], config["hybrid_shots"], repeats)
    )
    benchmarks.append(
        bench_packed_tableau(config["packed_qubits"], config["packed_shots"], repeats)
    )
    benchmarks.append(
        bench_diag_fusion(
            config["diag_fusion_qubits"], config["diag_fusion_layers"], repeats
        )
    )
    benchmarks.append(
        bench_mps_brickwork(
            config["mps_brickwork_qubits"],
            config["mps_brickwork_depth"],
            config["mps_brickwork_shots"],
            repeats,
        )
    )
    benchmarks.append(
        bench_mps_qaoa_wide(
            config["mps_qaoa_qubits"],
            config["mps_qaoa_layers"],
            config["mps_qaoa_shots"],
            repeats,
        )
    )
    benchmarks.append(
        bench_batched_grouped(
            config["batched_qubits"], config["batched_shots"], repeats
        )
    )
    benchmarks.append(bench_noisy_device_ghz5(config["device_ghz5_jobs"]))
    benchmarks.append(
        bench_blocked_wide(
            config["blocked_qubits"], config["blocked_depth"], repeats
        )
    )
    benchmarks.append(
        bench_plan_cache(
            config["plan_cache_qubits"],
            config["plan_cache_layers"],
            config["plan_cache_bindings"],
            config["plan_cache_shots"],
            repeats,
        )
    )
    benchmarks += bench_vqe_iteration(config["vqe_shots"], repeats)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "config": config,
        # Wall-clock numbers are only comparable on the machine that
        # produced them; record it so the reference is stated in-band.
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "benchmarks": benchmarks,
    }


def render(result: Dict[str, object]) -> str:
    lines = [
        f"{'benchmark':<28s} {'baseline':>10s} {'fast':>10s} {'speedup':>8s}",
        "-" * 60,
    ]
    for b in result["benchmarks"]:
        if "seconds" in b:  # single-lane entry (no dense baseline exists)
            label = f"{b['name']} (n={b['params']['num_qubits']})"
            lines.append(f"{label:<28s} {'—':>10s} {b['seconds']:>9.4f}s {'—':>8s}")
        else:
            lines.append(
                f"{b['name']:<28s} {b['baseline_seconds']:>9.4f}s "
                f"{b['fast_seconds']:>9.4f}s {b['speedup']:>7.2f}x"
            )
    return "\n".join(lines)


def check_against_reference(
    result: Dict[str, object], reference: Dict[str, object]
) -> List[str]:
    """Regression report: fresh speedups vs the reference's floors, and
    fresh single-lane timings vs the reference's feasibility ceilings.

    Every reference entry carrying a ``floor`` must (a) still exist in
    the fresh run and (b) meet that floor there; every entry carrying a
    ``max_seconds`` ceiling must exist and stay below it.  Returns a
    list of human-readable failure lines (empty = no regression).
    Floors/ceilings, not raw numbers, are compared: wall-clock drifts
    with machine load, so the committed artifact states the bound each
    lane must preserve rather than the number it happened to record.
    """
    floors = {
        e["name"]: e["floor"]
        for e in reference.get("benchmarks", [])
        if "floor" in e
    }
    ceilings = {
        e["name"]: e["max_seconds"]
        for e in reference.get("benchmarks", [])
        if "max_seconds" in e
    }
    fresh = {
        e["name"]: e
        for e in result.get("benchmarks", [])
        if "speedup" in e
    }
    fresh_seconds: Dict[str, float] = {}
    for e in result.get("benchmarks", []):
        if "seconds" in e:
            # several entries may share a name (scaling lanes); the
            # slowest one must clear the ceiling
            name = e["name"]
            fresh_seconds[name] = max(fresh_seconds.get(name, 0.0), e["seconds"])
    failures: List[str] = []
    for name, floor in sorted(floors.items()):
        entry = fresh.get(name)
        if entry is None:
            failures.append(f"{name}: lane missing from fresh run (floor {floor}x)")
            continue
        if entry["speedup"] < floor:
            failures.append(
                f"{name}: speedup {entry['speedup']:.2f}x below floor {floor}x"
            )
    for name, ceiling in sorted(ceilings.items()):
        seconds = fresh_seconds.get(name)
        if seconds is None:
            failures.append(
                f"{name}: lane missing from fresh run (ceiling {ceiling}s)"
            )
            continue
        if seconds > ceiling:
            failures.append(
                f"{name}: {seconds:.2f}s exceeds feasibility ceiling {ceiling}s"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes fitting the tier-1 CI time budget",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression guard: run the quick configuration and exit "
        "nonzero if any speedup drops below the floors recorded in the "
        "reference artifact",
    )
    parser.add_argument(
        "--reference",
        type=pathlib.Path,
        default=_REPO / "BENCH_simulator.json",
        help="committed artifact whose floors --check enforces",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="output JSON path (default: repo-root BENCH_simulator.json; "
        "under --check nothing is written unless --out is given)",
    )
    args = parser.parse_args(argv)
    if args.out is None and not args.check:
        args.out = _REPO / "BENCH_simulator.json"
    if args.check and not args.reference.is_file():
        # Fail before the benchmark run, not after tens of seconds of it.
        print(f"--check: reference artifact {args.reference} not found")
        return 2
    result = run(quick=args.quick or args.check)
    print(render(result))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"\nwrote {args.out}")
    if args.check:
        reference = json.loads(args.reference.read_text())
        failures = check_against_reference(result, reference)
        if failures:
            print("\n--check FAILED:")
            for line in failures:
                print(f"  {line}")
            return 1
        print("\n--check passed: all floors held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
