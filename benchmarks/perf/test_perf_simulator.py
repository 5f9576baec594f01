"""Perf microbenchmarks for the fast-kernel simulation engine.

Complements ``scripts/bench.py`` (the standalone harness that emits
``BENCH_simulator.json``): these run inside the benchmark suite at small,
CI-friendly sizes and persist a table to ``benchmarks/out/`` for local
inspection.  Unlike the paper-reproduction artifacts, these timing
tables are machine- and load-dependent, so ``benchmarks/out/perf_*.txt``
is gitignored — the authoritative before/after numbers live in
``BENCH_simulator.json``, which records the machine that produced them.
The
assertions are deliberately loose sanity floors — exact numbers belong
to the harness — but they do pin the engine's ordering: fast kernels
must not be slower than the generic path, and prefix-sharing must not be
slower than from-scratch trajectory groups.
"""

import time

import numpy as np

from benchmarks.conftest import report
from repro.circuits import ghz_circuit
from repro.circuits.gates import cx_matrix, rz_matrix, spec
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    engine_mode as _engine,
    sample_counts,
)
from repro.simulator.statevector import StateVector
from repro.testing import reference

NUM_QUBITS = 14
GATE_REPS = 40

#: Wall-clock assertions tolerate this much CI noise before going red.
TIMING_SLACK = 1.5


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _gate_loop(matrix, arity, apply):
    def run():
        sv = StateVector(NUM_QUBITS)
        for i in range(GATE_REPS):
            if arity == 1:
                apply(sv, matrix, [i % NUM_QUBITS])
            else:
                apply(sv, matrix, [i % NUM_QUBITS, (i + 1) % NUM_QUBITS])

    return run


def test_perf_gate_kernels():
    cases = [
        ("h (dense 1q)", spec("h").matrix(), 1),
        ("rz (diag 1q)", rz_matrix(0.37), 1),
        ("cx (perm 2q)", cx_matrix(), 2),
        ("cz (diag 2q)", spec("cz").matrix(), 2),
    ]
    lines = [f"{'kernel':<16s} {'generic':>10s} {'fast':>10s} {'speedup':>8s}"]
    for label, matrix, arity in cases:
        generic = _best_of(_gate_loop(matrix, arity, StateVector.apply_matrix_generic))
        with _engine("fast"):
            fast = _best_of(_gate_loop(matrix, arity, StateVector.apply_matrix))
        lines.append(
            f"{label:<16s} {generic * 1e3:>8.2f}ms {fast * 1e3:>8.2f}ms "
            f"{generic / fast:>7.2f}x"
        )
        assert fast <= generic * TIMING_SLACK, (
            f"{label}: fast kernel slower than generic"
        )
    report("perf_gate_kernels", "\n".join(lines))


def test_perf_prefix_sharing_sampler():
    circuit = ghz_circuit(12)
    noise = NoiseModel()
    noise.add_gate_error(depolarizing_error(0.01, 2), "cx")
    noise.add_gate_error(depolarizing_error(0.005, 1), "h")
    shots = 256

    baseline = _best_of(
        lambda: reference.sample_counts(circuit, shots, noise=noise, rng=7), repeats=2
    )
    with _engine("fast"):
        fast = _best_of(
            lambda: sample_counts(circuit, shots, noise=noise, rng=7), repeats=2
        )
    lines = [
        f"GHZ-12, {shots} shots, depolarizing noise, grouped path",
        f"seed engine : {baseline * 1e3:8.2f} ms   "
        f"({shots / baseline:8.0f} shots/s)",
        f"fast engine : {fast * 1e3:8.2f} ms   ({shots / fast:8.0f} shots/s)",
        f"speedup     : {baseline / fast:8.2f} x",
    ]
    report("perf_prefix_sharing", "\n".join(lines))
    assert fast <= baseline * TIMING_SLACK, (
        "prefix-sharing engine slower than seed engine"
    )


def test_perf_stabilizer_vs_dense():
    """The tableau backend must beat the fast dense engine on Clifford
    grouped sampling, and stay interactive at widths the dense engine
    cannot represent at all."""
    circuit = ghz_circuit(12)
    noise = NoiseModel()
    noise.add_gate_error(depolarizing_error(0.01, 2), "cx")
    noise.add_gate_error(depolarizing_error(0.005, 1), "h")
    shots = 256

    def run():
        sample_counts(circuit, shots, noise=noise, rng=7)

    with _engine("fast"):
        dense = _best_of(run, repeats=2)
    with _engine("stabilizer"):
        stab = _best_of(run, repeats=2)

    wide = ghz_circuit(64)
    with _engine("stabilizer"):
        start = time.perf_counter()
        sample_counts(wide, shots, noise=noise, rng=7)
        wide_seconds = time.perf_counter() - start

    lines = [
        f"GHZ-12, {shots} shots, depolarizing noise, grouped path",
        f"dense fast : {dense * 1e3:8.2f} ms   ({shots / dense:8.0f} shots/s)",
        f"stabilizer : {stab * 1e3:8.2f} ms   ({shots / stab:8.0f} shots/s)",
        f"speedup    : {dense / stab:8.2f} x",
        f"GHZ-64 (beyond dense limit): {wide_seconds * 1e3:8.2f} ms",
    ]
    report("perf_stabilizer_engine", "\n".join(lines))
    assert stab <= dense * TIMING_SLACK, (
        "stabilizer engine slower than dense fast engine on Clifford sampling"
    )
    assert wide_seconds < 30.0, "wide Clifford sampling left the interactive regime"


def test_perf_hybrid_segment():
    """Segment-granular mixed execution must beat the fast dense engine
    on Clifford-prefix + non-Clifford-tail grouped sampling, and stay
    interactive at widths the dense engine cannot represent at all.

    14 qubits is past the hybrid/dense crossover (per-group tableau
    conversion overhead loses to `2^n` forks from ~13 qubits up), so the
    ordering assertion holds with real margin at CI-friendly cost."""
    num_qubits = 14
    circuit = ghz_circuit(num_qubits, measure=False)
    for q in range(num_qubits):
        circuit.t(q)
    circuit.measure_all()
    noise = NoiseModel()
    noise.add_gate_error(depolarizing_error(0.01, 2), "cx")
    noise.add_gate_error(depolarizing_error(0.005, 1), "h")
    shots = 256

    def run():
        sample_counts(circuit, shots, noise=noise, rng=7)

    with _engine("fast"):
        dense = _best_of(run, repeats=2)
    with _engine("hybrid"):
        hybrid = _best_of(run, repeats=2)

    wide = ghz_circuit(40, measure=False)
    for q in range(40):
        wide.t(q)
    wide.measure_all()
    with _engine("hybrid"):
        start = time.perf_counter()
        sample_counts(wide, shots, noise=noise, rng=7)
        wide_seconds = time.perf_counter() - start

    lines = [
        f"GHZ-{num_qubits} + T layer, {shots} shots, depolarizing noise, grouped path",
        f"dense fast : {dense * 1e3:8.2f} ms   ({shots / dense:8.0f} shots/s)",
        f"hybrid     : {hybrid * 1e3:8.2f} ms   ({shots / hybrid:8.0f} shots/s)",
        f"speedup    : {dense / hybrid:8.2f} x",
        f"GHZ-40 + T layer (beyond dense limit): {wide_seconds * 1e3:8.2f} ms",
    ]
    report("perf_hybrid_segment", "\n".join(lines))
    assert hybrid <= dense * TIMING_SLACK, (
        "hybrid segment engine slower than dense fast engine on GHZ+T sampling"
    )
    assert wide_seconds < 30.0, "wide hybrid sampling left the interactive regime"


def test_perf_sample_bit_extraction():
    """Vectorized shift-and-mask shot extraction stays sub-millisecond
    per 10k shots at device width."""
    sv = StateVector(20)
    for q in range(20):
        sv.apply_matrix(spec("h").matrix(), [q])
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    bits = sv.sample(10_000, rng)
    elapsed = time.perf_counter() - start
    assert bits.shape == (10_000, 20)
    report(
        "perf_sample_extraction",
        f"10k shots x 20 qubits sampled+extracted in {elapsed * 1e3:.2f} ms",
    )


def test_perf_packed_vs_uint8_tableau():
    """The bit-packed word-parallel tableau must not be slower than the
    uint8 tableau on wide Clifford grouped sampling, and must keep
    1024-qubit GHZ sampling interactive (the dense engine caps at 26)."""
    circuit = ghz_circuit(100)
    noise = NoiseModel()
    noise.add_gate_error(depolarizing_error(0.01, 2), "cx")
    noise.add_gate_error(depolarizing_error(0.005, 1), "h")
    shots = 256

    def run():
        sample_counts(circuit, shots, noise=noise, rng=7)

    with _engine("stabilizer", tableau_impl="unpacked"):
        uint8 = _best_of(run, repeats=2)
    with _engine("stabilizer", tableau_impl="packed"):
        packed = _best_of(run, repeats=2)

    wide = ghz_circuit(1024)
    with _engine("stabilizer"):  # auto policy: packed at this width
        start = time.perf_counter()
        sample_counts(wide, shots, noise=noise, rng=7)
        wide_seconds = time.perf_counter() - start

    lines = [
        f"GHZ-100, {shots} shots, depolarizing noise, grouped path",
        f"uint8 tableau  : {uint8 * 1e3:8.2f} ms   ({shots / uint8:8.0f} shots/s)",
        f"packed tableau : {packed * 1e3:8.2f} ms   ({shots / packed:8.0f} shots/s)",
        f"speedup        : {uint8 / packed:8.2f} x",
        f"GHZ-1024 (packed, auto policy): {wide_seconds * 1e3:8.2f} ms",
    ]
    report("perf_packed_tableau", "\n".join(lines))
    assert packed <= uint8 * TIMING_SLACK, (
        "packed tableau slower than uint8 tableau on wide Clifford sampling"
    )
    assert wide_seconds < 30.0, "1024-qubit sampling left the interactive regime"


def test_perf_diagonal_run_fusion():
    """Fused diagonal runs must not be slower than per-gate application
    in the dense engine's advance path."""
    from repro.circuits import QuantumCircuit
    from repro.simulator.engines import DenseEngine
    from repro.simulator.engines import dense as dense_mod

    n = 14
    circuit = QuantumCircuit(n, name="diagruns-perf")
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    for _ in range(6):
        for q in range(n):
            circuit.t(q)
        for q in range(n - 1):
            circuit.cp(0.31, q, q + 1)
        for q in range(n):
            circuit.rz(0.7, q)
    ops = list(circuit)

    def run():
        DenseEngine(circuit).advance(ops)

    with _engine("fast"):
        prev = dense_mod.FUSE_DIAGONAL_RUNS
        try:
            dense_mod.FUSE_DIAGONAL_RUNS = False
            unfused = _best_of(run, repeats=2)
            dense_mod.FUSE_DIAGONAL_RUNS = True
            fused = _best_of(run, repeats=2)
        finally:
            dense_mod.FUSE_DIAGONAL_RUNS = prev

    lines = [
        f"{n}-qubit T/CP/RZ runs, dense advance path",
        f"unfused : {unfused * 1e3:8.2f} ms",
        f"fused   : {fused * 1e3:8.2f} ms",
        f"speedup : {unfused / fused:8.2f} x",
    ]
    report("perf_diagonal_fusion", "\n".join(lines))
    assert fused <= unfused * TIMING_SLACK, (
        "diagonal-run fusion slower than per-gate application"
    )
