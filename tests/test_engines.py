"""Execution-engine registry, routing, and hybrid segment execution.

Four layers of guarantees are pinned here:

1. **Registry/routing** — the engine registry resolves names, and
   :func:`select_engine` routes every mode string to the documented
   backend per circuit (``"auto"`` is the mode that reaches the hybrid
   engine).
2. **Conversion boundary** — ``Tableau.to_statevector`` /
   ``coset_amplitudes`` and the sparse amplitude state agree with the
   dense engine at 1e-12 fidelity, including widths where the support
   is sparse but the circuit is wider than the dense limit.
3. **Segment-boundary equivalence** — seeded hybrid-engine counts (held
   there by ``engine_route("hybrid")``) match the dense engine
   *exactly* for Clifford+T circuits up to 12 qubits, through the
   grouped path, the per-shot (mid-circuit measurement)
   path, and reset-type (thermal) noise.
4. **Facade hygiene** — an invalid ``engine_mode`` (the retired
   ``"baseline"`` mode and ``fast=`` keyword included) raises
   :class:`ValueError` before touching any global.
"""

import math

import numpy as np
import pytest

from helpers.parity import engine_route, heavy_noise
from repro.circuits import QuantumCircuit, ghz_circuit
from repro.circuits.dag import CliffordSegment, clifford_segments, segment_summary
from repro.errors import EngineModeError, SimulationError
from repro.hybrid import (
    exact_expectation,
    expectation_sparse,
    expectation_statevector,
    transverse_field_ising,
)
from repro.simulator import (
    DenseEngine,
    ExecutionConfig,
    HybridSegmentEngine,
    MPSState,
    NoiseModel,
    SparseAmplitudes,
    StateVector,
    TableauEngine,
    depolarizing_error,
    engine_mode,
    engine_registry,
    get_engine,
    prepare_engine,
    current_config,
    sample_counts,
    select_engine,
    simulate_statevector,
    simulate_tableau,
)
from repro.simulator.noise import ReadoutError, thermal_relaxation_error
from repro.simulator.statevector import DENSE_QUBIT_LIMIT

from test_stabilizer import random_clifford_circuit

HALF_PI = math.pi / 2.0


def ghz_t_circuit(num_qubits, *, measure=True):
    """GHZ Clifford prefix + T layer — the canonical hybrid workload."""
    qc = ghz_circuit(num_qubits, measure=False, name=f"ghz{num_qubits}+t")
    for q in range(num_qubits):
        qc.t(q)
    if measure:
        qc.measure_all()
    return qc


def clifford_t_circuit(num_qubits, depth, rng, *, measure=True):
    """Random Clifford prefix, then an interleaved non-Clifford tail
    (T / small rotations / more Clifford gates) — exercises sparse
    growth, densification, and post-boundary Clifford gates."""
    qc = random_clifford_circuit(num_qubits, depth, rng)
    qc.t(int(rng.integers(num_qubits)))
    for _ in range(depth // 2):
        roll = rng.random()
        q = int(rng.integers(num_qubits))
        if roll < 0.3:
            qc.t(q)
        elif roll < 0.5:
            qc.rz(float(rng.uniform(-math.pi, math.pi)), q)
        elif roll < 0.7 and num_qubits >= 2:
            q2 = int(rng.integers(num_qubits - 1))
            q2 += q2 >= q
            qc.cx(q, q2)
        else:
            qc.h(q)
    if measure:
        qc.measure_all()
    return qc


def _noise(with_readout=False, thermal=False):
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.01, 2), "cx")
    if thermal:
        nm.add_gate_error(thermal_relaxation_error(30e-6, 20e-6, 5e-6), "h")
    else:
        nm.add_gate_error(depolarizing_error(0.005, 1), "h")
    if with_readout:
        nm.add_readout_error(ReadoutError(0.02, 0.03), 0)
        nm.add_readout_error(ReadoutError(0.01, 0.04), 1)
    return nm


# ---------------------------------------------------------------------------
# registry and routing
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_engines_registered(self):
        from repro.simulator import MPSEngine

        registry = engine_registry()
        assert registry["dense"] is DenseEngine
        assert registry["tableau"] is TableauEngine
        assert registry["hybrid"] is HybridSegmentEngine
        assert registry["mps"] is MPSEngine

    def test_get_engine_resolves_and_rejects(self):
        assert get_engine("hybrid") is HybridSegmentEngine
        with pytest.raises(SimulationError):
            get_engine("no-such-backend")

    def test_register_engine_requires_name(self):
        from repro.simulator.engines import register_engine

        class Nameless(DenseEngine):
            name = ""

        with pytest.raises(SimulationError):
            register_engine(Nameless)

    def test_reregistered_backend_serves_dispatch_and_forks(self):
        """Latest registration wins *in routing*, and forks preserve
        the subclass — the advertised backend-swap mechanism."""
        from repro.simulator.engines import register_engine
        from repro.simulator.engines.base import _REGISTRY

        class Instrumented(DenseEngine):
            name = "dense"

        register_engine(Instrumented)
        try:
            cls = select_engine("fast", ghz_circuit(4))
            assert cls is Instrumented
            engine = cls(ghz_circuit(4))
            assert type(engine.fork()) is Instrumented
        finally:
            _REGISTRY["dense"] = DenseEngine
        assert select_engine("fast", ghz_circuit(4)) is DenseEngine


class TestRouting:
    def test_fast_mode_routing(self):
        assert select_engine("fast", ghz_circuit(20)) is DenseEngine
        assert select_engine("fast", ghz_circuit(27)) is TableauEngine
        assert select_engine("fast", ghz_t_circuit(12)) is DenseEngine

    @pytest.mark.parametrize(
        "name, engine_cls",
        [
            ("dense", DenseEngine),
            ("tableau", TableauEngine),
            ("hybrid", HybridSegmentEngine),
        ],
    )
    def test_engine_route_answers_every_routing_call(self, name, engine_cls):
        """``engine_route`` — the hold every single-engine pin relies on
        now that no mode pins a route — answers the sampler's routing
        call, the cost choice and ``prepare_engine`` with its engine
        whatever the mode, and puts the real router back on exit."""
        from repro.simulator import engines as engines_mod
        from repro.simulator import sampler as sampler_mod

        saved = (
            sampler_mod.select_engine,
            engines_mod.select_engine,
            sampler_mod._route_by_cost,
        )
        qc = ghz_circuit(6, measure=False)
        with engine_route(name):
            for mode in ("fast", "auto", "mps"):
                assert sampler_mod.select_engine(mode, qc) is engine_cls
                assert engines_mod.select_engine(mode, qc) is engine_cls
            assert sampler_mod._route_by_cost(DenseEngine, qc) is engine_cls
            assert type(prepare_engine(qc)) is engine_cls
        assert (
            sampler_mod.select_engine,
            engines_mod.select_engine,
            sampler_mod._route_by_cost,
        ) == saved
        assert type(prepare_engine(qc)) is DenseEngine

    def test_auto_mode_routing(self):
        assert select_engine("auto", ghz_circuit(8)) is TableauEngine
        assert select_engine("auto", ghz_t_circuit(8)) is HybridSegmentEngine
        # single-qubit Clifford prefix is not worth a tableau under auto
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.t(0)
        qc.cx(0, 1)
        qc.measure_all()
        assert select_engine("auto", qc) is DenseEngine
        # ... unless the circuit is too wide for the dense engine anyway
        wide = ghz_t_circuit(DENSE_QUBIT_LIMIT + 4)
        assert select_engine("auto", wide) is HybridSegmentEngine

    def test_auto_mode_routing_table(self):
        """One row per backend: the documented ``"auto"`` decisions
        across all five circuit classes."""
        from repro.circuits import brickwork_circuit
        from repro.simulator import MPSEngine

        wide = DENSE_QUBIT_LIMIT + 6

        def all_to_all(n):
            qc = QuantumCircuit(n, name=f"alltoall{n}")
            for q in range(n):
                qc.ry(0.4, q)
            for q in range(n // 2):
                qc.cx(q, n - 1 - q)  # long-range: not line-like
            qc.measure_all()
            return qc

        table = [
            # (label, circuit, expected engine)
            ("clifford", ghz_circuit(wide), TableauEngine),
            ("clifford-prefix", ghz_t_circuit(10), HybridSegmentEngine),
            ("sparse-tail-wide", ghz_t_circuit(wide), HybridSegmentEngine),
            ("low-entanglement-line", brickwork_circuit(wide, 3), MPSEngine),
            ("generic-dense", brickwork_circuit(10, 3), DenseEngine),
            ("wide-non-line-fallback", all_to_all(wide), HybridSegmentEngine),
            # Past the 62-qubit sparse packing limit the hybrid boundary
            # crossing cannot run, so every non-Clifford circuit is MPS.
            ("sparse-tail-past-packing", ghz_t_circuit(63), MPSEngine),
            ("non-line-past-packing", all_to_all(63), MPSEngine),
        ]
        for label, circuit, expected in table:
            assert select_engine("auto", circuit) is expected, label

    def test_auto_samples_past_the_sparse_packing_limit(self):
        """A 63-qubit GHZ + T layer samples under ``"auto"`` (the hybrid
        route raised at its boundary crossing) and keeps GHZ parity."""
        with engine_mode("auto"):
            counts = sample_counts(ghz_t_circuit(63), 64, rng=5)
        assert counts.shots == 64
        assert set(counts.to_dict()) <= {"0" * 63, "1" * 63}

    def test_unknown_mode_raises(self):
        for mode in ("warp", "baseline"):
            with pytest.raises(EngineModeError):
                select_engine(mode, ghz_circuit(2))


# ---------------------------------------------------------------------------
# segment metadata
# ---------------------------------------------------------------------------


class TestSegmentMetadata:
    def test_segments_are_named_tuples_with_metadata(self):
        qc = ghz_t_circuit(4)
        segments = clifford_segments(qc)
        assert all(isinstance(s, CliffordSegment) for s in segments)
        prefix = segments[0]
        assert prefix.is_clifford and prefix.start == 0
        assert prefix.size == prefix.stop - prefix.start
        meta = prefix.metadata(qc)
        assert meta["num_gates"] == 4  # h + 3 cx
        assert meta["num_two_qubit_gates"] == 3
        assert meta["qubits"] == (0, 1, 2, 3)

    def test_segment_summary_covers_circuit(self):
        qc = clifford_t_circuit(5, 20, np.random.default_rng(0))
        summary = segment_summary(qc)
        assert sum(m["num_instructions"] for m in summary) == len(qc)
        assert summary == [s.metadata(qc) for s in clifford_segments(qc)]

    def test_tuple_compatibility(self):
        qc = ghz_circuit(5)
        assert clifford_segments(qc) == [(0, len(qc), True)]


# ---------------------------------------------------------------------------
# conversion boundary
# ---------------------------------------------------------------------------


class TestTableauConversion:
    def test_to_statevector_matches_dense(self):
        rng = np.random.default_rng(61)
        for trial in range(25):
            n = int(rng.integers(1, 9))
            qc = random_clifford_circuit(n, 35, rng)
            got = simulate_tableau(qc).to_statevector()
            want = simulate_statevector(qc)
            assert got.fidelity(want) > 1 - 1e-12, trial
            assert abs(got.norm() - 1.0) < 1e-12

    def test_ghz_coset_is_two_elements_at_any_width(self):
        from repro.simulator import ghz_tableau

        indices, amps = ghz_tableau(50).coset_amplitudes()
        assert sorted(indices.tolist()) == [0, (1 << 50) - 1]
        assert np.allclose(np.abs(amps), 1.0 / math.sqrt(2.0))

    def test_sparse_from_tableau_matches_dense(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            qc = random_clifford_circuit(n, 30, rng)
            sparse = SparseAmplitudes.from_tableau(simulate_tableau(qc))
            assert sparse.to_statevector().fidelity(simulate_statevector(qc)) > 1 - 1e-12


class TestSparseAmplitudes:
    def _random_state(self, n, rng):
        tab = simulate_tableau(random_clifford_circuit(n, 25, rng))
        return SparseAmplitudes.from_tableau(tab), tab.to_statevector()

    def test_gate_application_matches_dense(self):
        from repro.circuits.gates import spec

        rng = np.random.default_rng(63)
        gates_1q = ["t", "h", "s", "x", "y", "z", "sx"]
        gates_2q = ["cx", "cz", "swap", "iswap"]
        for trial in range(15):
            n = int(rng.integers(2, 7))
            sparse, dense = self._random_state(n, rng)
            for _ in range(12):
                if rng.random() < 0.5:
                    name = str(rng.choice(gates_1q))
                    qs = [int(rng.integers(n))]
                else:
                    name = str(rng.choice(gates_2q))
                    a = int(rng.integers(n))
                    b = int(rng.integers(n - 1))
                    b += b >= a
                    qs = [a, b]
                m = spec(name).matrix()
                sparse.apply_matrix(m, qs)
                dense.apply_matrix(m, qs)
            assert sparse.nnz <= dense.dim
            assert sparse.to_statevector().fidelity(dense) > 1 - 1e-12, trial

    def test_general_rotation_grows_then_coalesces(self):
        from repro.circuits.gates import ry_matrix

        sparse = SparseAmplitudes(2, np.array([0]), np.array([1.0 + 0j]))
        sparse.apply_matrix(ry_matrix(0.7), [0])
        assert sparse.nnz == 2
        # rotating back must recombine to a single basis state
        sparse.apply_matrix(ry_matrix(-0.7), [0])
        assert sparse.nnz == 1
        assert abs(abs(sparse.amplitudes[0]) - 1.0) < 1e-12

    def test_measure_collapse_reset(self):
        rng = np.random.default_rng(64)
        sparse = SparseAmplitudes.from_tableau(simulate_tableau(ghz_circuit(4, measure=False)))
        outcome = sparse.measure(0, rng)
        for q in range(1, 4):
            assert sparse.marginal_probability_one(q) == pytest.approx(float(outcome))
        sparse.reset(2, rng)
        assert sparse.marginal_probability_one(2) == pytest.approx(0.0)
        with pytest.raises(SimulationError):
            sparse.collapse(2, 1)

    def test_sample_matches_dense_bits_exactly(self):
        rng = np.random.default_rng(65)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            sparse, dense = self._random_state(n, rng)
            seed = int(rng.integers(1 << 30))
            got = sparse.sample(200, np.random.default_rng(seed))
            want = dense.sample(200, np.random.default_rng(seed))
            assert np.array_equal(got, want), trial

    def test_expectation_pauli_matches_dense(self):
        rng = np.random.default_rng(66)
        for trial in range(10):
            n = int(rng.integers(2, 6))
            sparse, dense = self._random_state(n, rng)
            from repro.circuits.gates import spec

            sparse.apply_matrix(spec("t").matrix(), [0])
            dense.apply_matrix(spec("t").matrix(), [0])
            pauli = "".join(rng.choice(list("IXYZ"), size=n))
            got = sparse.expectation_pauli(pauli, range(n))
            want = dense.expectation_pauli(pauli, range(n))
            assert abs(got - want) < 1e-9, (trial, pauli)


# ---------------------------------------------------------------------------
# hybrid segment execution: seeded equivalence with the dense engine
# ---------------------------------------------------------------------------


class TestResetInjection:
    """The reset branch of ``inject_into_dense`` reads the qubit's
    marginal once and projects with it — on every amplitude state that
    branch serves (the dense walk and batched rows, the hybrid tail,
    MPS)."""

    @staticmethod
    def _states():
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        dense = StateVector(3)
        dense.apply_matrix(h, [1])
        sparse = SparseAmplitudes(3, [0, 2], [1 / math.sqrt(2), 1 / math.sqrt(2)])
        mps = MPSState(3)
        mps.apply_matrix(h, [1])
        return dense, sparse, mps

    def test_one_marginal_per_reset(self, monkeypatch):
        from repro.circuits.circuit import Instruction
        from repro.simulator.engines.dense import inject_into_dense
        from repro.simulator.noise import ErrorTerm, QuantumError

        error = QuantumError([ErrorTerm("reset", 0.5)])
        for state in self._states():
            cls = type(state)
            calls = []
            real = cls.marginal_probability_one

            def spy(self, qubit, real=real, calls=calls):
                calls.append(qubit)
                return real(self, qubit)

            monkeypatch.setattr(cls, "marginal_probability_one", spy)
            inject_into_dense(state, Instruction("id", (1,)), error, 0)
            monkeypatch.undo()
            assert calls == [1], cls.__name__
            assert state.marginal_probability_one(1) == pytest.approx(0.0)
            assert state.norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("outcome", [0, 1])
    @pytest.mark.parametrize("kind", ["dense", "sparse", "mps"])
    def test_project_with_known_marginal_equals_collapse(self, kind, outcome):
        """``_project`` fed the marginal it would have computed is
        ``collapse``: same returned probability, same amplitudes, bit
        for bit — so the reset branch's single read changes no count."""
        state = dict(zip(("dense", "sparse", "mps"), self._states()))[kind]
        projected, collapsed = state.copy(), state.copy()
        p1 = projected.marginal_probability_one(1)
        p_projected = projected._project(1, outcome, p1)
        p_collapsed = collapsed.collapse(1, outcome)
        assert p_projected == p_collapsed
        amplitudes = [
            s.data if isinstance(s, StateVector) else s.to_statevector().data
            for s in (projected, collapsed)
        ]
        np.testing.assert_array_equal(*amplitudes)
        assert projected.marginal_probability_one(1) == pytest.approx(outcome)


class TestHybridEquivalence:
    def test_ghz_t_grouped_counts_exact(self):
        for n in (2, 6, 12):
            qc = ghz_t_circuit(n)
            for seed in (0, 7):
                with engine_mode("fast"):
                    dense = sample_counts(qc, 384, noise=_noise(True), rng=seed)
                with engine_route("hybrid"):
                    hybrid = sample_counts(qc, 384, noise=_noise(True), rng=seed)
                assert dense.to_dict() == hybrid.to_dict(), (n, seed)

    def test_circuit_without_clifford_prefix_matches_dense(self):
        """A circuit that opens on a T gate has no Clifford prefix: the
        hybrid engine starts in its dense phase, and its seeded counts
        equal the dense engine's under heavy noise."""
        qc = QuantumCircuit(2)
        qc.t(0)
        qc.cx(0, 1)
        qc.h(1)
        qc.measure_all()
        for seed in (0, 7, 123):
            with engine_route("dense"):
                dense = sample_counts(qc, 256, noise=heavy_noise(), rng=seed)
            with engine_route("hybrid"):
                hybrid = sample_counts(qc, 256, noise=heavy_noise(), rng=seed)
            assert dense.to_dict() == hybrid.to_dict(), seed

    def test_random_clifford_t_counts_exact(self):
        rng = np.random.default_rng(71)
        for trial in range(8):
            n = int(rng.integers(2, 9))
            qc = clifford_t_circuit(n, 20, rng)
            seed = int(rng.integers(1 << 30))
            with engine_mode("fast"):
                dense = sample_counts(qc, 256, noise=_noise(), rng=seed)
            with engine_route("hybrid"):
                hybrid = sample_counts(qc, 256, noise=_noise(), rng=seed)
            assert dense.to_dict() == hybrid.to_dict(), trial

    def test_reset_type_noise_counts_exact(self):
        qc = ghz_t_circuit(8)
        for seed in (1, 5, 9):
            with engine_mode("fast"):
                dense = sample_counts(qc, 320, noise=_noise(thermal=True), rng=seed)
            with engine_route("hybrid"):
                hybrid = sample_counts(qc, 320, noise=_noise(thermal=True), rng=seed)
            assert dense.to_dict() == hybrid.to_dict(), seed

    def test_mid_circuit_measurement_counts_exact(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(0)
        qc.t(1)
        qc.reset(2)
        qc.h(2)
        qc.cx(1, 2)
        qc.t(2)
        qc.measure_all()
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.05, 1), "h")
        for seed in (0, 42):
            with engine_mode("fast"):
                dense = sample_counts(qc, 256, noise=nm, rng=seed)
            with engine_route("hybrid"):
                hybrid = sample_counts(qc, 256, noise=nm, rng=seed)
            assert dense.to_dict() == hybrid.to_dict(), seed

    def test_state_fidelity_at_boundary(self):
        rng = np.random.default_rng(72)
        for trial in range(10):
            n = int(rng.integers(2, 11))
            qc = clifford_t_circuit(n, 18, rng, measure=False)
            with engine_route("hybrid"):
                engine = prepare_engine(qc)
            want = simulate_statevector(qc)
            assert engine.to_dense().fidelity(want) > 1 - 1e-12, trial

    def test_pure_clifford_under_hybrid_matches_stabilizer(self):
        qc = ghz_circuit(10)
        with engine_route("tableau"):
            stab = sample_counts(qc, 500, noise=_noise(), rng=3)
        with engine_route("hybrid"):
            hybrid = sample_counts(qc, 500, noise=_noise(), rng=3)
        assert stab.to_dict() == hybrid.to_dict()

    def test_auto_mode_matches_fast_counts(self):
        qc = ghz_t_circuit(10)
        with engine_mode("fast"):
            dense = sample_counts(qc, 256, noise=_noise(), rng=9)
        with engine_mode("auto"):
            auto = sample_counts(qc, 256, noise=_noise(), rng=9)
        assert dense.to_dict() == auto.to_dict()

    def test_wide_hybrid_beyond_dense_limit(self):
        """The flagship capability: a Clifford prefix + sparse tail at a
        width the dense engine cannot represent at all."""
        n = DENSE_QUBIT_LIMIT + 6
        qc = ghz_t_circuit(n)
        with engine_mode("fast"):
            with pytest.raises(SimulationError):
                sample_counts(qc, 16, rng=0)
        with engine_route("hybrid"):
            counts = sample_counts(qc, 256, noise=_noise(), rng=7)
        assert counts.shots == 256
        assert counts.num_bits == n
        assert counts.ghz_fidelity_estimate() > 0.3

    def test_dense_boundary_state_densifies_directly(self):
        """A boundary coset too dense for the sparse regime (uniform
        superposition prefix) converts straight to a StateVector."""
        n = 6
        qc = QuantumCircuit(n)
        for q in range(n):
            qc.h(q)
        qc.t(0)
        with engine_route("hybrid"):
            engine = prepare_engine(qc)
        assert engine.phase == "dense"
        assert engine.to_dense().fidelity(simulate_statevector(qc)) > 1 - 1e-12

    def test_wide_dense_boundary_fails_fast(self):
        """Beyond the dense limit, a dense boundary coset must raise a
        clear error before enumerating 2^k amplitudes (no MemoryError)."""
        n = DENSE_QUBIT_LIMIT + 4
        qc = QuantumCircuit(n)
        for q in range(n):
            qc.h(q)
        qc.t(0)
        qc.measure_all()
        for route in (lambda: engine_route("hybrid"), lambda: engine_mode("auto")):
            with route():
                with pytest.raises(SimulationError, match="coset dimension"):
                    sample_counts(qc, 8, rng=0)

    def test_wide_tableau_to_statevector_fails_fast(self):
        from repro.simulator import ghz_tableau

        with pytest.raises(SimulationError, match="dense engine caps"):
            ghz_tableau(DENSE_QUBIT_LIMIT + 10).to_statevector()

    def test_wide_hybrid_branching_tail_fails_cleanly(self):
        """A branching (H) tail past the dense limit must raise the
        densification error, not thrash."""
        n = DENSE_QUBIT_LIMIT + 2
        qc = ghz_circuit(n, measure=False)
        qc.t(0)
        for q in range(n):
            qc.h(q)
        qc.measure_all()
        with engine_route("hybrid"):
            with pytest.raises(SimulationError):
                sample_counts(qc, 8, rng=0)


# ---------------------------------------------------------------------------
# expectation routing
# ---------------------------------------------------------------------------


class TestExpectationRouting:
    def test_exact_expectation_hybrid_route_matches_dense(self):
        rng = np.random.default_rng(73)
        ham = transverse_field_ising(6, j=1.1, h=0.6)
        for _ in range(5):
            qc = clifford_t_circuit(6, 15, rng, measure=False)
            got = exact_expectation(ham, qc)
            want = expectation_statevector(ham, simulate_statevector(qc))
            assert abs(got - want) < 1e-9

    def test_expectation_sparse_matches_statevector(self):
        rng = np.random.default_rng(74)
        ham = transverse_field_ising(5, j=0.8, h=1.3)
        qc = ghz_t_circuit(5, measure=False)
        with engine_route("hybrid"):
            engine = prepare_engine(qc)
        assert engine.phase == "sparse"
        got = expectation_sparse(ham, engine._sparse)
        want = expectation_statevector(ham, simulate_statevector(qc))
        assert abs(got - want) < 1e-9

    def test_wide_sparse_expectation(self):
        n = DENSE_QUBIT_LIMIT + 6
        ham = transverse_field_ising(n)
        qc = ghz_t_circuit(n, measure=False)
        value = exact_expectation(ham, qc)
        # T layers leave Z-basis structure alone: ⟨Z_i Z_{i+1}⟩ = 1, ⟨X_i⟩ = 0
        assert abs(value - (-1.0 * (n - 1))) < 1e-9

    def test_fast_mode_keeps_wide_clifford_expectation(self):
        """The default mode's expectations route through ``"auto"``, so
        wide Clifford circuits evaluate on the tableau instead of
        raising at the dense limit."""
        n = DENSE_QUBIT_LIMIT + 4
        ham = transverse_field_ising(n)
        qc = ghz_circuit(n, measure=False)
        with engine_mode("fast"):
            value = exact_expectation(ham, qc)
        assert abs(value - (-1.0 * (n - 1))) < 1e-9


# ---------------------------------------------------------------------------
# engine_mode facade
# ---------------------------------------------------------------------------


class TestEngineModeFacade:
    def test_invalid_mode_raises_value_error_before_mutation(self):
        """Unknown modes — the retired seed-engine ``"baseline"`` mode
        and its ``fast=`` spelling included — fail before the config
        changes."""
        before = current_config()
        for args, kwargs in (
            (("warp",), {}),
            (("baseline",), {}),
            # unknown mode and a retired sub-option at once
            (("baseline",), {"workers": 2, "trace": True}),
            ((), {"fast": True}),
        ):
            with pytest.raises(EngineModeError):
                with engine_mode(*args, **kwargs):
                    pass  # pragma: no cover
            assert current_config() is before

    def test_conflicting_args_raise_value_error(self):
        with pytest.raises(ValueError):
            with engine_mode("fast", fast=True):
                pass  # pragma: no cover

    def test_unknown_sub_option_kwargs_rejected(self):
        """Hygiene: unrecognized sub-option keywords raise
        EngineModeError before the config changes (a typo must not run
        the block on silent defaults)."""
        before = current_config()
        for kwargs in (
            {"ci": 64},
            {"tablea_impl": "packed"},
            {"threshold": 0.1},
            # retired: one tableau implementation, no selector
            {"tableau_impl": "packed"},
            # retired: the batched walk's threshold is a constant
            {"batch_min_groups": 8},
            # retired: one sampling stream per request, no shot sharding
            {"workers": 2},
        ):
            with pytest.raises(EngineModeError, match="sub-option"):
                with engine_mode("fast", **kwargs):
                    pass  # pragma: no cover
        assert current_config() is before

    def test_sub_options_rejected_for_inapplicable_modes(self):
        """A sub-option the selected mode's routing can never consume is
        an error, not a silent no-op."""
        with pytest.raises(EngineModeError, match="chi"):
            with engine_mode("fast", chi=8):
                pass  # pragma: no cover

    def test_new_modes_accepted_and_restored(self):
        before = current_config()
        with engine_mode("mps") as outer:
            assert current_config() is outer
            assert outer.mode == "mps"
            with engine_mode("auto"):
                assert current_config().mode == "auto"
            assert current_config() is outer
        assert current_config() is before

    def test_nested_block_inherits_unnamed_sub_options(self):
        """An inner block keeps every setting it does not name — an MPS
        ``chi`` survives a hop to ``"fast"``, and an omitted mode is the
        enclosing one."""
        with engine_mode("mps", chi=5, max_state_bytes=1 << 40):
            with engine_mode("fast") as inner:
                assert inner.mode == "fast"
                assert inner.chi == 5
                assert inner.max_state_bytes == 1 << 40
            with engine_mode(chi=3) as same_mode:
                assert same_mode.mode == "mps"
                assert same_mode.chi == 3
            with engine_mode(trace=True) as traced:
                assert (traced.mode, traced.chi, traced.trace) == ("mps", 5, True)
        assert current_config() == ExecutionConfig()

    def test_omitted_mode_validates_options_against_the_enclosing_mode(self):
        with pytest.raises(EngineModeError, match="chi"):
            with engine_mode(chi=8):  # enclosing mode is "fast"
                pass  # pragma: no cover
        with engine_mode("auto"):
            with engine_mode(chi=8) as inner:
                assert (inner.mode, inner.chi) == ("auto", 8)


# ---------------------------------------------------------------------------
# batched multi-shot sampling (CDF inversion)
# ---------------------------------------------------------------------------


class TestBatchedSampling:
    def test_fast_sample_bitwise_matches_choice(self):
        """The vectorized CDF inversion must equal rng.choice exactly —
        outcomes and stream consumption."""
        rng = np.random.default_rng(81)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            qc = clifford_t_circuit(n, 15, rng, measure=False)
            state = simulate_statevector(qc)
            seed = int(rng.integers(1 << 30))
            r_fast = np.random.default_rng(seed)
            r_ref = np.random.default_rng(seed)
            with engine_mode("fast"):
                got = state.sample(137, r_fast)
            probs = state.probabilities()
            probs = probs / probs.sum()
            want_outcomes = r_ref.choice(probs.size, size=137, p=probs)
            qs = np.arange(n, dtype=np.int64)
            want = ((want_outcomes[:, None] >> qs[None, :]) & 1).astype(np.uint8)
            assert np.array_equal(got, want)
            # identical stream position afterwards
            assert r_fast.random() == r_ref.random()
