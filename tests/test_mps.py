"""Matrix-product-state engine: state algebra, parity, and wide scaling.

Four layers of guarantees are pinned here:

1. **State algebra** — :class:`MPSState` gate application (1q, adjacent
   2q, SWAP-routed non-adjacent 2q), canonical-center sweeps, collapse/
   measure/reset, and Pauli expectations all agree with the dense
   engine at 1e-10 fidelity.
2. **Seeded parity** — with an unconstrained ``chi``, seeded counts
   from :class:`MPSEngine` are *identical* to :class:`DenseEngine` on
   ≤12-qubit Clifford+T suites, through the grouped path, the per-shot
   (mid-circuit measurement/reset) path, Pauli and reset-type (thermal)
   noise injection, and readout noise.
3. **Truncation contract** — the ``chi`` cap really bounds every bond,
   truncation loss accumulates in ``truncation_error`` while the state
   stays normalized, and the ``engine_mode`` sub-options scope the
   process-global knobs (validated before any global mutates).
4. **Wide scaling** — the flagship capability: a 64-qubit shallow
   brickwork circuit (branching tail, infeasible on every other
   non-Clifford path) samples 512 shots in seconds with zero truncation
   error at the default ``chi``, and the ``"auto"`` router sends such
   circuits to the MPS engine on its own.
"""

import math
import time

import numpy as np
import pytest

from repro.circuits import (
    QuantumCircuit,
    brickwork_circuit,
    ghz_circuit,
    random_circuit,
)
from repro.errors import EngineModeError, SimulationError
from repro.hybrid import (
    exact_expectation,
    expectation_mps,
    expectation_statevector,
    transverse_field_ising,
)
from repro.simulator import (
    DenseEngine,
    MPSEngine,
    MPSState,
    NoiseModel,
    current_config,
    depolarizing_error,
    engine_mode,
    engine_registry,
    prepare_engine,
    sample_counts,
    select_engine,
    simulate_mps,
    simulate_statevector,
)
from repro.simulator.config import DEFAULT_CHI
from repro.simulator.noise import ReadoutError, thermal_relaxation_error
from repro.simulator.statevector import DENSE_QUBIT_LIMIT

from test_stabilizer import random_clifford_circuit


def ghz_t_circuit(num_qubits, *, measure=True):
    """GHZ Clifford prefix + T layer."""
    qc = ghz_circuit(num_qubits, measure=False, name=f"ghz{num_qubits}+t")
    for q in range(num_qubits):
        qc.t(q)
    if measure:
        qc.measure_all()
    return qc


def clifford_t_circuit(num_qubits, depth, rng, *, measure=True):
    """Random Clifford prefix + interleaved non-Clifford tail (shared
    shape with the hybrid suite)."""
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
# state algebra vs the dense engine
# ---------------------------------------------------------------------------


class TestMPSStateAlgebra:
    def test_initial_state_is_all_zeros(self):
        state = MPSState(5)
        sv = state.to_statevector()
        assert sv.data[0] == 1.0
        assert np.abs(sv.data[1:]).max() == 0.0
        assert state.bond_dimensions() == (1, 1, 1, 1)

    def test_random_circuits_match_dense(self):
        rng = np.random.default_rng(91)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            qc = random_circuit(n, 35, seed=int(rng.integers(1 << 30)), measure=False)
            got = simulate_mps(qc).to_statevector()
            want = simulate_statevector(qc)
            assert got.fidelity(want) > 1 - 1e-10, trial
            assert abs(got.norm() - 1.0) < 1e-10

    def test_non_adjacent_gates_swap_routed(self):
        qc = QuantumCircuit(7)
        qc.h(0)
        qc.cx(0, 6)
        qc.cx(5, 1)
        qc.rzz(0.7, 0, 3)
        qc.append("iswap", [2, 6])
        qc.swap(6, 0)
        qc.cp(0.31, 4, 0)
        want = simulate_statevector(qc)
        got = simulate_mps(qc).to_statevector()
        assert got.fidelity(want) > 1 - 1e-10

    def test_canonical_sweeps_preserve_state(self):
        state = simulate_mps(random_circuit(6, 30, seed=3, measure=False))
        before = state.to_statevector().data.copy()
        for target in (0, 5, 2, 4, 0):
            state.canonicalize_to(target)
            assert state.center == target
        drift = np.abs(state.to_statevector().data - before).max()
        assert drift < 1e-12

    def test_ghz_bond_dimension_is_two(self):
        state = simulate_mps(ghz_circuit(12, measure=False))
        assert state.bond_dimensions() == (2,) * 11
        assert state.truncation_error == 0.0

    def test_measure_collapse_reset(self):
        rng = np.random.default_rng(92)
        state = simulate_mps(ghz_circuit(5, measure=False))
        outcome = state.measure(0, rng)
        for q in range(1, 5):
            assert state.marginal_probability_one(q) == pytest.approx(float(outcome))
        state.reset(2, rng)
        assert state.marginal_probability_one(2) == pytest.approx(0.0)
        with pytest.raises(SimulationError):
            state.collapse(2, 1)

    def test_sample_matches_dense_bits_exactly(self):
        rng = np.random.default_rng(93)
        for trial in range(8):
            n = int(rng.integers(2, 8))
            qc = random_circuit(n, 25, seed=int(rng.integers(1 << 30)), measure=False)
            seed = int(rng.integers(1 << 30))
            got = simulate_mps(qc).sample(150, np.random.default_rng(seed))
            want = simulate_statevector(qc).sample(150, np.random.default_rng(seed))
            assert np.array_equal(got, want), trial

    def test_expectation_pauli_matches_dense(self):
        rng = np.random.default_rng(94)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            qc = random_circuit(n, 25, seed=int(rng.integers(1 << 30)), measure=False)
            state = simulate_mps(qc)
            dense = simulate_statevector(qc)
            pauli = "".join(rng.choice(list("IXYZ"), size=n))
            got = state.expectation_pauli(pauli, range(n))
            want = dense.expectation_pauli(pauli, range(n))
            assert abs(got - want) < 1e-9, (trial, pauli)

    def test_rejects_bad_operands(self):
        state = MPSState(3)
        with pytest.raises(SimulationError):
            state.apply_matrix(np.eye(2), [7])
        with pytest.raises(SimulationError):
            state.apply_matrix(np.eye(4), [1, 1])
        with pytest.raises(SimulationError):
            state.apply_matrix(np.eye(8), [0, 1, 2])

    def test_wide_to_statevector_fails_fast(self):
        with pytest.raises(SimulationError, match="dense engine caps"):
            MPSState(DENSE_QUBIT_LIMIT + 4).to_statevector()


# ---------------------------------------------------------------------------
# truncation contract
# ---------------------------------------------------------------------------


class TestTruncation:
    def test_chi_caps_every_bond(self):
        qc = random_circuit(10, 120, seed=5, measure=False)
        state = simulate_mps(qc, chi=4)
        assert state.max_bond_dimension <= 4
        assert state.truncation_error > 0.0
        assert abs(state.norm() - 1.0) < 1e-10

    def test_unconstrained_chi_is_exact(self):
        qc = random_circuit(8, 60, seed=6, measure=False)
        state = simulate_mps(qc, chi=16)  # 2^(8//2) = widest exact cut
        assert state.truncation_error == 0.0
        assert state.to_statevector().fidelity(simulate_statevector(qc)) > 1 - 1e-10

    def test_truncation_threshold_trades_fidelity_for_bond(self):
        qc = random_circuit(10, 80, seed=7, measure=False)
        exact = simulate_mps(qc)
        loose = simulate_mps(qc, truncation_threshold=1e-4)
        assert loose.max_bond_dimension <= exact.max_bond_dimension
        assert loose.truncation_error < 1e-1
        # still a high-fidelity state
        f = loose.to_statevector().fidelity(simulate_statevector(qc))
        assert f > 0.99

    def test_fork_carries_truncation_state(self):
        qc = brickwork_circuit(8, 6, measure=False)
        with engine_mode("mps", chi=3):
            engine = prepare_engine(qc, "mps")
        dup = engine.fork()
        assert dup.truncation_error == engine.truncation_error
        assert dup.max_bond_dimension == engine.max_bond_dimension
        assert dup._state.tensors[0] is not engine._state.tensors[0]

    def test_invalid_construction_rejected(self):
        with pytest.raises(SimulationError):
            MPSState(4, chi=0)
        with pytest.raises(SimulationError):
            MPSState(4, chi=True)  # bool is an int subclass, still wrong
        with pytest.raises(SimulationError):
            MPSState(4, truncation_threshold=1.5)
        # numpy integers from sweep/config code are valid
        assert MPSState(4, chi=np.int64(8)).chi == 8

    def test_sampling_truncated_state_warns_once(self):
        """Sampling a state whose truncation loss exceeds the budget
        must warn — silently-approximate counts are the failure mode of
        auto-routing to a lossy backend."""
        qc = random_circuit(8, 80, seed=13, measure=False)
        state = simulate_mps(qc, chi=2)
        assert state.truncation_error > 1e-6
        with pytest.warns(UserWarning, match="truncated MPS"):
            state.sample(16, np.random.default_rng(0))
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            state.sample(16, np.random.default_rng(0))  # warned once already

    def test_untruncated_sampling_does_not_warn(self):
        import warnings as warnings_mod

        state = simulate_mps(ghz_circuit(10, measure=False))
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            state.sample(16, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# seeded parity with the dense engine (the acceptance criterion)
# ---------------------------------------------------------------------------


class TestSeededParity:
    def test_ghz_t_grouped_counts_exact(self):
        for n in (2, 6, 12):
            qc = ghz_t_circuit(n)
            for seed in (0, 7):
                with engine_mode("fast"):
                    dense = sample_counts(qc, 384, noise=_noise(True), rng=seed)
                with engine_mode("mps"):
                    mps = sample_counts(qc, 384, noise=_noise(True), rng=seed)
                assert dense.to_dict() == mps.to_dict(), (n, seed)

    def test_random_clifford_t_counts_exact(self):
        rng = np.random.default_rng(95)
        for trial in range(8):
            n = int(rng.integers(2, 9))
            qc = clifford_t_circuit(n, 20, rng)
            seed = int(rng.integers(1 << 30))
            with engine_mode("fast"):
                dense = sample_counts(qc, 256, noise=_noise(), rng=seed)
            with engine_mode("mps"):
                mps = sample_counts(qc, 256, noise=_noise(), rng=seed)
            assert dense.to_dict() == mps.to_dict(), trial

    def test_brickwork_counts_exact(self):
        qc = brickwork_circuit(10, 4, seed=2)
        for seed in (1, 9):
            with engine_mode("fast"):
                dense = sample_counts(qc, 320, noise=_noise(), rng=seed)
            with engine_mode("mps"):
                mps = sample_counts(qc, 320, noise=_noise(), rng=seed)
            assert dense.to_dict() == mps.to_dict(), seed

    def test_reset_type_noise_counts_exact(self):
        qc = ghz_t_circuit(8)
        for seed in (1, 5, 9):
            with engine_mode("fast"):
                dense = sample_counts(qc, 320, noise=_noise(thermal=True), rng=seed)
            with engine_mode("mps"):
                mps = sample_counts(qc, 320, noise=_noise(thermal=True), rng=seed)
            assert dense.to_dict() == mps.to_dict(), seed

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
            with engine_mode("mps"):
                mps = sample_counts(qc, 256, noise=nm, rng=seed)
            assert dense.to_dict() == mps.to_dict(), seed

    def test_state_fidelity_via_engine(self):
        rng = np.random.default_rng(96)
        for trial in range(6):
            n = int(rng.integers(2, 10))
            qc = clifford_t_circuit(n, 18, rng, measure=False)
            engine = prepare_engine(qc, "mps")
            want = simulate_statevector(qc)
            assert engine.to_dense().fidelity(want) > 1 - 1e-10, trial


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


class TestMPSExpectation:
    def test_expectation_mps_matches_statevector(self):
        rng = np.random.default_rng(97)
        ham = transverse_field_ising(6, j=1.1, h=0.6)
        for _ in range(5):
            qc = clifford_t_circuit(6, 15, rng, measure=False)
            engine = prepare_engine(qc, "mps")
            got = engine.expectation(ham)
            want = expectation_statevector(ham, simulate_statevector(qc))
            assert abs(got - want) < 1e-9

    def test_exact_expectation_honours_mps_mode(self):
        ham = transverse_field_ising(8, j=0.8, h=1.3)
        qc = brickwork_circuit(8, 3, measure=False)
        with engine_mode("mps"):
            got = exact_expectation(ham, qc)
        want = expectation_statevector(ham, simulate_statevector(qc))
        assert abs(got - want) < 1e-9

    def test_wide_expectation_beyond_dense_limit(self):
        n = DENSE_QUBIT_LIMIT + 14
        ham = transverse_field_ising(n)
        state = simulate_mps(ghz_circuit(n, measure=False))
        value = expectation_mps(ham, state)
        # GHZ: ⟨Z_i Z_{i+1}⟩ = 1, ⟨X_i⟩ = 0
        assert abs(value - (-1.0 * (n - 1))) < 1e-9


# ---------------------------------------------------------------------------
# routing and facade
# ---------------------------------------------------------------------------


class TestRoutingAndFacade:
    def test_mps_engine_registered(self):
        assert engine_registry()["mps"] is MPSEngine

    def test_mps_mode_routes_everything_to_mps(self):
        assert select_engine("mps", ghz_circuit(4)) is MPSEngine
        assert select_engine("mps", brickwork_circuit(40, 4)) is MPSEngine

    def test_auto_routes_wide_line_circuit_to_mps(self):
        wide = brickwork_circuit(DENSE_QUBIT_LIMIT + 14, 4)
        assert select_engine("auto", wide) is MPSEngine
        # dense widths stay on the exact engines
        assert select_engine("auto", brickwork_circuit(10, 4)) is DenseEngine

    def test_chi_sub_option_scopes_config(self):
        assert current_config().chi == 64
        with engine_mode("mps", chi=7, truncation_threshold=1e-6) as config:
            assert (config.chi, config.truncation_threshold) == (7, 1e-6)
            assert current_config() is config
            engine = prepare_engine(ghz_circuit(4, measure=False))
            assert engine.chi == 7
            assert engine.fork().chi == 7
            # an engine built outside an entry point runs on the defaults
            assert MPSEngine(ghz_circuit(4, measure=False)).chi == 64
            assert MPSEngine(ghz_circuit(4, measure=False), config).chi == 7
        assert current_config().chi == 64
        assert current_config().truncation_threshold == 0.0
        # numpy integers (sweep/config code) are valid sub-option values
        with engine_mode("mps", chi=np.int64(16)) as config:
            assert config.chi == 16

    def test_chi_only_valid_for_mps_capable_modes(self):
        for mode in ("fast", "stabilizer", "hybrid"):
            with pytest.raises(EngineModeError):
                with engine_mode(mode, chi=8):
                    pass  # pragma: no cover
        for mode in ("mps", "auto"):
            with engine_mode(mode, chi=8):
                assert current_config().chi == 8

    def test_invalid_sub_option_values_rejected_before_mutation(self):
        before = current_config()
        for kwargs in (
            {"chi": 0},
            {"chi": 2.5},
            {"chi": True},
            {"truncation_threshold": -0.1},
            {"truncation_threshold": 1.0},
            {"truncation_threshold": False},
            {"truncation_threshold": "0.5"},
            {"truncation_threshold": [1]},
            {"truncation_threshold": float("nan")},
        ):
            with pytest.raises(EngineModeError):
                with engine_mode("mps", **kwargs):
                    pass  # pragma: no cover
        assert current_config() is before


# ---------------------------------------------------------------------------
# wide scaling: the flagship capability
# ---------------------------------------------------------------------------


class TestWideScaling:
    def test_64q_brickwork_samples_in_seconds(self):
        """A 64-qubit shallow brickwork circuit — branching tail, so
        infeasible on dense, hybrid, and tableau alike — samples 512
        shots in seconds on the MPS engine with zero truncation error
        at the default chi."""
        n = 64
        qc = brickwork_circuit(n, 4, seed=1)
        with engine_mode("fast"):
            with pytest.raises(SimulationError):
                sample_counts(qc, 16, rng=0)
        start = time.perf_counter()
        with engine_mode("mps"):
            counts = sample_counts(qc, 512, noise=_noise(), rng=7)
        elapsed = time.perf_counter() - start
        assert counts.shots == 512
        assert counts.num_bits == n
        assert elapsed < 30.0, f"64q brickwork sampling took {elapsed:.1f}s"
        engine = prepare_engine(qc, "mps")
        assert engine.truncation_error == 0.0
        assert engine.max_bond_dimension <= DEFAULT_CHI

    def test_wide_ghz_sweep_sampling_is_coherent(self):
        """Beyond the dense limit the conditional-marginal sweep takes
        over; GHZ correlations survive it (every row is constant)."""
        n = DENSE_QUBIT_LIMIT + 14
        state = simulate_mps(ghz_circuit(n, measure=False))
        bits = state.sample(256, np.random.default_rng(3))
        totals = bits.sum(axis=1)
        assert bool(np.all((totals == 0) | (totals == n)))
        # both branches appear with roughly equal weight
        frac = float((totals == n).mean())
        assert 0.35 < frac < 0.65

    def test_wide_qaoa_chain_via_auto(self):
        """A 40-qubit QAOA-style chain (RZZ cost + RX mixer: branching
        tail, line-like) routes to MPS under "auto" and samples."""
        n = 40
        qc = QuantumCircuit(n, name="qaoa40")
        for q in range(n):
            qc.h(q)
        for p, (gamma, beta) in enumerate([(0.4, 0.9), (0.7, 0.3)]):
            for q in range(n - 1):
                qc.rzz(gamma, q, q + 1)
            for q in range(n):
                qc.rx(beta, q)
        qc.measure_all()
        assert select_engine("auto", qc) is MPSEngine
        with engine_mode("auto"):
            counts = sample_counts(qc, 128, rng=11)
        assert counts.shots == 128
        assert counts.num_bits == n
