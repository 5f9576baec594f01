"""Stabilizer tableau engine: correctness, Clifford detection, dispatch.

Three layers of guarantees are pinned here:

1. **State-level equivalence** — tableau probabilities and Pauli
   expectations match the dense engine on random Clifford circuits.
2. **Bit-exact sampling** — for seeded Clifford workloads, counts from
   ``engine_mode("stabilizer")`` equal counts from the dense engine
   *exactly* (same RNG stream, same CDF inversion), including under
   Pauli noise, reset-type (thermal) noise, readout error, and the
   per-shot mid-circuit path.
3. **Dispatch** — the Clifford detector routes the right circuits, the
   default mode auto-engages beyond the dense qubit limit, and
   non-Clifford circuits fall back to the state vector.
"""

import math

import numpy as np
import pytest

from repro.circuits import (
    QuantumCircuit,
    clifford_segments,
    ghz_circuit,
    is_clifford_circuit,
)
from repro.circuits.circuit import Instruction
from repro.circuits.dag import instruction_is_clifford
from repro.circuits.gates import clifford_primitives, is_clifford
from repro.circuits.parameters import Parameter
from repro.errors import SimulationError
from repro.hybrid import (
    exact_expectation,
    expectation_stabilizer,
    expectation_statevector,
    transverse_field_ising,
)
from repro.simulator import (
    CosetSupport,
    DenseEngine,
    NoiseModel,
    StateVector,
    Tableau,
    TableauEngine,
    depolarizing_error,
    engine_mode,
    ghz_tableau,
    sample_counts,
    select_engine,
    simulate_statevector,
    simulate_tableau,
)
from repro.simulator.noise import ReadoutError, thermal_relaxation_error
from repro.simulator.stabilizer import unpack_bit_matrix
from repro.simulator.statevector import ghz_state

HALF_PI = math.pi / 2.0

CLIFFORD_1Q = ["h", "s", "sdg", "x", "y", "z", "sx"]
CLIFFORD_2Q = ["cx", "cz", "swap", "iswap"]
CLIFFORD_ROTATIONS = ["rx", "ry", "rz", "p"]


def random_clifford_circuit(num_qubits, depth, rng, *, measure=False):
    """A random circuit drawn from the full Clifford registry."""
    qc = QuantumCircuit(num_qubits, name=f"cliff{num_qubits}x{depth}")
    for _ in range(depth):
        roll = rng.random()
        if num_qubits >= 2 and roll < 0.35:
            a = int(rng.integers(num_qubits))
            b = int(rng.integers(num_qubits - 1))
            b += b >= a
            qc.append(str(rng.choice(CLIFFORD_2Q)), [a, b])
        elif roll < 0.6:
            qc.append(str(rng.choice(CLIFFORD_1Q)), [int(rng.integers(num_qubits))])
        elif roll < 0.8:
            k = int(rng.integers(4))
            qc.append(
                str(rng.choice(CLIFFORD_ROTATIONS)),
                [int(rng.integers(num_qubits))],
                [k * HALF_PI],
            )
        elif num_qubits >= 2 and roll < 0.9:
            a = int(rng.integers(num_qubits))
            b = int(rng.integers(num_qubits - 1))
            b += b >= a
            k = int(rng.integers(4))
            qc.append("rzz", [a, b], [k * HALF_PI])
        else:
            kt, kp = int(rng.integers(4)), int(rng.integers(4))
            qc.append(
                "prx", [int(rng.integers(num_qubits))], [kt * HALF_PI, kp * HALF_PI]
            )
    if measure:
        qc.measure_all()
    return qc


# ---------------------------------------------------------------------------
# Clifford detector
# ---------------------------------------------------------------------------


class TestCliffordDetector:
    def test_named_gates_are_clifford(self):
        for name in CLIFFORD_1Q + CLIFFORD_2Q + ["id"]:
            assert is_clifford(name), name

    def test_non_clifford_gates_rejected(self):
        assert not is_clifford("t")
        assert not is_clifford("tdg")
        assert not is_clifford("rx", [0.3])
        assert not is_clifford("rz", [math.pi / 3])
        assert not is_clifford("cp", [HALF_PI])  # controlled-S is not Clifford
        assert not is_clifford("measure")

    def test_malformed_calls_rejected_not_crashed(self):
        # wrong parameter counts and unknown names answer False/None
        assert not is_clifford("rz")  # missing angle
        assert clifford_primitives("p") is None
        assert not is_clifford("h", [0.3])  # spurious angle
        assert not is_clifford("no-such-gate")
        assert not is_clifford("delay", [1e-6])

    def test_registry_set_matches_decomposition_table(self):
        from repro.circuits.gates import CLIFFORD_GATES, _FIXED_CLIFFORD_PRIMS

        assert CLIFFORD_GATES == frozenset(_FIXED_CLIFFORD_PRIMS)
        for name in CLIFFORD_GATES:
            assert is_clifford(name), name

    def test_quarter_turn_rotations_detected(self):
        for name in CLIFFORD_ROTATIONS:
            for k in range(-4, 8):
                assert is_clifford(name, [k * HALF_PI]), (name, k)
        assert is_clifford("cp", [math.pi])
        assert is_clifford("rzz", [3 * HALF_PI])
        assert is_clifford("u", [HALF_PI, math.pi, -HALF_PI])
        assert not is_clifford("u", [HALF_PI, 0.4, 0.0])

    def test_primitive_decompositions_match_unitaries(self):
        """Every registry decomposition must equal its gate's unitary up
        to global phase (checked densely on 2 qubits)."""
        from repro.circuits.gates import spec

        cases = [
            ("sx", []), ("iswap", []), ("rx", [HALF_PI]), ("rx", [math.pi]),
            ("ry", [3 * HALF_PI]), ("rz", [HALF_PI]), ("p", [3 * HALF_PI]),
            ("prx", [HALF_PI, math.pi]), ("u", [math.pi, HALF_PI, HALF_PI]),
            ("cp", [math.pi]), ("rzz", [HALF_PI]), ("rzz", [math.pi]),
            ("rzz", [3 * HALF_PI]),
        ]
        for name, params in cases:
            arity = spec(name).num_qubits
            prims = clifford_primitives(name, params)
            assert prims is not None, (name, params)
            # build both full unitaries column by column and compare
            dim = 4
            u_ref = np.zeros((dim, dim), dtype=complex)
            u_new = np.zeros((dim, dim), dtype=complex)
            for col in range(dim):
                basis = np.zeros(dim, dtype=complex)
                basis[col] = 1.0
                sv = StateVector(2, data=basis)
                sv.apply_matrix(spec(name).matrix(params), list(range(arity)))
                u_ref[:, col] = sv.data
                sv = StateVector(2, data=basis)
                for prim, slots in prims:
                    sv.apply_gate(prim, list(slots))
                u_new[:, col] = sv.data
            # strip global phase
            idx = np.unravel_index(np.argmax(np.abs(u_ref)), u_ref.shape)
            phase = u_new[idx] / u_ref[idx]
            assert abs(abs(phase) - 1.0) < 1e-9, (name, params)
            assert np.allclose(u_new, phase * u_ref, atol=1e-9), (name, params)

    def test_symbolic_parameters_are_not_clifford(self):
        theta = Parameter("θ")
        qc = QuantumCircuit(1)
        qc.rz(theta, 0)
        assert not is_clifford_circuit(qc)

    def test_directives_are_engine_neutral(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.barrier()
        qc.delay(1e-6, 1)
        qc.cx(0, 1)
        qc.measure_all()
        assert is_clifford_circuit(qc)
        assert instruction_is_clifford(Instruction("measure", (0,), clbits=(0,)))

    def test_random_clifford_circuits_detected(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            qc = random_clifford_circuit(n, int(rng.integers(5, 40)), rng)
            assert is_clifford_circuit(qc)

    def test_single_t_gate_breaks_detection(self):
        rng = np.random.default_rng(3)
        qc = random_clifford_circuit(4, 20, rng)
        qc.t(2)
        assert not is_clifford_circuit(qc)

    def test_clifford_segments_partition(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.t(0)
        qc.rz(0.3, 1)
        qc.barrier()
        qc.s(0)
        qc.measure_all()
        segments = clifford_segments(qc)
        # runs cover the whole circuit, in order, alternating flags
        assert segments[0] == (0, 2, True)
        assert segments[1] == (2, 5, False)  # barrier attaches to the open run
        assert segments[2][0] == 5 and segments[2][2] is True
        assert segments[-1][1] == len(qc)
        covered = sum(stop - start for start, stop, _ in segments)
        assert covered == len(qc)

    def test_clifford_segments_whole_circuit(self):
        qc = ghz_circuit(5)
        assert clifford_segments(qc) == [(0, len(qc), True)]

    def test_clifford_segments_leading_directive_joins_first_run(self):
        qc = QuantumCircuit(2)
        qc.barrier()
        qc.t(0)
        qc.t(1)
        assert clifford_segments(qc) == [(0, 3, False)]

    def test_clifford_segments_directive_only_circuit(self):
        qc = QuantumCircuit(2)
        qc.barrier()
        qc.measure_all()
        assert clifford_segments(qc) == [(0, 3, True)]
        assert clifford_segments(QuantumCircuit(1)) == []


# ---------------------------------------------------------------------------
# tableau state correctness
# ---------------------------------------------------------------------------


class TestTableauState:
    def test_initial_state(self):
        tab = Tableau(3)
        probs = tab.probabilities()
        assert probs[0] == 1.0 and probs[1:].sum() == 0.0

    def test_ghz_tableau_matches_dense(self):
        for n in (2, 3, 6):
            tab = ghz_tableau(n)
            assert np.allclose(tab.probabilities(), ghz_state(n).probabilities())
            assert tab.expectation_pauli("X" * n, range(n)) == 1.0
            assert tab.expectation_z([0, 1]) == 1.0
            assert tab.expectation_z([0]) == 0.0

    def test_random_clifford_probabilities_match_dense(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            n = int(rng.integers(1, 7))
            qc = random_clifford_circuit(n, 35, rng)
            tab = simulate_tableau(qc)
            sv = simulate_statevector(qc)
            assert np.allclose(
                tab.probabilities(), sv.probabilities(), atol=1e-9
            ), trial

    def test_random_clifford_expectations_match_dense(self):
        rng = np.random.default_rng(22)
        for trial in range(20):
            n = int(rng.integers(1, 6))
            qc = random_clifford_circuit(n, 25, rng)
            tab = simulate_tableau(qc)
            sv = simulate_statevector(qc)
            for _ in range(6):
                pauli = "".join(rng.choice(list("IXYZ"), size=n))
                got = tab.expectation_pauli(pauli, range(n))
                want = sv.expectation_pauli(pauli, range(n))
                assert got in (-1.0, 0.0, 1.0)
                assert abs(got - want) < 1e-9, (trial, pauli)

    def test_pauli_injection_flips_signs_only(self):
        tab = ghz_tableau(4)
        x_before, z_before, r_before = list(tab._xc), list(tab._zc), tab._r
        tab.apply_pauli("XZYI", [0, 1, 2, 3])
        assert tab._xc == x_before
        assert tab._zc == z_before
        assert tab._r != r_before

    def test_marginal_probability(self):
        tab = ghz_tableau(3)
        assert tab.marginal_probability_one(0) == 0.5
        tab2 = Tableau(2).apply("x", [1])
        assert tab2.marginal_probability_one(1) == 1.0
        assert tab2.marginal_probability_one(0) == 0.0

    def test_measure_collapses_ghz(self):
        rng = np.random.default_rng(5)
        tab = ghz_tableau(4)
        first = tab.measure(0, rng)
        # all remaining qubits are now deterministic and equal
        for q in range(1, 4):
            assert tab.marginal_probability_one(q) == float(first)

    def test_collapse_impossible_outcome_raises(self):
        tab = Tableau(1)  # |0⟩
        with pytest.raises(SimulationError):
            tab.collapse(0, 1)

    def test_reset(self):
        rng = np.random.default_rng(9)
        tab = ghz_tableau(2)
        tab.reset(0, rng)
        assert tab.marginal_probability_one(0) == 0.0

    def test_non_clifford_instruction_raises(self):
        tab = Tableau(1)
        with pytest.raises(SimulationError):
            tab.apply("t", [0])
        with pytest.raises(SimulationError):
            tab.apply("rz", [0], [0.3])
        with pytest.raises(SimulationError):
            tab.apply("rz", [0])  # missing angle is malformed, not Clifford
        with pytest.raises(SimulationError):
            tab.apply_instruction(Instruction("rz", (0,), (0.3,)))

    def test_apply_forwards_rotation_params(self):
        tab = Tableau(1).apply("h", [0]).apply("rz", [0], [HALF_PI])
        ref = Tableau(1).apply("h", [0]).apply("s", [0])
        assert (tab._xc, tab._zc, tab._r) == (ref._xc, ref._zc, ref._r)

    def test_wide_states(self):
        tab = ghz_tableau(150)
        assert tab.expectation_z([0, 149]) == 1.0
        assert tab.marginal_probability_one(75) == 0.5
        bits = tab.sample(64, np.random.default_rng(0))
        assert bits.shape == (64, 150)
        # every shot is all-zeros or all-ones
        assert np.all((bits.sum(axis=1) == 0) | (bits.sum(axis=1) == 150))


# ---------------------------------------------------------------------------
# coset sampling
# ---------------------------------------------------------------------------


class TestCosetSampling:
    def test_sample_matches_dense_bits_exactly(self):
        rng = np.random.default_rng(31)
        for trial in range(15):
            n = int(rng.integers(1, 7))
            qc = random_clifford_circuit(n, 30, rng)
            tab = simulate_tableau(qc)
            sv = simulate_statevector(qc)
            seed = int(rng.integers(1 << 30))
            got = tab.sample(200, np.random.default_rng(seed))
            want = sv.sample(200, np.random.default_rng(seed))
            assert np.array_equal(got, want), trial

    def test_shared_support_equals_fresh(self):
        rng = np.random.default_rng(32)
        qc = ghz_circuit(6, measure=False)
        clean = simulate_tableau(qc)
        support = CosetSupport(clean)
        for _ in range(10):
            noisy = simulate_tableau(qc)
            pauli = "".join(rng.choice(list("IXYZ"), size=6))
            noisy.apply_pauli(pauli, range(6))
            seed = int(rng.integers(1 << 30))
            shared = noisy.sample(50, np.random.default_rng(seed), support=support)
            fresh = noisy.sample(50, np.random.default_rng(seed))
            assert np.array_equal(shared, fresh), pauli

    def test_support_basis_invariants(self):
        """The sorted-coset mapping needs a reduced descending-pivot
        basis and an offset clear of every pivot bit — pin both."""
        rng = np.random.default_rng(33)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            tab = simulate_tableau(random_clifford_circuit(n, 30, rng))
            support = CosetSupport(tab)
            pivots = support._basis_pivots
            basis = unpack_bit_matrix(support.basis_words, n)
            assert np.all(np.diff(pivots) < 0) or pivots.size <= 1
            for i, vec in enumerate(basis):
                hits = np.nonzero(vec)[0]
                assert hits[-1] == pivots[i]  # top bit is the pivot
                # pivot bits of all other vectors are clear
                others = np.delete(np.arange(support.dimension), i)
                assert not basis[others][:, pivots[i]].any()
            c = unpack_bit_matrix(support.offset_words(tab._signs_words())[None, :], n)[0]
            if support.dimension:
                assert not c[pivots].any()

    def test_deterministic_coset_consumes_stream(self):
        """k = 0 still burns one uniform per shot (dense-engine parity)."""
        tab = Tableau(2).apply("x", [0])
        rng = np.random.default_rng(0)
        tab.sample(10, rng)
        ref = np.random.default_rng(0)
        ref.random(10)
        assert rng.random() == ref.random()


# ---------------------------------------------------------------------------
# end-to-end sampler dispatch: bit-exact seeded counts
# ---------------------------------------------------------------------------


def _ghz_noise(with_readout=False):
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.01, 2), "cx")
    nm.add_gate_error(depolarizing_error(0.005, 1), "h")
    if with_readout:
        nm.add_readout_error(ReadoutError(0.02, 0.03), 0)
        nm.add_readout_error(ReadoutError(0.01, 0.04), 1)
    return nm


class TestSamplerDispatch:
    def test_grouped_counts_bit_exact(self):
        for n in (2, 6, 12):
            qc = ghz_circuit(n)
            for seed in (0, 7):
                with engine_mode("fast"):
                    dense = sample_counts(qc, 384, noise=_ghz_noise(True), rng=seed)
                with engine_mode("stabilizer"):
                    stab = sample_counts(qc, 384, noise=_ghz_noise(True), rng=seed)
                assert dense.to_dict() == stab.to_dict(), (n, seed)

    def test_random_clifford_counts_bit_exact(self):
        rng = np.random.default_rng(41)
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.02, 1), "h")
        nm.add_gate_error(depolarizing_error(0.02, 2), "cx")
        nm.add_gate_error(depolarizing_error(0.02, 2), "cz")
        for trial in range(8):
            n = int(rng.integers(2, 7))
            qc = random_clifford_circuit(n, 25, rng, measure=True)
            seed = int(rng.integers(1 << 30))
            with engine_mode("fast"):
                dense = sample_counts(qc, 256, noise=nm, rng=seed)
            with engine_mode("stabilizer"):
                stab = sample_counts(qc, 256, noise=nm, rng=seed)
            assert dense.to_dict() == stab.to_dict(), trial

    def test_reset_type_noise_bit_exact(self):
        nm = NoiseModel()
        nm.add_gate_error(thermal_relaxation_error(30e-6, 20e-6, 5e-6), "h")
        nm.add_gate_error(
            thermal_relaxation_error(30e-6, 20e-6, 5e-6, operand=1).compose(
                depolarizing_error(0.02, 2)
            ),
            "cx",
        )
        qc = ghz_circuit(8)
        for seed in (1, 5, 9):
            with engine_mode("fast"):
                dense = sample_counts(qc, 320, noise=nm, rng=seed)
            with engine_mode("stabilizer"):
                stab = sample_counts(qc, 320, noise=nm, rng=seed)
            assert dense.to_dict() == stab.to_dict(), seed

    def test_per_shot_path_bit_exact(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(0)
        qc.x(0)
        qc.reset(2)
        qc.h(2)
        qc.cx(1, 2)
        qc.measure_all()
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.05, 1), "h")
        for seed in (0, 42):
            with engine_mode("fast"):
                dense = sample_counts(qc, 256, noise=nm, rng=seed)
            with engine_mode("stabilizer"):
                stab = sample_counts(qc, 256, noise=nm, rng=seed)
            assert dense.to_dict() == stab.to_dict(), seed

    def test_noiseless_counts_bit_exact(self):
        qc = ghz_circuit(10)
        with engine_mode("fast"):
            dense = sample_counts(qc, 500, rng=3)
        with engine_mode("stabilizer"):
            stab = sample_counts(qc, 500, rng=3)
        assert dense.to_dict() == stab.to_dict()

    def test_default_mode_keeps_dense_below_limit(self):
        """≤26-qubit circuits keep their historical dense-engine streams
        in the default mode (dispatch only auto-engages beyond it)."""
        assert select_engine("fast", ghz_circuit(20)) is DenseEngine
        assert select_engine("fast", ghz_circuit(27)) is TableauEngine
        assert select_engine("stabilizer", ghz_circuit(4)) is TableauEngine

    def test_non_clifford_falls_back_to_dense(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.t(0)
        qc.cx(0, 1)
        qc.rz(0.3, 2)
        qc.measure_all()
        with engine_mode("stabilizer"):
            got = sample_counts(qc, 128, rng=5)
        with engine_mode("fast"):
            want = sample_counts(qc, 128, rng=5)
        assert got.to_dict() == want.to_dict()

    def test_hundred_qubit_ghz_via_default_dispatch(self):
        qc = ghz_circuit(100)
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.005, 2), "cx")
        counts = sample_counts(qc, 256, noise=nm, rng=7)
        assert counts.shots == 256
        assert counts.num_bits == 100
        # the two ideal outcomes dominate under light noise
        assert counts.ghz_fidelity_estimate() > 0.3

    def test_wide_non_clifford_still_rejected(self):
        qc = ghz_circuit(40, measure=False)
        qc.t(0)
        qc.measure_all()
        with pytest.raises(SimulationError):
            sample_counts(qc, 16, rng=0)

    def test_engine_mode_validation_and_restore(self):
        from repro.simulator import sampler

        with pytest.raises(SimulationError):
            with engine_mode("warp"):
                pass
        with pytest.raises(SimulationError):
            with engine_mode("fast", fast=True):
                pass
        before = sampler.current_config()
        with engine_mode("stabilizer"):
            assert sampler.current_config().mode == "stabilizer"
            with engine_mode("fast"):
                assert sampler.current_config().mode == "fast"
            assert sampler.current_config().mode == "stabilizer"
        assert sampler.current_config() is before


# ---------------------------------------------------------------------------
# hybrid-layer expectations
# ---------------------------------------------------------------------------


class TestHybridExpectations:
    def test_expectation_stabilizer_matches_dense(self):
        rng = np.random.default_rng(51)
        ham = transverse_field_ising(5, j=1.2, h=0.7)
        for _ in range(6):
            qc = random_clifford_circuit(5, 25, rng)
            tab = simulate_tableau(qc)
            sv = simulate_statevector(qc)
            got = expectation_stabilizer(ham, tab)
            want = expectation_statevector(ham, sv)
            assert abs(got - want) < 1e-9

    def test_exact_expectation_dispatches(self):
        ham = transverse_field_ising(4)
        clifford = ghz_circuit(4, measure=False)
        assert abs(
            exact_expectation(ham, clifford)
            - expectation_statevector(ham, simulate_statevector(clifford))
        ) < 1e-9
        non_clifford = QuantumCircuit(4)
        non_clifford.ry(0.3, 0)
        non_clifford.cx(0, 1)
        assert abs(
            exact_expectation(ham, non_clifford)
            - expectation_statevector(ham, simulate_statevector(non_clifford))
        ) < 1e-9

    def test_wide_clifford_expectation(self):
        ham = transverse_field_ising(60)
        qc = ghz_circuit(60, measure=False)
        value = exact_expectation(ham, qc)
        # GHZ: ⟨Z_i Z_{i+1}⟩ = 1 for every bond, ⟨X_i⟩ = 0
        assert abs(value - (-1.0 * 59)) < 1e-9
