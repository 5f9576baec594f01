"""Equivalence suite for the fast-kernel simulation engine.

The specialized 1q/2q kernels, the bit-sliced measurement helpers, the
vectorized sampler, and the trajectory prefix-sharing path must all be
*semantically invisible*: every test here pins the fast implementation
against the generic reference (``apply_matrix_generic``, the seed
engine in :mod:`repro.testing.reference`, or a hand-rolled slow
computation) to 1e-12, or — where RNG consumption order legitimately
differs — statistically.  The seed engine itself is pinned to counts
recorded when it was still the ``"baseline"`` engine mode, so the perf
harness's "before" lanes keep timing the same program.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.parity import unfused
from repro.circuits import QuantumCircuit, ghz_circuit, random_circuit
from repro.circuits.gates import (
    cphase_matrix,
    cx_matrix,
    prx_matrix,
    rz_matrix,
    rzz_matrix,
    spec,
)
from repro.hybrid.observables import (
    PauliSum,
    expectation_statevector,
    h2_hamiltonian,
    transverse_field_ising,
)
from repro.simulator import (
    NoiseModel,
    ReadoutError,
    depolarizing_error,
    pauli_error,
    thermal_relaxation_error,
)
from repro.simulator import sampler as sampler_mod
from repro.simulator.engines import DenseEngine
from repro.simulator.config import ExecutionConfig
from repro.simulator.sampler import _sample_grouped, engine_mode, sample_counts
from repro.simulator.statevector import StateVector, simulate_statevector
from repro.testing import reference
from tests.conftest import random_unitary_2x2


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return vec / np.linalg.norm(vec)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_fast_matches_generic(matrix, qubits, num_qubits, seed=0):
    rng = np.random.default_rng(seed)
    vec = random_state(num_qubits, rng)
    fast = StateVector(num_qubits, vec).apply_matrix(matrix, qubits)
    slow = StateVector(num_qubits, vec).apply_matrix_generic(matrix, qubits)
    np.testing.assert_allclose(fast.data, slow.data, atol=1e-12)


class TestOneQubitKernels:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_unitary_any_qubit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        q = int(rng.integers(n))
        assert_fast_matches_generic(random_unitary_2x2(rng), [q], n, seed)

    @pytest.mark.parametrize("name", ["z", "s", "sdg", "t", "tdg", "p", "rz"])
    def test_diagonal_gates(self, name):
        g = spec(name)
        params = [0.0] * 0 if g.num_params == 0 else [0.731]
        for q in range(4):
            assert_fast_matches_generic(g.matrix(params), [q], 4, seed=q)

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_antidiagonal_gates(self, name):
        for q in range(4):
            assert_fast_matches_generic(spec(name).matrix(), [q], 4, seed=q)

    @pytest.mark.parametrize("name", ["h", "sx", "prx"])
    def test_dense_gates(self, name):
        g = spec(name)
        params = [] if g.num_params == 0 else [0.4, -1.2][: g.num_params]
        for q in range(4):
            assert_fast_matches_generic(g.matrix(params), [q], 4, seed=q)


class TestTwoQubitKernels:
    #: adjacent, non-adjacent, and both operand orders
    PAIRS = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (0, 3)]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_unitary_any_pair(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        qs = [int(q) for q in rng.choice(n, size=2, replace=False)]
        assert_fast_matches_generic(random_unitary(4, rng), qs, n, seed)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_diagonal_cz_cp_rzz(self, pair):
        for matrix in (spec("cz").matrix(), cphase_matrix(0.9), rzz_matrix(-1.3)):
            assert_fast_matches_generic(matrix, pair, 4, seed=sum(pair))

    @pytest.mark.parametrize("pair", PAIRS)
    def test_permutation_cx_swap_iswap(self, pair):
        for matrix in (cx_matrix(), spec("swap").matrix(), spec("iswap").matrix()):
            assert_fast_matches_generic(matrix, pair, 4, seed=sum(pair))

    def test_identity_rows_leave_slices_untouched(self):
        """CX must not rewrite the control-off subspace at all."""
        rng = np.random.default_rng(5)
        vec = random_state(3, rng)
        sv = StateVector(3, vec)
        sv.apply_matrix(cx_matrix(), [0, 2])
        # control (qubit 0) = 0 amplitudes are bit-identical
        untouched = [i for i in range(8) if not (i & 1)]
        np.testing.assert_array_equal(sv.data[untouched], vec[untouched])


class TestCircuitLevelEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_match_generic_engine(self, seed):
        qc = random_circuit(5, 40, seed=seed, measure=False)
        fast = simulate_statevector(qc)
        slow = reference.simulate_statevector(qc)
        np.testing.assert_allclose(fast.data, slow.data, atol=1e-12)

    def test_three_qubit_operator_uses_generic_path(self):
        rng = np.random.default_rng(9)
        u = random_unitary(8, rng)
        vec = random_state(4, rng)
        got = StateVector(4, vec).apply_matrix(u, [0, 2, 3])
        want = StateVector(4, vec).apply_matrix_generic(u, [0, 2, 3])
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)


class TestMeasurementHelpers:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_marginal_matches_full_tensor(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        q = int(rng.integers(n))
        sv = StateVector(n, random_state(n, rng))
        probs = sv.probabilities()
        want = sum(p for i, p in enumerate(probs) if (i >> q) & 1)
        assert sv.marginal_probability_one(q) == pytest.approx(want, abs=1e-12)

    def test_collapse_matches_manual_projection(self):
        rng = np.random.default_rng(11)
        vec = random_state(4, rng)
        sv = StateVector(4, vec)
        prob = sv.collapse(2, 1)
        projected = vec.copy()
        mask = np.array([(i >> 2) & 1 == 0 for i in range(16)])
        projected[mask] = 0.0
        want_prob = float(np.sum(np.abs(vec[~mask]) ** 2))
        assert prob == pytest.approx(want_prob, abs=1e-12)
        np.testing.assert_allclose(
            sv.data, projected / np.sqrt(want_prob), atol=1e-12
        )

    def test_sample_bits_match_per_column_extraction(self):
        """The shift-and-mask grid equals the seed's per-column loop."""
        sv = simulate_statevector(random_circuit(4, 25, seed=3, measure=False))
        qs = [3, 0, 2]
        got = sv.sample(500, rng=np.random.default_rng(21), qubits=qs)
        # replicate the seed implementation with the identical RNG stream
        r = np.random.default_rng(21)
        probs = sv.probabilities()
        probs = probs / probs.sum()
        outcomes = r.choice(probs.size, size=500, p=probs)
        want = np.empty((500, len(qs)), dtype=np.uint8)
        for col, q in enumerate(qs):
            want[:, col] = (outcomes >> q) & 1
        np.testing.assert_array_equal(got, want)


class TestDiagonalExpectation:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_z_strings_match_apply_and_overlap(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        qs = [int(q) for q in rng.choice(n, size=k, replace=False)]
        labels = "".join(rng.choice(list("IZ"), size=k))
        sv = StateVector(n, random_state(n, rng))
        fast = sv.expectation_pauli(labels, qs)
        work = sv.copy()
        work.apply_pauli(labels, qs)
        slow = float(np.real(np.vdot(sv.data, work.data)))
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_expectation_statevector_matches_dense_matrix(self):
        for ham in (h2_hamiltonian(), transverse_field_ising(4)):
            qc = random_circuit(
                max(2, ham.num_qubits), 30, seed=13, measure=False
            )
            sv = simulate_statevector(qc)
            dense = ham.matrix()
            want = float(np.real(np.vdot(sv.data, dense @ sv.data)))
            assert expectation_statevector(ham, sv) == pytest.approx(
                want, abs=1e-10
            )

    def test_expectation_statevector_leaves_state_intact(self):
        sv = simulate_statevector(ghz_circuit(3, measure=False))
        before = sv.data.copy()
        expectation_statevector(transverse_field_ising(3), sv)
        np.testing.assert_array_equal(sv.data, before)


class TestCopyFastPath:
    def test_copy_is_deep_and_exact(self):
        sv = simulate_statevector(random_circuit(3, 20, seed=7, measure=False))
        dup = sv.copy()
        np.testing.assert_array_equal(dup.data, sv.data)
        dup.apply_gate("x", [0])
        assert not np.array_equal(dup.data, sv.data)

    def test_copy_single_allocation(self):
        """copy() must hand the clone a fresh buffer, not a double copy —
        the clone's base is its own array, unshared with the source."""
        sv = StateVector(5)
        dup = sv.copy()
        assert dup.data is not sv.data
        assert not np.shares_memory(dup.data, sv.data)


class TestPrefixSharingSampler:
    def _noise(self) -> NoiseModel:
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.03, 2), "cx")
        nm.add_gate_error(depolarizing_error(0.02, 1), "h")
        return nm

    def test_deterministic_pattern_bit_identical_to_baseline(self):
        """With a single certain error event there is exactly one group,
        so prefix-sharing consumes the RNG identically to the baseline."""
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        nm = NoiseModel()
        nm.add_gate_error(pauli_error([("XI", 1.0)]), "cx")
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        fast = _sample_grouped(qc, 200, nm, rng_a, {}, DenseEngine, ExecutionConfig())
        slow = reference._sample_grouped(qc, 200, nm, rng_b, {})
        np.testing.assert_array_equal(fast, slow)

    def test_replayed_trajectory_state_matches_from_scratch(self):
        """Each pattern's replayed suffix must equal a from-|0⟩ run."""
        qc = ghz_circuit(5)
        nm = self._noise()
        rng = np.random.default_rng(0)
        noisy = sampler_mod._noisy_ops(qc, nm, {})
        errors = dict(noisy)
        # a few representative patterns: early, late, and multi-site
        first_idx = noisy[0][0]
        last_idx = noisy[-1][0]
        patterns = [
            {first_idx: 0},
            {last_idx: 0},
            {first_idx: 1, last_idx: 2},
        ]
        instructions = list(qc)
        for pattern in patterns:
            want, _ = reference._run_trajectory(qc, pattern, errors)
            # The production walk: advance window by window, injecting
            # after each error site.
            engine = DenseEngine(qc)
            prev = -1
            for site in sorted(pattern):
                engine.advance_span(instructions, prev + 1, site + 1)
                engine.inject(instructions[site], errors[site], pattern[site])
                prev = site
            engine.advance_span(instructions, prev + 1, len(instructions))
            np.testing.assert_allclose(
                engine.to_dense().data, want.data, atol=1e-12
            )

    def test_distribution_matches_baseline(self):
        """Grouped prefix-sharing and the baseline agree statistically."""
        qc = ghz_circuit(4)
        nm = self._noise()
        fast = sample_counts(qc, 30_000, noise=nm, rng=1)
        slow = reference.sample_counts(qc, 30_000, noise=nm, rng=2)
        assert fast.total_variation_distance(slow) < 0.02

    def test_seeded_rng_reproducible(self):
        qc = ghz_circuit(4)
        nm = self._noise()
        a = sample_counts(qc, 500, noise=nm, rng=123)
        b = sample_counts(qc, 500, noise=nm, rng=123)
        assert a.to_dict() == b.to_dict()

    def test_noiseless_single_group_unchanged(self):
        """Without noise there is one clean group: the fast path and the
        baseline draw identical RNG streams and identical counts."""
        qc = ghz_circuit(6)
        a = sample_counts(qc, 1000, rng=9)
        b = reference.sample_counts(qc, 1000, rng=9)
        assert a.to_dict() == b.to_dict()


#: Seeded counts recorded from ``engine_mode("baseline")`` before the
#: seed engine left the production sampler (3000 shots each; noise from
#: :meth:`TestSeedReference._noise`).
_SEED_ENGINE_COUNTS = {
    "ghz4": {
        "0000": 1202, "0001": 73, "0010": 54, "0011": 31, "0100": 51,
        "0101": 5, "0110": 8, "0111": 55, "1000": 74, "1001": 8, "1010": 8,
        "1011": 68, "1100": 36, "1101": 69, "1110": 89, "1111": 1169,
    },
    "ghz5": {
        "00000": 1165, "00001": 55, "00010": 38, "00011": 31, "00100": 54,
        "00101": 5, "00110": 3, "00111": 24, "01000": 57, "01001": 2,
        "01010": 1, "01011": 5, "01100": 4, "01101": 4, "01110": 2,
        "01111": 41, "10000": 70, "10001": 4, "10010": 3, "10011": 4,
        "10100": 3, "10101": 1, "10110": 3, "10111": 62, "11000": 32,
        "11001": 5, "11010": 5, "11011": 63, "11100": 31, "11101": 57,
        "11110": 96, "11111": 1070,
    },
    "ghz4_instruction_errors": {
        "0000": 1445, "0001": 82, "0010": 38, "0011": 21, "0100": 61,
        "0101": 8, "0110": 7, "0111": 44, "1000": 64, "1001": 7, "1010": 5,
        "1011": 53, "1100": 29, "1101": 69, "1110": 80, "1111": 987,
    },
}


class TestSeedReference:
    """:mod:`repro.testing.reference` is the seed engine, bit for bit."""

    @staticmethod
    def _noise(num_qubits: int) -> NoiseModel:
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.02, 1), "h")
        nm.add_gate_error(depolarizing_error(0.04, 2), "cx")
        for q in range(num_qubits):
            nm.add_readout_error(ReadoutError(0.02 + 0.005 * q, 0.04), q)
        return nm

    @pytest.mark.parametrize("num_qubits, seed", [(4, 11), (5, 7)])
    def test_noisy_ghz_counts_pinned(self, num_qubits, seed):
        got = reference.sample_counts(
            ghz_circuit(num_qubits), 3000, noise=self._noise(num_qubits), rng=seed
        )
        assert got.to_dict() == _SEED_ENGINE_COUNTS[f"ghz{num_qubits}"]

    def test_instruction_errors_counts_pinned(self):
        """Duration-dependent idle errors with reset terms, as the device
        executor attaches them, on top of gate and readout noise."""
        extra = {
            1: thermal_relaxation_error(30e-6, 20e-6, 2e-6),
            2: thermal_relaxation_error(30e-6, 20e-6, 3e-6, operand=1),
        }
        got = reference.sample_counts(
            ghz_circuit(4), 3000, noise=self._noise(4), rng=23, instruction_errors=extra
        )
        assert got.to_dict() == _SEED_ENGINE_COUNTS["ghz4_instruction_errors"]

    def test_per_shot_circuits_run_the_production_dense_walk(self):
        """Mid-circuit measurement and reset take the shared per-shot
        walk on the dense engine, so the seeded counts equal the
        production ``"fast"`` engine's."""
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(0, 0)
        qc.reset(0)
        qc.h(0)
        qc.cx(1, 2)
        qc.measure_all()
        nm = self._noise(3)
        want = sample_counts(qc, 400, noise=nm, rng=19)
        got = reference.sample_counts(qc, 400, noise=nm, rng=19)
        assert got.to_dict() == want.to_dict()


class TestMatrixCaching:
    def test_parameterless_matrices_shared_and_frozen(self):
        a = spec("h").matrix()
        b = spec("h").matrix()
        assert a is b
        assert not a.flags.writeable

    def test_parameterized_matrices_cached_per_angle(self):
        a = spec("rz").matrix([0.25])
        b = spec("rz").matrix([0.25])
        c = spec("rz").matrix([0.26])
        assert a is b
        assert a is not c
        np.testing.assert_allclose(a, rz_matrix(0.25), atol=1e-15)

    def test_instruction_matrix_memoized(self):
        qc = QuantumCircuit(1)
        qc.prx(0.3, 0.1, 0)
        inst = qc[0]
        assert inst.matrix() is inst.matrix()
        np.testing.assert_allclose(inst.matrix(), prx_matrix(0.3, 0.1), atol=1e-15)

    def test_cached_matrices_still_correct_in_simulation(self):
        sv = simulate_statevector(ghz_circuit(3, measure=False))
        assert abs(sv.data[0]) == pytest.approx(1 / np.sqrt(2))
        assert abs(sv.data[7]) == pytest.approx(1 / np.sqrt(2))


class TestDiagonalRunFusion:
    """Diagonal-run kernel fusion: adjacent diagonal 1q/2q gates collapse
    into one precomputed elementwise multiply in the dense engine's
    advance path, pinned against unfused application at 1e-12."""

    @staticmethod
    def _random_diag_heavy_circuit(num_qubits, depth, rng):
        qc = QuantumCircuit(num_qubits, name=f"diag{num_qubits}x{depth}")
        for _ in range(depth):
            roll = rng.random()
            if roll < 0.25:
                qc.rz(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(num_qubits)))
            elif roll < 0.4:
                qc.t(int(rng.integers(num_qubits)))
            elif roll < 0.5:
                qc.append("sdg", [int(rng.integers(num_qubits))])
            elif num_qubits >= 2 and roll < 0.62:
                a = int(rng.integers(num_qubits))
                b = int(rng.integers(num_qubits - 1))
                b += b >= a
                qc.cz(a, b)
            elif num_qubits >= 2 and roll < 0.74:
                a = int(rng.integers(num_qubits))
                b = int(rng.integers(num_qubits - 1))
                b += b >= a
                qc.rzz(float(rng.uniform(0, 2 * np.pi)), a, b)
            elif roll < 0.88:
                qc.h(int(rng.integers(num_qubits)))
            else:
                a = int(rng.integers(num_qubits))
                b = int(rng.integers(num_qubits - 1))
                b += b >= a
                qc.cx(a, b)
        return qc

    def test_fused_advance_matches_unfused_1e12(self):
        rng = np.random.default_rng(61)
        for trial in range(12):
            n = int(rng.integers(2, 9))
            qc = self._random_diag_heavy_circuit(n, 60, rng)
            ops = list(qc)
            with engine_mode("fast"):
                fused = DenseEngine(qc)
                fused.advance(ops)
                with unfused():
                    plain = DenseEngine(qc)
                    plain.advance(ops)
            np.testing.assert_allclose(
                fused.to_dense().data, plain.to_dense().data, atol=1e-12
            )

    def test_fusion_matches_generic_reference_1e12(self):
        """Fused fast path vs the baseline generic contraction."""
        rng = np.random.default_rng(67)
        for trial in range(6):
            n = int(rng.integers(2, 8))
            qc = self._random_diag_heavy_circuit(n, 50, rng)
            with engine_mode("fast"):
                fast = simulate_statevector(qc)
                eng = DenseEngine(qc)
                eng.advance(list(qc))
            ref = reference.simulate_statevector(qc)
            np.testing.assert_allclose(eng.to_dense().data, ref.data, atol=1e-12)
            np.testing.assert_allclose(fast.data, ref.data, atol=1e-12)

    def test_run_detection_respects_blockers_and_barriers(self):
        from repro.circuits.dag import diagonal_runs

        qc = QuantumCircuit(3)
        qc.t(0)
        qc.h(1)        # disjoint non-diagonal: does not split the run
        qc.rz(0.3, 2)
        qc.cz(0, 2)
        qc.h(0)        # blocks qubit 0
        qc.t(0)        # must start a new run
        qc.t(1)
        runs = diagonal_runs(qc)
        assert runs == [[0, 2, 3], [5, 6]]
        qc2 = QuantumCircuit(2)
        qc2.t(0)
        qc2.barrier()
        qc2.t(0)
        assert diagonal_runs(qc2) == []  # barrier splits; singletons drop

    def test_apply_diagonal_operand_order_convention(self):
        """diag is indexed little-endian over the operand list, matching
        apply_matrix — including reversed operand order."""
        rng = np.random.default_rng(71)
        vec = random_state(4, rng)
        diag4 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        matrix = np.diag(diag4)
        for qubits in ([1, 3], [3, 1], [2, 0]):
            a = StateVector(4, vec).apply_diagonal(diag4, qubits)
            b = StateVector(4, vec).apply_matrix_generic(matrix, qubits)
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_fusion_in_grouped_sampling_is_invisible(self):
        """Seeded grouped sampling with fusion on vs off: identical
        counts (the fused phases differ only at float rounding)."""
        rng = np.random.default_rng(73)
        qc = self._random_diag_heavy_circuit(6, 40, rng)
        qc.measure_all()
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.03, 1), "h")
        with engine_mode("fast"):
            on = sample_counts(qc, 256, noise=nm, rng=11)
            with unfused():
                off = sample_counts(qc, 256, noise=nm, rng=11)
        assert on.to_dict() == off.to_dict()
