"""The bit-packed production tableau: parity with the byte-tableau oracle.

The production :class:`~repro.simulator.stabilizer.Tableau` keeps its
bits in packed words; the one-bit-per-byte tableau it replaced lives on
as the oracle :class:`repro.testing.reference.ByteTableau`.  The
contract is *bit-identity*, not approximation: the same gate sequence
produces the same tableau (compared through ``reference.unpack``), the
same measurement outcomes from the same RNG stream, the same coset
factorization (pivots, basis order, offsets), exactly equal amplitudes,
and therefore the same seeded sampled counts — at 12, 100, and 512
qubits, and against the dense engine wherever it can represent the
state.  These tests pin all of that, plus the popcount phase kernel
against the oracle's scalar ``_g4``.
"""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, ghz_circuit
from repro.errors import EngineModeError, SimulationError
from repro.simulator import (
    CosetSupport,
    HybridSegmentEngine,
    NoiseModel,
    Tableau,
    current_config,
    depolarizing_error,
    engine_mode,
    sample_counts,
)
from repro.simulator.engines import TableauEngine
from repro.simulator.noise import thermal_relaxation_error
from repro.simulator.stabilizer import g4_words, pack_bit_matrix, unpack_bit_matrix
from repro.testing import reference
from repro.testing.reference import ByteCosetSupport, ByteTableau, _g4, pack, unpack
from tests.test_stabilizer import random_clifford_circuit


def assert_same_state(byte_tab: ByteTableau, tab: Tableau, msg=None):
    """The production tableau unpacks to exactly the byte one."""
    u = unpack(tab)
    assert np.array_equal(byte_tab.x, u.x), msg
    assert np.array_equal(byte_tab.z, u.z), msg
    assert np.array_equal(byte_tab.r, u.r), msg


def byte_counts(qc, shots, *, noise=None, rng=None):
    """Seeded counts of the byte tableau on the production walks."""
    return reference.sample_counts_tableau(qc, shots, noise=noise, rng=rng)


def prod_counts(qc, shots, *, noise=None, rng=None):
    """Seeded counts of the production tableau route."""
    with engine_mode("stabilizer"):
        return sample_counts(qc, shots, noise=noise, rng=rng)


def _ghz_noise():
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.01, 2), "cx")
    nm.add_gate_error(depolarizing_error(0.005, 1), "h")
    return nm


# ---------------------------------------------------------------------------
# popcount phase kernel
# ---------------------------------------------------------------------------


class TestG4Words:
    def test_exhaustive_single_position(self):
        """All 16 single-qubit Pauli pairs match the scalar g function."""
        for case in range(16):
            x1, z1, x2, z2 = (case >> 3) & 1, (case >> 2) & 1, (case >> 1) & 1, case & 1
            want = int(
                _g4(*(np.array([v]) for v in (x1, z1, x2, z2)))[0]
            ) % 4
            got = int(
                g4_words(*(np.array([v], dtype="<u8") for v in (x1, z1, x2, z2)))
            )
            assert want == got, case

    def test_random_vectors_across_word_boundaries(self):
        rng = np.random.default_rng(0)
        for n in (1, 7, 63, 64, 65, 127, 128, 200):
            for _ in range(10):
                x1, z1, x2, z2 = rng.integers(0, 2, (4, n)).astype(np.uint8)
                want = int(_g4(x1, z1, x2, z2).sum()) % 4
                got = int(
                    g4_words(
                        *(pack_bit_matrix(v[None, :])[0] for v in (x1, z1, x2, z2))
                    )
                )
                assert want == got, n

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(1)
        for k in (1, 63, 64, 65, 130):
            bits = rng.integers(0, 2, (5, k)).astype(np.uint8)
            assert np.array_equal(unpack_bit_matrix(pack_bit_matrix(bits), k), bits)

    def test_popcount_lut_fallback_matches_active_kernel(self):
        """The byte-LUT popcount (the NumPy<2.0 fallback) agrees with
        whichever kernel the module selected at import."""
        from repro.simulator.stabilizer import (
            _popcount_last_axis,
            _popcount_last_axis_lut,
        )

        rng = np.random.default_rng(3)
        for shape in ((4,), (3, 7), (5, 2)):
            words = rng.integers(0, 1 << 63, size=shape, dtype=np.uint64).astype("<u8")
            assert np.array_equal(
                _popcount_last_axis(words), _popcount_last_axis_lut(words)
            ), shape


# ---------------------------------------------------------------------------
# tableau-level parity
# ---------------------------------------------------------------------------


def _run_both(n, qc):
    """*qc* applied to a fresh byte tableau and a fresh production one."""
    t, p = ByteTableau(n), Tableau(n)
    for inst in qc:
        t.apply_instruction(inst)
        p.apply_instruction(inst)
    return t, p


class TestPackedTableauParity:
    def test_initial_state_and_adapters(self):
        for n in (1, 5, 64, 130):
            t, p = ByteTableau(n), Tableau(n)
            assert_same_state(t, p)
            assert_same_state(t, pack(t))

    def test_random_clifford_circuits_identical_tableaux(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            t, p = _run_both(n, random_clifford_circuit(n, 40, rng))
            assert_same_state(t, p, trial)
            assert_same_state(t, pack(t), trial)

    def test_gate_parity_across_word_boundary(self):
        """Widths straddling the 64-bit word boundary keep exact parity."""
        rng = np.random.default_rng(13)
        for n in (63, 64, 65):
            t, p = _run_both(n, random_clifford_circuit(n, 120, rng))
            assert_same_state(t, p, n)

    def test_pauli_injection_parity(self):
        rng = np.random.default_rng(17)
        t, p = _run_both(6, random_clifford_circuit(6, 30, rng))
        for pauli, qs in (("X", [0]), ("ZZ", [1, 4]), ("IXYZ", [0, 2, 3, 5])):
            t.apply_pauli(pauli, qs)
            p.apply_pauli(pauli, qs)
            assert_same_state(t, p, pauli)

    def test_measure_reset_collapse_parity(self):
        """Seeded measurement/reset sequences: same outcomes, same RNG
        consumption, same post-collapse tableaux."""
        rng = np.random.default_rng(23)
        for trial in range(12):
            n = int(rng.integers(2, 7))
            t, _ = _run_both(n, random_clifford_circuit(n, 3 * n, rng))
            p = pack(t)
            r1 = np.random.default_rng(trial)
            r2 = np.random.default_rng(trial)
            for q in range(n):
                assert t.measure(q, r1) == p.measure(q, r2), (trial, q)
                assert_same_state(t, p, (trial, q))
            t.reset(0, r1)
            p.reset(0, r2)
            assert_same_state(t, p, trial)
            # both consumed the same number of draws
            assert r1.random() == r2.random()

    def test_error_injection_through_engine_protocol(self):
        """inject() on the tableau engine behaves identically for both
        tableaux, including the thermal-reset collapse branch."""
        from repro.simulator.engines.tableau import inject_into_tableau

        err = thermal_relaxation_error(30e-6, 20e-6, 5e-6).compose(
            depolarizing_error(0.3, 1)
        )
        qc = ghz_circuit(5, measure=False)
        inst = qc.instructions[0]  # h on qubit 0
        for term_index in range(len(err.terms)):
            t = ByteTableau(5).apply("h", [0]).apply("cx", [0, 1])
            p = pack(t)
            st = inject_into_tableau(t, inst, err, term_index)
            sp = inject_into_tableau(p, inst, err, term_index)
            assert st == sp, term_index
            assert_same_state(t, p, term_index)

    def test_expectation_parity(self):
        rng = np.random.default_rng(29)
        for trial in range(6):
            n = int(rng.integers(2, 8))
            t, p = _run_both(n, random_clifford_circuit(n, 4 * n, rng))
            for _ in range(20):
                pauli = "".join(rng.choice(list("IXYZ"), n))
                assert t.expectation_pauli(pauli, range(n)) == p.expectation_pauli(
                    pauli, range(n)
                ), (trial, pauli)
            assert t.expectation_z(range(n)) == p.expectation_z(range(n))

    def test_conversion_adapters_match_unpacked(self):
        """Amplitudes, dense state and probabilities equal the oracle's
        exactly — same indices, same floats, not merely close."""
        rng = np.random.default_rng(19)
        cases = [ByteTableau(4).apply("h", [0]).apply("cx", [0, 1]).apply("s", [2])]
        for n in (1, 3, 6, 9):
            cases.append(_run_both(n, random_clifford_circuit(n, 5 * n, rng))[0])
        for t in cases:
            p = pack(t)
            ti, ta = t.coset_amplitudes()
            pi, pa = p.coset_amplitudes()
            assert np.array_equal(ti, pi)
            assert np.array_equal(ta, pa)
            assert np.array_equal(t.to_statevector().data, p.to_statevector().data)
            assert np.array_equal(t.probabilities(), p.probabilities())

    def test_coset_amplitudes_exact_at_the_packing_limit(self):
        rng = np.random.default_rng(20)
        for n in (30, 62):
            qc = ghz_circuit(n, measure=False)
            for q in rng.choice(n, 6, replace=False):
                qc.h(int(q))
                qc.s(int(q))
            t, p = _run_both(n, qc)
            ti, ta = t.coset_amplitudes()
            pi, pa = p.coset_amplitudes()
            assert np.array_equal(ti, pi) and np.array_equal(ta, pa), n
        with pytest.raises(SimulationError, match="62-qubit"):
            Tableau(63).coset_amplitudes()

    def test_coset_amplitudes_with_shared_support_exact(self):
        """A support shared across Pauli-flipped copies — the hybrid
        engine's trajectory groups — is used, not ignored, and gives
        the oracle's amplitudes exactly."""
        rng = np.random.default_rng(21)
        for trial in range(8):
            n = int(rng.integers(2, 9))
            t0, p0 = _run_both(n, random_clifford_circuit(n, 4 * n, rng))
            byte_support, support = ByteCosetSupport(t0), CosetSupport(p0)
            offsets = support.offset_words
            used = []
            support.offset_words = lambda signs: used.append(1) or offsets(signs)
            for _ in range(4):
                pauli = "".join(rng.choice(list("IXYZ"), n))
                t = t0.copy().apply_pauli(pauli, range(n))
                p = p0.copy().apply_pauli(pauli, range(n))
                ti, ta = t.coset_amplitudes(byte_support)
                pi, pa = p.coset_amplitudes(support)
                assert np.array_equal(ti, pi), (trial, pauli)
                assert np.array_equal(ta, pa), (trial, pauli)
                fi, fa = p.coset_amplitudes()
                assert np.array_equal(fi, pi) and np.array_equal(fa, pa)
            assert len(used) == 4, trial

    def test_validation_errors(self):
        p = Tableau(3)
        with pytest.raises(SimulationError):
            p.apply("t", [0])
        with pytest.raises(SimulationError):
            p.apply("h", [7])
        with pytest.raises(SimulationError):
            p.apply_pauli("Q", [0])
        with pytest.raises(SimulationError):
            Tableau(0)
        p.apply("h", [1])
        before = unpack(p)
        with pytest.raises(SimulationError, match="operands must be distinct"):
            p.apply("cx", [1, 1])
        assert_same_state(before, p)  # rejected before any mutation
        p.sample(4, np.random.default_rng(0))  # still a valid state

    def test_sample_honours_the_statevector_contract(self):
        p = Tableau(3).apply("h", [0]).apply("cx", [0, 1])
        assert p.sample(0, np.random.default_rng(0)).shape == (0, 3)
        assert p.sample(0, np.random.default_rng(0), qubits=[2]).shape == (0, 1)
        for bad in ([5], [-1]):
            with pytest.raises(SimulationError, match="out of range"):
                p.sample(4, np.random.default_rng(0), qubits=bad)


# ---------------------------------------------------------------------------
# coset factorization parity
# ---------------------------------------------------------------------------


class TestPackedCosetSupport:
    def test_factorization_matches_unpacked(self):
        rng = np.random.default_rng(31)
        for n in (3, 12, 63, 65, 100):
            t, _ = _run_both(n, random_clifford_circuit(n, 3 * n, rng))
            p = pack(t)
            su, sp = ByteCosetSupport(t), CosetSupport(p)
            assert su.dimension == sp.dimension, n
            if sp.dimension:
                assert np.array_equal(
                    su.basis, unpack_bit_matrix(sp.basis_words, n)
                ), n
            want = su.offset(t.r[n:])
            got = unpack_bit_matrix(
                sp.offset_words(p._signs_words())[None, :], n
            )[0]
            assert np.array_equal(want, got), n

    def test_sample_bits_identical(self):
        rng = np.random.default_rng(37)
        for n in (3, 12, 65):
            t, _ = _run_both(n, random_clifford_circuit(n, 3 * n, rng))
            p = pack(t)
            bu = t.sample(96, np.random.default_rng(5), support=ByteCosetSupport(t))
            bp = p.sample(96, np.random.default_rng(5), support=CosetSupport(p))
            assert np.array_equal(bu, bp), n
            # qubit selection applies the same column contract
            qs = [n - 1, 0]
            bu = t.sample(17, np.random.default_rng(8), qubits=qs)
            bp = p.sample(17, np.random.default_rng(8), qubits=qs)
            assert np.array_equal(bu, bp), n


# ---------------------------------------------------------------------------
# end-to-end seeded counts
# ---------------------------------------------------------------------------


class TestSeededCountsBitExact:
    @pytest.mark.parametrize("num_qubits,shots", [(12, 256), (100, 512), (512, 96)])
    def test_ghz_counts_identical_both_impls(self, num_qubits, shots):
        qc = ghz_circuit(num_qubits)
        a = byte_counts(qc, shots, noise=_ghz_noise(), rng=7)
        b = prod_counts(qc, shots, noise=_ghz_noise(), rng=7)
        assert a.to_dict() == b.to_dict()

    def test_random_clifford_counts_identical_both_impls(self):
        rng = np.random.default_rng(43)
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.02, 1), "h")
        nm.add_gate_error(depolarizing_error(0.02, 2), "cx")
        for trial in range(6):
            n = int(rng.integers(2, 8))
            qc = random_clifford_circuit(n, 25, rng, measure=True)
            seed = int(rng.integers(1 << 30))
            a = byte_counts(qc, 192, noise=nm, rng=seed)
            b = prod_counts(qc, 192, noise=nm, rng=seed)
            assert a.to_dict() == b.to_dict(), trial

    def test_thermal_reset_noise_identical_both_impls(self):
        nm = NoiseModel()
        nm.add_gate_error(thermal_relaxation_error(30e-6, 20e-6, 5e-6), "h")
        nm.add_gate_error(
            thermal_relaxation_error(30e-6, 20e-6, 5e-6, operand=1).compose(
                depolarizing_error(0.02, 2)
            ),
            "cx",
        )
        qc = ghz_circuit(8)
        for seed in (1, 5):
            a = byte_counts(qc, 256, noise=nm, rng=seed)
            b = prod_counts(qc, 256, noise=nm, rng=seed)
            assert a.to_dict() == b.to_dict(), seed

    def test_per_shot_path_identical_both_impls(self):
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
            a = byte_counts(qc, 192, noise=nm, rng=seed)
            b = prod_counts(qc, 192, noise=nm, rng=seed)
            assert a.to_dict() == b.to_dict(), seed

    def test_packed_matches_dense_engine_exactly(self):
        """The full dense-parity contract holds for the packed tableau:
        seeded Clifford counts are bit-identical to the dense engine."""
        qc = ghz_circuit(12)
        with engine_mode("fast"):
            dense = sample_counts(qc, 384, noise=_ghz_noise(), rng=9)
        packed = prod_counts(qc, 384, noise=_ghz_noise(), rng=9)
        assert dense.to_dict() == packed.to_dict()


# ---------------------------------------------------------------------------
# one tableau everywhere
# ---------------------------------------------------------------------------


class TestImplementationPolicy:
    def test_engine_mode_rejects_bad_impl_before_mutation(self):
        """``tableau_impl`` is gone: asking for it is an unknown
        sub-option, rejected before the config changes."""
        before = current_config()
        for impl in ("packed", "unpacked", "bogus"):
            with pytest.raises(EngineModeError, match="unknown engine_mode sub-option"):
                with engine_mode("stabilizer", tableau_impl=impl):
                    pass  # pragma: no cover
            assert current_config() is before

    def test_auto_policy_picks_packed_above_threshold(self):
        """Both tableau-backed engines build the one packed tableau on
        either side of the retired 64-qubit threshold."""
        for n in (8, 63, 64, 65):
            qc = ghz_circuit(n, measure=False)
            assert type(TableauEngine(qc)._tab) is Tableau
            assert type(HybridSegmentEngine(qc)._tab) is Tableau

    def test_fork_preserves_packed_independence(self):
        eng = TableauEngine(ghz_circuit(70, measure=False))
        eng.advance(list(ghz_circuit(70, measure=False)))
        fork = eng.fork()
        fork._tab.apply_pauli("X", [0])
        assert eng._tab._r != fork._tab._r
        assert eng._tab._xc == fork._tab._xc  # structure shared by value
