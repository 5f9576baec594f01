"""Tests for the trajectory-grouped shot sampler.

The key validation: the grouped fast path agrees statistically with (a)
the exact density-matrix evolution, and (b) the slow per-shot path.
"""

import numpy as np
import pytest

from helpers.parity import ghz_t, heavy_noise
from repro.circuits import QuantumCircuit, bell_circuit, ghz_circuit
from repro.errors import SimulationError
from repro.simulator import (
    Counts,
    NoiseModel,
    ReadoutError,
    depolarizing_error,
    pauli_error,
    sample_counts,
    simulate_density,
)
from repro.simulator.sampler import _needs_per_shot, ideal_probabilities


class TestNoiselessSampling:
    def test_bell_distribution(self):
        counts = sample_counts(bell_circuit(), 40_000, rng=0)
        probs = counts.probabilities()
        assert probs.get("00", 0) == pytest.approx(0.5, abs=0.01)
        assert probs.get("11", 0) == pytest.approx(0.5, abs=0.01)

    def test_deterministic_with_seed(self):
        a = sample_counts(ghz_circuit(3), 100, rng=5)
        b = sample_counts(ghz_circuit(3), 100, rng=5)
        assert a.to_dict() == b.to_dict()

    def test_no_measurements_raises(self):
        with pytest.raises(SimulationError):
            sample_counts(ghz_circuit(2, measure=False), 10)

    def test_zero_shots_raises(self):
        with pytest.raises(SimulationError):
            sample_counts(ghz_circuit(2), 0)

    def test_partial_measurement_unmeasured_bits_zero(self):
        qc = QuantumCircuit(3)
        qc.x(0)
        qc.x(2)
        qc.measure(0)
        counts = sample_counts(qc, 50, rng=0)
        assert counts.most_frequent() == "001"  # only bit 0 recorded


class TestIdealProbabilities:
    def test_bell(self):
        probs = ideal_probabilities(bell_circuit())
        assert probs == pytest.approx({"00": 0.5, "11": 0.5})

    def test_clbit_remapping(self):
        qc = QuantumCircuit(2, num_clbits=2)
        qc.x(0)
        qc.measure(0, 1)  # qubit 0 into clbit 1
        probs = ideal_probabilities(qc)
        assert probs == pytest.approx({"10": 1.0})


class TestPerShotDetection:
    def test_terminal_measures_grouped(self):
        assert not _needs_per_shot(ghz_circuit(4))

    def test_reset_forces_per_shot(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.reset(0)
        qc.measure(0)
        assert _needs_per_shot(qc)

    def test_gate_after_measure_forces_per_shot(self):
        qc = QuantumCircuit(1)
        qc.measure(0)
        qc.x(0)
        qc.measure(0)
        assert _needs_per_shot(qc)


class TestNoisySampling:
    def test_bit_flip_rate_matches_analytic(self):
        """X error with prob p after state prep flips the outcome."""
        qc = QuantumCircuit(1)
        qc.id(0)
        qc.measure(0)
        nm = NoiseModel()
        nm.add_gate_error(pauli_error([("X", 0.15)]), "id")
        counts = sample_counts(qc, 40_000, noise=nm, rng=1)
        assert counts.probabilities().get("1", 0) == pytest.approx(0.15, abs=0.01)

    def test_grouped_matches_density_matrix(self):
        """Sampled GHZ-3 distribution ≈ exact noisy density matrix."""
        qc = ghz_circuit(3)
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.05, 2), "cx")
        counts = sample_counts(qc, 60_000, noise=nm, rng=2)
        rho = simulate_density(qc, nm)
        exact = rho.probabilities()
        for basis in range(8):
            key = format(basis, "03b")
            assert counts.probabilities().get(key, 0.0) == pytest.approx(
                exact[basis], abs=0.01
            )

    def test_readout_error_applied(self):
        qc = QuantumCircuit(1)
        qc.measure(0)
        nm = NoiseModel()
        nm.add_readout_error(ReadoutError(0.2, 0.0), 0)
        counts = sample_counts(qc, 30_000, noise=nm, rng=3)
        assert counts.probabilities().get("1", 0) == pytest.approx(0.2, abs=0.01)

    def test_reset_error_depopulates(self):
        """A 'reset' error term drives the qubit to |0⟩."""
        qc = QuantumCircuit(1)
        qc.x(0)
        qc.measure(0)
        nm = NoiseModel()
        from repro.simulator.noise import ErrorTerm, QuantumError

        nm.add_gate_error(QuantumError([ErrorTerm("reset", 0.3)]), "x")
        counts = sample_counts(qc, 30_000, noise=nm, rng=4)
        assert counts.probabilities().get("0", 0) == pytest.approx(0.3, abs=0.01)

    def test_per_shot_path_with_noise(self):
        """Mid-circuit reset circuit still honours gate noise."""
        qc = QuantumCircuit(1)
        qc.x(0)
        qc.reset(0)
        qc.x(0)
        qc.measure(0)
        nm = NoiseModel()
        nm.add_gate_error(pauli_error([("X", 0.1)]), "x")
        counts = sample_counts(qc, 4000, noise=nm, rng=5)
        # the reset erases whatever the first x (and its error) did; only
        # the final x's error matters: P(1) = 1 − 0.1
        p1 = counts.probabilities().get("1", 0)
        assert p1 == pytest.approx(0.9, abs=0.02)

    def test_instruction_errors_extra(self):
        qc = QuantumCircuit(1)
        qc.id(0)
        qc.measure(0)
        extra = {0: pauli_error([("X", 0.25)])}
        counts = sample_counts(qc, 30_000, rng=6, instruction_errors=extra)
        assert counts.probabilities().get("1", 0) == pytest.approx(0.25, abs=0.01)

    def test_grouped_vs_per_shot_consistency(self):
        """Force the per-shot path via a trailing reset on an ancilla and
        compare against the grouped path on the equivalent circuit."""
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.08, 1), "h")
        grouped_qc = QuantumCircuit(1)
        grouped_qc.h(0)
        grouped_qc.measure(0)
        per_shot_qc = QuantumCircuit(2)
        per_shot_qc.h(0)
        per_shot_qc.measure(0)
        per_shot_qc.reset(1)  # forces per-shot machinery
        g = sample_counts(grouped_qc, 30_000, noise=nm, rng=7)
        p = sample_counts(per_shot_qc, 6000, noise=nm, rng=8).marginal([0])
        assert g.total_variation_distance(p) < 0.02


class TestSuffixCheckpoints:
    """Suffix-checkpoint reuse between trajectory groups that share more
    than the clean prefix: RNG streams and visit order are untouched, so
    seeded counts equal a full replay of every group, on every engine.

    The digests were recorded with the reuse switched on and off (the
    two agreed on every case) before the switch was removed; each is the
    SHA-256 of the sorted ``(bitstring, count)`` pairs of 512 shots
    under :func:`heavy_noise`."""

    PINNED = {
        ("fast", 0):
            "d2363b2ea4cbae7750fb3f49e364d1f86fc2dd0ff7daa85520e61e94f814ae42",
        ("fast", 7):
            "2c1b3cb447331ec1ac910c01c3b8d4324e085f502ee30c56f7e421b3ca9086c7",
        ("fast", 123):
            "29bf23cc9220396533ba5b87b4ae441e574bfa6352d047119e05c914fc521f41",
        ("hybrid", 0):
            "d2363b2ea4cbae7750fb3f49e364d1f86fc2dd0ff7daa85520e61e94f814ae42",
        ("hybrid", 7):
            "2c1b3cb447331ec1ac910c01c3b8d4324e085f502ee30c56f7e421b3ca9086c7",
        ("hybrid", 123):
            "29bf23cc9220396533ba5b87b4ae441e574bfa6352d047119e05c914fc521f41",
        ("stabilizer", 0):
            "275a95c9f405b77a01f2c616c2aacad995ed890477b978f045017f40422c0055",
        ("stabilizer", 7):
            "df14839c6a5a2cde7ca5e331440d96afefe5b12902772e83e2b9f7ab2d313aee",
        ("stabilizer", 123):
            "cf117802ab70bb3d7f1a9e463af7877e43d603ef9e7bcea8b3f0301bff252a1d",
        ("mps", 0):
            "d2363b2ea4cbae7750fb3f49e364d1f86fc2dd0ff7daa85520e61e94f814ae42",
        ("mps", 7):
            "2c1b3cb447331ec1ac910c01c3b8d4324e085f502ee30c56f7e421b3ca9086c7",
        ("mps", 123):
            "29bf23cc9220396533ba5b87b4ae441e574bfa6352d047119e05c914fc521f41",
    }

    def test_seeded_counts_match_recorded_digests(self):
        import hashlib
        import json

        from repro.simulator import engine_mode

        circuits = {
            "fast": ghz_t(8),
            "hybrid": ghz_t(8),
            "stabilizer": ghz_circuit(10),
            "mps": ghz_t(8),
        }
        for (mode, seed), digest in self.PINNED.items():
            with engine_mode(mode):
                counts = sample_counts(
                    circuits[mode], 512, noise=heavy_noise(), rng=seed
                )
            payload = json.dumps(sorted(counts.to_dict().items()))
            got = hashlib.sha256(payload.encode()).hexdigest()
            assert got == digest, (mode, seed)

    def test_checkpoints_actually_fire(self):
        """The workload above must contain consecutive groups sharing a
        leading injection — otherwise the parity test proves nothing."""
        from repro.simulator import sampler as sampler_mod

        qc = ghz_t(8)
        noisy = sampler_mod._noisy_ops(qc, heavy_noise(), {})
        groups = sampler_mod._group_realizations(
            noisy, 512, np.random.default_rng(7)
        )
        end = len(list(qc))
        ordered = sorted(
            groups.items(), key=lambda kv: kv[0][0][0] if kv[0] else end
        )
        shared = sum(
            1
            for i in range(len(ordered) - 1)
            if ordered[i][0]
            and ordered[i + 1][0]
            and ordered[i][0][:1] == ordered[i + 1][0][:1]
        )
        assert shared >= 5
