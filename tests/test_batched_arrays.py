"""The batched grouped walk, array-at-a-time.

Three per-row loops of the walk became array operations; each must be
*exact*, not merely close, because seeded counts may not move:

* **realization grouping** — ``sampler._group_realizations`` draws one
  ``(sites, shots)`` array and groups with ``np.unique``; it must return
  the per-shot oracle's dict (:func:`repro.testing.reference.
  group_realizations`) in the same insertion order, from the same stream;
* **per-site injection** — :func:`repro.simulator.batched.inject_site`
  applies every error firing at one site in one call; every row must
  equal per-row :func:`~repro.simulator.engines.dense.inject_into_dense`
  (``np.array_equal``: equal up to the sign of zero);
* **one-draw sampling** — ``BatchedStateVector.sample_outcomes`` samples
  every row from one uniform draw and must reproduce per-row scalar
  sampling, outcomes and stream.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from helpers.parity import scalar_walk
from repro.circuits import ghz_circuit
from repro.circuits.circuit import Instruction
from repro.simulator import (
    BatchedStateVector,
    NoiseModel,
    StateVector,
    depolarizing_error,
    sample_counts,
    thermal_relaxation_error,
)
from repro.simulator import batched as batched_mod
from repro.simulator import sampler as sampler_mod
from repro.simulator.engines import dense as dense_mod
from repro.simulator.noise import ErrorTerm, QuantumError, pauli_error
from repro.testing import reference
from repro.transpiler import transpile


def _random_rows(num_qubits, rows, seed):
    r = np.random.default_rng(seed)
    amps = r.standard_normal((rows, 1 << num_qubits)) + 1j * r.standard_normal(
        (rows, 1 << num_qubits)
    )
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return amps


def _per_row_reference(amps, rows, terms, instruction, error):
    """Per-row ``inject_into_dense`` on scalar copies of *amps*."""
    expected = amps.copy()
    for row, term in zip(rows, terms):
        sv = StateVector(amps.shape[1].bit_length() - 1, expected[row])
        dense_mod.inject_into_dense(sv, instruction, error, term)
        expected[row] = sv.data
    return expected


# ---------------------------------------------------------------------------
# realization grouping
# ---------------------------------------------------------------------------


def _noisy_sites(kind):
    """``(op_index, error)`` lists covering the error families the
    device produces: depolarizing, thermal relaxation (reset terms) and
    ``extra`` idle errors composed onto gate errors."""
    dep1 = depolarizing_error(0.03, 1)
    dep2 = depolarizing_error(0.08, 2)
    thermal = thermal_relaxation_error(40.0, 30.0, 2.0)
    composed = dep2.compose(thermal_relaxation_error(30.0, 20.0, 1.5, operand=1))
    if kind == "depolarizing":
        return [(0, dep1), (2, dep2), (3, dep1), (7, dep2)]
    if kind == "thermal":
        return [(1, thermal), (4, thermal), (5, dep1)]
    return [(0, composed), (3, thermal), (6, dep2.compose(thermal)), (9, dep1)]


class TestGroupRealizations:
    @pytest.mark.parametrize("kind", ["depolarizing", "thermal", "composed"])
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_per_shot_oracle_in_insertion_order(self, kind, seed):
        noisy = _noisy_sites(kind)
        shots = 64 + 37 * seed
        fast_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        fast = sampler_mod._group_realizations(noisy, shots, fast_rng)
        oracle = reference.group_realizations(noisy, shots, oracle_rng)
        assert list(fast.items()) == list(oracle.items())
        # the stream is consumed identically: the next draw agrees
        assert fast_rng.random() == oracle_rng.random()

    def test_pinned_workload_has_first_site_ties_and_multi_error_keys(self):
        """The oracle pin above must see the orderings that matter:
        several groups sharing a first site (visited in insertion order)
        and keys with more than one error."""
        groups = reference.group_realizations(
            _noisy_sites("composed"), 2000, np.random.default_rng(3)
        )
        firsts = [key[0][0] for key in groups if key]
        assert len(firsts) > len(set(firsts))
        assert any(len(key) > 1 for key in groups)

    def test_clean_only_and_noiseless_edges(self):
        rare = [(0, pauli_error([("X", 1e-12)]))]
        for noisy in ([], rare):
            fast = sampler_mod._group_realizations(
                noisy, 100, np.random.default_rng(1)
            )
            oracle = reference.group_realizations(
                noisy, 100, np.random.default_rng(1)
            )
            assert list(fast.items()) == list(oracle.items()) == [((), 100)]

    def test_every_shot_errored(self):
        certain = [(2, pauli_error([("X", 0.5), ("Z", 0.5)]))]
        fast = sampler_mod._group_realizations(certain, 300, np.random.default_rng(4))
        oracle = reference.group_realizations(certain, 300, np.random.default_rng(4))
        assert () not in fast
        assert list(fast.items()) == list(oracle.items())


# ---------------------------------------------------------------------------
# per-site injection
# ---------------------------------------------------------------------------


def _all_label_error(arity):
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=arity)]
    terms = [ErrorTerm("pauli", 1.0 / (2 * len(labels)), pauli=l) for l in labels]
    return QuantumError(terms)


def _operand_sets(num_qubits):
    if num_qubits == 1:
        return [(0,)]
    top = num_qubits - 1
    sets = [(0,), (top,), (0, top), (top, 0), (top // 2 + 1, 0), (1, top)]
    return [qs for qs in sets if len(set(qs)) == len(qs)]


class TestInjectSite:
    @pytest.mark.parametrize("num_qubits", range(1, 14))
    def test_every_pauli_label_matches_per_row_injection(self, num_qubits):
        for qubits in _operand_sets(num_qubits):
            error = _all_label_error(len(qubits))
            instruction = Instruction("id" if len(qubits) == 1 else "cx", qubits)
            count = len(error.terms)
            # contiguous rows (a joining block) and a scattered,
            # unsorted subset (later injections) with repeated terms
            layouts = [
                (list(range(2, 2 + count)), list(range(count))),
                (
                    [count + 3, 0, count + 1, 2],
                    [count - 1, 0, count // 2, count - 1],
                ),
            ]
            for rows, terms in layouts:
                amps = _random_rows(num_qubits, count + 4, seed=num_qubits)
                batch = BatchedStateVector(num_qubits, count + 4, amps)
                batched_mod.inject_site(batch, rows, terms, instruction, error)
                expected = _per_row_reference(amps, rows, terms, instruction, error)
                assert np.array_equal(batch.data, expected), (qubits, rows)

    def test_reset_terms_in_all_three_p1_branches(self):
        """``P(1) ≈ 1`` flips, ``0 < P(1) < 1`` collapses, ``P(1) ≈ 0``
        leaves the row alone — mixed with Pauli rows at one site."""
        n = 4
        error = QuantumError(
            [
                ErrorTerm("reset", 0.1, reset_operand=1),
                ErrorTerm("pauli", 0.1, pauli="YX"),
            ]
        )
        instruction = Instruction("cx", (2, 0))
        amps = _random_rows(n, 6, seed=8)
        one = np.zeros(1 << n, dtype=complex)
        one[0b0001] = 1.0  # qubit 0 (operand 1) is |1>
        zero = np.zeros(1 << n, dtype=complex)
        zero[0b0100] = 1.0  # qubit 0 is |0>
        amps[1], amps[3] = one, zero
        rows, terms = [0, 1, 3, 4, 5], [0, 0, 0, 1, 0]
        batch = BatchedStateVector(n, 6, amps)
        batched_mod.inject_site(batch, rows, terms, instruction, error)
        expected = _per_row_reference(amps, rows, terms, instruction, error)
        assert np.array_equal(batch.data, expected)
        assert batch.data[1, 0] == 1.0  # flipped to |0…0>
        assert np.array_equal(batch.data[3], zero)  # untouched

    def test_short_pauli_on_a_two_qubit_site(self):
        """Thermal-relaxation Paulis on a 2q instruction carry one
        label: only the first operand is hit."""
        error = thermal_relaxation_error(40.0, 30.0, 5.0)
        pauli_terms = [
            i for i, t in enumerate(error.terms) if t.kind == "pauli"
        ]
        instruction = Instruction("cz", (1, 3))
        amps = _random_rows(5, 4, seed=2)
        batch = BatchedStateVector(5, 4, amps)
        rows = [1, 2][: len(pauli_terms)]
        terms = pauli_terms[: len(rows)]
        batched_mod.inject_site(batch, rows, terms, instruction, error)
        expected = _per_row_reference(amps, rows, terms, instruction, error)
        assert np.array_equal(batch.data, expected)


# ---------------------------------------------------------------------------
# one-draw sampling
# ---------------------------------------------------------------------------


class TestSampleOutcomes:
    @pytest.mark.parametrize("num_qubits", [1, 3, 7, 12])
    def test_per_row_shots_match_scalar_sampling(self, num_qubits):
        amps = _random_rows(num_qubits, 5, seed=num_qubits)
        # a near-zero-probability tail and exact zeros exercise ties
        amps[2, 1:] = 0.0
        amps[2, 0] = 1.0
        batch = BatchedStateVector(num_qubits, 5, amps)
        shots = [3, 0, 40, 1, 17]
        outcomes = batch.sample_outcomes(shots, np.random.default_rng(9))
        r = np.random.default_rng(9)
        expected = []
        for row, count in enumerate(shots):
            sv = StateVector(num_qubits, amps[row])
            bits = sv.sample(count, r)
            expected.append((bits.astype(np.int64) << np.arange(num_qubits)).sum(axis=1))
        assert np.array_equal(outcomes, np.concatenate(expected))

    def test_uniform_shots_broadcast(self):
        batch = BatchedStateVector(3, 4, _random_rows(3, 4, seed=1))
        flat = batch.sample_outcomes(25, np.random.default_rng(2))
        assert flat.shape == (100,)
        listed = batch.sample_outcomes([25] * 4, np.random.default_rng(2))
        assert np.array_equal(flat, listed)


# ---------------------------------------------------------------------------
# dispatch count on the quickstart's device job
# ---------------------------------------------------------------------------


class TestDispatchCount:
    def test_native_ghz5_injects_once_per_site_plus_reset_rows(
        self, device, monkeypatch
    ):
        """On the native GHZ-5 device job (thermal relaxation on every
        gate and idle window), each chunk makes one ``inject_site`` call
        per distinct injection site, and per-row scalar injections only
        for ``reset`` terms."""
        sites_calls = []
        scalar_calls = []
        walks = []
        real_site = batched_mod.inject_site
        real_dense = dense_mod.inject_into_dense
        real_walk = sampler_mod._grouped_batched_walk

        def spy_site(batch, rows, terms, instruction, error):
            sites_calls.append(len(rows))
            return real_site(batch, rows, terms, instruction, error)

        def spy_dense(state, instruction, error, term):
            scalar_calls.append(error.terms[term].kind)
            return real_dense(state, instruction, error, term)

        def spy_walk(circuit, shots, ordered, errors, *args, **kwargs):
            walks.append((ordered, errors, args[-1].batch_max_bytes, circuit))
            return real_walk(circuit, shots, ordered, errors, *args, **kwargs)

        monkeypatch.setattr(batched_mod, "inject_site", spy_site)
        monkeypatch.setattr(dense_mod, "inject_into_dense", spy_dense)
        monkeypatch.setattr(sampler_mod, "_grouped_batched_walk", spy_walk)
        native = transpile(
            ghz_circuit(5), device.topology, snapshot=device.calibration()
        ).circuit
        device.execute(native, shots=2048)
        assert len(walks) == 1
        ordered, errors, budget, compact = walks[0]
        noisy = [key for key, _ in ordered if key]
        rows_per_chunk = budget // (16 << compact.num_qubits)
        bound = 0
        resets = 0
        injections = 0
        for start in range(0, len(noisy), rows_per_chunk):
            chunk = noisy[start : start + rows_per_chunk]
            sites = {site for key in chunk for site, _ in key}
            chunk_resets = sum(
                errors[site].terms[term].kind == "reset"
                for key in chunk
                for site, term in key
            )
            bound += len(sites) + chunk_resets
            resets += chunk_resets
            injections += sum(len(key) for key in chunk)
        assert resets > 0, "the workload must exercise reset terms"
        assert len(sites_calls) + len(scalar_calls) <= bound
        assert scalar_calls == ["reset"] * resets
        assert sum(sites_calls) == injections
        # the point of the change: far fewer dispatches than injections
        assert len(sites_calls) < injections


def test_thermal_device_noise_counts_match_scalar_walk():
    """Seeded counts of a thermal-relaxation device-style job are the
    scalar walk's, reset rows included."""
    nm = NoiseModel()
    nm.add_gate_error(thermal_relaxation_error(30.0, 20.0, 2.0), "h")
    nm.add_gate_error(
        depolarizing_error(0.05, 2).compose(
            thermal_relaxation_error(30.0, 20.0, 3.0, operand=1)
        ),
        "cx",
    )
    qc = ghz_circuit(6)
    for seed in range(5):
        batched = sample_counts(qc, 2048, noise=nm, rng=seed)
        with scalar_walk():
            scalar = sample_counts(qc, 2048, noise=nm, rng=seed)
        assert batched.to_dict() == scalar.to_dict(), seed
