"""Batched trajectory execution.

The **batched grouped walk** (``BatchedStateVector`` /
``sampler._grouped_batched_walk``, taken by every dense route where
enough groups fit the working-set budget) stacks every trajectory group
into one ``(rows, 2^n)`` array and advances all of them per kernel call
— a pure performance choice, so seeded counts must be
**bit-identical** to the scalar walk on every workload.
"""

import numpy as np
import pytest

from helpers.parity import (
    DENSE_FAST,
    SCALAR_FAST,
    assert_counts_identical,
    counts_under_mode,
    engine_route,
    ghz_t as _ghz_t,
    heavy_noise as _heavy_noise,
    light_noise as _noise,
    scalar_walk,
)
from repro.circuits import brickwork_circuit, ghz_circuit
from repro.circuits.circuit import QuantumCircuit
from repro.errors import EngineModeError
from repro.simulator import (
    BatchedStateVector,
    ExecutionConfig,
    NoiseModel,
    StateVector,
    current_config,
    depolarizing_error,
    engine_mode,
    sample_counts,
    thermal_relaxation_error,
)
from repro.simulator import sampler as sampler_mod
from repro.simulator.engines import DenseEngine, select_engine
from repro.simulator.noise import ErrorTerm, QuantumError
from repro.transpiler import transpile


def _random_batch(num_qubits, rows, seed):
    """A batch of normalized random states plus per-row scalar clones."""
    r = np.random.default_rng(seed)
    batch = BatchedStateVector(num_qubits, rows)
    scalars = []
    for i in range(rows):
        amps = r.standard_normal(1 << num_qubits) + 1j * r.standard_normal(
            1 << num_qubits
        )
        amps /= np.linalg.norm(amps)
        sv = StateVector(num_qubits)
        sv._data[:] = amps
        batch.set_row(i, amps)
        scalars.append(sv)
    return batch, scalars


class TestBatchedStateVectorUnits:
    """The batched container must reproduce the scalar kernels row for
    row — same arithmetic, same order, bit-identical amplitudes."""

    def test_initial_state_is_all_zeros_ket(self):
        batch = BatchedStateVector(3, 4)
        assert batch.data.shape == (4, 8)
        assert np.array_equal(batch.norms(), np.ones(4))
        assert np.array_equal(batch.data[:, 0], np.ones(4))

    @pytest.mark.parametrize("gate,qubits", [
        ("h", [0]),
        ("h", [2]),
        ("t", [1]),
        ("x", [3]),
        ("y", [0]),
        ("cx", [1, 3]),
        ("cx", [3, 0]),
        ("cz", [0, 2]),
        ("swap", [1, 2]),
    ])
    def test_apply_matrix_matches_scalar_rows_bitwise(self, gate, qubits):
        from repro.circuits.gates import spec

        matrix = spec(gate).matrix()
        batch, scalars = _random_batch(4, 5, seed=11)
        batch.apply_matrix(matrix, qubits)
        for sv in scalars:
            sv.apply_matrix(matrix, qubits)
        for i, sv in enumerate(scalars):
            assert np.array_equal(batch.data[i], sv._data), (gate, i)

    def test_apply_diagonal_matches_scalar_rows_bitwise(self):
        diag = np.exp(1j * np.array([0.0, 0.3, 0.7, 1.1]))
        batch, scalars = _random_batch(4, 3, seed=5)
        batch.apply_diagonal(diag, [3, 1])
        for sv in scalars:
            sv.apply_diagonal(diag, [3, 1])
        for i, sv in enumerate(scalars):
            assert np.array_equal(batch.data[i], sv._data)

    def test_marginal_and_collapse_match_scalar(self):
        batch, scalars = _random_batch(3, 4, seed=9)
        probs = batch.marginal_probability_one(1)
        for i, sv in enumerate(scalars):
            assert probs[i] == pytest.approx(sv.marginal_probability_one(1))
        outcomes = np.array([0, 1, 0, 1])
        batch.collapse(1, outcomes)
        for i, sv in enumerate(scalars):
            sv.collapse(1, int(outcomes[i]))
            np.testing.assert_allclose(batch.data[i], sv._data, atol=1e-12)

    def test_sample_matches_scalar_stream_bitwise(self):
        """Row-by-row sampling must consume the RNG exactly as the
        scalar states would in visit order — the walk's parity hinges
        on it."""
        batch, scalars = _random_batch(3, 4, seed=2)
        bits = batch.sample(50, np.random.default_rng(42), [2, 0, 1])
        r = np.random.default_rng(42)
        for i, sv in enumerate(scalars):
            expected = sv.sample(50, r, [2, 0, 1])
            assert np.array_equal(bits[i], expected)

    def test_cdfs_end_at_one(self):
        batch, _ = _random_batch(4, 3, seed=1)
        cdfs = batch.cdfs()
        assert np.array_equal(cdfs[:, -1], np.ones(3))
        assert np.all(np.diff(cdfs, axis=1) >= 0)

    def test_narrow_and_row_views_alias_storage(self):
        batch = BatchedStateVector(2, 4)
        narrowed = batch.narrow(2)
        assert np.shares_memory(narrowed.data, batch.data)
        view = batch.row_view(1)
        view.apply_matrix(np.array([[0, 1], [1, 0]], dtype=complex), [0])
        assert batch.data[1, 1] == 1.0  # mutated through the view
        # store_row after an in-place mutation is a no-op copy
        batch.store_row(1, view)
        assert batch.data[1, 1] == 1.0

    def test_store_row_copies_rebound_state(self):
        batch = BatchedStateVector(1, 2)
        sv = StateVector(1)
        sv._data = np.array([0.0, 1.0], dtype=complex)  # rebound storage
        batch.store_row(0, sv)
        assert batch.data[0, 1] == 1.0


class TestBatchedWalkParity:
    """Seeded counts from the batched grouped walk (which ``"fast"``
    held on the dense engine, :data:`DENSE_FAST`, takes by itself on
    these cache-resident workloads) must be bit-identical to the scalar
    walk (:data:`SCALAR_FAST`): same realization draws, same per-group
    outcome draws in visit order, same readout stream."""

    def _counts(self, qc, mode, seed, noise, shots=512):
        return counts_under_mode(qc, mode, seed, noise=noise, shots=shots)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_ghz_grouped_counts_identical(self, seed):
        qc = ghz_circuit(10)
        scalar = self._counts(qc, SCALAR_FAST, seed, _noise())
        batched = self._counts(qc, DENSE_FAST, seed, _noise())
        assert_counts_identical(scalar, batched, context=("batched", seed))

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_heavy_noise_multi_error_counts_identical(self, seed):
        """Heavy noise on GHZ+T: multi-error groups (mid-walk later
        injections) and diagonal-run fusion windows both in play."""
        qc = _ghz_t(8)
        scalar = self._counts(qc, SCALAR_FAST, seed, _heavy_noise())
        batched = self._counts(qc, DENSE_FAST, seed, _heavy_noise())
        assert_counts_identical(scalar, batched, context=("batched-heavy", seed))

    def test_thermal_reset_noise_counts_identical(self):
        """Reset-type error terms route through the same injection
        helper in both walks."""
        nm = NoiseModel()
        nm.add_gate_error(thermal_relaxation_error(80.0, 60.0, 25.0), "h")
        nm.add_gate_error(
            QuantumError([ErrorTerm("reset", 0.05)]), "cx"
        )
        qc = ghz_circuit(8)
        scalar = self._counts(qc, SCALAR_FAST, 7, nm)
        batched = self._counts(qc, DENSE_FAST, 7, nm)
        assert scalar.to_dict() == batched.to_dict()

    def test_per_shot_circuit_falls_back_identically(self):
        """Mid-circuit reset forces the per-shot path — the batched walk
        must stay out of the way."""
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.reset(1)
        qc.h(1)
        qc.measure(0)
        qc.measure(1)
        scalar = self._counts(qc, SCALAR_FAST, 3, _noise(), shots=256)
        batched = self._counts(qc, DENSE_FAST, 3, _noise(), shots=256)
        assert scalar.to_dict() == batched.to_dict()

    def test_auto_mode_counts_unchanged_by_batched_walk(self):
        """"auto" takes the batched walk on its dense routes too; its
        counts must equal the scalar walk on the same workload."""
        # plain dense route under auto: non-Clifford tail, no Clifford
        # 2q prefix structure
        qc_t = _ghz_t(10)
        scalar = self._counts(qc_t, SCALAR_FAST, 7, _noise())
        auto = self._counts(qc_t, "auto", 7, _noise())
        if select_engine("auto", qc_t) is select_engine("fast", qc_t):
            assert scalar.to_dict() == auto.to_dict()

    def test_batched_walk_actually_fires(self, monkeypatch):
        """The parity pins above prove nothing if the default config
        never takes the batched walk, or if the forced-scalar side does
        — spy on it."""
        calls = []
        real = sampler_mod._grouped_batched_walk

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sampler_mod, "_grouped_batched_walk", spy)
        with engine_route("dense"):
            sample_counts(ghz_circuit(10), 512, noise=_noise(), rng=7)
        assert calls, "batched walk did not engage on the pinned workload"
        calls.clear()
        with engine_route("dense"), scalar_walk():
            sample_counts(ghz_circuit(10), 512, noise=_noise(), rng=7)
        assert not calls, "the forced-scalar side still took the batched walk"

    def test_wide_registers_keep_the_scalar_walk_under_dense_sites(
        self, monkeypatch
    ):
        """Beyond the cache-working-set width the batched walk never
        engages, whatever the group count: a chunk of 16 stacked
        16-qubit states is 16 MiB against the 2 MiB default budget.
        The scalar walk is then the only path, so counts equal the
        forced-scalar side trivially."""
        wide = ghz_circuit(16)
        engine_cls = select_engine("fast", wide)
        assert issubclass(engine_cls, DenseEngine)
        config = current_config()
        assert not sampler_mod._use_batched_walk(engine_cls, wide, 1 << 20, config)
        narrow = ghz_circuit(13)  # the widest register 16 rows fit at 2 MiB
        assert sampler_mod._use_batched_walk(engine_cls, narrow, 4, config)
        assert not sampler_mod._use_batched_walk(engine_cls, narrow, 3, config)

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("batched walk engaged on a 16-qubit register")

        monkeypatch.setattr(sampler_mod, "_grouped_batched_walk", boom)
        scalar = self._counts(wide, SCALAR_FAST, 7, _noise(), shots=128)
        default = self._counts(wide, DENSE_FAST, 7, _noise(), shots=128)
        assert scalar.to_dict() == default.to_dict()

    def test_default_config_routes_compact_device_jobs_to_the_batched_walk(
        self, device, monkeypatch
    ):
        """The quickstart's device job (native GHZ-5, compacted to its
        five active qubits, 2048 shots) takes the batched walk under the
        default config; a 16-qubit device job never does."""
        widths = []
        real = sampler_mod._grouped_batched_walk

        def spy(circuit, *args, **kwargs):
            widths.append(circuit.num_qubits)
            return real(circuit, *args, **kwargs)

        monkeypatch.setattr(sampler_mod, "_grouped_batched_walk", spy)
        assert current_config() == ExecutionConfig()

        def native_ghz(n):
            return transpile(
                ghz_circuit(n), device.topology, snapshot=device.calibration()
            ).circuit

        device.execute(native_ghz(5), shots=2048)
        assert widths == [5]
        widths.clear()
        device.execute(native_ghz(16), shots=64)
        assert widths == []

    def test_every_batch_fits_the_working_set_budget(self, monkeypatch):
        """No batch the walk allocates exceeds ``batch_max_bytes`` —
        that budget is all admission control adds for the walk.  The
        brickwork register is wider than a sweep tile at this budget,
        where a blocked-wide regime once stacked rows past it."""
        budget = 64 * 1024
        allocations = []
        real_init = BatchedStateVector.__init__

        def spy(self, num_qubits, rows, data=None):
            allocations.append((num_qubits, rows))
            real_init(self, num_qubits, rows, data)

        monkeypatch.setattr(BatchedStateVector, "__init__", spy)
        sparse = NoiseModel()
        sparse.add_gate_error(depolarizing_error(0.002, 2), "cz")
        sparse.add_gate_error(depolarizing_error(0.001, 1), "ry")
        dense_noise = NoiseModel()
        dense_noise.add_gate_error(depolarizing_error(0.05, 2), "cz")
        dense_noise.add_gate_error(depolarizing_error(0.02, 1), "ry")
        with engine_mode("auto", batch_max_bytes=budget):
            for qc, noise in (
                (brickwork_circuit(12, 12, seed=3), sparse),
                (brickwork_circuit(6, 8, seed=3), dense_noise),
            ):
                assert issubclass(select_engine("auto", qc), DenseEngine)
                sample_counts(qc, 256, noise=noise, rng=11)
        assert allocations, "the narrow workload must take the batched walk"
        for num_qubits, rows in allocations:
            assert rows * 16 * (1 << num_qubits) <= budget, (num_qubits, rows)


class TestEngineModeBatchOptions:
    """Sub-option hygiene for batch_max_bytes: mode-scoped, validated
    before the config changes, restored on exit."""

    def test_batch_min_groups_is_an_unknown_sub_option(self):
        """The batched walk's engagement threshold is a constant now;
        the retired keyword fails like any typo."""
        before = current_config()
        for mode in ("auto", "fast"):
            with pytest.raises(EngineModeError, match="batch_min_groups"):
                with engine_mode(mode, batch_min_groups=8):
                    pass  # pragma: no cover
        assert current_config() is before

    def test_unknown_option_message_lists_new_sub_options(self):
        with pytest.raises(
            EngineModeError, match="batch_max_bytes, max_state_bytes, trace"
        ):
            with engine_mode("fast", wrokers=2):
                pass  # pragma: no cover

    def test_batch_max_bytes_scoped_to_dense_family_modes(self):
        before = current_config()
        with pytest.raises(EngineModeError, match="batch_max_bytes"):
            with engine_mode("mps", batch_max_bytes=65536):
                pass  # pragma: no cover
        assert current_config() is before

    def test_batched_mode_is_gone(self):
        """The walk's form is not a mode: the old ``"batched"`` mode
        fails like any unknown one, before the config changes."""
        from repro.simulator.engines import engine_registry

        before = current_config()
        with pytest.raises(EngineModeError, match="unknown engine mode 'batched'"):
            with engine_mode("batched"):
                pass  # pragma: no cover
        assert current_config() is before
        assert "batched" not in engine_registry()

    @pytest.mark.parametrize("bad", [0, 1023, -1, True, 1.5, "big"])
    def test_batch_max_bytes_invalid_values_rejected_before_mutation(self, bad):
        before = current_config()
        with pytest.raises(EngineModeError):
            with engine_mode("fast", batch_max_bytes=bad):
                pass  # pragma: no cover
        assert current_config() is before

    def test_batch_max_bytes_applied_and_restored(self):
        before = current_config()
        for mode in ("fast", "auto"):
            with engine_mode(mode, batch_max_bytes=65536):
                assert current_config().batch_max_bytes == 65536
            assert current_config() is before
        # numpy integers from config code are accepted
        with engine_mode("fast", batch_max_bytes=np.int64(131072)):
            assert current_config().batch_max_bytes == 131072
        assert current_config() is before
