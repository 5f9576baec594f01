"""Batched trajectory execution and process-pool shot sharding.

Two scale-out layers over the grouped trajectory sampler, one contract
each:

* the **batched grouped walk** (`engine_mode("batched")` /
  ``BatchedDenseEngine``) stacks every trajectory group into one
  ``(rows, 2^n)`` array and advances all of them per kernel call — a
  pure performance policy, so seeded counts must be **bit-identical**
  to the scalar ``"fast"`` walk on every workload;
* **shot sharding** (``engine_mode(workers=...)`` /
  :func:`sample_counts_sharded`) splits shots into fixed blocks with
  per-block seed-derived streams — a documented semantics switch whose
  own contract is that **every worker count reproduces the same
  counts** bit for bit.
"""

import numpy as np
import pytest

from helpers.parity import (
    assert_counts_identical,
    counts_under_mode,
    ghz_t as _ghz_t,
    heavy_noise as _heavy_noise,
    light_noise as _noise,
)
from repro.circuits import ghz_circuit
from repro.circuits.circuit import QuantumCircuit
from repro.errors import EngineModeError, SimulationError
from repro.simulator import (
    BatchedDenseEngine,
    BatchedStateVector,
    NoiseModel,
    StateVector,
    current_config,
    depolarizing_error,
    engine_mode,
    sample_counts,
    sample_counts_sharded,
    thermal_relaxation_error,
)
from repro.simulator import sampler as sampler_mod
from repro.simulator import sharding as sharding_mod
from repro.simulator.engines import DenseEngine, select_engine
from repro.simulator.noise import ErrorTerm, QuantumError


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
    """Seeded counts under ``engine_mode("batched")`` must be
    bit-identical to the scalar ``"fast"`` walk: same realization draws,
    same per-group outcome draws in visit order, same readout stream."""

    def _counts(self, qc, mode, seed, noise, shots=512):
        return counts_under_mode(qc, mode, seed, noise=noise, shots=shots)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_ghz_grouped_counts_identical(self, seed):
        qc = ghz_circuit(10)
        fast = self._counts(qc, "fast", seed, _noise())
        batched = self._counts(qc, "batched", seed, _noise())
        assert_counts_identical(fast, batched, context=("batched", seed))

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_heavy_noise_multi_error_counts_identical(self, seed):
        """Heavy noise on GHZ+T: multi-error groups (mid-walk later
        injections) and diagonal-run fusion windows both in play."""
        qc = _ghz_t(8)
        fast = self._counts(qc, "fast", seed, _heavy_noise())
        batched = self._counts(qc, "batched", seed, _heavy_noise())
        assert_counts_identical(fast, batched, context=("batched-heavy", seed))

    def test_thermal_reset_noise_counts_identical(self):
        """Reset-type error terms route through the same injection
        helper in both walks."""
        nm = NoiseModel()
        nm.add_gate_error(thermal_relaxation_error(80.0, 60.0, 25.0), "h")
        nm.add_gate_error(
            QuantumError([ErrorTerm("reset", 0.05)]), "cx"
        )
        qc = ghz_circuit(8)
        fast = self._counts(qc, "fast", 7, nm)
        batched = self._counts(qc, "batched", 7, nm)
        assert fast.to_dict() == batched.to_dict()

    def test_per_shot_circuit_falls_back_identically(self):
        """Mid-circuit reset forces the per-shot path in both modes —
        the batched walk must stay out of the way."""
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.reset(1)
        qc.h(1)
        qc.measure(0)
        qc.measure(1)
        fast = self._counts(qc, "fast", 3, _noise(), shots=256)
        batched = self._counts(qc, "batched", 3, _noise(), shots=256)
        assert fast.to_dict() == batched.to_dict()

    def test_auto_mode_counts_unchanged_by_batched_walk(self):
        """"auto" engages the batched walk on dense routes; its counts
        must equal "fast" (which never batches) on the same workload."""
        qc = ghz_circuit(10)
        # plain dense route under auto: non-Clifford tail, no Clifford
        # 2q prefix structure
        qc_t = _ghz_t(10)
        fast = self._counts(qc_t, "fast", 7, _noise())
        auto = self._counts(qc_t, "auto", 7, _noise())
        if select_engine("auto", qc_t) is select_engine("fast", qc_t):
            assert fast.to_dict() == auto.to_dict()
        del qc

    def test_batched_walk_actually_fires(self, monkeypatch):
        """The parity pins above prove nothing if the batched walk never
        engages — spy on it."""
        calls = []
        real = sampler_mod._grouped_batched_walk

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sampler_mod, "_grouped_batched_walk", spy)
        with engine_mode("batched"):
            sample_counts(ghz_circuit(10), 512, noise=_noise(), rng=7)
        assert calls, "batched walk did not engage on the pinned workload"

    def test_wide_registers_keep_the_scalar_walk_under_dense_sites(
        self, monkeypatch
    ):
        """Beyond the cache-working-set width the batched walk engages
        only in the blocked-wide regime, and only when the realized
        injection sites are sparse enough for the lockstep windows to
        block.  GHZ under per-gate noise has a site at nearly every
        gate, so the walk must disengage — and the scalar fallback is
        the identical code path, so counts match "fast" trivially."""
        wide = ghz_circuit(16)
        engine_cls = select_engine("batched", wide)
        assert issubclass(engine_cls, DenseEngine)
        with engine_mode("batched") as config:
            # without realization data the width alone now allows the
            # blocked-wide regime...
            assert sampler_mod._use_batched_walk(engine_cls, wide, 64, config)
            # ...but in the regime gap (wider than cache-resident, not
            # wider than a sweep tile) the walk always stays scalar...
            from repro.simulator.engines import dense as dense_mod

            gap = ghz_circuit(dense_mod.blocked_tile_qubits(config.batch_max_bytes))
            assert not sampler_mod._use_batched_walk(
                select_engine("batched", gap), gap, 64, config
            )
            # ...and per-gate noise fragments the windows below the
            # engagement threshold, so realization data vetoes it.
            noisy = sampler_mod._noisy_ops(wide, _noise(), {})
            groups = sampler_mod._group_realizations(
                noisy, 128, np.random.default_rng(7)
            )
            ordered = sorted(
                groups.items(), key=lambda kv: kv[0] or ((1 << 30, 0),)
            )
            assert not sampler_mod._use_batched_walk(
                engine_cls, wide, len(ordered), config, ordered=ordered
            )

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("batched walk engaged on site-dense ghz")

        monkeypatch.setattr(sampler_mod, "_grouped_batched_walk", boom)
        fast = self._counts(wide, "fast", 7, _noise(), shots=128)
        batched = self._counts(wide, "batched", 7, _noise(), shots=128)
        assert fast.to_dict() == batched.to_dict()

    def test_batched_engine_registered_and_routed(self):
        from repro.simulator.engines import get_engine

        assert get_engine("batched") is BatchedDenseEngine
        assert select_engine("batched", ghz_circuit(8)) is BatchedDenseEngine
        # wide Clifford still routes to the tableau
        from repro.simulator.engines import TableauEngine

        assert select_engine("batched", ghz_circuit(40)) is get_engine(
            TableauEngine.name
        )


class TestSharding:
    """The sharded stream's one invariant: counts are a function of
    ``(circuit, shots, noise, seed, block_shots)`` alone — never of the
    worker count."""

    @pytest.mark.parametrize("noise_fn", [_noise, _heavy_noise])
    def test_any_worker_count_reproduces_single_worker(self, noise_fn):
        qc = ghz_circuit(10)
        reference = sample_counts_sharded(
            qc, 1000, noise=noise_fn(), seed=7, workers=1
        )
        assert reference.shots == 1000
        for workers in (2, 4):
            counts = sample_counts_sharded(
                qc, 1000, noise=noise_fn(), seed=7, workers=workers
            )
            assert counts.to_dict() == reference.to_dict(), workers

    def test_facade_matches_direct_call(self):
        qc = ghz_circuit(8)
        direct = sample_counts_sharded(qc, 700, noise=_noise(), seed=11, workers=2)
        with engine_mode("fast", workers=2):
            facade = sample_counts(qc, 700, noise=_noise(), rng=11)
        assert facade.to_dict() == direct.to_dict()

    def test_live_generator_rejected(self):
        qc = ghz_circuit(4)
        with pytest.raises(SimulationError, match="int seed or None"):
            sample_counts_sharded(qc, 10, seed=np.random.default_rng(3))
        with engine_mode("fast", workers=2):
            with pytest.raises(SimulationError, match="int seed or None"):
                sample_counts(qc, 10, rng=np.random.default_rng(3))

    def test_invalid_workers_and_shots_rejected(self):
        qc = ghz_circuit(4)
        with pytest.raises(SimulationError, match="workers"):
            sample_counts_sharded(qc, 10, seed=0, workers=0)
        with pytest.raises(SimulationError, match="workers"):
            sample_counts_sharded(qc, 10, seed=0, workers=True)
        with pytest.raises(SimulationError, match="shots"):
            sample_counts_sharded(qc, 0, seed=0)
        with pytest.raises(SimulationError, match="block_shots"):
            sample_counts_sharded(qc, 10, seed=0, block_shots=0)

    def test_block_partition_fixed_and_ragged(self):
        assert sharding_mod._block_sizes(1000, 256) == [256, 256, 256, 232]
        assert sharding_mod._block_sizes(256, 256) == [256]
        assert sharding_mod._block_sizes(5, 256) == [5]

    def test_block_partition_independent_of_workers(self):
        """The partition is a function of (shots, block_shots) only —
        resizing the pool must never move block boundaries, or the
        per-block streams would change."""
        qc = ghz_circuit(6)
        a = sample_counts_sharded(qc, 600, noise=_noise(), seed=3, block_shots=100)
        b = sample_counts_sharded(
            qc, 600, noise=_noise(), seed=3, workers=3, block_shots=100
        )
        assert a.to_dict() == b.to_dict()

    def test_clean_prefix_state_matches_direct_simulation(self):
        qc = ghz_circuit(6)
        # cx-only noise leaves the leading h (and more) as a clean prefix
        nm = NoiseModel()
        nm.add_gate_error(depolarizing_error(0.02, 2), "cx")
        with engine_mode("fast") as config:
            prefix = sharding_mod._clean_prefix_state(qc, nm, {}, config)
        assert prefix is not None
        state, position = prefix
        noisy = sampler_mod._noisy_ops(qc, nm, {})
        assert position == noisy[0][0] > 0
        engine = DenseEngine(qc)
        engine.advance(list(qc)[:position])
        assert np.array_equal(state, engine.to_dense().data)

    def test_clean_prefix_inapplicable_cases(self):
        qc = ghz_circuit(6)
        per_shot = QuantumCircuit(2)
        per_shot.h(0)
        per_shot.reset(1)
        per_shot.measure(0)
        with engine_mode("fast") as config:
            assert (
                sharding_mod._clean_prefix_state(per_shot, _noise(), {}, config)
                is None
            )
            # noise on the very first instruction: nothing to share
            nm = NoiseModel()
            nm.add_gate_error(depolarizing_error(0.01, 1), "h")
            assert sharding_mod._clean_prefix_state(qc, nm, {}, config) is None

    def test_none_seed_still_samples(self):
        counts = sample_counts_sharded(
            ghz_circuit(4), 300, noise=_noise(), seed=None, workers=2
        )
        assert counts.shots == 300

    def test_noiseless_circuit_shards(self):
        qc = ghz_circuit(5)
        a = sample_counts_sharded(qc, 600, seed=9, workers=1)
        b = sample_counts_sharded(qc, 600, seed=9, workers=3)
        assert a.to_dict() == b.to_dict()


class TestEngineModeBatchOptions:
    """Sub-option hygiene for batch_max_bytes / workers: mode-scoped,
    validated before the config changes, restored on exit."""

    def test_batch_min_groups_is_an_unknown_sub_option(self):
        """The batched walk's engagement threshold is a constant now;
        the retired keyword fails like any typo."""
        before = current_config()
        for mode in ("batched", "auto", "fast"):
            with pytest.raises(EngineModeError, match="batch_min_groups"):
                with engine_mode(mode, batch_min_groups=8):
                    pass  # pragma: no cover
        assert current_config() is before

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "two"])
    def test_invalid_values_rejected_before_mutation(self, bad):
        before = current_config()
        with pytest.raises(EngineModeError, match="workers"):
            with engine_mode("fast", workers=bad):
                pass  # pragma: no cover
        assert current_config() is before

    def test_valid_values_applied_and_restored(self):
        before = current_config()
        with engine_mode("batched") as config:
            assert config.workers is None
        with engine_mode("auto", workers=2) as config:
            assert current_config().workers == 2
            assert config.mode == "auto"
        assert current_config() is before

    def test_unknown_option_message_lists_new_sub_options(self):
        with pytest.raises(
            EngineModeError, match="batch_max_bytes, workers, max_state_bytes"
        ):
            with engine_mode("fast", wrokers=2):
                pass  # pragma: no cover

    def test_batch_max_bytes_scoped_to_dense_family_modes(self):
        before = current_config()
        for mode in ("stabilizer", "mps"):
            with pytest.raises(EngineModeError, match="batch_max_bytes"):
                with engine_mode(mode, batch_max_bytes=65536):
                    pass  # pragma: no cover
        assert current_config() is before

    @pytest.mark.parametrize("bad", [0, 1023, -1, True, 1.5, "big"])
    def test_batch_max_bytes_invalid_values_rejected_before_mutation(self, bad):
        before = current_config()
        with pytest.raises(EngineModeError):
            with engine_mode("fast", batch_max_bytes=bad):
                pass  # pragma: no cover
        assert current_config() is before

    def test_batch_max_bytes_applied_and_restored(self):
        before = current_config()
        for mode in ("fast", "batched", "hybrid", "auto"):
            with engine_mode(mode, batch_max_bytes=65536):
                assert current_config().batch_max_bytes == 65536
            assert current_config() is before
        # numpy integers from config code are accepted
        with engine_mode("fast", batch_max_bytes=np.int64(131072)):
            assert current_config().batch_max_bytes == 131072
        assert current_config() is before
