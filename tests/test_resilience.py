"""Fault-tolerant execution: recovery, admission control, degradation.

Four contracts are pinned here, end to end:

1. **Crash recovery is bit-identical.**  The recovery matrix runs the
   sharded sampler under every fault shape (a killed worker, a poisoned
   block, a pool whose every worker dies, a missing shared-memory
   segment) at several worker counts and asserts the recovered counts
   equal an unfaulted ``workers=1`` run bit for bit — the block-stream
   contract (``child_rng(seed, "shard", i)``) makes this possible; the
   recovery driver makes it actual.
2. **Admission control rejects before allocation.**  An oversized dense
   request raises a structured ``ResourceAdmissionError`` without the
   engine ever being instantiated, and the budget is scoped via
   ``engine_mode(max_state_bytes=...)``.
3. **Degradation is recorded, not silent.**  ``run_with_fallback`` walks
   the declared ladder on admission failure and MPS truncation, and
   every hop lands on the result and in the resilience counters.
4. **The harness itself is deterministic** — firing budgets, ordinal
   matching, worker-only scoping — because the recovery suite is only
   as trustworthy as its fault injector.
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from helpers.parity import assert_counts_identical, counts_under_mode, ghz_t
from repro.circuits import ghz_circuit
from repro.errors import (
    EngineModeError,
    FaultInjected,
    ResourceAdmissionError,
    SimulationError,
)
from repro.simulator import (
    FALLBACK_CHAINS,
    ExecutionConfig,
    NoiseModel,
    current_config,
    depolarizing_error,
    engine_mode,
    resilience,
    run_with_fallback,
    sample_counts,
)
from repro.simulator import sharding
from repro.simulator.engines.dense import DenseEngine
from repro.simulator.resilience import (
    DEFAULT_MAX_STATE_BYTES,
    check_admission,
    estimate_resources,
)
from repro.simulator.sharding import SharedPrefix, sample_counts_sharded
from repro.testing import Fault, fault_point, inject_faults
from repro.testing import faults as faults_mod


@pytest.fixture(autouse=True)
def _fresh_counters():
    resilience.reset_counters()
    yield
    resilience.reset_counters()


@pytest.fixture
def fast_backoff(monkeypatch):
    """Zero the rebuild backoff so the recovery matrix stays fast."""
    monkeypatch.setattr(sharding, "REBUILD_BACKOFF_BASE", 0.0)


def cx_noise() -> NoiseModel:
    """Noise on ``cx`` only: the leading ``h`` stays clean, so the
    sharded driver publishes a shared prefix segment."""
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.02, 2), "cx")
    return nm


# ---------------------------------------------------------------------------
# the recovery matrix (tentpole acceptance)
# ---------------------------------------------------------------------------

#: fault name -> factory for the specs the scenario arms.  Factories,
#: not instances: each armed plan needs fresh cross-process budgets.
FAULT_SPECS = {
    "worker-kill": lambda: (
        Fault("shard.block", action="kill", index=1, times=1, worker_only=True),
    ),
    "block-exception": lambda: (
        Fault("shard.block", action="raise", index=1, times=1, worker_only=True),
    ),
    "broken-pool": lambda: (
        Fault("shard.init", action="kill", times=None, worker_only=True),
    ),
    "shm-missing": lambda: (
        Fault("shard.attach", action="raise", times=None, worker_only=True),
    ),
}

_RECOVERY_SHOTS = 700  # three blocks: 256 + 256 + 188
_RECOVERY_SEED = 5

_clean_reference_cache = {}


def _clean_reference():
    """The unfaulted ``workers=1`` counts every scenario must reproduce
    (computed once; the matrix re-derives only the faulted side)."""
    if "counts" not in _clean_reference_cache:
        _clean_reference_cache["counts"] = sample_counts_sharded(
            ghz_t(6),
            _RECOVERY_SHOTS,
            noise=cx_noise(),
            seed=_RECOVERY_SEED,
            workers=1,
        )
    return _clean_reference_cache["counts"]


@pytest.mark.faults
class TestRecoveryMatrix:
    @pytest.mark.parametrize("fault_name", sorted(FAULT_SPECS))
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_recovered_counts_bit_identical(self, workers, fault_name, fast_backoff):
        with inject_faults(*FAULT_SPECS[fault_name]()):
            faulted = sample_counts_sharded(
                ghz_t(6),
                _RECOVERY_SHOTS,
                noise=cx_noise(),
                seed=_RECOVERY_SEED,
                workers=workers,
            )
        assert_counts_identical(
            _clean_reference(), faulted, context=(fault_name, workers)
        )

    def test_worker_kill_at_four_workers_is_acceptance_pin(self, fast_backoff):
        """The ISSUE's acceptance criterion, spelled out on its own:
        ``workers=4`` with one worker killed mid-run reproduces the
        unfaulted ``workers=1`` counts bit for bit."""
        with inject_faults(*FAULT_SPECS["worker-kill"]()):
            faulted = sample_counts_sharded(
                ghz_t(6),
                _RECOVERY_SHOTS,
                noise=cx_noise(),
                seed=_RECOVERY_SEED,
                workers=4,
            )
        assert_counts_identical(_clean_reference(), faulted, context="acceptance")

    def test_worker_kill_rebuilds_pool_once(self, fast_backoff):
        with inject_faults(*FAULT_SPECS["worker-kill"]()):
            sample_counts_sharded(
                ghz_t(6),
                _RECOVERY_SHOTS,
                noise=cx_noise(),
                seed=_RECOVERY_SEED,
                workers=4,
            )
        counters = resilience.counters()
        assert counters["retries"] >= 1
        assert counters["pool_rebuilds"] == 1
        assert counters["inline_fallbacks"] == 0

    def test_broken_pool_exhausts_rebuilds_then_runs_inline(self, fast_backoff):
        """Every worker dies in its initializer, twice over: the rebuild
        budget is spent and the stragglers run inline — yet counts are
        still bit-identical (asserted by the matrix above)."""
        with inject_faults(*FAULT_SPECS["broken-pool"]()):
            sample_counts_sharded(
                ghz_t(6),
                _RECOVERY_SHOTS,
                noise=cx_noise(),
                seed=_RECOVERY_SEED,
                workers=2,
            )
        counters = resilience.counters()
        assert counters["pool_rebuilds"] == sharding.MAX_POOL_REBUILDS
        assert counters["inline_fallbacks"] == 3  # every block fell inline

    def test_shm_missing_degrades_without_recovery_machinery(self, fast_backoff):
        """A worker that cannot attach the prefix segment recomputes the
        prefix itself — graceful degradation, not a pool failure, so no
        retries/rebuilds are recorded."""
        with inject_faults(*FAULT_SPECS["shm-missing"]()):
            sample_counts_sharded(
                ghz_t(6),
                _RECOVERY_SHOTS,
                noise=cx_noise(),
                seed=_RECOVERY_SEED,
                workers=2,
            )
        counters = resilience.counters()
        assert counters["retries"] == 0
        assert counters["pool_rebuilds"] == 0
        assert counters["inline_fallbacks"] == 0

    def test_block_timeout_abandons_pool_and_finishes_inline(self, fast_backoff):
        """A hung worker: the per-block timeout expires, the pool is
        abandoned (no rebuild — a hung pool cannot be trusted), and the
        remaining blocks run inline with identical counts."""
        with inject_faults(
            Fault(
                "shard.block",
                action="hang",
                index=0,
                times=1,
                worker_only=True,
                delay=5.0,
            )
        ):
            faulted = sample_counts_sharded(
                ghz_t(6),
                _RECOVERY_SHOTS,
                noise=cx_noise(),
                seed=_RECOVERY_SEED,
                workers=2,
                block_timeout=0.5,
            )
        assert_counts_identical(_clean_reference(), faulted, context="timeout")
        counters = resilience.counters()
        assert counters["inline_fallbacks"] >= 1
        assert counters["pool_rebuilds"] == 0

    def test_recovery_sweep(self, faults_deep, fast_backoff):
        """The seed sweep: deep mode widens it (``--faults-deep``)."""
        seeds = (11, 12, 13) if faults_deep else (11,)
        for seed in seeds:
            clean = sample_counts_sharded(
                ghz_t(5), 600, noise=cx_noise(), seed=seed, workers=1
            )
            for fault_name, spec in sorted(FAULT_SPECS.items()):
                with inject_faults(*spec()):
                    faulted = sample_counts_sharded(
                        ghz_t(5), 600, noise=cx_noise(), seed=seed, workers=4
                    )
                assert_counts_identical(clean, faulted, context=(fault_name, seed))


# ---------------------------------------------------------------------------
# shared-memory lifecycle (satellite: the leak window)
# ---------------------------------------------------------------------------


@pytest.mark.faults
class TestSharedPrefixLifecycle:
    def _assert_last_segment_unlinked(self):
        name = sharding._LAST_SEGMENT_NAME
        assert name is not None, "run never published a prefix segment"
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_segment_unlinked_after_clean_run(self):
        sample_counts_sharded(
            ghz_t(5), 600, noise=cx_noise(), seed=3, workers=2
        )
        self._assert_last_segment_unlinked()

    def test_segment_unlinked_after_mid_run_fault(self, fast_backoff):
        """The leak window the context-managed owner closes: a fault
        between the pool run and the merge used to strand the segment."""
        with inject_faults(Fault("shard.merge", action="raise")):
            with pytest.raises(FaultInjected):
                sample_counts_sharded(
                    ghz_t(5), 600, noise=cx_noise(), seed=3, workers=2
                )
        self._assert_last_segment_unlinked()

    def test_close_is_idempotent(self):
        state = np.zeros(8, dtype=np.complex128)
        state[0] = 1.0
        prefix = SharedPrefix(state)
        prefix.close()
        prefix.close()  # second close must be a no-op, not a crash
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=prefix.name)

    def test_worker_attach_verifies_digest(self):
        """A corrupted segment degrades to recompute-per-block
        (``_WORKER_PREFIX = None``) instead of sampling from garbage."""
        state = np.zeros(8, dtype=np.complex128)
        state[0] = 1.0
        saved = (sharding._WORKER_PREFIX, sharding._WORKER_SHM)
        try:
            with SharedPrefix(state) as segment:
                shm = shared_memory.SharedMemory(name=segment.name)
                shm.buf[sharding._DIGEST_BYTES] ^= 0xFF  # tear the payload
                shm.close()
                sharding._init_worker(segment.name, 3, 1)
                assert sharding._WORKER_PREFIX is None
        finally:
            sharding._WORKER_PREFIX, sharding._WORKER_SHM = saved

    def test_worker_attach_accepts_intact_segment(self):
        state = np.arange(8, dtype=np.complex128)
        saved = (sharding._WORKER_PREFIX, sharding._WORKER_SHM)
        try:
            with SharedPrefix(state) as segment:
                sharding._init_worker(segment.name, 3, 4)
                assert sharding._WORKER_PREFIX is not None
                attached, position = sharding._WORKER_PREFIX
                assert position == 4
                np.testing.assert_array_equal(np.array(attached, copy=True), state)
                assert not attached.flags.writeable
        finally:
            # Drop the view before the handle so GC can close the
            # segment mapping (closing with a live export would raise).
            attached = None
            sharding._WORKER_PREFIX, sharding._WORKER_SHM = saved

    def test_worker_attach_degrades_on_missing_segment(self):
        saved = (sharding._WORKER_PREFIX, sharding._WORKER_SHM)
        try:
            sharding._init_worker("repro_no_such_segment", 3, 1)
            assert sharding._WORKER_PREFIX is None
        finally:
            sharding._WORKER_PREFIX, sharding._WORKER_SHM = saved


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_oversize_dense_rejected_before_any_allocation(self, monkeypatch):
        """The ISSUE's second acceptance pin: a 30-qubit dense request
        (a ~48 GiB state) fails structurally — the engine is never even
        instantiated."""
        instantiated = []
        original = DenseEngine.__init__

        def tracking_init(self, *args, **kwargs):
            instantiated.append(True)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DenseEngine, "__init__", tracking_init)
        with engine_mode("fast"):
            with pytest.raises(ResourceAdmissionError) as excinfo:
                sample_counts(ghz_t(30), 16, rng=1)
        err = excinfo.value
        assert err.engine == "dense"
        assert err.num_qubits == 30
        assert err.requested_bytes == 3 * (16 << 30)
        assert err.budget_bytes == DEFAULT_MAX_STATE_BYTES
        assert err.requested_bytes > err.budget_bytes
        assert not instantiated, "admission must run before engine allocation"
        assert resilience.counters()["admission_rejects"] == 1

    def test_sharded_path_rejects_before_forking(self):
        with engine_mode("fast"):
            with pytest.raises(ResourceAdmissionError):
                sample_counts_sharded(ghz_t(30), 64, seed=1, workers=4)

    def test_expectation_path_rejects_too(self):
        from repro.simulator.engines import prepare_engine

        with engine_mode("fast"):
            with pytest.raises(ResourceAdmissionError):
                prepare_engine(ghz_t(30))

    def test_historical_widths_admit_everywhere(self):
        """The default budget is calibrated so every width the stack
        could already serve still admits — 26-qubit dense exactly."""
        qc = ghz_t(4)
        for mode in ("fast", "batched", "stabilizer", "hybrid", "mps", "auto"):
            estimate = check_admission(qc, mode)
            assert estimate.peak_bytes is not None
            assert estimate.peak_bytes <= DEFAULT_MAX_STATE_BYTES

    def test_wide_clifford_routes_past_the_dense_gate(self):
        """A 50-qubit Clifford circuit under ``stabilizer`` lands on the
        tableau, whose polynomial footprint admits trivially."""
        qc = ghz_circuit(50, measure=True)
        estimate = check_admission(qc, "stabilizer")
        assert estimate.engine == "tableau"
        assert estimate.peak_bytes == 2 * (4 * 50 * 50 + 2 * 50)

    def test_estimate_formulas(self):
        qc = ghz_t(10)
        config = ExecutionConfig()

        dense = estimate_resources(qc, "fast")
        assert dense.engine == "dense"
        assert dense.peak_bytes == 3 * (16 << 10)
        batched = estimate_resources(qc, "batched")
        assert batched.peak_bytes == dense.peak_bytes + config.batch_max_bytes
        mps = estimate_resources(qc, "mps")
        assert mps.peak_bytes == 2 * 10 * (2 * config.chi * config.chi * 16)
        # the estimates read the request's config, not the defaults
        narrow = ExecutionConfig(chi=4, batch_max_bytes=4096)
        assert estimate_resources(qc, "mps", config=narrow).peak_bytes == (
            2 * 10 * (2 * 4 * 4 * 16)
        )
        assert estimate_resources(qc, "batched", config=narrow).peak_bytes == (
            dense.peak_bytes + 4096
        )

    def test_engine_without_estimate_admits_unconditionally(self):
        silent = type(
            "SilentEngine",
            (),
            {
                "name": "silent",
                "estimate_peak_bytes": classmethod(lambda cls, c, config: None),
            },
        )
        estimate = check_admission(ghz_t(30), "fast", engine_cls=silent)
        assert estimate.peak_bytes is None
        assert resilience.counters()["admission_rejects"] == 0


class TestMaxStateBytesFacade:
    def test_budget_tightens_and_restores(self):
        qc = ghz_t(4)
        with engine_mode("fast", max_state_bytes=1):
            assert current_config().max_state_bytes == 1
            with pytest.raises(ResourceAdmissionError) as excinfo:
                sample_counts(qc, 16, rng=1)
            assert excinfo.value.budget_bytes == 1
        assert current_config().max_state_bytes == DEFAULT_MAX_STATE_BYTES
        counts = sample_counts(qc, 16, rng=1)  # admits again after restore
        assert counts.shots == 16

    def test_budget_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with engine_mode("fast", max_state_bytes=64):
                raise RuntimeError("boom")
        assert current_config().max_state_bytes == DEFAULT_MAX_STATE_BYTES

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5])
    def test_budget_validates_value(self, bad):
        with pytest.raises(EngineModeError, match="max_state_bytes"):
            with engine_mode("fast", max_state_bytes=bad):
                pass

    def test_failed_validation_leaves_budget_untouched(self):
        before = current_config()
        with pytest.raises(EngineModeError):
            with engine_mode("fast", max_state_bytes=0):
                pass
        assert current_config() is before


# ---------------------------------------------------------------------------
# the graceful-degradation ladder
# ---------------------------------------------------------------------------


class TestFallbackLadder:
    def test_no_degradation_records_no_hops(self):
        qc = ghz_t(4)
        result = run_with_fallback(qc, 64, seed=3, mode="fast")
        assert result.mode == "fast"
        assert result.hops == ()
        assert_counts_identical(
            result.counts, counts_under_mode(qc, "fast", 3, shots=64)
        )
        assert resilience.counters()["engine_fallbacks"] == 0

    def test_oversize_dense_degrades_to_mps(self):
        """30 qubits under ``fast``: dense fails admission, the ladder
        hops to the bounded-memory MPS, and the request completes."""
        result = run_with_fallback(ghz_t(30), 64, seed=3, mode="fast")
        assert result.mode == "mps"
        assert len(result.hops) == 1
        hop = result.hops[0]
        assert (hop.from_mode, hop.to_mode) == ("fast", "mps")
        assert hop.reason.startswith("admission:")
        assert result.counts.shots == 64
        assert resilience.counters()["engine_fallbacks"] == 1
        assert resilience.counters()["admission_rejects"] == 1

    def test_truncated_mps_escalates_to_exact_engine(self):
        """ROADMAP item 5's auto-escalation: an MPS whose bond cap
        truncates (chi=1 cannot hold a GHZ state) discards its lossy
        counts and escalates to an exact mode."""
        qc = ghz_t(6)
        with engine_mode("mps", chi=1):
            result = run_with_fallback(qc, 64, seed=3)
        assert result.mode == "hybrid"
        assert len(result.hops) == 1
        assert result.hops[0].reason.startswith("truncation:")
        assert_counts_identical(
            result.counts, counts_under_mode(qc, "hybrid", 3, shots=64)
        )
        assert resilience.counters()["engine_fallbacks"] == 1

    def test_exhausted_chain_propagates_admission_error(self):
        with engine_mode("fast", max_state_bytes=1):
            with pytest.raises(ResourceAdmissionError):
                run_with_fallback(ghz_t(4), 16, seed=1, mode="fast")
        # every chain step burned one hop except the last, which raised
        assert resilience.counters()["engine_fallbacks"] == len(
            FALLBACK_CHAINS["fast"]
        )

    def test_live_generator_seed_rejected(self):
        with pytest.raises(SimulationError, match="int seed or None"):
            run_with_fallback(
                ghz_t(4), 16, seed=np.random.default_rng(1), mode="fast"
            )

    def test_unrelated_warnings_survive_the_recording_context(self, monkeypatch):
        """The ladder records warnings to spot truncation; everything
        else must be replayed, not swallowed."""
        import warnings as _warnings

        from repro.simulator import sampler as sampler_mod

        qc = ghz_t(4)
        original = sampler_mod.sample_counts

        def warning_sample(*args, **kwargs):
            _warnings.warn("probe escaped")
            return original(*args, **kwargs)

        monkeypatch.setattr(sampler_mod, "sample_counts", warning_sample)
        with pytest.warns(UserWarning, match="probe escaped"):
            run_with_fallback(qc, 8, seed=1, mode="fast")

    def test_chains_are_declared_data(self):
        """The ladder is data, pinned: operators read it from the
        module, docs quote it, tests freeze it."""
        assert FALLBACK_CHAINS == {
            "fast": ("mps",),
            "batched": ("fast", "mps"),
            "stabilizer": ("fast", "mps"),
            "hybrid": ("mps",),
            "mps": ("hybrid", "fast"),
            "auto": ("mps", "hybrid"),
        }


# ---------------------------------------------------------------------------
# resilience counters & telemetry surface
# ---------------------------------------------------------------------------


class TestCounters:
    def test_count_and_reset(self):
        resilience.count_event("retries")
        resilience.count_event("retries", 2)
        resilience.count_event("engine_fallbacks")
        snapshot = resilience.counters()
        assert snapshot["retries"] == 3
        assert snapshot["engine_fallbacks"] == 1
        assert snapshot["pool_rebuilds"] == 0
        resilience.reset_counters()
        assert all(v == 0 for v in resilience.counters().values())

    def test_snapshot_is_a_copy(self):
        snapshot = resilience.counters()
        snapshot["retries"] = 999
        assert resilience.counters()["retries"] == 0

    def test_counter_names_match_sensor_contract(self):
        assert resilience.COUNTER_NAMES == (
            "retries",
            "pool_rebuilds",
            "inline_fallbacks",
            "admission_rejects",
            "engine_fallbacks",
        )


# ---------------------------------------------------------------------------
# the fault harness itself
# ---------------------------------------------------------------------------


class TestFaultHarness:
    def test_unknown_action_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            Fault("p", action="explode")

    def test_disarmed_points_are_free(self):
        assert faults_mod.ACTIVE is None
        fault_point("anything")  # no plan armed: must be a no-op

    def test_times_budget_limits_firings(self):
        with inject_faults(Fault("p", times=2, index=None)):
            with pytest.raises(FaultInjected):
                fault_point("p")
            with pytest.raises(FaultInjected):
                fault_point("p")
            fault_point("p")  # budget spent: silent

    def test_unlimited_budget(self):
        with inject_faults(Fault("p", times=None)):
            for _ in range(5):
                with pytest.raises(FaultInjected):
                    fault_point("p")

    def test_point_name_must_match(self):
        with inject_faults(Fault("p")):
            fault_point("q")
            with pytest.raises(FaultInjected):
                fault_point("p")

    def test_explicit_context_index(self):
        with inject_faults(Fault("p", index=3, times=None)):
            fault_point("p", 1)
            fault_point("p", 2)
            with pytest.raises(FaultInjected):
                fault_point("p", 3)

    def test_ordinal_matching_without_context_index(self):
        """Points with no natural index match the 1-based call ordinal:
        'fail the 2nd call'."""
        with inject_faults(Fault("p", index=2)):
            fault_point("p")  # 1st call: no fire
            with pytest.raises(FaultInjected):
                fault_point("p")  # 2nd call: fires

    def test_worker_only_never_fires_in_parent(self):
        with inject_faults(Fault("p", worker_only=True, times=None)):
            fault_point("p")  # this test runs in the parent process

    def test_hang_action_sleeps_then_returns(self):
        start = time.monotonic()
        with inject_faults(Fault("p", action="hang", delay=0.05)):
            fault_point("p")
        assert time.monotonic() - start >= 0.05

    def test_plans_nest_and_restore(self):
        with inject_faults(Fault("outer")) as outer:
            assert faults_mod.ACTIVE is outer
            with inject_faults(Fault("inner")) as inner:
                assert faults_mod.ACTIVE is inner
                fault_point("outer")  # outer plan is shadowed
            assert faults_mod.ACTIVE is outer
        assert faults_mod.ACTIVE is None

    def test_plan_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with inject_faults(Fault("p")):
                raise RuntimeError("boom")
        assert faults_mod.ACTIVE is None

    def test_injected_error_is_distinguishable(self):
        """FaultInjected is its own type so recovery tests can tell an
        injected failure from a genuine defect."""
        from repro.errors import ReproError

        assert issubclass(FaultInjected, ReproError)
        assert not issubclass(FaultInjected, SimulationError)

    def test_arming_resets_budgets(self):
        fault_spec = Fault("p", times=1)
        with inject_faults(fault_spec):
            with pytest.raises(FaultInjected):
                fault_point("p")
        with inject_faults(fault_spec):  # re-armed: budget is fresh
            with pytest.raises(FaultInjected):
                fault_point("p")

    def test_non_sharded_sampler_has_injection_points(self):
        """``engine.span`` sits inside the grouped walk, so even the
        single-process sampler is fault-drivable."""
        with inject_faults(Fault("engine.span", index=0, times=1)):
            with pytest.raises(FaultInjected):
                sample_counts(ghz_t(4), 64, noise=cx_noise(), rng=1)

    def test_admission_check_has_injection_point(self):
        with inject_faults(Fault("resilience.admission")):
            with pytest.raises(FaultInjected):
                check_admission(ghz_t(4), "fast")
