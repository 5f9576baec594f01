"""Fault-tolerant execution: admission control and degradation.

Three contracts are pinned here, end to end:

1. **Admission control rejects before allocation.**  An oversized dense
   request raises a structured ``ResourceAdmissionError`` without the
   engine ever being instantiated, and the budget is scoped via
   ``engine_mode(max_state_bytes=...)``.
2. **Degradation is recorded, not silent.**  ``run_with_fallback`` walks
   the declared ladder on admission failure and MPS truncation, and
   every hop lands on the result and in the resilience counters.
3. **The harness itself is deterministic** — firing budgets, ordinal
   matching, nesting — because the failure tests are only as
   trustworthy as their fault injector; its injection points sit in the
   grouped walk (``engine.span``) and admission
   (``resilience.admission``).
"""

from __future__ import annotations

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
from repro.simulator.engines.dense import DenseEngine
from repro.simulator.resilience import (
    DEFAULT_MAX_STATE_BYTES,
    check_admission,
    estimate_resources,
)
from repro.testing import Fault, fault_point, inject_faults
from repro.testing import faults as faults_mod


@pytest.fixture(autouse=True)
def _fresh_counters():
    resilience.reset_counters()
    yield
    resilience.reset_counters()


def cx_noise() -> NoiseModel:
    """Noise on ``cx`` only."""
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.02, 2), "cx")
    return nm


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

    def test_expectation_path_rejects_too(self):
        from repro.simulator.engines import prepare_engine

        with engine_mode("fast"):
            with pytest.raises(ResourceAdmissionError):
                prepare_engine(ghz_t(30))

    def test_historical_widths_admit_everywhere(self):
        """The default budget is calibrated so every width the stack
        could already serve still admits — 26-qubit dense exactly."""
        qc = ghz_t(4)
        for mode in ("fast", "stabilizer", "hybrid", "mps", "auto"):
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

        # 10 qubits: 16 stacked rows fit the default budget, so the
        # batched walk can engage and its working set is counted.
        dense = estimate_resources(qc, "fast")
        assert dense.engine == "dense"
        assert dense.peak_bytes == 3 * (16 << 10) + config.batch_max_bytes
        mps = estimate_resources(qc, "mps")
        assert mps.peak_bytes == 2 * 10 * (2 * config.chi * config.chi * 16)
        # the estimates read the request's config, not the defaults: at
        # a 4 KiB budget the walk cannot engage at 10 qubits
        narrow = ExecutionConfig(chi=4, batch_max_bytes=4096)
        assert estimate_resources(qc, "mps", config=narrow).peak_bytes == (
            2 * 10 * (2 * 4 * 4 * 16)
        )
        assert estimate_resources(qc, "fast", config=narrow).peak_bytes == (
            3 * (16 << 10)
        )
        # the hybrid route never batches: its dense bound is the states
        hybrid = estimate_resources(qc, "hybrid")
        assert hybrid.engine == "hybrid"
        assert hybrid.peak_bytes == 3 * (16 << 10)
        # 26 qubits: no batch budget on top, so the dense limit still
        # admits exactly under the default budget
        wide = check_admission(ghz_t(26), "fast")
        assert wide.engine == "dense"
        assert wide.peak_bytes == 3 * (16 << 26) == DEFAULT_MAX_STATE_BYTES

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
        """The MPS auto-escalation: an MPS whose bond cap
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
        resilience.count_event("admission_rejects")
        resilience.count_event("admission_rejects", 2)
        resilience.count_event("engine_fallbacks")
        snapshot = resilience.counters()
        assert snapshot["admission_rejects"] == 3
        assert snapshot["engine_fallbacks"] == 1
        resilience.reset_counters()
        assert all(v == 0 for v in resilience.counters().values())

    def test_snapshot_is_a_copy(self):
        snapshot = resilience.counters()
        snapshot["admission_rejects"] = 999
        assert resilience.counters()["admission_rejects"] == 0

    def test_counter_names_match_sensor_contract(self):
        assert resilience.COUNTER_NAMES == ("admission_rejects", "engine_fallbacks")


# ---------------------------------------------------------------------------
# the fault harness itself
# ---------------------------------------------------------------------------


class TestFaultHarness:
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

    def test_grouped_walk_has_injection_points(self, monkeypatch):
        """``engine.span`` fires once per trajectory group in both forms
        of the grouped walk: a cache-resident job with many groups (the
        batched walk) and a 16-qubit one (the scalar walk)."""
        from repro.simulator import sampler as sampler_mod

        walks = []
        real = sampler_mod._grouped_batched_walk

        def spy(*args, **kwargs):
            walks.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sampler_mod, "_grouped_batched_walk", spy)
        for num_qubits, batched in ((6, True), (16, False)):
            walks.clear()
            with inject_faults(Fault("engine.span", index=0, times=1)):
                with pytest.raises(FaultInjected):
                    sample_counts(ghz_t(num_qubits), 256, noise=cx_noise(), rng=1)
            assert bool(walks) is batched, num_qubits

    def test_admission_check_has_injection_point(self):
        with inject_faults(Fault("resilience.admission")):
            with pytest.raises(FaultInjected):
                check_admission(ghz_t(4), "fast")
