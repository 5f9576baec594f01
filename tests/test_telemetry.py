"""Tests for the DCDB-style telemetry store, plugins, and analytics."""

import numpy as np
import pytest

from repro.errors import SensorError, TelemetryError
from repro.qpu import QPUDevice
from repro.telemetry import (
    CallbackPlugin,
    DCDBCollector,
    JobAccountingPlugin,
    MetricStore,
    QPUMetricsPlugin,
    RecalibrationAdvisor,
    detect_anomalies,
    qubit_health,
    trend,
)
from repro.utils.units import DAY, HOUR


class TestMetricStore:
    def test_insert_and_latest(self):
        s = MetricStore()
        s.insert("a.b", 1.0, 10.0)
        s.insert("a.b", 2.0, 20.0)
        point = s.latest("a.b")
        assert point.timestamp == 2.0 and point.value == 20.0

    def test_out_of_order_rejected(self):
        s = MetricStore()
        s.insert("x", 5.0, 1.0)
        with pytest.raises(TelemetryError):
            s.insert("x", 4.0, 1.0)

    def test_empty_sensor_name_rejected(self):
        with pytest.raises(TelemetryError):
            MetricStore().insert("", 0.0, 1.0)

    def test_unknown_sensor_raises(self):
        with pytest.raises(TelemetryError):
            MetricStore().latest("missing")

    def test_prefix_filter(self):
        s = MetricStore()
        s.insert("qpu.t1", 0.0, 1.0)
        s.insert("facility.temp", 0.0, 2.0)
        assert s.sensors("qpu") == ["qpu.t1"]

    def test_range_query(self):
        s = MetricStore()
        for t in range(10):
            s.insert("x", float(t), float(t * t))
        ts, vs = s.query("x", 3.0, 6.0)
        assert list(ts) == [3.0, 4.0, 5.0, 6.0]
        assert list(vs) == [9.0, 16.0, 25.0, 36.0]

    def test_growth_beyond_chunk(self):
        s = MetricStore()
        n = 10_000
        for t in range(n):
            s.insert("big", float(t), 1.0)
        assert s.num_points("big") == n

    def test_insert_many(self):
        s = MetricStore()
        s.insert_many(1.0, {"a": 1.0, "b": 2.0})
        assert len(s) == 2

    def test_record_plan_cache_snapshots_counters(self):
        from repro.circuits import ghz_circuit
        from repro.compiler import plans

        plans.plan_cache_clear()
        s = MetricStore()
        s.record_plan_cache(0.0)
        plans.plan_for(ghz_circuit(4))  # miss
        plans.plan_for(ghz_circuit(4))  # hit
        s.record_plan_cache(1.0)
        family = s.sensors("simulator.plan_cache")
        assert family == [
            "simulator.plan_cache.entries",
            "simulator.plan_cache.evictions",
            "simulator.plan_cache.hits",
            "simulator.plan_cache.misses",
        ]
        assert s.latest("simulator.plan_cache.hits").value == 1.0
        assert s.latest("simulator.plan_cache.misses").value == 1.0
        assert s.latest("simulator.plan_cache.entries").value == 1.0
        assert s.latest("simulator.plan_cache.evictions").value == 0.0
        # two collection cycles landed on the shared timeline
        ts, vs = s.query("simulator.plan_cache.misses")
        assert list(ts) == [0.0, 1.0] and list(vs) == [0.0, 1.0]

    def test_aggregate_mean(self):
        s = MetricStore()
        for t in range(100):
            s.insert("x", float(t), float(t))
        centers, values = s.aggregate("x", 0.0, 100.0, 10.0)
        assert len(values) == 10
        assert values[0] == pytest.approx(4.5)

    def test_aggregate_empty_window_nan(self):
        s = MetricStore()
        s.insert("x", 0.0, 1.0)
        _, values = s.aggregate("x", 0.0, 30.0, 10.0)
        assert np.isnan(values[1]) and np.isnan(values[2])

    def test_aggregate_modes(self):
        s = MetricStore()
        for t, v in ((0.0, 1.0), (1.0, 5.0), (2.0, 3.0)):
            s.insert("x", t, v)
        for how, expected in (("min", 1.0), ("max", 5.0), ("last", 3.0)):
            _, vals = s.aggregate("x", 0.0, 10.0, 10.0, how=how)
            assert vals[0] == expected

    def test_aggregate_bad_mode(self):
        s = MetricStore()
        s.insert("x", 0.0, 1.0)
        with pytest.raises(TelemetryError):
            s.aggregate("x", 0.0, 1.0, 1.0, how="median!")

    def test_correlate_perfect(self):
        s = MetricStore()
        for t in range(50):
            s.insert("a", float(t), float(t))
            s.insert("b", float(t), 2.0 * t + 1.0)
        assert s.correlate("a", "b", 0.0, 50.0, 5.0) == pytest.approx(1.0)

    def test_correlate_needs_overlap(self):
        s = MetricStore()
        s.insert("a", 0.0, 1.0)
        s.insert("b", 0.0, 1.0)
        with pytest.raises(TelemetryError):
            s.correlate("a", "b", 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("how", ["mean", "min", "max", "last"])
    def test_aggregate_matches_scalar_reference(self, how):
        """The vectorized reduceat windowing must agree with the obvious
        per-window loop on irregular data — including empty windows,
        single-point windows, and the end-of-range clamp."""
        rng = np.random.default_rng(42)
        times = np.sort(rng.uniform(0.0, 100.0, size=137))
        values = rng.normal(0.0, 5.0, size=times.size)
        s = MetricStore()
        for t, v in zip(times, values):
            s.insert("x", float(t), float(v))
        window = 7.0
        centers, got = s.aggregate("x", 0.0, 100.0, window, how=how)
        n_windows = int(np.ceil(100.0 / window))
        assert centers.size == got.size == n_windows
        reducer = {"mean": np.mean, "min": np.min, "max": np.max}.get(how)
        for i in range(n_windows):
            lo, hi = i * window, (i + 1) * window
            mask = (times >= lo) & (times < hi)
            if i == n_windows - 1:  # the last window absorbs t == end
                mask = (times >= lo) & (times <= 100.0)
            if not mask.any():
                assert np.isnan(got[i])
            elif reducer is None:
                assert got[i] == values[mask][-1]
            else:
                assert got[i] == pytest.approx(reducer(values[mask]))

    def test_aggregate_point_at_range_end_clamps_into_last_window(self):
        s = MetricStore()
        s.insert("x", 10.0, 7.0)
        _, values = s.aggregate("x", 0.0, 10.0, 2.5)
        assert values[-1] == 7.0 and np.isnan(values[:-1]).all()

    def test_record_execution_lands_exec_sensor_family(self):
        from repro.telemetry.tracing import ExecutionReport

        s = MetricStore()
        report = ExecutionReport(
            engine="dense",
            mode="fast",
            num_qubits=5,
            shots=256,
            wall_seconds=0.125,
            phase_seconds={"sampler.grouped": 0.1, "engine.prepare": 0.01},
            span_counts={"sampler.grouped": 1},
            counters={"plan_cache.hits": 1, "sampler.trajectory_groups": 9},
            estimated_peak_bytes=1536,
            plan_cache_hits=1,
        )
        s.record_execution(report, 10.0)
        family = s.sensors("simulator.exec")
        assert "simulator.exec.wall_seconds" in family
        assert "simulator.exec.phase.sampler.grouped" in family
        assert "simulator.exec.events.plan_cache.hits" in family
        assert s.latest("simulator.exec.wall_seconds").value == 0.125
        assert s.latest("simulator.exec.shots").value == 256.0
        assert s.latest("simulator.exec.plan_cache_hit").value == 1.0
        assert s.latest("simulator.exec.estimated_peak_bytes").value == 1536.0
        assert s.latest("simulator.exec.phase.engine.prepare").value == 0.01
        assert (
            s.latest("simulator.exec.events.sampler.trajectory_groups").value
            == 9.0
        )
        # MPS-only fields were None: no empty sensors materialized
        assert "simulator.exec.max_bond_dimension" not in family
        assert "simulator.exec.truncation_error" not in family

    def test_record_execution_accepts_report_dicts(self):
        """The REST layer stores reports as payload dicts; recording one
        must behave exactly like recording the dataclass."""
        from repro.telemetry.tracing import ExecutionReport

        report = ExecutionReport(
            engine="mps",
            mode="mps",
            num_qubits=6,
            shots=64,
            wall_seconds=0.5,
            max_bond_dimension=4,
            truncation_error=0.0,
        )
        s = MetricStore()
        s.record_execution(report.to_dict(), 1.0)
        assert s.latest("simulator.exec.max_bond_dimension").value == 4.0
        assert s.latest("simulator.exec.truncation_error").value == 0.0

    def test_record_execution_timeseries_queryable(self):
        """Recorded runs land on the shared timeline: aggregate and
        correlate work over the simulator.exec.* family like any other
        sensor."""
        from repro.telemetry.tracing import ExecutionReport

        s = MetricStore()
        for i in range(12):
            s.record_execution(
                ExecutionReport(
                    engine="dense",
                    mode="fast",
                    num_qubits=5,
                    shots=100 + 10 * i,
                    wall_seconds=0.01 * (100 + 10 * i),
                ),
                float(i),
            )
        _, means = s.aggregate("simulator.exec.shots", 0.0, 12.0, 6.0)
        assert means[0] == pytest.approx(125.0)
        assert means[1] == pytest.approx(185.0)
        corr = s.correlate(
            "simulator.exec.shots", "simulator.exec.wall_seconds", 0.0, 12.0, 2.0
        )
        assert corr == pytest.approx(1.0)


class TestCollector:
    def test_cycle_lands_points(self, device):
        store = MetricStore()
        collector = DCDBCollector(store, [QPUMetricsPlugin(device)])
        landed = collector.run_cycle(0.0)
        assert landed > 100  # medians + 20 qubits × 4 + 31 couplers
        assert "qpu.median_cz_fidelity" in store

    def test_failing_plugin_skipped(self, device):
        def bad(_t):
            raise SensorError("broken sensor")

        store = MetricStore()
        collector = DCDBCollector(
            store,
            [CallbackPlugin("bad", bad), JobAccountingPlugin(device)],
        )
        landed = collector.run_cycle(0.0)
        assert landed == 3  # accounting only

    def test_callback_plugin_validates_return(self):
        store = MetricStore()
        collector = DCDBCollector(store, [CallbackPlugin("x", lambda t: [1, 2])])
        with pytest.raises(SensorError):
            collector.plugins[0].collect(0.0)

    def test_cycles_counted(self, device):
        collector = DCDBCollector(MetricStore(), [JobAccountingPlugin(device)])
        collector.run_cycle(0.0)
        collector.run_cycle(60.0)
        assert collector.cycles_run == 2
        assert collector.last_cycle_at == 60.0

    def test_simulator_counters_plugin_snapshots_all_three_families(self):
        """One collector cycle lands plan-cache, resilience, and
        execution counters together — the DCDB 'continuous and holistic'
        contract applied to the simulation stack."""
        from repro.circuits import ghz_circuit
        from repro.compiler import plans
        from repro.simulator import engine_mode, resilience, sample_counts
        from repro.telemetry import SimulatorCountersPlugin, tracing

        plans.plan_cache_clear()
        resilience.reset_counters()
        tracing.reset_exec_counters()
        try:
            resilience.count_event("admission_rejects", 3)
            with engine_mode("fast", trace=True):
                sample_counts(ghz_circuit(4), 32, rng=7)
            store = MetricStore()
            collector = DCDBCollector(store, [SimulatorCountersPlugin()])
            landed = collector.run_cycle(5.0)
            # four plan-cache sensors, every resilience counter, and at
            # least the three exec scalars read below
            assert landed >= 4 + len(resilience.COUNTER_NAMES) + 3
            assert store.latest("simulator.plan_cache.misses").value == 1.0
            assert (
                store.latest("simulator.resilience.admission_rejects").value == 3.0
            )
            assert store.latest("simulator.exec.runs").value == 1.0
            assert store.latest("simulator.exec.shots").value == 32.0
            assert store.latest("simulator.exec.wall_seconds").value > 0.0
        finally:
            resilience.reset_counters()
            tracing.reset_exec_counters()


class TestAnalytics:
    def test_trend_detects_slope(self):
        s = MetricStore()
        for t in range(20):
            s.insert("x", float(t), 3.0 * t + 1.0)
        slope, intercept = trend(s, "x", 0.0, 20.0)
        assert slope == pytest.approx(3.0)
        assert intercept == pytest.approx(1.0)

    def test_trend_needs_points(self):
        s = MetricStore()
        s.insert("x", 0.0, 1.0)
        with pytest.raises(TelemetryError):
            trend(s, "x", 0.0, 1.0)

    def test_anomaly_detection_step_change(self):
        s = MetricStore()
        rng = np.random.default_rng(0)
        for t in range(100):
            base = 10.0 if t < 70 else 4.0  # TLS-style T1 drop
            s.insert("t1", float(t), base + rng.normal(0, 0.05))
        anomalies = detect_anomalies(s, "t1", 0.0, 100.0)
        assert anomalies and min(anomalies) >= 70.0

    def test_no_anomalies_in_stationary_data(self):
        s = MetricStore()
        rng = np.random.default_rng(1)
        for t in range(100):
            s.insert("x", float(t), rng.normal(0, 1))
        assert detect_anomalies(s, "x", 0.0, 100.0, z_threshold=6.0) == []

    def test_trend_on_constant_series_is_flat(self):
        """Dead-flat data must fit slope ≈ 0 without numerical drama —
        the polyfit runs on zero-variance input."""
        s = MetricStore()
        for t in range(20):
            s.insert("x", float(t), 42.0)
        slope, intercept = trend(s, "x", 0.0, 20.0)
        assert slope == pytest.approx(0.0, abs=1e-9)
        assert intercept == pytest.approx(42.0)

    def test_anomalies_on_constant_series_empty(self):
        """A constant baseline has zero sigma; the epsilon floor must
        keep identical follow-on points from flagging as anomalous."""
        s = MetricStore()
        for t in range(50):
            s.insert("x", float(t), 7.0)
        assert detect_anomalies(s, "x", 0.0, 50.0) == []

    def test_constant_series_with_step_still_flags(self):
        """...but the floor must not deaden a genuine step on top of a
        zero-variance baseline."""
        s = MetricStore()
        for t in range(50):
            s.insert("x", float(t), 7.0 if t < 40 else 9.0)
        anomalies = detect_anomalies(s, "x", 0.0, 50.0)
        assert anomalies and min(anomalies) >= 40.0

    def test_anomalies_all_nan_window_returns_empty(self):
        """A sensor whose window is wall-to-wall NaN (a dead gauge) must
        yield no anomalies and no RuntimeWarning-driven surprises."""
        s = MetricStore()
        for t in range(20):
            s.insert("x", float(t), float("nan"))
        assert detect_anomalies(s, "x", 0.0, 20.0) == []

    def test_anomalies_nan_baseline_poisons_nothing(self):
        """NaNs confined to the baseline half must not flag the healthy
        tail: NaN z-scores compare False, never True."""
        s = MetricStore()
        for t in range(20):
            v = float("nan") if t < 10 else 5.0
            s.insert("x", float(t), v)
        assert detect_anomalies(s, "x", 0.0, 20.0) == []

    def test_qubit_health_flags_degraded(self, device):
        store = MetricStore()
        # inject a degraded qubit by hand-feeding per-qubit sensors
        for q in range(20):
            bad = q == 7
            store.insert(f"qpu.qubit{q:02d}.t1", 0.0, 10e-6 if bad else 40e-6)
            store.insert(f"qpu.qubit{q:02d}.prx_error", 0.0, 0.05 if bad else 1e-3)
            store.insert(f"qpu.qubit{q:02d}.readout_error", 0.0, 0.2 if bad else 0.025)
        health = qubit_health(store, 20)
        degraded = [h.qubit for h in health if h.cluster == "degraded"]
        assert degraded == [7]

    def test_qubit_health_requires_data(self):
        with pytest.raises(TelemetryError):
            qubit_health(MetricStore(), 20)


class TestRecalibrationAdvisor:
    def _store_with(self, prx, cz, ro, age=HOUR):
        s = MetricStore()
        s.insert("qpu.median_prx_fidelity", 0.0, prx)
        s.insert("qpu.median_cz_fidelity", 0.0, cz)
        s.insert("qpu.median_readout_fidelity", 0.0, ro)
        s.insert("qpu.calibration_age", 0.0, age)
        return s

    def test_all_good_none(self):
        advice = RecalibrationAdvisor().advise(self._store_with(0.999, 0.991, 0.975))
        assert advice.action == "none"

    def test_cz_drop_triggers_full(self):
        advice = RecalibrationAdvisor().advise(self._store_with(0.999, 0.975, 0.975))
        assert advice.action == "full"

    def test_readout_drop_triggers_quick(self):
        advice = RecalibrationAdvisor().advise(self._store_with(0.999, 0.991, 0.94))
        assert advice.action == "quick"

    def test_stale_calibration_triggers_full(self):
        advice = RecalibrationAdvisor().advise(
            self._store_with(0.999, 0.991, 0.975, age=5 * DAY)
        )
        assert advice.action == "full"

    def test_no_telemetry_bootstraps_full(self):
        advice = RecalibrationAdvisor().advise(MetricStore())
        assert advice.action == "full"


class TestResilienceCollector:
    def test_record_resilience_snapshots_counters(self):
        from repro.simulator import resilience

        resilience.reset_counters()
        try:
            s = MetricStore()
            s.record_resilience(0.0)
            resilience.count_event("engine_fallbacks", 2)
            s.record_resilience(1.0)
            family = s.sensors("simulator.resilience")
            assert family == [
                "simulator.resilience.admission_rejects",
                "simulator.resilience.engine_fallbacks",
            ]
            assert s.latest("simulator.resilience.engine_fallbacks").value == 2.0
            assert s.latest("simulator.resilience.admission_rejects").value == 0.0
            # two collection cycles landed on the shared timeline
            ts, vs = s.query("simulator.resilience.engine_fallbacks")
            assert list(ts) == [0.0, 1.0] and list(vs) == [0.0, 2.0]
        finally:
            resilience.reset_counters()
