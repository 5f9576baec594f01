"""The execution flight recorder: spans, reports, and the no-op path.

Four contracts are pinned here, end to end:

1. **Tracing is observational only.**  Seeded counts are bit-identical
   with tracing on or off across every engine mode and the per-shot
   walk — the recorder never draws random numbers and never changes
   instruction visit order.
2. **The disabled path is free.**  ``tracing.span`` hands out one
   shared no-op singleton when no tracer is active; ``count``/``note``
   early-return.  ``engine_mode(trace=...)`` follows the sub-option
   discipline: validated before the config changes, restored on exit.
3. **Every run yields exactly one complete ExecutionReport**, to the
   scope that opened the run — grouped runs, requests that admission
   control rejects, and QRM jobs on concurrent threads.
4. **Reports land on the live-metrics surface**:
   ``MetricStore.record_execution`` flattens them into queryable
   ``simulator.exec.*`` sensors (exercised in ``tests/test_telemetry.py``
   alongside the collector plugin).
"""

from __future__ import annotations

import sys
import threading

import pytest

from helpers.parity import (
    ALL_ENGINE_MODES,
    HYBRID_ROUTE,
    TABLEAU_ROUTE,
    assert_counts_identical,
    counts_under_mode,
    ghz_t,
    heavy_noise,
    light_noise,
    traced_run,
)
from repro.circuits import QuantumCircuit, ghz_circuit
from repro.errors import EngineModeError
from repro.scheduler.jobs import JobState
from repro.simulator import (
    current_config,
    engine_mode,
    resilience,
    sample_counts,
)
from repro.telemetry import tracing
from repro.telemetry.tracing import ExecutionReport, SpanRecord, Tracer


@pytest.fixture(autouse=True)
def _recorder_isolation():
    """Every test starts and ends with the recorder disabled and clean."""
    assert current_config().trace is False
    assert tracing.active_tracer() is None
    yield
    assert tracing.active_tracer() is None
    tracing.reset_exec_counters()
    resilience.reset_counters()


def mid_measure_circuit(n: int = 3) -> QuantumCircuit:
    """Mid-circuit measure + reset: forces the per-shot event walk."""
    qc = QuantumCircuit(n, n)
    qc.h(0)
    for q in range(1, n):
        qc.cx(0, q)
    qc.measure(0, 0)
    qc.reset(0)
    qc.h(0)
    qc.measure_all()
    return qc


# ---------------------------------------------------------------------------
# the Tracer itself
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_tree_nests(self):
        tracer = Tracer()
        with tracer.span("outer", mode="fast") as outer:
            with tracer.span("inner") as inner:
                inner.set(rows=3)
        assert [r.name for r in tracer.roots] == ["outer"]
        assert outer.attrs == {"mode": "fast"}
        assert [c.name for c in outer.children] == ["inner"]
        assert inner.attrs == {"rows": 3}
        assert outer.seconds >= inner.seconds >= 0.0

    def test_span_aggregates_fold_repeats(self):
        tracer = Tracer()
        with tracer.span("run"):
            for _ in range(3):
                with tracer.span("window"):
                    pass
        seconds, counts = tracer.span_aggregates()
        assert counts == {"run": 1, "window": 3}
        assert set(seconds) == {"run", "window"}

    def test_counters_notes_and_max_notes(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits", 2)
        tracer.note("mode", "mps")
        tracer.note_max("bond", 2)
        tracer.note_max("bond", 8)
        tracer.note_max("bond", 4)
        assert tracer.counters == {"hits": 3}
        assert tracer.notes == {"mode": "mps"}
        assert tracer.max_notes == {"bond": 8}

    def test_span_record_to_dict(self):
        record = SpanRecord("engine.prepare", {"qubits": 4})
        record.children.append(SpanRecord("plan.lookup", {}))
        d = record.to_dict()
        assert d["name"] == "engine.prepare"
        assert d["attrs"] == {"qubits": 4}
        assert d["children"][0] == {"name": "plan.lookup", "seconds": 0.0}


# ---------------------------------------------------------------------------
# the disabled (no-op) path
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_disabled_span_is_one_shared_singleton(self):
        """The micro-contract the overhead floor rests on: disabled
        ``span()`` allocates nothing — every call returns the same
        module-level no-op object."""
        assert tracing.span("a") is tracing.span("b", qubits=20)

    def test_noop_span_supports_the_full_protocol(self):
        with tracing.span("anything") as record:
            assert record.set(bond=2) is record

    def test_disabled_helpers_return_immediately(self):
        tracing.count("x", 5)
        tracing.note("k", "v")
        tracing.note_max("m", 1.0)
        assert tracing.active_tracer() is None

    def test_run_scope_disabled_records_nothing(self):
        with tracing.run_scope("sampler.run", enabled=False, mode="fast") as run:
            assert tracing.active_tracer() is None
        assert run.report is None
        assert tracing.exec_counters() == {}


class TestRunScope:
    def test_outermost_scope_owns_the_report(self):
        """The report goes to the scope that opened the tracer; a
        nested scope records a span and carries no report."""
        with tracing.run_scope("job", enabled=True) as outer:
            with tracing.run_scope("sampler.run", enabled=True) as inner:
                tracing.note("shots", 8)
            assert inner.report is None
            assert outer.report is None  # filled in on exit
        assert inner.report is None
        report = outer.report
        assert isinstance(report, ExecutionReport)
        assert report.shots == 8
        assert report.span_counts == {"job": 1, "sampler.run": 1}
        assert tracing.exec_counters()["runs"] == 1.0

    def test_report_survives_a_raising_block(self):
        with pytest.raises(RuntimeError):
            with tracing.run_scope("job", enabled=True) as run:
                tracing.count("before_failure")
                raise RuntimeError("boom")
        assert tracing.active_tracer() is None
        assert run.report.counters == {"before_failure": 1}

    def test_enabled_scope_inside_a_disabled_one_opens_the_run(self):
        """A disabled scope opens no tracer, so the first enabled scope
        inside it is the outermost one and owns the report."""
        with tracing.run_scope("job", enabled=False) as outer:
            with tracing.run_scope("sampler.run", enabled=True) as inner:
                tracing.note("shots", 4)
        assert outer.report is None
        assert inner.report.shots == 4
        assert inner.report.span_counts == {"sampler.run": 1}

    def test_sequential_runs_each_get_their_own_report(self):
        """Back-to-back runs share nothing: each scope's report holds its
        own shots, and the cumulative counters fold both."""
        reports = []
        for shots in (16, 48):
            with traced_run("fast") as run:
                sample_counts(ghz_t(3), shots, rng=1)
            reports.append(run.report)
        assert [r.shots for r in reports] == [16, 48]
        assert reports[0] is not reports[1]
        assert tracing.exec_counters()["runs"] == 2.0
        assert tracing.exec_counters()["shots"] == 64.0


class TestQRMJobReport:
    """The QRM opens each job's root scope, ``qrm.run_next``: a traced
    job's report covers JIT compile and device execution and lands in
    that job's payload only."""

    @staticmethod
    def _qrm(shots: int = 64):
        from repro.qpu import QPUDevice
        from repro.scheduler.qrm import QuantumResourceManager

        qrm = QuantumResourceManager(QPUDevice(seed=42))
        qrm.submit(ghz_circuit(3), shots=shots)
        return qrm

    def test_traced_job_report_covers_the_whole_job(self):
        qrm = self._qrm(shots=64)
        with engine_mode("fast", trace=True):
            job = qrm.run_next()
        report = job.payload["execution_report"]
        assert report["shots"] == 64
        assert report["mode"] == "fast"
        assert report["span_counts"]["qrm.run_next"] == 1
        assert report["span_counts"]["sampler.run"] == 1
        phases = report["phase_seconds"]
        assert report["wall_seconds"] >= phases["qrm.run_next"]
        assert phases["qrm.run_next"] >= phases["sampler.run"]
        assert tracing.exec_counters()["runs"] == 1.0

    def test_untraced_job_carries_no_report(self):
        job = self._qrm().run_next()
        assert job.state is JobState.COMPLETED
        assert "execution_report" not in job.payload
        assert tracing.exec_counters() == {}

    def test_failed_job_carries_no_report(self):
        qrm = self._qrm()

        def failing_compile(program):
            raise ValueError("bad program")

        qrm.jit.compile = failing_compile
        with engine_mode("fast", trace=True):
            job = qrm.run_next()
        assert job.state is JobState.FAILED
        assert "execution_report" not in job.payload
        assert qrm.stats.jobs_failed == 1

    def test_requeued_job_carries_no_report(self):
        from repro.errors import DeviceUnavailableError

        qrm = self._qrm()

        def offline(*args, **kwargs):
            raise DeviceUnavailableError("calibrating")

        qrm.device.execute = offline
        with engine_mode("fast", trace=True):
            job = qrm.run_next()
        assert job in qrm.queue
        assert "execution_report" not in job.payload
        assert qrm.stats.jobs_requeued == 1

    def test_caller_scope_around_the_queue_owns_the_report(self):
        """A caller that traces a whole drain opens the run itself: each
        job's scope nests in it as a span, so the caller's report covers
        every job and no job carries a report of its own."""
        qrm = self._qrm(shots=32)
        jobs = [qrm.queue[0], qrm.submit(ghz_circuit(3), shots=32)]
        with traced_run("fast") as run:
            assert qrm.drain() == 2
        assert run.report.span_counts["qrm.run_next"] == 2
        assert run.report.span_counts["sampler.run"] == 2
        assert run.report.shots == 32
        for job in jobs:
            assert job.state is JobState.COMPLETED
            assert "execution_report" not in job.payload


class TestContextLocalTracer:
    def test_untraced_thread_never_writes_into_a_traced_run(self):
        """The active tracer is context-local, like the config that arms
        it: an untraced thread sampling at the same time (with a short
        switch interval, so the threads interleave inside runs) leaves
        no span in the traced thread's reports."""
        traced_circuit = ghz_circuit(12)
        untraced_circuit = ghz_circuit(3)
        done = threading.Event()
        reports = []
        errors = []

        def traced():
            try:
                for seed in range(20):
                    with traced_run("fast") as run:
                        sample_counts(
                            traced_circuit, 64, noise=light_noise(), rng=seed
                        )
                    reports.append(run.report)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def untraced():
            try:
                seed = 0
                while not done.is_set():
                    sample_counts(untraced_circuit, 16, rng=seed)
                    seed += 1
                assert tracing.active_tracer() is None
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=f) for f in (traced, untraced)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(reports) == 20
        for report in reports:
            assert report.num_qubits == 12
            assert report.span_counts["sampler.grouped"] == 1
            assert report.span_counts["plan.lookup"] == 1

    def test_concurrent_qrm_jobs_each_get_their_own_report(self):
        """Two threads, one QRM each, run one traced job each, ordered so
        that the second job's execution finishes before the first job
        attaches its report.  Each job carries the report of its own
        execution: nothing passes through process state between
        executing a job and attaching its report."""
        from repro.qpu import QPUDevice
        from repro.scheduler.qrm import QuantumResourceManager

        first_executed = threading.Event()
        second_executed = threading.Event()
        first_done = threading.Event()
        gates = (first_executed, second_executed, first_done)
        jobs = {}
        errors = []

        def run_job(shots, executed, release, start=None):
            try:
                if start is not None:
                    assert start.wait(timeout=60)
                qrm = QuantumResourceManager(QPUDevice(seed=42))
                real_execute = qrm.device.execute

                def execute(*args, **kwargs):
                    result = real_execute(*args, **kwargs)
                    executed.set()
                    assert release.wait(timeout=60)
                    return result

                qrm.device.execute = execute
                qrm.submit(ghz_circuit(3), shots=shots)
                with engine_mode("fast", trace=True):
                    jobs[shots] = qrm.run_next()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                # The first job's return opens ``first_done``, which
                # lets the second job attach; opening every gate also
                # keeps a failed thread from hanging the other.
                for event in gates:
                    event.set()

        threads = [
            threading.Thread(
                target=run_job, args=(64, first_executed, second_executed)
            ),
            threading.Thread(
                target=run_job,
                args=(96, second_executed, first_done),
                kwargs={"start": first_executed},
            ),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for shots in (64, 96):
            report = jobs[shots].payload["execution_report"]
            assert report["shots"] == shots
            assert report["span_counts"]["qrm.run_next"] == 1
            assert report["span_counts"]["sampler.run"] == 1


# ---------------------------------------------------------------------------
# the engine_mode(trace=...) facade
# ---------------------------------------------------------------------------


class TestTraceFacade:
    def test_trace_arms_and_restores_the_flag(self):
        assert current_config().trace is False
        with engine_mode("fast", trace=True):
            assert current_config().trace is True
            with engine_mode("mps", trace=False):
                assert current_config().trace is False
            assert current_config().trace is True
        assert current_config().trace is False

    def test_trace_none_leaves_the_recorder_alone(self):
        with engine_mode("fast", trace=True):
            with engine_mode("auto"):
                assert current_config().trace is True

    def test_trace_alone_keeps_the_enclosing_mode(self):
        """``engine_mode(trace=True)`` — the spelling the docs use —
        arms the recorder without naming a mode."""
        with engine_mode(trace=True) as config:
            assert (config.mode, config.trace) == ("fast", True)
            with tracing.run_scope("test.run", enabled=config.trace) as run:
                counts = sample_counts(ghz_t(3), 32, rng=1)
        report = run.report
        assert report is not None and report.mode == "fast"
        assert report.shots == counts.shots == 32
        with engine_mode("mps"), engine_mode(trace=True) as config:
            assert config.mode == "mps"

    def test_trace_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with engine_mode("fast", trace=True):
                raise RuntimeError("boom")
        assert current_config().trace is False

    @pytest.mark.parametrize("bad", [1, "on", 0.5])
    def test_trace_validates_type(self, bad):
        with pytest.raises(EngineModeError, match="trace"):
            with engine_mode("fast", trace=bad):
                pass

    def test_failed_validation_leaves_flag_untouched(self):
        with pytest.raises(EngineModeError):
            with engine_mode("fast", trace="yes"):
                pass
        assert current_config().trace is False


# ---------------------------------------------------------------------------
# bit-identity: tracing must never move a count
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("mode", ALL_ENGINE_MODES)
    def test_grouped_walk(self, mode):
        qc = ghz_t(5)
        plain = counts_under_mode(qc, mode, 7, noise=light_noise(), shots=256)
        traced = counts_under_mode(
            qc, mode, 7, noise=light_noise(), shots=256, trace=True
        )
        assert_counts_identical(plain, traced, context=("grouped", mode))

    def test_tableau_grouped_walk(self):
        """The matrix runs non-Clifford circuits; the tableau's sign-mask
        walk is pinned on a Clifford circuit held there."""
        qc = ghz_circuit(6)
        plain = counts_under_mode(
            qc, TABLEAU_ROUTE, 5, noise=heavy_noise(), shots=256
        )
        with traced_run() as run:
            traced = counts_under_mode(
                qc, TABLEAU_ROUTE, 5, noise=heavy_noise(), shots=256, trace=True
            )
        assert run.report.engine == "tableau"
        assert_counts_identical(plain, traced, context=("grouped", TABLEAU_ROUTE))

    @pytest.mark.parametrize("mode", ("fast", HYBRID_ROUTE, "mps"))
    def test_per_shot_walk(self, mode):
        qc = mid_measure_circuit(3)
        plain = counts_under_mode(qc, mode, 11, shots=128)
        traced = counts_under_mode(qc, mode, 11, shots=128, trace=True)
        assert_counts_identical(plain, traced, context=("per_shot", mode))

# ---------------------------------------------------------------------------
# ExecutionReport content
# ---------------------------------------------------------------------------


class TestExecutionReport:
    def test_grouped_run_report(self):
        qc = ghz_t(5)
        with traced_run("fast") as run:
            sample_counts(qc, 256, noise=light_noise(), rng=7)
        report = run.report
        assert isinstance(report, ExecutionReport)
        assert report.engine == "dense"
        assert report.mode == "fast"
        assert report.num_qubits == 5
        assert report.shots == 256
        assert report.wall_seconds > 0.0
        # three live states plus the batched walk's working-set budget,
        # which a 5-qubit register fits
        config = current_config()
        assert report.estimated_peak_bytes == 3 * (16 << 5) + config.batch_max_bytes
        for phase in (
            "sampler.run",
            "sampler.grouped",
            "sampler.realizations",
            "sampler.readout",
            "resilience.admission",
            "plan.lookup",
            "engine.prepare",
            "engine.advance_window",
        ):
            assert phase in report.phase_seconds, phase
            assert report.span_counts[phase] >= 1
        assert report.counters["sampler.trajectory_groups"] >= 1
        assert report.plan_cache_hits + report.plan_cache_misses >= 1

    def test_batched_walk_spans_one_per_site_and_chunk(self, monkeypatch):
        """The batched walk records one ``engine.batched_inject`` span
        per per-site injection call and one ``sampler.batched_sample``
        span per chunk; a small working-set budget forces several
        chunks."""
        from repro.simulator import BatchedStateVector, batched

        site_calls = []
        chunks = []
        real_site = batched.inject_site
        real_init = BatchedStateVector.__init__

        def spy_site(*args):
            site_calls.append(1)
            return real_site(*args)

        def spy_init(self, *args, **kwargs):
            chunks.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(batched, "inject_site", spy_site)
        monkeypatch.setattr(BatchedStateVector, "__init__", spy_init)
        with traced_run("fast", batch_max_bytes=16 * (16 << 6)) as run:
            sample_counts(ghz_t(6), 2048, noise=heavy_noise(), rng=7)
        report = run.report
        assert len(chunks) > 1
        assert report.span_counts["sampler.batched_sample"] == len(chunks)
        assert report.span_counts["engine.batched_inject"] == len(site_calls)
        assert report.span_counts["engine.batched_window"] >= len(chunks)
        assert "engine.batched_inject" in report.phase_seconds

    def test_per_shot_run_report(self):
        with traced_run("fast") as run:
            sample_counts(mid_measure_circuit(3), 64, rng=3)
        report = run.report
        assert "sampler.per_shot" in report.phase_seconds
        assert "sampler.grouped" not in report.phase_seconds

    def test_mps_run_carries_bond_telemetry(self):
        with traced_run("mps") as run:
            sample_counts(ghz_t(5), 64, rng=7)
        report = run.report
        assert report.engine == "mps"
        assert "engine.mps_window" in report.phase_seconds
        assert report.max_bond_dimension >= 2
        assert report.truncation_error == 0.0

    def test_dense_run_leaves_mps_fields_none(self):
        with traced_run("fast") as run:
            sample_counts(ghz_t(4), 32, rng=1)
        report = run.report
        assert report.max_bond_dimension is None
        assert report.truncation_error is None

    def test_plan_cache_hit_property(self):
        hit = ExecutionReport(
            engine="dense",
            mode="fast",
            num_qubits=4,
            shots=32,
            wall_seconds=0.1,
            plan_cache_hits=1,
        )
        miss = ExecutionReport(
            engine="dense",
            mode="fast",
            num_qubits=4,
            shots=32,
            wall_seconds=0.1,
            plan_cache_hits=1,
            plan_cache_misses=1,
        )
        assert hit.plan_cache_hit and not miss.plan_cache_hit
        assert hit.to_dict()["plan_cache_hit"] is True

    def test_untraced_run_leaves_no_report(self):
        with tracing.run_scope("test.run", enabled=False) as run:
            sample_counts(ghz_t(4), 32, rng=1)
        assert run.report is None
        assert tracing.exec_counters() == {}

    def test_cumulative_exec_counters_fold_across_runs(self):
        tracing.reset_exec_counters()
        with engine_mode("fast", trace=True):
            sample_counts(ghz_t(4), 32, rng=1)
            sample_counts(ghz_t(4), 16, rng=2)
        totals = tracing.exec_counters()
        assert totals["runs"] == 2.0
        assert totals["shots"] == 48.0
        assert totals["wall_seconds"] > 0.0
        assert totals["events.sampler.trajectory_groups"] >= 2.0


# ---------------------------------------------------------------------------
# a rejected request reports as one run
# ---------------------------------------------------------------------------


class TestRejectionReport:
    def test_rejected_request_yields_one_report_recording_the_reject(self):
        from repro.errors import ResourceAdmissionError

        with pytest.raises(ResourceAdmissionError):
            with traced_run("fast") as run:
                sample_counts(ghz_t(30), 64, rng=3)
        report = run.report
        assert report is not None
        assert report.mode == "fast"
        assert "resilience.admission" in report.phase_seconds
        assert report.counters["resilience.admission_rejects"] == 1
        assert report.resilience_events == {"resilience.admission_rejects": 1}
        # the request never reached a walk
        assert "sampler.grouped" not in report.phase_seconds

    def test_admitted_request_records_no_reject(self):
        with traced_run("fast") as run:
            sample_counts(ghz_t(4), 32, rng=1)
        report = run.report
        assert "resilience.admission" in report.phase_seconds
        assert "resilience.admission_rejects" not in report.counters
