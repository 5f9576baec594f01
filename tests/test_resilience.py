"""Fault-tolerant execution: admission control and mid-walk failures.

Two contracts are pinned here, end to end:

1. **Admission control rejects before allocation.**  An oversized dense
   request raises a structured ``ResourceAdmissionError`` without the
   engine ever being instantiated, the error names the remedies that
   exist, every rejection lands in the resilience counters, and the
   budget is scoped via ``engine_mode(max_state_bytes=...)``.
2. **A failure mid-walk leaves nothing behind.**  A function of each
   grouped-walk form, patched to raise, sends its error out of
   ``sample_counts`` with no tracer left active, the caller's config in
   place and the next seeded run's counts unchanged.
"""

from __future__ import annotations

import contextlib

import pytest

from helpers.parity import engine_route, ghz_t, traced_run
from repro.circuits import ghz_circuit
from repro.errors import EngineModeError, ResourceAdmissionError
from repro.simulator import (
    ExecutionConfig,
    NoiseModel,
    current_config,
    depolarizing_error,
    engine_mode,
    resilience,
    sample_counts,
)
from repro.simulator import batched
from repro.simulator.engines import tableau as tableau_mod
from repro.simulator.engines.dense import DenseEngine
from repro.simulator.resilience import (
    DEFAULT_MAX_STATE_BYTES,
    check_admission,
    estimate_resources,
)
from repro.telemetry import tracing


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

    def test_rejection_names_the_remedies_that_exist(self):
        """The error points at a larger budget or at the modes whose
        routes reach smaller engines — and both remedies work."""
        qc = ghz_t(30)
        with pytest.raises(ResourceAdmissionError) as excinfo:
            sample_counts(qc, 16, rng=1)
        message = str(excinfo.value)
        for remedy in ("engine_mode(max_state_bytes=...)", '"auto"', '"mps"'):
            assert remedy in message
        assert "run_with_fallback" not in message
        with engine_mode("mps"):
            assert sample_counts(qc, 16, rng=1).shots == 16
        roomy = ExecutionConfig(max_state_bytes=1 << 62)
        assert check_admission(qc, "fast", config=roomy).engine == "dense"

    def test_auto_remedy_serves_the_rejected_request(self):
        """Under ``"auto"`` the request ``"fast"`` rejects routes to the
        hybrid engine, which admits it and samples the GHZ outcomes."""
        qc = ghz_t(30)
        with traced_run("auto") as run:
            counts = sample_counts(qc, 64, rng=1)
        assert run.report.engine == "hybrid"
        assert set(counts.to_dict()) <= {"0" * 30, "1" * 30}
        assert counts.shots == 64
        assert resilience.counters()["admission_rejects"] == 0

    def test_expectation_path_rejects_too(self):
        from repro.simulator.engines import prepare_engine

        with engine_mode("fast"):
            with pytest.raises(ResourceAdmissionError):
                prepare_engine(ghz_t(30))

    def test_historical_widths_admit_everywhere(self):
        """The default budget is calibrated so every width the stack
        could already serve still admits — 26-qubit dense exactly."""
        qc = ghz_t(4)
        for mode in ("fast", "mps", "auto"):
            estimate = check_admission(qc, mode)
            assert estimate.peak_bytes is not None
            assert estimate.peak_bytes <= DEFAULT_MAX_STATE_BYTES

    def test_wide_clifford_routes_past_the_dense_gate(self):
        """A 50-qubit Clifford circuit under ``fast`` lands on the
        tableau, whose polynomial footprint admits trivially."""
        qc = ghz_circuit(50, measure=True)
        estimate = check_admission(qc, "fast")
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
        # the hybrid route (``"auto"`` on an entangling Clifford prefix)
        # never batches: its dense bound is the states
        hybrid = estimate_resources(qc, "auto")
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
# resilience counters & telemetry surface
# ---------------------------------------------------------------------------


class TestCounters:
    def test_count_and_reset(self):
        resilience.count_event("admission_rejects")
        resilience.count_event("admission_rejects", 2)
        snapshot = resilience.counters()
        assert snapshot == {"admission_rejects": 3}
        resilience.reset_counters()
        assert all(v == 0 for v in resilience.counters().values())

    def test_snapshot_is_a_copy(self):
        snapshot = resilience.counters()
        snapshot["admission_rejects"] = 999
        assert resilience.counters()["admission_rejects"] == 0

    def test_counter_names_match_sensor_contract(self):
        assert resilience.COUNTER_NAMES == ("admission_rejects",)


# ---------------------------------------------------------------------------
# a failure mid-walk
# ---------------------------------------------------------------------------


class TestMidWalkFailure:
    """A failure inside a grouped walk leaves the request's error with
    the caller and no state behind: no active tracer, the caller's
    config, and nothing cached that changes the next run's counts."""

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    @pytest.mark.parametrize(
        "owner, name, circuit, route",
        [
            # 16 qubits is past the batched walk's width: the scalar walk
            (DenseEngine, "advance_span", ghz_t(16), None),
            (batched, "advance_batch_span", ghz_t(6), None),
            (tableau_mod, "_replay_groups", ghz_circuit(6), "tableau"),
        ],
        ids=["scalar", "batched", "sign"],
    )
    def test_failure_leaves_no_state_behind(
        self, owner, name, circuit, route, trace, monkeypatch
    ):
        _assert_failure_leaves_no_state(
            owner, name, 2, circuit, route, trace, monkeypatch
        )

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    def test_admission_failure_leaves_no_state_behind(self, trace, monkeypatch):
        """A failure in the admission check, before any engine exists,
        leaves the same nothing behind as one inside the walk."""
        _assert_failure_leaves_no_state(
            resilience, "check_admission", 1, ghz_t(6), None, trace, monkeypatch
        )


def _assert_failure_leaves_no_state(
    owner, name, nth, circuit, route, trace, monkeypatch
):
    """Patch ``owner.name`` to raise on its *nth* call during one seeded
    run, then check that the error left ``sample_counts`` and nothing
    else did: no active tracer, the caller's config, and the same counts
    from the same request run again."""

    def run():
        with engine_route(route) if route else contextlib.nullcontext():
            return sample_counts(circuit, 256, noise=cx_noise(), rng=1).to_dict()

    with engine_mode("fast", trace=trace) as config:
        before = run()
        real = getattr(owner, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == nth:
                raise RuntimeError(f"{name} failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)
        with pytest.raises(RuntimeError, match=f"{name} failed"):
            run()
        monkeypatch.undo()
        assert tracing.active_tracer() is None
        assert current_config() is config
        assert run() == before
