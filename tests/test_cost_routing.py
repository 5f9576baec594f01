"""Cost routing of Clifford device jobs between the dense engine and the
tableau.

Under ``"fast"`` and ``"auto"`` the grouped walk serves a Clifford
circuit within the dense limit on whichever of the two engines its
fitted cost estimate (``sampler._walk_cost``) calls cheaper for the
realized trajectory groups.  These tests pin the choice on the native
device GHZ jobs the REST path really samples, and the properties that
make it a pure cost choice: seeded counts and the RNG stream position
do not depend on it, and admission stays truthful.
"""

import numpy as np
import pytest

from helpers.parity import assert_counts_identical, engine_route, traced_run
from repro.circuits import ghz_circuit
from repro.errors import ResourceAdmissionError
from repro.qpu import QPUDevice
from repro.qpu import device as device_mod
from repro.simulator import engine_mode, sample_counts
from repro.simulator import sampler as sampler_mod
from repro.simulator.engines import DenseEngine, TableauEngine, select_engine
from repro.transpiler import transpile


def _device_job(n, shots):
    """The compacted circuit, noise and idle errors a native GHZ-*n*
    device job hands to ``sample_counts``."""
    device = QPUDevice(seed=42)
    native = transpile(
        ghz_circuit(n), device.topology, snapshot=device.calibration()
    ).circuit
    captured = {}
    real = device_mod.sample_counts

    def spy(circuit, shots, **kwargs):
        captured.update(kwargs, circuit=circuit, shots=shots)
        return real(circuit, shots, **kwargs)

    device_mod.sample_counts = spy
    try:
        device.execute(native, shots=shots)
    finally:
        device_mod.sample_counts = real
    return captured


def _run(job, rng, noiseless=False):
    return sample_counts(
        job["circuit"],
        job["shots"],
        noise=None if noiseless else job["noise"],
        rng=rng,
        instruction_errors=None if noiseless else job["instruction_errors"],
    )


def _engine_that_ran(job, mode="fast", noiseless=False):
    with traced_run(mode) as run:
        _run(job, 7, noiseless)
    return run.report.engine


@pytest.fixture(scope="module")
def jobs():
    return {
        (n, shots): _device_job(n, shots)
        for n, shots in ((3, 1024), (5, 2048), (12, 1024), (14, 1024))
    }


@pytest.mark.parametrize(
    "n, shots, noiseless, expected",
    [
        (3, 1024, False, "dense"),
        (5, 2048, False, "dense"),
        (12, 1024, False, "tableau"),
        (14, 1024, False, "tableau"),
        (12, 1024, True, "tableau"),
    ],
)
@pytest.mark.parametrize("mode", ["fast", "auto"])
def test_device_jobs_route_to_the_cheaper_engine(
    jobs, n, shots, noiseless, expected, mode
):
    """The measured crossover: the batched dense walk wins the compact
    GHZ-3/GHZ-5 jobs, the tableau wins from GHZ-12 on, under both
    cost-routed modes."""
    assert _engine_that_ran(jobs[(n, shots)], mode, noiseless) == expected


def test_trace_names_the_structural_engine_outside_cost_routing(jobs):
    """``"mps"`` is outside cost routing: the compact GHZ-5 job (dense
    by cost) and the GHZ-12 job (tableau by cost) both run on the MPS
    engine its structural route names."""
    for n, shots in ((5, 2048), (12, 1024)):
        assert _engine_that_ran(jobs[(n, shots)], "mps") == "mps"


def test_held_tableau_serves_the_compact_job_with_the_routed_counts(jobs):
    """Holding the tableau overrides the cost choice on the GHZ-5 job,
    which the cost sends to the dense engine, and its seeded counts are
    bit-identical to the routed run's."""
    job = jobs[(5, 2048)]
    routed = _run(job, 7)
    with engine_route("tableau"):
        held = _run(job, 7)
        assert _engine_that_ran(job) == "tableau"
    assert _engine_that_ran(job) == "dense"
    assert_counts_identical(routed, held, context=("ghz5", 7))


@pytest.mark.parametrize("seed", [3, 7])
def test_routed_counts_equal_dense_counts(jobs, seed):
    """The device GHZ-12 job runs on the tableau; its seeded counts are
    bit-identical to the dense engine's."""
    job = jobs[(12, 1024)]
    routed = _run(job, seed)
    with engine_route("dense"):
        dense = _run(job, seed)
        assert _engine_that_ran(job) == "dense"
    assert_counts_identical(routed, dense, context=("ghz12", seed))


def test_choice_draws_nothing_from_the_stream(jobs):
    """Both engines leave a shared generator at the same position: the
    estimate draws nothing, and realizations precede any engine."""
    job = jobs[(12, 1024)]
    routed_rng = np.random.default_rng(11)
    dense_rng = np.random.default_rng(11)
    _run(job, routed_rng)
    with engine_route("dense"):
        _run(job, dense_rng)
    assert routed_rng.bit_generator.state == dense_rng.bit_generator.state
    assert routed_rng.random() == dense_rng.random()


def test_dense_is_never_chosen_over_its_admission_budget(jobs, monkeypatch):
    """A budget that fits the tableau but not the dense engine keeps the
    compact GHZ-5 job, which the estimate would serve dense, off the
    dense engine under ``"auto"``; under ``"fast"`` (structurally dense)
    admission rejects it before any engine exists."""
    job = jobs[(5, 2048)]
    qc = job["circuit"]
    with engine_mode("auto") as config:
        dense_peak = DenseEngine.estimate_peak_bytes(qc, config)
        tableau_peak = TableauEngine.estimate_peak_bytes(qc, config)
    budget = dense_peak - 1
    assert tableau_peak <= budget
    built = []
    real_init = DenseEngine.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(DenseEngine, "__init__", spy)
    assert _engine_that_ran(job, "auto") == "dense"
    built.clear()
    with traced_run("auto", max_state_bytes=budget) as run:
        _run(job, 7)
    assert run.report.engine == "tableau"
    assert not built
    with engine_mode("fast", max_state_bytes=budget):
        with pytest.raises(ResourceAdmissionError):
            _run(job, 7)
    assert not built


def test_one_routing_call_per_request(jobs, monkeypatch):
    """``sample_counts`` routes once and hands the class to admission,
    which therefore does not route again."""
    from repro.simulator import engines as engines_mod

    calls = []

    def spy(mode, circuit):
        calls.append(mode)
        return select_engine(mode, circuit)

    monkeypatch.setattr(sampler_mod, "select_engine", spy)
    monkeypatch.setattr(engines_mod, "select_engine", spy)
    job = jobs[(5, 2048)]
    for mode in ("fast", "auto", "mps"):
        calls.clear()
        with engine_mode(mode):
            _run(job, 7)
        assert calls == [mode]
