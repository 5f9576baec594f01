"""The tableau's sign-mask walk against the per-group replay walk.

The production tableau samples its trajectory groups through
``engines.tableau.grouped_sign_walk``: Pauli-only groups take the clean
run's final signs XOR one mask per injection, reset groups fork and
replay, and every group samples from one draw through the coset support
of its final X/Z structure.  ``helpers.parity.replayed_tableau()`` puts
the same engine back on the sampler's per-group replay walk (fork,
inject, replay the suffix, sample group by group).  Both must give
identical seeded counts and leave the generator at the same position.
"""

import contextlib

import numpy as np
import pytest

from helpers.parity import engine_route, replayed_tableau
from repro.circuits import QuantumCircuit, ghz_circuit
from repro.circuits.circuit import Instruction
from repro.errors import FaultInjected, SimulationError
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    engine_mode,
    pauli_error,
    sample_counts,
    thermal_relaxation_error,
)
from repro.simulator import stabilizer as stabilizer_mod
from repro.simulator.engines import tableau as tableau_mod
from repro.simulator.noise import ErrorTerm, QuantumError
from repro.simulator.stabilizer import Tableau
from repro.telemetry import tracing
from repro.testing import Fault, inject_faults, reference
from tests.test_cost_routing import _device_job, _run
from tests.test_stabilizer import random_clifford_circuit


def _sampled(qc, shots, seed, walk, **kwargs):
    """Seeded counts and the generator's state after one request held on
    the tableau under *walk*."""
    rng = np.random.default_rng(seed)
    with walk(), engine_route("tableau"):
        counts = sample_counts(qc, shots, rng=rng, **kwargs)
    return counts.to_dict(), rng.bit_generator.state


def assert_walks_agree(qc, shots, seed, **kwargs):
    signs = _sampled(qc, shots, seed, contextlib.nullcontext, **kwargs)
    replay = _sampled(qc, shots, seed, replayed_tableau, **kwargs)
    assert signs[0] == replay[0], (seed, signs[0], replay[0])
    assert signs[1] == replay[1], seed


def _every_gate(qc, make_error):
    """``instruction_errors`` attaching ``make_error(instruction)`` to
    every unitary instruction of *qc*."""
    return {
        idx: make_error(inst)
        for idx, inst in enumerate(qc)
        if inst.name not in ("measure", "barrier")
    }


def _xyz(p):
    """Explicit single- and two-qubit X/Y/Z terms, multi-letter ones
    included."""

    def make(inst):
        if len(inst.qubits) == 1:
            return pauli_error([("X", p), ("Y", p), ("Z", p)])
        return pauli_error([("XI", p), ("IY", p), ("ZZ", p), ("YX", p)])

    return make


def _reset_mix(p):
    """A reset of every operand beside Pauli terms."""

    def make(inst):
        terms = [ErrorTerm("reset", p, reset_operand=k) for k in range(len(inst.qubits))]
        letters = "XYZ" if len(inst.qubits) == 1 else ("XZ", "YY", "ZI")
        return QuantumError(terms + [ErrorTerm("pauli", p / 2, pauli=s) for s in letters])

    return make


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [3, 7, 12])
def test_pauli_only_groups_match_the_replay(n, seed):
    """Heavy explicit X/Y/Z noise on every gate: most groups carry
    several errors, all of them Pauli terms."""
    qc = random_clifford_circuit(n, 3 * n, np.random.default_rng(100 + seed), measure=True)
    assert_walks_agree(qc, 400, seed, instruction_errors=_every_gate(qc, _xyz(0.06)))


@pytest.mark.parametrize("seed", range(4))
def test_depolarizing_noise_model_matches_the_replay(seed):
    qc = ghz_circuit(9)
    errors = _every_gate(
        qc, lambda inst: depolarizing_error(0.2, len(inst.qubits))
    )
    assert_walks_agree(qc, 512, seed, instruction_errors=errors)


def _reset_states_circuit():
    """Qubit 0 in |1⟩, qubit 1 superposed, qubits 2-3 entangled with it,
    qubit 4 in |0⟩; every gate after the first layer acts on all three
    kinds, so resets hit |0⟩, |1⟩ and superposed qubits."""
    qc = QuantumCircuit(5)
    qc.x(0)
    qc.h(1)
    qc.s(4)
    qc.cx(1, 2)
    qc.cz(0, 4)
    qc.cx(2, 3)
    qc.cx(0, 1)
    qc.h(4)
    qc.cx(4, 0)
    qc.measure_all()
    return qc


@pytest.mark.parametrize("seed", range(8))
def test_reset_groups_match_the_replay(seed):
    qc = _reset_states_circuit()
    assert_walks_agree(qc, 600, seed, instruction_errors=_every_gate(qc, _reset_mix(0.08)))


def test_reset_branches_are_all_reached():
    """The reset circuit's first layer puts a reset on |1⟩ (a flip), on
    a superposed qubit (a collapse) and on |0⟩ (nothing)."""
    qc = _reset_states_circuit()
    tab = Tableau(5)
    tab.apply_instructions(list(qc)[:3])
    assert [tab.marginal_probability_one(q) for q in (0, 1, 4)] == [1.0, 0.5, 0.0]


@pytest.mark.parametrize("seed", range(4))
def test_thermal_relaxation_matches_the_replay(seed):
    qc = random_clifford_circuit(8, 24, np.random.default_rng(200 + seed), measure=True)
    relax = thermal_relaxation_error(20e-6, 15e-6, 2e-6)
    errors = _every_gate(
        qc,
        lambda inst: relax.compose(depolarizing_error(0.05, len(inst.qubits))),
    )
    assert_walks_agree(qc, 512, seed, instruction_errors=errors)


def test_measured_subset_with_permuted_clbits():
    qc = QuantumCircuit(6, 4)
    qc.h(0)
    for q in range(5):
        qc.cx(q, q + 1)
    qc.s(3)
    qc.h(5)
    qc.measure(4, 0)
    qc.measure(1, 3)
    qc.measure(5, 1)
    qc.measure(2, 2)
    for seed in range(4):
        assert_walks_agree(qc, 300, seed, instruction_errors=_every_gate(qc, _reset_mix(0.07)))


@pytest.mark.parametrize("seed", range(5))
def test_one_shot(seed):
    qc = _reset_states_circuit()
    assert_walks_agree(qc, 1, seed, instruction_errors=_every_gate(qc, _xyz(0.1)))


def test_noiseless_single_group():
    assert_walks_agree(ghz_circuit(10), 256, 3)


def test_cosets_past_the_exact_bound_draw_group_by_group():
    """52 free bits exceed ``_EXACT_COSET_BITS``: every group draws one
    uniform per free bit, in visit order."""
    qc = QuantumCircuit(52)
    for q in range(52):
        qc.h(q)
    qc.cx(0, 1)
    qc.measure_all()
    assert_walks_agree(qc, 24, 5, instruction_errors=_every_gate(qc, _xyz(0.01)))


@pytest.mark.parametrize("seed", [1, 2])
def test_sign_walk_matches_the_byte_tableau_reference(seed):
    """The byte-tableau oracle keeps the per-group replay walk, so it
    checks the sign walk independently of the packed tableau."""
    noise = NoiseModel()
    noise.add_gate_error(thermal_relaxation_error(20e-6, 15e-6, 3e-6), "h")
    noise.add_gate_error(
        thermal_relaxation_error(20e-6, 15e-6, 3e-6, operand=1).compose(
            depolarizing_error(0.1, 2)
        ),
        "cx",
    )
    qc = ghz_circuit(7)
    with engine_route("tableau"):
        got = sample_counts(qc, 500, noise=noise, rng=seed)
    want = reference.sample_counts_tableau(qc, 500, noise=noise, rng=seed)
    assert got.to_dict() == want.to_dict()


def test_default_walk_is_the_sign_walk(monkeypatch):
    """The production tableau takes the sign walk; ``replayed_tableau``
    takes it off."""
    calls = []
    real = tableau_mod.grouped_sign_walk

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tableau_mod, "grouped_sign_walk", spy)
    qc = ghz_circuit(6)
    errors = _every_gate(qc, _xyz(0.05))
    _sampled(qc, 64, 1, contextlib.nullcontext, instruction_errors=errors)
    assert calls == [1]
    _sampled(qc, 64, 1, replayed_tableau, instruction_errors=errors)
    assert calls == [1]


def test_sign_walk_has_fault_points():
    """``engine.span`` fires once per group in the sign walk too."""
    qc = ghz_circuit(6)
    errors = _every_gate(qc, _xyz(0.05))
    with inject_faults(Fault("engine.span", index=0, times=1)):
        with pytest.raises(FaultInjected):
            _sampled(qc, 64, 1, contextlib.nullcontext, instruction_errors=errors)


def test_traced_device_job_reports_sign_groups_and_coset_builds(monkeypatch):
    """The device GHZ-12 job (routed to the tableau): most groups are
    sampled from sign masks, and the reset groups that replay share
    factorizations, so even on a cold coset table there are fewer coset
    builds than replays."""
    monkeypatch.setattr(tableau_mod, "_SUPPORTS", {})
    monkeypatch.setattr(tableau_mod, "_supports_bytes", 0)
    job = _device_job(12, 1024)
    with engine_mode("fast", trace=True):
        _run(job, 7)
    report = tracing.last_report()
    assert report.engine == "tableau"
    counters = report.counters
    assert counters["tableau.sign_groups"] > 0
    assert 0 < counters["tableau.coset_builds"] < counters["tableau.replayed_groups"]
    # Every noisy group is one or the other; the clean group is neither.
    assert (
        counters["tableau.sign_groups"] + counters["tableau.replayed_groups"]
        == counters["sampler.trajectory_groups"] - 1
    )


class TestCompiledProgramMemo:
    def test_equal_instructions_share_one_program(self):
        """Instructions rebuilt with equal fields (the device remaps
        every job) reuse the compiled program."""
        tab = Tableau(4)
        a = Instruction("prx", (2,), (np.pi / 2, np.pi))
        b = Instruction("prx", (2,), (np.pi / 2, np.pi))
        assert a is not b
        assert tab._compiled(a) is tab._compiled(b)
        other = Instruction("prx", (3,), (np.pi / 2, np.pi))
        assert tab._compiled(other) is not tab._compiled(a)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(stabilizer_mod, "_PROGRAMS", {})
        monkeypatch.setattr(stabilizer_mod, "_PROGRAMS_MAX", 3)
        tab = Tableau(8)
        for q in range(8):
            tab._compiled(Instruction("h", (q,)))
            assert len(stabilizer_mod._PROGRAMS) <= 3

    def test_memo_keeps_the_operand_check(self):
        Tableau(8)._compiled(Instruction("h", (5,)))
        with pytest.raises(SimulationError):
            Tableau(3)._compiled(Instruction("h", (5,)))
