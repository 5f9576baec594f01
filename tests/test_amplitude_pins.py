"""Seeded counts of the amplitude routes, pinned against recorded digests.

The digests below were recorded while shots could still be sharded
across worker processes, when the grouped walks still took an
``initial=`` clean-prefix state for shard blocks and the reset branch of
``inject_into_dense`` read a qubit's marginal twice (once itself, once
inside ``collapse``).  Reproducing them exactly shows the single
sampling stream, the prefix-free walks and the one-marginal reset
projection behave bit for bit like the code they replaced.

Every case runs one circuit under one mode; all modes of a circuit must
reproduce its one digest.  The routes covered are the batched grouped
walk (``"fast"`` at ≥4 groups), its scalar form, the hybrid segment
walk (held there by ``engine_route("hybrid")``), the MPS walk and
``"auto"``'s pick, on a non-Clifford diagonal tail, a branching
brickwork and a mid-circuit measure/reset circuit,
under depolarizing noise and under thermal relaxation, whose reset
terms take the reset branch of ``inject_into_dense`` on every route.

A digest is the SHA-256 of the sorted ``(bitstring, count)`` pairs, as
in :mod:`tests.test_tableau_pins`.
"""

import hashlib
import json

import pytest

from helpers.parity import HYBRID_ROUTE, SCALAR_FAST, counts_under_mode, ghz_t
from repro.circuits import QuantumCircuit, brickwork_circuit
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    thermal_relaxation_error,
)

WIDTHS = (4, 10)
MODES = ("fast", SCALAR_FAST, HYBRID_ROUTE, "mps", "auto")
SHOTS = 64


def _depolarizing() -> NoiseModel:
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.02, 2), "cx")
    nm.add_gate_error(depolarizing_error(0.02, 2), "cz")
    nm.add_gate_error(depolarizing_error(0.01, 1), "h")
    nm.add_gate_error(depolarizing_error(0.01, 1), "t")
    nm.add_gate_error(depolarizing_error(0.01, 1), "ry")
    return nm


def _thermal() -> NoiseModel:
    nm = NoiseModel()
    relax = thermal_relaxation_error(30e-6, 20e-6, 5e-6)
    for gate in ("h", "t", "ry", "x"):
        nm.add_gate_error(relax, gate)
    for gate in ("cx", "cz"):
        nm.add_gate_error(
            thermal_relaxation_error(30e-6, 20e-6, 5e-6, operand=1).compose(
                depolarizing_error(0.02, 2)
            ),
            gate,
        )
    return nm


NOISES = {"depolarizing": _depolarizing, "thermal": _thermal}


def _brickwork(n: int) -> QuantumCircuit:
    return brickwork_circuit(n, 4, seed=n)


def _mid_circuit(n: int) -> QuantumCircuit:
    """GHZ-T with a mid-circuit measurement, a reset and re-entanglement:
    every shot collapses the amplitude state on the per-shot walk."""
    qc = QuantumCircuit(n)
    qc.h(0)
    for q in range(n - 1):
        qc.cx(q, q + 1)
    qc.t(0)
    qc.measure(0)
    qc.x(0)
    qc.reset(n - 1)
    qc.h(n - 1)
    qc.t(n - 1)
    qc.cx(n - 2, n - 1)
    qc.measure_all()
    return qc


FAMILIES = {"ghz_t": ghz_t, "brickwork": _brickwork, "mid_circuit": _mid_circuit}


def cases():
    """``(key, mode, family, width, noise_name)`` for every pinned run."""
    return [
        (f"{family}-{n}-{noise_name}", mode, family, n, noise_name)
        for family in FAMILIES
        for n in WIDTHS
        for noise_name in NOISES
        for mode in MODES
    ]


def counts_digest(mode, family, n, noise_name, seed=11) -> str:
    circuit = FAMILIES[family](n)
    counts = counts_under_mode(
        circuit, mode, seed, noise=NOISES[noise_name](), shots=SHOTS
    )
    payload = json.dumps(sorted(counts.to_dict().items()))
    return hashlib.sha256(payload.encode()).hexdigest()


PINNED = {
    "ghz_t-4-depolarizing":
        "0df82153f0f05dd754439ccc955fad77e281c733860a9922c8ab678a15f1c654",
    "ghz_t-4-thermal":
        "272589eedbaa0701dbc624d30dd61aa52f77d3c0ede8b456088baaa8c423beb1",
    "ghz_t-10-depolarizing":
        "d66c9b239f6e62377a5c38d68341f649b18ff29bbcda07687d78de9bd3fa4b0f",
    "ghz_t-10-thermal":
        "b735d299974a9c1ef02ae7f241a89fbf97927f5c34b83e687235f6fc12fbdedb",
    "brickwork-4-depolarizing":
        "7b3d81ce1faed7f1cc8d6784bbcc9aa27c211e6db49c96b701b56a142b080d57",
    "brickwork-4-thermal":
        "1023472a76ea116e42cb8622cb1d5673dfe75cfd33f461ed0fb05591a5e63ea5",
    "brickwork-10-depolarizing":
        "39495821cd09af173b7a0068be98444cbf2d8c6b151a1fdec65f4ecb86e62b97",
    "brickwork-10-thermal":
        "f645e0792deda8f711aa3f1dae72c7cd8b7db1b5d2b2725a266ea4baf63e0fe0",
    "mid_circuit-4-depolarizing":
        "280492998382f93d7f9e1fea58f91a019aba25271e004c21ca2b38a114af047b",
    "mid_circuit-4-thermal":
        "a14d946e332a636bedf529ea7d2546d6850b318cb70a26d7dfcde731165a4993",
    "mid_circuit-10-depolarizing":
        "6fac57f7ba1aea44e7feaced63accb6624dbec57c2ad85efcca73beadea6ecb0",
    "mid_circuit-10-thermal":
        "642e4eaf66d17f4210df752c264818d516d25e4e153a0a3070187b8c3e6fe89f",
}


@pytest.mark.parametrize(
    "key, mode, family, n, noise_name",
    cases(),
    ids=[f"{key}-{mode}" for key, mode, *_ in cases()],
)
def test_amplitude_route_counts_pinned(key, mode, family, n, noise_name):
    assert counts_digest(mode, family, n, noise_name) == PINNED[key]
