"""Seeded counts of the tableau routes, pinned against recorded digests.

The digests below were recorded before the uint8 and bit-packed tableaux
were merged into one class, when the tableau route (then the
``"stabilizer"`` mode) and ``"auto"`` ran the uint8 tableau below 64
qubits and the packed one from 64 up, and the hybrid engine always ran
uint8.  Reproducing them exactly shows the single tableau behaves bit
for bit like both former implementations on either side of the old
width threshold (5–100 qubits), under depolarizing noise and under
thermal relaxation's reset terms, on the grouped walk, the hybrid
boundary crossing and the per-shot measure/reset walk.  The tableau and
hybrid routes are held by ``engine_route`` (:data:`TABLEAU_ROUTE`,
:data:`HYBRID_ROUTE`); the hybrid engine serves Clifford circuits on its
tableau phase alone.

A digest is the SHA-256 of the sorted ``(bitstring, count)`` pairs, so
the table stays small at 100-bit registers.
"""

import hashlib
import json

import numpy as np
import pytest

from helpers.parity import HYBRID_ROUTE, TABLEAU_ROUTE, counts_under_mode, ghz_t
from repro.circuits import QuantumCircuit, ghz_circuit
from repro.simulator import (
    NoiseModel,
    depolarizing_error,
    thermal_relaxation_error,
)
from tests.test_stabilizer import random_clifford_circuit

WIDTHS = (5, 24, 63, 64, 65, 100)
GHZ_T_WIDTHS = (5, 24, 62)
SHOTS = 48


def _depolarizing() -> NoiseModel:
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(0.01, 2), "cx")
    nm.add_gate_error(depolarizing_error(0.01, 2), "cz")
    nm.add_gate_error(depolarizing_error(0.005, 1), "h")
    nm.add_gate_error(depolarizing_error(0.01, 1), "t")
    return nm


def _thermal() -> NoiseModel:
    nm = NoiseModel()
    nm.add_gate_error(thermal_relaxation_error(30e-6, 20e-6, 5e-6), "h")
    nm.add_gate_error(
        thermal_relaxation_error(30e-6, 20e-6, 5e-6, operand=1).compose(
            depolarizing_error(0.02, 2)
        ),
        "cx",
    )
    return nm


NOISES = {"depolarizing": _depolarizing, "thermal": _thermal}


def _random_clifford(n: int) -> QuantumCircuit:
    return random_clifford_circuit(n, 2 * n, np.random.default_rng(n), measure=True)


def _mid_circuit(n: int) -> QuantumCircuit:
    """GHZ with a mid-circuit measurement, a reset and re-entanglement:
    forces the per-shot walk through collapse on every shot."""
    qc = QuantumCircuit(n)
    qc.h(0)
    for q in range(n - 1):
        qc.cx(q, q + 1)
    qc.measure(0)
    qc.x(0)
    qc.reset(n - 1)
    qc.h(n - 1)
    qc.cx(n - 2, n - 1)
    qc.measure_all()
    return qc


def cases():
    """``(key, mode, circuit, noise, shots)`` for every pinned run; every
    mode must reproduce its circuit's one digest."""
    out = []
    for n in WIDTHS:
        for noise_name, make_noise in NOISES.items():
            for family, build in (("ghz", ghz_circuit), ("clifford", _random_clifford)):
                for mode in (TABLEAU_ROUTE, HYBRID_ROUTE, "auto"):
                    key = f"{family}-{n}-{noise_name}"
                    out.append((key, mode, build(n), make_noise(), SHOTS))
    # The amplitude crossing packs basis indices into int64 words, so the
    # hybrid engine's tail widths stop at 62 qubits.
    for n in GHZ_T_WIDTHS:
        for noise_name, make_noise in NOISES.items():
            for mode in (HYBRID_ROUTE, "auto"):
                key = f"ghz_t-{n}-{noise_name}"
                out.append((key, mode, ghz_t(n), make_noise(), SHOTS))
    # Every per-shot shot replays and collapses the whole register.
    for n, shots in ((3, SHOTS), (65, 12)):
        for mode in (TABLEAU_ROUTE, HYBRID_ROUTE, "auto"):
            key = f"mid_circuit-{n}"
            out.append((key, mode, _mid_circuit(n), _depolarizing(), shots))
    return out


def counts_digest(mode, circuit, noise, shots, seed=11) -> str:
    counts = counts_under_mode(circuit, mode, seed, noise=noise, shots=shots)
    payload = json.dumps(sorted(counts.to_dict().items()))
    return hashlib.sha256(payload.encode()).hexdigest()


PINNED = {
    "ghz-5-depolarizing":
        "a6f5ac5327e5681e075aa6eeac66df4be5194127f6ec488001cbc1dc2045825f",
    "clifford-5-depolarizing":
        "bf80299863ed207a8b518c202611e6a247e5e15d24f20d0cd983511f42aa9b5a",
    "ghz-5-thermal":
        "c44aa17074dc305c5f2b7f262c0f2d009c45921f60b130489304f487ecb86435",
    "clifford-5-thermal":
        "3e4857777685003d28973ca8b065ed171879b92a2f554457e6dd5701fd1da889",
    "ghz-24-depolarizing":
        "c247c1e1f235f2f2159a580ca8c5ad23b2ca832bb0e944a48eef0a39b9c2b438",
    "clifford-24-depolarizing":
        "e29f2b3ba46472facba33d851084bab5efdb5d8dbb08bda76de4b7ec93da1b03",
    "ghz-24-thermal":
        "f5f125911acf05905ac699021e45894d1078eddc30738ae07c7b4fd93668473f",
    "clifford-24-thermal":
        "6d5fccf61eb4ecccd5e89059288bca86de771a4702e894846699ab171d8119ca",
    "ghz-63-depolarizing":
        "a8b65229432da091c5f68d48f071b51df8f171e600ba49a8beb568bec00b028d",
    "clifford-63-depolarizing":
        "7c9b6d954f30d6e0d97acccf4785c6ed4f4620e471fae3923fed9007f2196d6d",
    "ghz-63-thermal":
        "3799ff133284afc4fd4cd808a2b224494a7075743f090729c708660ae77e0b19",
    "clifford-63-thermal":
        "0ac0f90d023ec9dff8d73bb47593111cb59c48996cb80634611acf5cae7421e3",
    "ghz-64-depolarizing":
        "142cb226aeb0b05bf10b0003247f00ab59fd151b069d56bcf8f79eedc6b398f5",
    "clifford-64-depolarizing":
        "f9550e1d202a05ffaa8a2402cd035ccc6704a28567355e0957ee147207dc1fb2",
    "ghz-64-thermal":
        "81a49bf02414263e5802181266763a25442170f791533b3f1d501c3de5df6752",
    "clifford-64-thermal":
        "93c728a00a6436b0411cd7a67a0e29a213d098f6397c49a046e6bf6cbe3f0005",
    "ghz-65-depolarizing":
        "bced218978635c3148a3a785d49ae034f8043e263ab110c385c0aac176b73a60",
    "clifford-65-depolarizing":
        "8c9ec1fef92e7bfe9e65b07ea4bfc702ef7d26d804c9f0c166837626c020be45",
    "ghz-65-thermal":
        "665024944de27267d4043a85422ea43756fc60367baf83e154c7a7584ef5e7dd",
    "clifford-65-thermal":
        "b90bff32b6bc714b9b09cc4a25a77d4a57b7a141c4a69cc01fb33137b7fcc9e4",
    "ghz-100-depolarizing":
        "39861ce388036c145543372e91aff124034ff53e4420ea6a4f02793e088fa0a4",
    "clifford-100-depolarizing":
        "58cfd6537f4cd3451565ef43605d6f65e034ddedf5049ad0233c52ec1a7a6de9",
    "ghz-100-thermal":
        "b32d600f52860da94371276edb2507670223d70163da03d14b81229580bf1e8a",
    "clifford-100-thermal":
        "e514c8eeaf1ad6e61dfdbace35c21b56dac1de5c0a91ff2ecc00e638d7272166",
    "ghz_t-5-depolarizing":
        "96d78145e0439edac14adec1419b908c7b564d71a0f5cc618b11348c284e037d",
    "ghz_t-5-thermal":
        "c44aa17074dc305c5f2b7f262c0f2d009c45921f60b130489304f487ecb86435",
    "ghz_t-24-depolarizing":
        "1c997cb461574f14f325e5bf5946ff08996d2b24219adcb0e23596766d27678b",
    "ghz_t-24-thermal":
        "f5f125911acf05905ac699021e45894d1078eddc30738ae07c7b4fd93668473f",
    "ghz_t-62-depolarizing":
        "82680ef2dcebdb42ac7d3ee45490df867ccee9834500f5b305a124a65e0a3119",
    "ghz_t-62-thermal":
        "b5d8e34557286aa0dd68845aab233e081bf2fed582e3911fc996c3b051fee20b",
    "mid_circuit-3":
        "c2868c100182bb92bbccda03eb5ae5c7769e28d87409f4ced895a752807d109f",
    "mid_circuit-65":
        "894d0365234afd2c5345ae7b1b108c132279d06bd3f0d5a59a5b85b27d0ace83",
}


CASES = cases()


@pytest.mark.parametrize(
    "key,mode,circuit,noise,shots", CASES, ids=[f"{case[0]}-{case[1]}" for case in CASES]
)
def test_seeded_counts_reproduce_recorded_digests(key, mode, circuit, noise, shots):
    assert counts_digest(mode, circuit, noise, shots) == PINNED[key]
