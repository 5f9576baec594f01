"""The tableau's measurement algebra on its column words, against the
byte-tableau oracle.

``Tableau._collapse_random`` runs the Aaronson–Gottesman ``rowsum`` of
the pivot row into every other row with an X bit on the measured qubit
directly on the column words, summing the ``g`` exponents in a
bit-sliced mod-4 counter over the rows; ``_deterministic_outcome``
reads the sign of the selected stabilizer product from a closed-form
phase per column.  Both must leave exactly the oracle's tableau bits and
outcomes, at widths that straddle CPython's 30-bit limbs and the
64-bit words of the packed row view.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulator.stabilizer import Tableau, ghz_tableau
from repro.testing.reference import ByteTableau, pack, unpack
from tests.test_packed_tableau import assert_same_state
from tests.test_stabilizer import random_clifford_circuit

WIDTHS = (1, 2, 12, 31, 32, 63, 64, 65, 130)


def _random_state(n, seed):
    """A random Clifford state as a byte tableau, with sign-flipping
    Paulis mixed in so rows carry both signs."""
    rng = np.random.default_rng(seed)
    qc = random_clifford_circuit(n, 3 * n + 4, rng)
    byte = ByteTableau(n)
    for inst in qc:
        byte.apply_instruction(inst)
    byte.apply_pauli("".join(rng.choice(list("IXYZ"), n)), range(n))
    return byte


def _random_qubits(byte):
    n = byte.num_qubits
    return [q for q in range(n) if byte.x[n:, q].any()]


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("outcome", (0, 1))
def test_collapse_matches_the_byte_tableau(n, outcome):
    """Every random-outcome qubit of random Clifford states collapses
    onto either outcome to exactly the oracle's tableau bits."""
    collapsed = 0
    for seed in range(6):
        byte = _random_state(n, seed)
        for q in _random_qubits(byte)[:8]:
            b, p = byte.copy(), pack(byte)
            b._collapse_random(q, outcome)
            p._collapse_random(q, outcome)
            assert_same_state(b, p, (seed, q))
            collapsed += 1
    assert collapsed


@pytest.mark.parametrize("n", WIDTHS)
def test_deterministic_outcomes_match_the_byte_tableau(n):
    """After a random collapse the qubit reads its outcome back, and
    every deterministic qubit reads the oracle's outcome: both values
    occur at every width."""
    seen = set()
    for seed in range(6):
        byte = _random_state(n, seed)
        for i in range(4):
            random_qubits = _random_qubits(byte)
            if not random_qubits:
                break
            q = random_qubits[len(random_qubits) // 2]
            outcome = (seed + i) & 1
            byte._collapse_random(q, outcome)
            p = pack(byte)
            assert p._deterministic_outcome(q) == outcome
            seen.add(outcome)
            for other in range(n):
                if not byte.x[n:, other].any():
                    want = byte._deterministic_outcome(other)
                    assert p._deterministic_outcome(other) == want, (seed, other)
                    assert p.marginal_probability_one(other) == float(want)
                    seen.add(want)
    assert seen == {0, 1}


@pytest.mark.parametrize("n", (12, 65, 130))
def test_seeded_measure_all_sequences_match(n):
    """A seeded measurement of every qubit, then a reset, consumes the
    same draws and leaves the same tableau as the oracle."""
    for seed in range(3):
        byte = _random_state(n, seed)
        p = pack(byte)
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        for q in np.random.default_rng(seed + 100).permutation(n):
            assert byte.measure(int(q), r1) == p.measure(int(q), r2)
        byte.reset(0, r1)
        p.reset(0, r2)
        assert_same_state(byte, p, seed)
        assert r1.random() == r2.random()


def test_collapse_keeps_gate_conjugations_exact():
    """Gates applied after a collapse see the column words the collapse
    wrote: the state stays equal to the oracle's through more gates and
    a second round of collapses."""
    rng = np.random.default_rng(3)
    n = 33
    byte = _random_state(n, 3)
    p = pack(byte)
    for round_ in range(3):
        for _ in range(3):
            q = _random_qubits(byte)[0]
            byte._collapse_random(q, round_ & 1)
            p._collapse_random(q, round_ & 1)
        for inst in random_clifford_circuit(n, 40, rng):
            byte.apply_instruction(inst)
            p.apply_instruction(inst)
        assert_same_state(byte, p, round_)


def test_ghz_collapse_and_readout():
    """Collapsing one qubit of a wide GHZ state fixes every other qubit
    to the same value."""
    for n in (64, 130):
        for outcome in (0, 1):
            tab = ghz_tableau(n)
            assert tab.collapse(0, outcome) == 0.5
            assert all(
                tab.marginal_probability_one(q) == float(outcome) for q in range(n)
            )


def test_non_hermitian_product_still_raises():
    """A corrupted tableau whose stabilizer product comes out as ±i is
    reported, not read as an outcome."""
    tab = Tableau(2)
    # Stabilizer rows X_0 and Z_0 (anticommuting), both selected by the
    # destabilizer bits of qubit 1's X column: their product is ±iY_0.
    tab._xc = [0b0100, 0b0011]
    tab._zc = [0b1000, 0]
    for corrupted in (tab, unpack(tab)):
        with pytest.raises(SimulationError, match="non-Hermitian"):
            corrupted._deterministic_outcome(1)


def test_expectations_match_the_byte_tableau():
    """Pauli expectations share the column-word stabilizer product."""
    rng = np.random.default_rng(41)
    for n in (1, 31, 65):
        byte = _random_state(n, n)
        p = pack(byte)
        checked = set()
        for _ in range(30):
            pauli = "".join(rng.choice(list("IXYZ"), n))
            want = byte.expectation_pauli(pauli, range(n))
            assert p.expectation_pauli(pauli, range(n)) == want, (n, pauli)
            checked.add(want)
        # Stabilizer elements themselves read ±1.
        for q in range(n):
            want = byte.expectation_z([q])
            assert p.expectation_z([q]) == want
            checked.add(want)
        assert 0.0 in checked

