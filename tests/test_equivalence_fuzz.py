"""Differential cross-engine equivalence fuzzer.

Property under test: for every circuit the generator can produce,
**planned execution is bit-identical to unplanned execution** on every
backend — same structural decisions, same RNG stream, same seeded
counts.  The plan layer is a pure memoization, so any divergence is a
bug by definition; random circuits hunt for the shape that breaks it.

Five shape families cover the distinct execution regimes:

* ``clifford`` — tableau-eligible circuits (``stabilizer`` runs them on
  the packed word-parallel tableau at every width);
* ``clifford_t`` — Clifford prefix + diagonal tail: hybrid boundary
  crossing, diagonal-run fusion, MPS swap routing;
* ``parameterized`` — random rotation angles: block fusion on
  non-diagonal runs, rebinding against a shared structural hash;
* ``noisy`` — depolarizing noise: the grouped walk's fork/injection
  machinery under plans;
* ``mid_measure`` — mid-circuit measure/reset: the per-shot event walk;
* ``wide`` — deep registers past the blocked-sweep tile: cache-blocked
  execution plus the lazy qubit remap, fuzzed on **two** axes (planned
  vs unplanned, blocked vs unblocked).  Tier-1 shrinks the tile via
  ``batch_max_bytes`` so 8–10 qubits already count as wide; the deep
  budget runs the real 16–20 qubit registers.

Wherever ``"fast"`` is swept it is joined by ``SCALAR_FAST`` (``"fast"``
with the grouped walk held scalar): at these widths ``"fast"`` takes the
batched grouped walk by itself, so the pair fuzzes both walks, and the
noisy family also pins their seeded counts to each other.  The unplanned
reference runs the sampler with no bound plan
(``helpers.parity.unplanned``).

Budgets: the tier-1 sample keeps the suite fast; ``--fuzz-deep`` runs
hundreds of circuits per invocation (the acceptance budget).
"""

import numpy as np
import pytest

from helpers.parity import (
    SCALAR_FAST,
    assert_counts_identical,
    counts_under_mode,
    unplanned,
)
from repro.circuits import QuantumCircuit
from repro.simulator import NoiseModel, depolarizing_error

pytestmark = pytest.mark.fuzz

#: Circuits per family: (tier-1 sample, deep budget).  Deep runs the
#: acceptance sweep: 5 families × 48 = 240 generated circuits.
BUDGET = (6, 48)

_CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z", "sx")
_CLIFFORD_2Q = ("cx", "cz", "swap", "iswap")
_ROTATIONS = ("rx", "ry", "rz", "p")


def _budget(deep: bool) -> int:
    return BUDGET[1] if deep else BUDGET[0]


def _random_clifford(rng: np.random.Generator, n: int, depth: int) -> QuantumCircuit:
    qc = QuantumCircuit(n, n)
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.35:
            a, b = rng.choice(n, size=2, replace=False)
            getattr(qc, _CLIFFORD_2Q[rng.integers(len(_CLIFFORD_2Q))])(int(a), int(b))
        else:
            q = int(rng.integers(n))
            getattr(qc, _CLIFFORD_1Q[rng.integers(len(_CLIFFORD_1Q))])(q)
    qc.measure_all()
    return qc


def _random_clifford_t(rng, n, depth) -> QuantumCircuit:
    qc = QuantumCircuit(n, n)
    for _ in range(depth):
        r = rng.random()
        if n >= 2 and r < 0.3:
            a, b = rng.choice(n, size=2, replace=False)
            getattr(qc, _CLIFFORD_2Q[rng.integers(len(_CLIFFORD_2Q))])(int(a), int(b))
        elif r < 0.6:
            q = int(rng.integers(n))
            getattr(qc, _CLIFFORD_1Q[rng.integers(len(_CLIFFORD_1Q))])(q)
        else:
            q = int(rng.integers(n))
            qc.t(q) if rng.random() < 0.5 else qc.tdg(q)
    qc.measure_all()
    return qc


def _random_parameterized(rng, n, depth) -> QuantumCircuit:
    qc = QuantumCircuit(n, n)
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.3:
            a, b = rng.choice(n, size=2, replace=False)
            if rng.random() < 0.5:
                qc.cx(int(a), int(b))
            else:
                qc.rzz(float(rng.uniform(0, 2 * np.pi)), int(a), int(b))
        else:
            q = int(rng.integers(n))
            gate = _ROTATIONS[rng.integers(len(_ROTATIONS))]
            getattr(qc, gate)(float(rng.uniform(0, 2 * np.pi)), q)
    qc.measure_all()
    return qc


def _random_mid_measure(rng, n, depth) -> QuantumCircuit:
    qc = QuantumCircuit(n, n)
    for _ in range(depth):
        r = rng.random()
        q = int(rng.integers(n))
        if r < 0.12:
            qc.measure(q, q)
        elif r < 0.2:
            qc.reset(q)
        elif n >= 2 and r < 0.45:
            a, b = rng.choice(n, size=2, replace=False)
            qc.cx(int(a), int(b))
        elif r < 0.7:
            getattr(qc, _CLIFFORD_1Q[rng.integers(len(_CLIFFORD_1Q))])(q)
        else:
            qc.rz(float(rng.uniform(0, 2 * np.pi)), q)
    qc.measure_all()
    return qc


def _random_wide(rng, n, depth) -> QuantumCircuit:
    """Deep wide-register shapes: bursts of activity anchored on a
    3-qubit neighborhood (mostly low, sometimes high — forcing remaps),
    with diagonal excursions to arbitrary qubits riding the sweeps.
    The burst locality mirrors real wide circuits, where most operand
    sets sit far below the (14-qubit) tile; uniform qubit choice at the
    fuzz suite's shrunken tile would never let the scheduler engage."""
    qc = QuantumCircuit(n, n)
    diagonals = ("t", "tdg", "z", "s")
    emitted = 0
    while emitted < depth:
        anchor = 0 if rng.random() < 0.55 else int(rng.integers(n - 2))
        for _ in range(int(rng.integers(5, 10))):
            r = rng.random()
            if r < 0.25:
                q = int(rng.integers(n))
                if rng.random() < 0.5:
                    qc.rz(float(rng.uniform(0, 2 * np.pi)), q)
                else:
                    getattr(qc, diagonals[rng.integers(len(diagonals))])(q)
            elif r < 0.6:
                q = anchor + int(rng.integers(3))
                qc.ry(float(rng.uniform(0, 2 * np.pi)), q)
            else:
                a = anchor + int(rng.integers(2))
                qc.cz(a, a + 1) if rng.random() < 0.5 else qc.cx(a, a + 1)
            emitted += 1
    qc.measure_all()
    return qc


def _fuzz_noise(rng) -> NoiseModel:
    nm = NoiseModel()
    nm.add_gate_error(depolarizing_error(float(rng.uniform(0.02, 0.12)), 2), "cx")
    nm.add_gate_error(depolarizing_error(float(rng.uniform(0.01, 0.08)), 1), "h")
    return nm


def _assert_blocked_equals_unblocked(
    qc, modes, seed, noise=None, shots=128, **mode_options
):
    """The blocked-sweep axis: turning cache blocking off must not move
    a single seeded count (the unblocked path is the reference math)."""
    from repro.simulator.engines import dense

    for mode in modes:
        blocked = counts_under_mode(
            qc, mode, seed, noise=noise, shots=shots, **mode_options
        )
        dense.BLOCKED_SWEEPS = False
        try:
            unblocked = counts_under_mode(
                qc, mode, seed, noise=noise, shots=shots, **mode_options
            )
        finally:
            dense.BLOCKED_SWEEPS = True
        assert_counts_identical(blocked, unblocked, context=("blocked", mode, seed))


def _assert_planned_equals_unplanned(
    qc, modes, seed, noise=None, shots=128, **mode_options
):
    """Pin planned ≡ unplanned per mode; returns the planned counts."""
    results = {}
    for mode in modes:
        planned = counts_under_mode(
            qc, mode, seed, noise=noise, shots=shots, **mode_options
        )
        with unplanned():
            reference = counts_under_mode(
                qc, mode, seed, noise=noise, shots=shots, **mode_options
            )
        assert_counts_identical(planned, reference, context=(mode, seed))
        results[mode] = planned
    return results


def _assert_traced_equals_untraced(
    qc, modes, seed, noise=None, shots=128, **mode_options
):
    """Tracing is observational only: a traced run must reproduce the
    untraced seeded counts bit for bit on every backend."""
    for mode in modes:
        untraced = counts_under_mode(
            qc, mode, seed, noise=noise, shots=shots, **mode_options
        )
        traced = counts_under_mode(
            qc, mode, seed, noise=noise, shots=shots, trace=True, **mode_options
        )
        assert_counts_identical(untraced, traced, context=("traced", mode, seed))


class TestPlannedVsUnplannedFuzz:
    def test_clifford_family(self, fuzz_deep):
        rng = np.random.default_rng(1001)
        for i in range(_budget(fuzz_deep)):
            n = int(rng.integers(2, 7))
            qc = _random_clifford(rng, n, int(rng.integers(8, 30)))
            _assert_planned_equals_unplanned(
                qc, ("fast", SCALAR_FAST, "stabilizer", "hybrid", "mps"), seed=i
            )

    def test_clifford_t_family(self, fuzz_deep):
        rng = np.random.default_rng(2002)
        for i in range(_budget(fuzz_deep)):
            n = int(rng.integers(2, 7))
            qc = _random_clifford_t(rng, n, int(rng.integers(8, 30)))
            _assert_planned_equals_unplanned(
                qc, ("fast", SCALAR_FAST, "hybrid", "mps"), seed=i
            )

    def test_parameterized_family(self, fuzz_deep):
        rng = np.random.default_rng(3003)
        for i in range(_budget(fuzz_deep)):
            n = int(rng.integers(2, 6))
            qc = _random_parameterized(rng, n, int(rng.integers(8, 24)))
            _assert_planned_equals_unplanned(
                qc, ("fast", SCALAR_FAST, "hybrid", "mps"), seed=i
            )

    def test_noisy_family(self, fuzz_deep):
        rng = np.random.default_rng(4004)
        for i in range(_budget(fuzz_deep)):
            n = int(rng.integers(2, 6))
            qc = _random_clifford_t(rng, n, int(rng.integers(8, 20)))
            counts = _assert_planned_equals_unplanned(
                qc,
                ("fast", SCALAR_FAST, "hybrid", "mps"),
                seed=i,
                noise=_fuzz_noise(rng),
            )
            assert_counts_identical(
                counts["fast"], counts[SCALAR_FAST], context=("batched", i)
            )

    def test_mid_measure_family(self, fuzz_deep):
        rng = np.random.default_rng(5005)
        for i in range(_budget(fuzz_deep)):
            n = int(rng.integers(2, 5))
            qc = _random_mid_measure(rng, n, int(rng.integers(8, 20)))
            _assert_planned_equals_unplanned(
                qc, ("fast", "hybrid", "mps"), seed=i, shots=64
            )

    def test_wide_family(self, fuzz_deep):
        """Blocked sweeps + remap unwind on the grouped walk.  Tier-1
        shrinks the tile (``batch_max_bytes=1024`` → 3-qubit tiles) so
        8–10 qubit circuits already exercise the wide machinery; deep
        runs genuine 16–18 qubit registers at the default tile."""
        rng = np.random.default_rng(6006)
        if fuzz_deep:
            cases = [(int(rng.integers(16, 19)), int(rng.integers(24, 36))) for _ in range(3)]
            opts, shots = {}, 24
        else:
            cases = [(int(rng.integers(8, 11)), int(rng.integers(24, 40))) for _ in range(3)]
            opts, shots = {"batch_max_bytes": 1024}, 64
        for i, (n, depth) in enumerate(cases):
            qc = _random_wide(rng, n, depth)
            nm = NoiseModel()
            nm.add_gate_error(
                depolarizing_error(float(rng.uniform(0.01, 0.03)), 2), "cx"
            )
            _assert_planned_equals_unplanned(
                qc, ("fast",), seed=i, noise=nm, shots=shots, **opts
            )
            _assert_blocked_equals_unblocked(
                qc, ("fast",), seed=i, noise=nm, shots=shots, **opts
            )

    def test_wide_family_per_shot(self, fuzz_deep):
        """Mid-circuit measurement drops the sampler to the per-shot
        event walk; the blocked sweep must stay invisible there too."""
        rng = np.random.default_rng(7007)
        if fuzz_deep:
            n, shots, opts = 16, 12, {}
        else:
            n, shots, opts = 9, 48, {"batch_max_bytes": 1024}
        for i in range(2):
            qc = _random_mid_measure(rng, n, int(rng.integers(20, 32)))
            _assert_blocked_equals_unblocked(
                qc, ("fast",), seed=i, shots=shots, **opts
            )

    def test_wide_family_hits_the_blocked_scheduler(self):
        """The generator must actually produce windows the scheduler
        accepts at the fuzz tile width, or the sweeps above silently
        degrade into the plain path."""
        from repro.simulator.engines import dense

        rng = np.random.default_rng(6006)
        hits = 0
        for _ in range(6):
            qc = _random_wide(rng, 9, 32)
            ops = [inst for inst in qc if inst.name != "measure"]
            partition = dense.partition_window(ops)
            if dense.plan_blocked_window(ops, partition, 9, tile_qubits=3):
                hits += 1
        assert hits >= 3

    def test_generator_covers_regimes(self):
        """The families must actually produce what they claim — e.g.
        mid-measure circuits that trigger the per-shot walk — or the
        sweeps above prove less than advertised."""
        from repro.simulator.sampler import _needs_per_shot

        rng = np.random.default_rng(5005)
        hits = 0
        for _ in range(12):
            qc = _random_mid_measure(rng, 4, 16)
            hits += _needs_per_shot(qc)
        assert hits >= 6

        rng = np.random.default_rng(2002)
        qc = _random_clifford_t(rng, 6, 30)
        assert any(inst.name in ("t", "tdg") for inst in qc)


class TestTracedVsUntracedFuzz:
    """The flight-recorder analogue of the planned/unplanned pin: the
    tracer hangs span bookkeeping off every hot loop (grouped walk,
    engine windows, per-shot walk), so random circuits hunt for the
    shape where instrumentation would perturb the RNG stream."""

    def test_traced_grouped_family(self, fuzz_deep):
        rng = np.random.default_rng(8008)
        for i in range(_budget(fuzz_deep)):
            n = int(rng.integers(2, 7))
            qc = _random_clifford_t(rng, n, int(rng.integers(8, 24)))
            _assert_traced_equals_untraced(
                qc,
                ("fast", SCALAR_FAST, "hybrid", "mps"),
                seed=i,
                noise=_fuzz_noise(rng),
            )

    def test_traced_mid_measure_family(self, fuzz_deep):
        rng = np.random.default_rng(9009)
        for i in range(max(2, _budget(fuzz_deep) // 2)):
            n = int(rng.integers(2, 5))
            qc = _random_mid_measure(rng, n, int(rng.integers(8, 16)))
            _assert_traced_equals_untraced(
                qc, ("fast", "hybrid", "mps"), seed=i, shots=64
            )
