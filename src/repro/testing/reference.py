"""Retired production code, kept as oracles beside :mod:`repro.testing.faults`.

No production module imports this module.  It holds two oracles.

**The seed engine.**  Every trajectory group is re-simulated from
``|0…0⟩`` through the generic ``moveaxis`` contraction
(:meth:`~repro.simulator.statevector.StateVector.apply_matrix_generic`):
no specialized kernels, no prefix sharing, no plans, no admission
control, no tracing.  The test-suite pins the production engines against
it, and ``scripts/bench.py`` times it as the "before" lane of its
gate-apply, grouped-sampling and VQE benchmarks.

Seeded counts reproduce the historical seed engine bit for bit (pinned
by ``tests/test_fast_kernels.py``).  Its per-group RNG order differs
from the production walk, which visits groups in first-error-site
order, so compare distributions, not seeded dicts, across the two.

**The byte tableau.**  :class:`ByteTableau` / :class:`ByteCosetSupport`
are the original stabilizer tableau, one bit per ``uint8`` byte, kept
verbatim.  The production :class:`~repro.simulator.stabilizer.Tableau`
is bit-packed and must match it exactly: same tableau bits (compare
through :func:`pack` / :func:`unpack`), same outcomes and RNG
consumption, same coset factorization, same amplitudes.
:func:`sample_counts_tableau` runs it through the production sampler
walks, so its seeded counts equal production ones, and
``scripts/bench.py`` times it as the "before" side of
``stabilizer_packed_ghz``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import gates as gate_lib
from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.gates import UNITARY_NOOPS
from repro.errors import SimulationError
from repro.simulator import sampler as _sampler
from repro.simulator.config import ExecutionConfig
from repro.simulator.counts import Counts
from repro.simulator.engines import DenseEngine, TableauEngine, inject_into_dense
from repro.simulator.noise import NoiseModel, QuantumError
from repro.simulator.stabilizer import (
    _EXACT_COSET_BITS,
    Tableau,
    _bits_of_int,
    _int_from_bits,
    unpack_bit_matrix,
)
from repro.simulator.statevector import StateVector
from repro.utils.rng import RandomState, as_rng


class _GenericStateVector(StateVector):
    """A state whose every operator, error injections included, goes
    through the generic contraction."""

    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "_GenericStateVector":
        return self.apply_matrix_generic(matrix, qubits)


def simulate_statevector(circuit: QuantumCircuit) -> StateVector:
    """The unitary part of *circuit* on the generic kernel (measurements,
    barriers and delays are skipped)."""
    state = _GenericStateVector(circuit.num_qubits)
    for inst in circuit:
        if inst.name not in UNITARY_NOOPS:
            state.apply_matrix(inst.matrix(), inst.qubits)
    return state


def sample_counts(
    circuit: QuantumCircuit,
    shots: int,
    *,
    noise: Optional[NoiseModel] = None,
    rng: RandomState = None,
    instruction_errors: Optional[Mapping[int, QuantumError]] = None,
) -> Counts:
    """Sample *circuit* the way the seed engine did.

    Takes the arguments of :func:`repro.simulator.sampler.sample_counts`
    but ignores :func:`~repro.simulator.engine_mode` and validates
    nothing.  Circuits with mid-circuit measurement or reset run the shared
    per-shot walk on :class:`~repro.simulator.engines.DenseEngine`; the
    seed engine never had a per-shot walk of its own.
    """
    r = as_rng(rng)
    extra = dict(instruction_errors or {})
    if _sampler._needs_per_shot(circuit):
        bits = _sampler._sample_per_shot(
            circuit, int(shots), noise, r, extra, DenseEngine, ExecutionConfig()
        )
    else:
        bits = _sample_grouped(circuit, int(shots), noise, r, extra)
    return Counts.from_bit_array(_sampler._apply_readout(circuit, bits, noise, r))


def _run_trajectory(
    circuit: QuantumCircuit,
    pattern: Dict[int, int],
    errors: Dict[int, QuantumError],
) -> Tuple[StateVector, Dict[int, int]]:
    """One trajectory from ``|0…0⟩``: *pattern* maps instruction index
    to the error term injected after it.  Returns the final state and
    the qubit → clbit measurement map."""
    state = _GenericStateVector(circuit.num_qubits)
    mapping: Dict[int, int] = {}
    for idx, inst in enumerate(circuit):
        if inst.name == "measure":
            mapping[inst.qubits[0]] = inst.clbits[0]
        elif inst.name in UNITARY_NOOPS:
            pass
        else:
            state.apply_matrix(inst.matrix(), inst.qubits)
        if idx in pattern:
            inject_into_dense(state, inst, errors[idx], pattern[idx])
    return state, mapping


def _sample_grouped(
    circuit: QuantumCircuit,
    shots: int,
    noise: Optional[NoiseModel],
    rng: np.random.Generator,
    extra: Mapping[int, QuantumError],
) -> np.ndarray:
    """The seed grouped walk: every realization group re-simulated from
    scratch, in the order the groups were first drawn."""
    noisy = _sampler._noisy_ops(circuit, noise, extra)
    errors = dict(noisy)
    groups = _sampler._group_realizations(noisy, shots, rng)
    width = circuit.num_clbits
    chunks: List[np.ndarray] = []
    for key, group_shots in groups.items():
        state, mapping = _run_trajectory(circuit, dict(key), errors)
        qubits = sorted(mapping)
        sampled = state.sample(group_shots, rng, qubits=qubits)
        bits = np.zeros((group_shots, width), dtype=np.uint8)
        for col, q in enumerate(qubits):
            bits[:, mapping[q]] = sampled[:, col]
        chunks.append(bits)
    return np.concatenate(chunks, axis=0)


def _g4(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Aaronson–Gottesman ``g`` exponent, elementwise.

    The power of ``i`` produced when multiplying the single-qubit Pauli
    ``(x1, z1)`` by ``(x2, z2)``; values in ``{−1, 0, +1}``.  Inputs are
    0/1 arrays broadcast against each other.
    """
    x1 = x1.astype(np.int64)
    z1 = z1.astype(np.int64)
    x2 = x2.astype(np.int64)
    z2 = z2.astype(np.int64)
    return (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    )


class ByteTableau:
    """A mutable n-qubit stabilizer state in phase-tracked tableau form.

    Created in ``|0…0⟩`` (destabilizers ``X_i``, stabilizers ``Z_i``).
    Gate application goes through :meth:`apply` / :meth:`apply_instruction`;
    the supported primitives are ``h s sdg x y z cx cz swap`` — every
    library Clifford gate reaches them via
    :func:`repro.circuits.gates.clifford_primitives`.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise SimulationError("tableau needs at least one qubit")
        self.num_qubits = int(num_qubits)
        n = self.num_qubits
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = 1            # destabilizers X_i
        self.z[n + np.arange(n), np.arange(n)] = 1        # stabilizers Z_i

    def copy(self) -> "ByteTableau":
        """An independent deep copy (``O(n²)`` bits — cheap)."""
        dup = ByteTableau.__new__(ByteTableau)
        dup.num_qubits = self.num_qubits
        dup.x = self.x.copy()
        dup.z = self.z.copy()
        dup.r = self.r.copy()
        return dup

    def _check_qubit(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit tableau"
            )
        return int(qubit)

    # -- gate conjugations (vectorized over all 2n rows) -----------------------

    def _h(self, q: int) -> None:
        xq = self.x[:, q].copy()
        self.r ^= xq & self.z[:, q]
        self.x[:, q] = self.z[:, q]
        self.z[:, q] = xq

    def _s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def _sdg(self, q: int) -> None:
        self.r ^= self.x[:, q] & (self.z[:, q] ^ 1)
        self.z[:, q] ^= self.x[:, q]

    def _x(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def _y(self, q: int) -> None:
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def _z(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def _cx(self, control: int, target: int) -> None:
        xc, zc = self.x[:, control], self.z[:, control]
        xt, zt = self.x[:, target], self.z[:, target]
        self.r ^= xc & zt & (xt ^ zc ^ 1)
        self.x[:, target] = xt ^ xc
        self.z[:, control] = zc ^ zt

    def _cz(self, a: int, b: int) -> None:
        # Direct conjugation: X_a → X_a Z_b, X_b → Z_a X_b, Z's fixed;
        # the sign flips exactly when both X bits are set and the Z bits
        # differ (e.g. CZ·X_aY_b·CZ = −Y_aX_b).  One pass, no copies —
        # CZ is the native 2q gate of the modeled QPU, so this is the
        # hottest tableau update.
        xa, xb = self.x[:, a], self.x[:, b]
        self.r ^= xa & xb & (self.z[:, a] ^ self.z[:, b])
        self.z[:, a] ^= xb
        self.z[:, b] ^= xa

    def _swap(self, a: int, b: int) -> None:
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

    _PRIMITIVES = {
        "h": _h,
        "s": _s,
        "sdg": _sdg,
        "x": _x,
        "y": _y,
        "z": _z,
        "cx": _cx,
        "cz": _cz,
        "swap": _swap,
    }

    def apply(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> "ByteTableau":
        """Apply a library gate by mnemonic (must be Clifford; rotation
        gates qualify at multiples of π/2)."""
        prims = gate_lib.clifford_primitives(name, params)
        if prims is None:
            raise SimulationError(
                f"gate {name!r} with params {tuple(params)} is not Clifford; "
                "the tableau engine cannot apply it"
            )
        qs = [self._check_qubit(q) for q in qubits]
        for prim, slots in prims:
            ByteTableau._PRIMITIVES[prim](self, *(qs[i] for i in slots))
        return self

    def apply_instruction(self, instruction: Instruction) -> "ByteTableau":
        """Apply one circuit instruction (unitary Clifford gates only).

        Uses the instruction's memoized primitive decomposition
        (:meth:`~repro.circuits.circuit.Instruction.clifford_primitives`),
        so trajectory replays never re-snap angles or re-resolve the
        registry.
        """
        prims = instruction.clifford_primitives()
        if prims is None:
            raise SimulationError(
                f"instruction {instruction!r} is not Clifford; "
                "route this circuit through the state-vector engine"
            )
        qs = [self._check_qubit(q) for q in instruction.qubits]
        for prim, slots in prims:
            ByteTableau._PRIMITIVES[prim](self, *(qs[i] for i in slots))
        return self

    def apply_instructions(self, instructions: Sequence[Instruction]) -> "ByteTableau":
        """Apply a window of instructions (unitary no-ops skipped) — the
        bulk form the engine layer drives replay through, shared with
        the packed tableau."""
        for inst in instructions:
            if inst.name in gate_lib.UNITARY_NOOPS:
                continue
            self.apply_instruction(inst)
        return self

    def apply_pauli(self, pauli: str, qubits: Sequence[int]) -> "ByteTableau":
        """Inject a Pauli string (string index *i* acts on ``qubits[i]``).

        Pauli conjugation only flips row phases — the X/Z structure of
        the tableau is untouched, which is what lets error trajectories
        share one :class:`ByteCosetSupport`.
        """
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        for label, q in zip(pauli.upper(), qubits):
            if label == "I":
                continue
            if label not in "XYZ":
                raise SimulationError(f"unknown Pauli label {label!r}")
            ByteTableau._PRIMITIVES[label.lower()](self, self._check_qubit(q))
        return self

    # -- row products ----------------------------------------------------------

    def _rowsum_many(self, rows: np.ndarray, src: int) -> None:
        """``row_h ← row_src · row_h`` for every *h* in *rows* (vectorized)."""
        g = _g4(self.x[src][None, :], self.z[src][None, :],
                self.x[rows], self.z[rows]).sum(axis=1)
        phase = (2 * self.r[rows].astype(np.int64) + 2 * int(self.r[src]) + g) % 4
        self.r[rows] = (phase >> 1).astype(np.uint8)
        self.x[rows] ^= self.x[src]
        self.z[rows] ^= self.z[src]

    def _accumulate(
        self, sx: np.ndarray, sz: np.ndarray, phase4: int, src: int
    ) -> int:
        """Multiply scratch row ``(sx, sz, i^phase4)`` by tableau row *src*.

        Mutates *sx*/*sz* in place and returns the new mod-4 phase
        exponent (kept mod 4 because intermediate products may pass
        through ``±i`` even when the final result is Hermitian).
        """
        g = int(_g4(self.x[src], self.z[src], sx, sz).sum())
        phase4 = (phase4 + 2 * int(self.r[src]) + g) % 4
        sx ^= self.x[src]
        sz ^= self.z[src]
        return phase4

    def _scratch_pair(self, slot: str) -> Tuple[np.ndarray, np.ndarray]:
        """A zeroed instance-level ``(sx, sz)`` scratch-row pair.

        The scratch-row reductions (:meth:`_deterministic_outcome`,
        :meth:`expectation_pauli`) run once per measurement or Pauli
        term, so allocating fresh ``np.zeros`` buffers every call showed
        up in the per-shot and expectation profiles; the buffers are
        kept on the instance (lazily, keyed by *slot* so reductions
        needing two independent pairs never alias) and zero-filled on
        reuse.
        """
        pair = self.__dict__.get(slot)
        if pair is None or pair[0].shape[0] != self.num_qubits:
            pair = (
                np.zeros(self.num_qubits, dtype=np.uint8),
                np.zeros(self.num_qubits, dtype=np.uint8),
            )
            self.__dict__[slot] = pair
        else:
            pair[0].fill(0)
            pair[1].fill(0)
        return pair

    # -- measurement -----------------------------------------------------------

    def _deterministic_outcome(self, qubit: int) -> int:
        """Outcome of measuring *qubit* when no stabilizer anticommutes
        with ``Z_qubit`` (the Aaronson–Gottesman scratch-row reduction)."""
        n = self.num_qubits
        sx, sz = self._scratch_pair("_scratch_det")
        phase4 = 0
        for i in np.nonzero(self.x[:n, qubit])[0]:
            phase4 = self._accumulate(sx, sz, phase4, n + int(i))
        if phase4 not in (0, 2):
            raise SimulationError("tableau corrupted: non-Hermitian Z product")
        return phase4 >> 1

    def marginal_probability_one(self, qubit: int) -> float:
        """``P(qubit = 1)`` — exactly ``0.0``, ``0.5`` or ``1.0`` for a
        stabilizer state."""
        q = self._check_qubit(qubit)
        n = self.num_qubits
        if self.x[n:, q].any():
            return 0.5
        return float(self._deterministic_outcome(q))

    def _collapse_random(self, qubit: int, outcome: int) -> None:
        """Measurement update for the random-outcome case."""
        n = self.num_qubits
        p = n + int(np.nonzero(self.x[n:, qubit])[0][0])
        others = np.nonzero(self.x[:, qubit])[0]
        others = others[others != p]
        if others.size:
            self._rowsum_many(others, p)
        self.x[p - n] = self.x[p]
        self.z[p - n] = self.z[p]
        self.r[p - n] = self.r[p]
        self.x[p] = 0
        self.z[p] = 0
        self.z[p, qubit] = 1
        self.r[p] = np.uint8(outcome)

    def collapse(self, qubit: int, outcome: int) -> float:
        """Project *qubit* onto *outcome*; returns the pre-collapse
        probability of that outcome (raises if it is zero)."""
        q = self._check_qubit(qubit)
        n = self.num_qubits
        if self.x[n:, q].any():
            self._collapse_random(q, int(outcome))
            return 0.5
        det = self._deterministic_outcome(q)
        if det != int(outcome):
            raise SimulationError(
                f"cannot collapse qubit {qubit} onto impossible outcome {outcome}"
            )
        return 1.0

    def measure(self, qubit: int, rng: RandomState = None) -> int:
        """Projectively measure one qubit, collapsing the tableau.

        Always consumes exactly one uniform draw from *rng* — also for
        deterministic outcomes — mirroring the dense engine's
        :meth:`~repro.simulator.statevector.StateVector.measure`
        (``outcome = u < P(1)``), so seeded per-shot runs stay aligned
        between the two engines.
        """
        q = self._check_qubit(qubit)
        u = as_rng(rng).random()
        n = self.num_qubits
        if self.x[n:, q].any():
            outcome = 1 if u < 0.5 else 0
            self._collapse_random(q, outcome)
            return outcome
        return self._deterministic_outcome(q)

    def reset(self, qubit: int, rng: RandomState = None) -> "ByteTableau":
        """Measure-and-flip reset of one qubit to ``|0⟩``."""
        if self.measure(qubit, rng):
            self._x(self._check_qubit(qubit))
        return self

    # -- observables -----------------------------------------------------------

    def expectation_pauli(self, pauli: str, qubits: Sequence[int]) -> float:
        """``⟨ψ| P |ψ⟩`` for a Pauli string — exactly ``−1.0``, ``0.0`` or
        ``+1.0`` on a stabilizer state.

        Zero when *P* anticommutes with any stabilizer generator;
        otherwise *P* is (up to sign) an element of the stabilizer group
        and the sign falls out of the destabilizer-indexed product, the
        same scratch-row reduction as a deterministic measurement.
        """
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        n = self.num_qubits
        px, pz = self._scratch_pair("_scratch_pauli")
        for label, q in zip(pauli.upper(), qubits):
            qi = self._check_qubit(q)
            if label == "I":
                continue
            if label == "X":
                px[qi] ^= 1
            elif label == "Y":
                px[qi] ^= 1
                pz[qi] ^= 1
            elif label == "Z":
                pz[qi] ^= 1
            else:
                raise SimulationError(f"unknown Pauli label {label!r}")
        if not (px.any() or pz.any()):
            return 1.0
        anti_stab = ((self.x[n:] & pz) ^ (self.z[n:] & px)).sum(axis=1) % 2
        if anti_stab.any():
            return 0.0
        anti_destab = ((self.x[:n] & pz) ^ (self.z[:n] & px)).sum(axis=1) % 2
        sx, sz = self._scratch_pair("_scratch_det")
        phase4 = 0
        for i in np.nonzero(anti_destab)[0]:
            phase4 = self._accumulate(sx, sz, phase4, n + int(i))
        if not (np.array_equal(sx, px) and np.array_equal(sz, pz)):
            raise SimulationError("tableau corrupted: Pauli reconstruction failed")
        if phase4 not in (0, 2):
            raise SimulationError("tableau corrupted: non-Hermitian stabilizer")
        return 1.0 if phase4 == 0 else -1.0

    def expectation_z(self, qubits: Sequence[int]) -> float:
        """Expectation of ``Z⊗…⊗Z`` on the listed qubits (the estimator
        the hybrid layer contracts Hamiltonian terms through)."""
        return self.expectation_pauli("Z" * len(qubits), qubits)

    # -- sampling --------------------------------------------------------------

    def coset_support(self) -> "ByteCosetSupport":
        """The coset factorization of this tableau's X/Z structure (the
        polymorphic hook shared with the packed tableau, whose
        factorization type differs)."""
        return ByteCosetSupport(self)

    def sample(
        self,
        shots: int,
        rng: RandomState = None,
        qubits: Optional[Sequence[int]] = None,
        *,
        support: Optional["ByteCosetSupport"] = None,
    ) -> np.ndarray:
        """Draw *shots* computational-basis samples without collapsing.

        Returns an ``(shots, k)`` uint8 array, column *j* being qubit
        ``qubits[j]`` (default all qubits in index order) — the same
        contract as :meth:`StateVector.sample`.

        The outcome set of a stabilizer state is a coset ``c ⊕ span(B)``
        with uniform weights.  When the coset dimension fits in
        ``_EXACT_COSET_BITS``, each shot consumes one uniform draw ``u``
        and selects the ``⌊u·2^k⌋``-th smallest coset element — exactly
        the index the dense engine's ``rng.choice`` CDF inversion picks
        from the equal-weight probability vector, so seeded runs produce
        identical bits across engines.  Beyond that, each shot draws one
        uniform per free bit instead (the dense engine cannot represent
        such states anyway).

        Pass a precomputed *support* (from :class:`ByteCosetSupport`) to skip
        the ``O(n³)`` factorization when many tableaux share one X/Z
        structure — the grouped noise sampler's common case.
        """
        r = as_rng(rng)
        n = self.num_qubits
        if support is None:
            support = ByteCosetSupport(self)
        c = support.offset(self.r[n:])
        k = support.dimension
        shots = int(shots)
        if k == 0:
            # Deterministic outcome — but the dense engine's CDF inversion
            # draws one uniform per shot even then, so consume (and
            # discard) the same amount to keep seeded streams aligned.
            r.random(shots)
            bits = np.tile(c, (shots, 1))
        else:
            if k <= _EXACT_COSET_BITS:
                u = r.random(shots)
                j = np.minimum((u * float(1 << k)).astype(np.int64), (1 << k) - 1)
                shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
                lam = ((j[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
            else:
                lam = (r.random((shots, k)) < 0.5).astype(np.uint8)
            mixed = (lam.astype(np.int64) @ support.basis.astype(np.int64)) & 1
            bits = c[None, :] ^ mixed.astype(np.uint8)
        qs = (
            np.arange(n, dtype=np.int64)
            if qubits is None
            else np.asarray(list(qubits), dtype=np.int64)
        )
        return bits[:, qs]

    # -- dense conversion ------------------------------------------------------

    def coset_amplitudes(
        self, support: Optional["ByteCosetSupport"] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse amplitude map of this state: ``(indices, amplitudes)``.

        A stabilizer state is a uniform-magnitude superposition over the
        outcome coset ``c ⊕ span(B)`` with per-element phases in
        ``{±1, ±i}``.  This computes all ``2^k`` nonzero amplitudes in
        ``O(2^k · k)`` vectorized work (plus one ``O(n³)`` bit-matrix
        factorization), so sparse states — a GHZ state has two nonzero
        amplitudes at any width — convert in microseconds.

        Method: Gaussian elimination over the stabilizer X-block yields
        ``k`` independent group elements ``g_j = i^{u_j} X^{a_j} Z^{z_j}``
        whose X-parts span the coset.  ``g|ψ⟩ = |ψ⟩`` pins every relative
        phase: ``ψ(x ⊕ a) = i^u (−1)^{z·x} ψ(x)``, so iterative doubling
        from the coset offset ``c`` (chosen real positive — global phase
        is a gauge) enumerates the full support.  Phases multiply
        consistently along any path because the stabilizer group is
        abelian *including* its phases.

        Pass a precomputed *support* to skip rebuilding the coset
        constraint system (one of the two ``O(n³)`` bit-matrix passes)
        when many sign-only-different tableaux convert — the hybrid
        engine's trajectory groups.  The group-element elimination for
        the phases is still performed per call: its row operations are
        structure-determined, but the accumulated phases depend on this
        tableau's own signs.  This is the conversion boundary of
        segment-granular mixed execution: the downstream dense/sparse
        engine starts from exactly these amplitudes.
        """
        n = self.num_qubits
        if n > 62:
            raise SimulationError(
                "coset_amplitudes packs basis indices into int64 words; "
                f"{n} qubits exceeds the 62-qubit packing limit"
            )
        sx = self.x[n:].copy()
        sz = self.z[n:].copy()
        # Canonical form i^u · X^x Z^z: each Y contributes one factor of
        # i (Y = iXZ), the tableau sign contributes (−1)^r = i^{2r}.
        u4 = (2 * self.r[n:].astype(np.int64) + (sx & sz).sum(axis=1)) % 4
        used = np.zeros(n, dtype=bool)
        pivot_rows: List[int] = []
        for col in range(n):
            cand = np.nonzero(sx[:, col] & ~used)[0]
            if cand.size == 0:
                continue
            p = int(cand[0])
            used[p] = True
            pivot_rows.append(p)
            rows = cand[1:]
            if rows.size:
                # (i^u1 X^x1 Z^z1)(i^u2 X^x2 Z^z2)
                #   = i^{u1+u2} (−1)^{z1·x2} X^{x1⊕x2} Z^{z1⊕z2}
                cross = (sz[p][None, :] & sx[rows]).sum(axis=1)
                u4[rows] = (u4[rows] + u4[p] + 2 * cross) % 4
                sx[rows] ^= sx[p]
                sz[rows] ^= sz[p]
        if support is None:
            support = ByteCosetSupport(self)
        c = support.offset(self.r[n:])
        weights = np.int64(1) << np.arange(n, dtype=np.int64)
        indices = np.array([int((c.astype(np.int64) * weights).sum())], dtype=np.int64)
        amps = np.array([2.0 ** (-0.5 * len(pivot_rows))], dtype=complex)
        i_pow = np.array([1.0, 1.0j, -1.0, -1.0j])
        for p in pivot_rows:
            a_int = np.int64((sx[p].astype(np.int64) * weights).sum())
            z_int = np.int64((sz[p].astype(np.int64) * weights).sum())
            parity = indices & z_int
            for shift in (32, 16, 8, 4, 2, 1):
                parity ^= parity >> shift
            signs = 1.0 - 2.0 * (parity & 1)
            new_amps = amps * (i_pow[int(u4[p])] * signs)
            indices = np.concatenate([indices, indices ^ a_int])
            amps = np.concatenate([amps, new_amps])
        return indices, amps

    def to_statevector(self) -> "StateVector":
        """This state as a dense :class:`~repro.simulator.statevector.StateVector`.

        The conversion boundary of hybrid (tableau→dense) execution:
        amplitudes come from :meth:`coset_amplitudes`, the global phase is
        gauged so the smallest-index support element is real positive.
        Raises beyond the dense qubit limit *before* allocating anything
        — use the sparse amplitude form (:meth:`coset_amplitudes`) at
        larger widths.
        """
        from repro.simulator.statevector import DENSE_QUBIT_LIMIT, StateVector

        if self.num_qubits > DENSE_QUBIT_LIMIT:
            raise SimulationError(
                f"cannot densify a {self.num_qubits}-qubit tableau: "
                f"the dense engine caps at {DENSE_QUBIT_LIMIT} qubits"
            )
        indices, amps = self.coset_amplitudes()
        data = np.zeros(1 << self.num_qubits, dtype=complex)
        data[indices] = amps
        return StateVector(self.num_qubits, data=data)

    def probabilities(self) -> np.ndarray:
        """Dense ``2^n`` probability vector (validation only, n ≤ 16)."""
        n = self.num_qubits
        if n > 16:
            raise SimulationError("dense probabilities limited to 16 qubits")
        support = ByteCosetSupport(self)
        c = support.offset(self.r[n:])
        k = support.dimension
        weights = np.arange(n, dtype=np.int64)
        out = np.zeros(1 << n, dtype=float)
        lam_grid = np.arange(1 << k, dtype=np.int64)
        members = np.full(1 << k, int((c.astype(np.int64) << weights).sum()))
        for i in range(k):
            vec = int((support.basis[i].astype(np.int64) << weights).sum())
            on = (lam_grid >> (k - 1 - i)) & 1
            members ^= np.where(on == 1, vec, 0)
        out[members] = 1.0 / (1 << k)
        return out

    def __repr__(self) -> str:
        return f"<ByteTableau {self.num_qubits} qubits>"


class ByteCosetSupport:
    """The computational-basis outcome coset of a tableau's X/Z structure.

    Factorizes the stabilizer block once: Gaussian elimination over the
    X-block isolates the Z-only stabilizer subgroup, whose sign bits pin
    the outcome set to a coset ``c ⊕ span(B)`` of ``F₂^n``.  Phases are
    tracked *symbolically* during elimination (each working row carries
    the set of original stabilizer rows multiplied into it plus the
    accumulated mod-4 ``g``-phase), so the factorization depends only on
    the X/Z bits.  :meth:`offset` then resolves the coset representative
    for any concrete stabilizer sign vector in ``O(n²)`` bit-ops —
    trajectories that differ only by injected Pauli errors share one
    instance.

    The basis is fully reduced with pivots in descending bit order, so
    the map ``λ ↦ c ⊕ λ·B`` enumerates coset elements in increasing
    integer order — the property :meth:`ByteTableau.sample` relies on for
    dense-engine-compatible CDF inversion.
    """

    def __init__(self, tableau: ByteTableau) -> None:
        n = tableau.num_qubits
        self.num_qubits = n
        sx = tableau.x[n:].copy()
        sz = tableau.z[n:].copy()
        hist = np.eye(n, dtype=np.uint8)           # which original rows multiply in
        g4 = np.zeros(n, dtype=np.int64)           # accumulated g-phase, mod 4
        used = np.zeros(n, dtype=bool)
        for col in range(n):
            cand = np.nonzero(sx[:, col] & ~used)[0]
            if cand.size == 0:
                continue
            p = int(cand[0])
            used[p] = True
            rows = cand[1:]
            if rows.size:
                g = _g4(sx[p][None, :], sz[p][None, :], sx[rows], sz[rows]).sum(axis=1)
                g4[rows] = (g4[rows] + g4[p] + g) % 4
                hist[rows] ^= hist[p]
                sx[rows] ^= sx[p]
                sz[rows] ^= sz[p]
        zonly = np.nonzero(~used)[0]
        if (g4[zonly] % 2).any():
            raise SimulationError("tableau corrupted: odd phase on Z-only row")
        # Z-only rows impose  A·x = b0 ⊕ H·r  on outcome bitstrings x,
        # where r is the tableau's stabilizer sign vector.
        A = sz[zonly].copy()
        b0 = ((g4[zonly] >> 1) % 2).astype(np.uint8)
        H = hist[zonly].copy()
        m = A.shape[0]
        pivots: List[int] = []
        row = 0
        for col in range(n):
            if row == m:
                break
            sub = np.nonzero(A[row:, col])[0]
            if sub.size == 0:
                continue
            pr = row + int(sub[0])
            if pr != row:
                A[[row, pr]] = A[[pr, row]]
                b0[[row, pr]] = b0[[pr, row]]
                H[[row, pr]] = H[[pr, row]]
            others = np.nonzero(A[:, col])[0]
            others = others[others != row]
            if others.size:
                A[others] ^= A[row]
                b0[others] ^= b0[row]
                H[others] ^= H[row]
            pivots.append(col)
            row += 1
        if row != m:
            raise SimulationError("tableau corrupted: dependent stabilizers")
        self._pivot_cols = np.asarray(pivots, dtype=np.int64)
        self._b0 = b0
        self._H = H
        free_cols = sorted(set(range(n)) - set(pivots))
        k = len(free_cols)
        # Nullspace vector for free column f: 1 at f plus ``A[i, f]`` at
        # each pivot column p_i.  Echelon structure zeroes every row left
        # of its pivot, so ``A[i, f] = 0`` whenever ``p_i > f`` — each
        # vector's top bit *is* its free column, pivot positions are
        # mutually clear, and listing free columns in descending order
        # already yields the reduced descending-pivot basis the
        # sorted-coset sampler needs.
        basis = np.zeros((k, n), dtype=np.uint8)
        for j, f in enumerate(reversed(free_cols)):
            basis[j, f] = 1
            if m:
                basis[j, self._pivot_cols] = A[:, f]
        self.basis = basis
        self._basis_pivots = np.asarray(free_cols[::-1], dtype=np.int64)
        self.dimension = k

    def offset(self, signs: np.ndarray) -> np.ndarray:
        """Reduced coset representative for stabilizer sign bits *signs*.

        Returns the smallest-integer outcome as an ``(n,)`` bit vector:
        the particular solution of the Z-only constraint system.  Its
        support lies in the constraint pivot columns — disjoint from the
        basis pivots (the free columns) — so it is already the reduced
        representative and ``λ ↦ c ⊕ λ·B`` walks the coset in increasing
        integer order.
        """
        c = np.zeros(self.num_qubits, dtype=np.uint8)
        if self._pivot_cols.size:
            b = self._b0 ^ ((self._H & signs[None, :]).sum(axis=1) % 2).astype(np.uint8)
            c[self._pivot_cols] = b
        return c


def pack(tableau: ByteTableau) -> Tableau:
    """The production tableau bit-for-bit equal to the byte *tableau*."""
    packed = Tableau(tableau.num_qubits)
    packed._xc = [_int_from_bits(col) for col in tableau.x.T]
    packed._zc = [_int_from_bits(col) for col in tableau.z.T]
    packed._r = _int_from_bits(tableau.r)
    return packed


def unpack(tableau: Tableau) -> ByteTableau:
    """The byte tableau bit-for-bit equal to the production *tableau*."""
    n = tableau.num_qubits
    xr, zr = tableau._packed_rows()
    byte = ByteTableau.__new__(ByteTableau)
    byte.num_qubits = n
    byte.x = unpack_bit_matrix(xr, n).copy()
    byte.z = unpack_bit_matrix(zr, n).copy()
    byte.r = _bits_of_int(tableau._r, 2 * n).copy()
    return byte


class _ByteTableauEngine(TableauEngine):
    """:class:`~repro.simulator.engines.TableauEngine` on a
    :class:`ByteTableau` (deliberately not registered)."""

    def prepare(self, circuit: QuantumCircuit) -> None:
        super().prepare(circuit)
        self._tab = ByteTableau(circuit.num_qubits)


def sample_counts_tableau(
    circuit: QuantumCircuit,
    shots: int,
    *,
    noise: Optional[NoiseModel] = None,
    rng: RandomState = None,
) -> Counts:
    """Sample a Clifford *circuit* on the byte tableau.

    Runs the production grouped walk (per-shot walk for mid-circuit
    measurement or reset) and readout on a tableau engine whose state
    is a :class:`ByteTableau`, without plans, routing or admission
    control, so seeded counts equal ``engine_mode("stabilizer")`` ones.
    """
    r = as_rng(rng)
    if _sampler._needs_per_shot(circuit):
        walk = _sampler._sample_per_shot
    else:
        walk = _sampler._sample_grouped
    config = ExecutionConfig(mode="stabilizer")
    bits = walk(circuit, int(shots), noise, r, {}, _ByteTableauEngine, config)
    return Counts.from_bit_array(_sampler._apply_readout(circuit, bits, noise, r))


__all__ = [
    "ByteCosetSupport",
    "ByteTableau",
    "pack",
    "sample_counts",
    "sample_counts_tableau",
    "simulate_statevector",
    "unpack",
]
