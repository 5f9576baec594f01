"""Stabilizer tableau engine for Clifford circuits (Aaronson–Gottesman).

The dense state-vector engine caps out at 26 qubits (a 1 GiB state), yet
the paper's flagship workloads — GHZ calibration circuits, readout
checks, and the grouped noisy sampling behind the 146-day operations run
— are Clifford circuits under Pauli noise.  Those are exactly the
circuits the Gottesman–Knill theorem makes polynomial: an n-qubit
stabilizer state is ``2n`` Pauli rows of ``2n`` bits each, and every
Clifford gate, Pauli error injection, and computational-basis
measurement is an ``O(n)``–``O(n²)`` bit-matrix update.

Representation
--------------
:class:`Tableau` stores the phase-tracked binary tableau of
Aaronson & Gottesman (PRA 70, 052328): rows ``0..n-1`` are destabilizer
generators, rows ``n..2n-1`` stabilizer generators.  Row *i* encodes the
Pauli ``(−1)^{r_i} · Π_q P_q`` with ``P_q ∈ {I, X, Z, Y}`` for
``(x_q, z_q) ∈ {(0,0), (1,0), (0,1), (1,1)}``.  The bits are kept in two
bit-packed views, each chosen for the operations that dominate it:

**Column words (gate axis).**  Each tableau *column* (one qubit's X or Z
bits across all ``2n`` rows) is a single arbitrary-precision integer —
bit *i* of ``_xc[q]`` is ``x[i, q]``.  A gate conjugation touches one or
two columns, so H/S/SDG/X/Y/Z/CX/CZ/SWAP each collapse to a handful of
word-wise XOR/AND/shift operations on ``2n``-bit words (CPython big-int
bitwise ops run as tight C loops over 30-bit limbs).  This is what makes
trajectory *replay* — the grouped sampler's dominant cost —
word-parallel.  Measurement runs on the column words too: a collapse
multiplies the pivot row into every other affected row in one pass over
the columns, summing the ``g`` exponents of all rows at once in a
bit-sliced mod-4 counter, and deterministic outcomes and Pauli
expectations read the phase of a stabilizer product from a closed form
per column (:meth:`Tableau._collapse_random`,
:meth:`Tableau._stabilizer_product`).

**Row words (algebra axis).**  The coset factorization and the
amplitude enumeration view the same state as ``(2n, W)``
``np.uint64`` arrays with ``W = ceil(n/64)`` words per row.  Phase
accumulation — the mod-4 sum of Aaronson–Gottesman ``g`` exponents — is
evaluated with a vectorized popcount (:func:`g4_words`, via
``np.bitwise_count``, with a byte-LUT fallback on NumPy < 2.0), and
:class:`CosetSupport` runs its Gaussian elimination with word-wide row
XORs, ``O(n³/64)`` word ops.  The row view is derived from the column
words on demand (one ``O(n²/8)``-byte transpose per factorization —
deliberately not cached, so gate conjugations never pay an invalidation
store).

Sampling
--------
Measurement outcomes of a stabilizer state in the computational basis
are uniform over a coset ``c ⊕ span(B)`` of a binary subspace.
:class:`CosetSupport` extracts that coset once per circuit *structure*,
tracking the phase bits *symbolically* so that trajectories differing
only by injected Pauli errors — which flip signs but never change the
X/Z structure — reuse one factorization and solve their own offset.
A support's arrays are read-only, so the tableau engine's sign walk
keeps them per process in a table keyed by
:meth:`Tableau.structure_key` and shares them across requests.
:meth:`Tableau.sample` then maps uniform draws through the sorted coset,
reproducing bit-for-bit what the dense engine's CDF inversion produces
on the same seeded RNG (see the method docstring for the contract).

The test-suite pins this class bit for bit against the one-bit-per-byte
oracle ``repro.testing.reference.ByteTableau``: identical tableaux,
outcomes, RNG consumption, factorizations and amplitudes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import gates as gate_lib
from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.errors import SimulationError
from repro.utils.rng import RandomState, as_rng

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.simulator.statevector import StateVector

#: Coset dimensions up to this bound sample through a single uniform draw
#: per shot (bit-compatible with the dense engine's CDF inversion);
#: larger cosets draw one uniform per free bit instead.  48 keeps the
#: ``u · 2^k`` index computation exact in double precision.
_EXACT_COSET_BITS = 48

#: Explicit little-endian 64-bit word dtype: byte *b* of a word holds
#: bits ``8b..8b+7``, so ``packbits(bitorder="little")`` output viewed as
#: this dtype gives "bit *j* of word *w* ⇔ column ``64w + j``".
_U64 = np.dtype("<u8")

#: CPython/NumPy per-array object overhead, for footprint estimates.
_ARRAY_HEADER_BYTES = 112

_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount_last_axis_lut(words: np.ndarray) -> np.ndarray:
    """Per-row popcount sum over the trailing word axis, by byte LUT —
    the fallback for NumPy builds without ``bitwise_count`` (< 2.0),
    ~3× slower; a test pins it against the fast path."""
    as_bytes = (
        np.ascontiguousarray(words).view(np.uint8).reshape(words.shape[:-1] + (-1,))
    )
    return _POPCOUNT_LUT[as_bytes].sum(axis=-1, dtype=np.int64)


if hasattr(np, "bitwise_count"):

    def _popcount_last_axis(words: np.ndarray) -> np.ndarray:
        """Per-row popcount sum over the trailing word axis
        (``np.bitwise_count`` fast path, NumPy ≥ 2.0)."""
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)

else:  # pragma: no cover - exercised via the explicit LUT test
    _popcount_last_axis = _popcount_last_axis_lut


def words_for(num_bits: int) -> int:
    """Number of 64-bit words needed to hold *num_bits* bits."""
    return (int(num_bits) + 63) >> 6


def pack_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack an ``(m, k)`` 0/1 matrix into ``(m, ceil(k/64))`` uint64 words
    (little-endian within each word: bit *j* of word *w* is column
    ``64w + j``)."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    m, k = bits.shape
    w = words_for(k)
    if k != w * 64:
        padded = np.zeros((m, w * 64), dtype=np.uint8)
        padded[:, :k] = bits
        bits = padded
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(_U64)


def unpack_bit_matrix(words: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bit_matrix`: ``(m, W)`` words → ``(m, num_bits)``
    0/1 uint8 matrix."""
    words = np.ascontiguousarray(words, dtype=_U64)
    # Explicit byte width: ``reshape(m, -1)`` cannot infer it when m = 0.
    as_bytes = words.view(np.uint8).reshape(words.shape[0], 8 * words.shape[1])
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :num_bits]


def _int_from_bits(bits: np.ndarray) -> int:
    """0/1 vector → arbitrary-precision integer (bit *i* ⇔ ``bits[i]``)."""
    data = np.packbits(np.ascontiguousarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(data.tobytes(), "little")


def _bits_of_int(value: int, num_bits: int) -> np.ndarray:
    """Arbitrary-precision integer → ``(num_bits,)`` 0/1 uint8 vector."""
    raw = value.to_bytes((num_bits + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[
        :num_bits
    ]


def g4_words(
    x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray
) -> np.ndarray:
    """Mod-4 sum of Aaronson–Gottesman ``g`` exponents over packed words.

    The word-parallel form of summing the per-qubit ``g`` function
    along the qubit axis: inputs
    are uint64 bit-plane arrays broadcast against each other on their
    leading axes (last axis = words), and the result is the summed
    exponent of ``i`` reduced mod 4.  Positions contribute ``+1`` for
    the products XY, ZX, YZ and ``−1`` for XZ, ZY, YX; both masks are
    tallied with a vectorized popcount (``np.bitwise_count``).
    """
    not_x1, not_z1 = ~x1, ~z1
    not_x2, not_z2 = ~x2, ~z2
    plus = (
        (x1 & not_z1 & x2 & z2)
        | (not_x1 & z1 & x2 & not_z2)
        | (x1 & z1 & not_x2 & z2)
    )
    minus = (
        (x1 & not_z1 & not_x2 & z2)
        | (not_x1 & z1 & x2 & z2)
        | (x1 & z1 & x2 & not_z2)
    )
    return (_popcount_last_axis(plus) - _popcount_last_axis(minus)) % 4


def _x_block_pivots(sx: np.ndarray):
    """The pivot walk of a stabilizer X-block elimination.

    *sx* is the ``(n, W)`` packed X-block.  Column by column, yields
    ``(p, rows)``: the first unused row *p* with that column's bit set,
    and the other such rows, into which the caller must multiply row *p*
    before resuming — the walk reads *sx* lazily and sees the update.
    :class:`CosetSupport` and :meth:`Tableau.coset_amplitudes` share
    this walk, so both pick the same pivots in the same order.
    """
    used = np.zeros(sx.shape[0], dtype=bool)
    for col in range(sx.shape[0]):
        colbits = ((sx[:, col >> 6] >> np.uint64(col & 63)) & np.uint64(1)).astype(bool)
        cand = np.nonzero(colbits & ~used)[0]
        if cand.size == 0:
            continue
        p = int(cand[0])
        used[p] = True
        yield p, cand[1:]


def _NOOP_PROGRAM(tab: "Tableau") -> None:
    """Compiled program of a unitary no-op (barrier/delay/measure/id)."""


#: Compiled primitive programs by ``(gate name, params, operand
#: qubits)``: a program reads nothing else, so instructions rebuilt with
#: equal fields reuse it.  Cleared whenever it reaches
#: :data:`_PROGRAMS_MAX` entries (one ``clear`` is atomic, so threads
#: sharing the table need no lock).
_PROGRAMS: Dict[tuple, object] = {}
_PROGRAMS_MAX = 4096


class Tableau:
    """A mutable n-qubit stabilizer state in bit-packed tableau form.

    Created in ``|0…0⟩`` (destabilizers ``X_i``, stabilizers ``Z_i``).
    Gate application goes through :meth:`apply` / :meth:`apply_instruction`
    / :meth:`apply_instructions`; the supported primitives are
    ``h s sdg x y z cx cz swap`` — every library Clifford gate reaches
    them via :func:`repro.circuits.gates.clifford_primitives`.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise SimulationError("tableau needs at least one qubit")
        self.num_qubits = int(num_qubits)
        n = self.num_qubits
        # Column words: bit i of _xc[q] is x[i, q]; destabilizers X_i
        # in rows 0..n-1, stabilizers Z_i in rows n..2n-1.
        self._xc: List[int] = [1 << q for q in range(n)]
        self._zc: List[int] = [1 << (n + q) for q in range(n)]
        self._r: int = 0
        self._mask: int = (1 << (2 * n)) - 1

    def copy(self) -> "Tableau":
        """An independent deep copy — two list copies plus one integer."""
        dup = Tableau.__new__(Tableau)
        dup.num_qubits = self.num_qubits
        dup._xc = list(self._xc)
        dup._zc = list(self._zc)
        dup._r = self._r
        dup._mask = self._mask
        return dup

    def _check_qubit(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit tableau"
            )
        return int(qubit)

    # -- gate conjugations (whole-column big-int word ops) ---------------------

    def _h(self, q: int) -> None:
        xq = self._xc[q]
        zq = self._zc[q]
        self._r ^= xq & zq
        self._xc[q] = zq
        self._zc[q] = xq

    def _s(self, q: int) -> None:
        xq = self._xc[q]
        self._r ^= xq & self._zc[q]
        self._zc[q] ^= xq

    def _sdg(self, q: int) -> None:
        xq = self._xc[q]
        self._r ^= xq & (self._zc[q] ^ self._mask)
        self._zc[q] ^= xq

    def _x(self, q: int) -> None:
        self._r ^= self._zc[q]

    def _y(self, q: int) -> None:
        self._r ^= self._xc[q] ^ self._zc[q]

    def _z(self, q: int) -> None:
        self._r ^= self._xc[q]

    def _cx(self, control: int, target: int) -> None:
        xc = self._xc
        zc = self._zc
        xcc, xt = xc[control], xc[target]
        zcc, zt = zc[control], zc[target]
        self._r ^= xcc & zt & (xt ^ zcc ^ self._mask)
        xc[target] = xt ^ xcc
        zc[control] = zcc ^ zt

    def _cz(self, a: int, b: int) -> None:
        xc = self._xc
        zc = self._zc
        xa, xb = xc[a], xc[b]
        self._r ^= xa & xb & (zc[a] ^ zc[b])
        zc[a] ^= xb
        zc[b] ^= xa

    def _swap(self, a: int, b: int) -> None:
        xc = self._xc
        zc = self._zc
        xc[a], xc[b] = xc[b], xc[a]
        zc[a], zc[b] = zc[b], zc[a]

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
    ) -> "Tableau":
        """Apply a library gate by mnemonic (must be Clifford; rotation
        gates qualify at multiples of π/2)."""
        prims = gate_lib.clifford_primitives(name, params)
        if prims is None:
            raise SimulationError(
                f"gate {name!r} with params {tuple(params)} is not Clifford; "
                "the tableau engine cannot apply it"
            )
        qs = [self._check_qubit(q) for q in qubits]
        if len(set(qs)) != len(qs):
            # A repeated operand would zero a column (cx a,a) and leave
            # dependent stabilizers behind; Instruction already rejects it.
            raise SimulationError(f"operands must be distinct, got {tuple(qubits)}")
        for prim, slots in prims:
            Tableau._PRIMITIVES[prim](self, *(qs[i] for i in slots))
        return self

    @staticmethod
    def _compile_step(name: str, args):
        """One primitive as a direct closure ``step(tableau)`` — the
        conjugation body inlined over fixed operands, so replay pays a
        single call frame per primitive (no dispatch, no argument
        unpacking)."""
        if name == "cx":
            control, target = args

            def step(tab: "Tableau") -> None:
                xc = tab._xc
                zc = tab._zc
                xcc, xt = xc[control], xc[target]
                zcc, zt = zc[control], zc[target]
                tab._r ^= xcc & zt & (xt ^ zcc ^ tab._mask)
                xc[target] = xt ^ xcc
                zc[control] = zcc ^ zt

            return step
        if name == "cz":
            a, b = args

            def step(tab: "Tableau") -> None:
                xc = tab._xc
                zc = tab._zc
                xa, xb = xc[a], xc[b]
                tab._r ^= xa & xb & (zc[a] ^ zc[b])
                zc[a] ^= xb
                zc[b] ^= xa

            return step
        if name == "h":
            (q,) = args

            def step(tab: "Tableau") -> None:
                xq = tab._xc[q]
                zq = tab._zc[q]
                tab._r ^= xq & zq
                tab._xc[q] = zq
                tab._zc[q] = xq

            return step
        if name == "s":
            (q,) = args

            def step(tab: "Tableau") -> None:
                xq = tab._xc[q]
                tab._r ^= xq & tab._zc[q]
                tab._zc[q] ^= xq

            return step
        fn = Tableau._PRIMITIVES[name]
        if len(args) == 1:
            (a0,) = args
            return lambda tab: fn(tab, a0)
        a0, a1 = args
        return lambda tab: fn(tab, a0, a1)

    @staticmethod
    def _compile_program(prims, qs):
        """Compile a primitive decomposition into a single callable
        ``program(tableau)``.

        Nearly every Clifford library gate decomposes to one primitive,
        so the common case *is* the compiled step; composite gates chain
        their steps in a tuple loop.
        """
        steps = tuple(
            Tableau._compile_step(name, tuple(qs[i] for i in slots))
            for name, slots in prims
        )
        if len(steps) == 1:
            return steps[0]

        def run(tab: "Tableau") -> None:
            for step in steps:
                step(tab)

        return run

    def _compiled(self, instruction: Instruction):
        """The instruction's compiled primitive program.

        Memoized on the (immutable) instruction alongside its Clifford
        decomposition, so trajectory replays pay one dict lookup and one
        call per gate — the tableau engine's hot path.  A miss looks in
        :data:`_PROGRAMS` by ``(name, params, qubits)`` before compiling,
        so equal instructions rebuilt per job (the device remaps every
        job onto its active qubits) share one compiled program.
        """
        cached = instruction.__dict__.get("_tableau_program")
        if cached is None:
            if instruction.name in gate_lib.UNITARY_NOOPS:
                # No-op-ness is folded into the compiled program so the
                # bulk replay loop never re-tests instruction names.
                cached = _NOOP_PROGRAM
            else:
                qs = [self._check_qubit(q) for q in instruction.qubits]
                key = (instruction.name, instruction.params, instruction.qubits)
                try:
                    cached = _PROGRAMS.get(key)
                except TypeError:  # unhashable symbolic parameters
                    key = None
                if cached is None:
                    prims = instruction.clifford_primitives()
                    if prims is None:
                        raise SimulationError(
                            f"instruction {instruction!r} is not Clifford; "
                            "route this circuit through the state-vector engine"
                        )
                    cached = Tableau._compile_program(prims, qs)
                    if key is not None:
                        if len(_PROGRAMS) >= _PROGRAMS_MAX:
                            _PROGRAMS.clear()
                        _PROGRAMS[key] = cached
            object.__setattr__(instruction, "_tableau_program", cached)
        return cached

    def apply_instruction(self, instruction: Instruction) -> "Tableau":
        """Apply one circuit instruction (unitary Clifford gates only)."""
        self._compiled(instruction)(self)
        return self

    def apply_instructions(self, instructions: Sequence[Instruction]) -> "Tableau":
        """Apply a window of instructions (unitary no-ops skipped) — the
        bulk form :class:`~repro.simulator.engines.tableau.TableauEngine`
        drives replay through.

        This is the tableau engine's hottest loop (trajectory replay in
        the grouped sampler): one attribute load and one call per
        instruction — no-op skipping and operand resolution are folded
        into the memoized compiled program.
        """
        compiled = self._compiled
        for inst in instructions:
            try:
                prog = inst._tableau_program
            except AttributeError:
                prog = compiled(inst)
            prog(self)
        return self

    def pauli_mask(self, pauli: str, qubits: Sequence[int]) -> int:
        """The sign word a Pauli string flips in this tableau: bit *i* is
        set iff row *i* anticommutes with the string (X on *q* reads
        ``z[:, q]``, Z reads ``x[:, q]``, Y their XOR).

        Gate conjugations update the signs by XOR with functions of the
        X/Z bits alone, so two tableaux with equal X/Z bits keep their
        sign difference through any later gates: a Pauli-only trajectory
        ends at the clean run's signs XOR the masks of its injections,
        read off the clean tableau at each injection site."""
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        mask = 0
        for label, q in zip(pauli.upper(), qubits):
            if label == "I":
                continue
            q = self._check_qubit(q)
            if label == "X":
                mask ^= self._zc[q]
            elif label == "Z":
                mask ^= self._xc[q]
            elif label == "Y":
                mask ^= self._xc[q] ^ self._zc[q]
            else:
                raise SimulationError(f"unknown Pauli label {label!r}")
        return mask

    def apply_pauli(self, pauli: str, qubits: Sequence[int]) -> "Tableau":
        """Inject a Pauli string — phase-only (one word XOR per letter,
        :meth:`pauli_mask`), so error trajectories keep sharing one
        coset factorization."""
        self._r ^= self.pauli_mask(pauli, qubits)
        return self

    @property
    def sign_word(self) -> int:
        """The sign bits of all ``2n`` rows as one integer (bit *i* is
        ``r_i``; stabilizer signs are the bits from *n* up)."""
        return self._r

    def structure_key(self) -> Tuple[int, ...]:
        """The stabilizer rows' X/Z bits as a hashable key: the
        stabilizer half (``c >> n``) of every column word, X columns
        then Z columns.  Equal keys mean equal :class:`CosetSupport`
        factorizations, which read nothing else."""
        n = self.num_qubits
        return tuple(c >> n for c in self._xc) + tuple(c >> n for c in self._zc)

    # -- packed row view -------------------------------------------------------

    def _packed_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(2n, W)`` uint64 row view of the X and Z blocks.

        Derived fresh from the column words by one byte-level transpose
        (``O(n²/8)`` bytes).  Not cached: the row view is consumed once
        per coset factorization or amplitude enumeration, whereas
        caching it would put an invalidation store into every gate
        conjugation — the hottest loop in the engine.
        """
        n = self.num_qubits
        rbytes = (2 * n + 7) // 8
        xbuf = b"".join(c.to_bytes(rbytes, "little") for c in self._xc)
        zbuf = b"".join(c.to_bytes(rbytes, "little") for c in self._zc)
        cols = np.unpackbits(
            np.frombuffer(xbuf + zbuf, dtype=np.uint8).reshape(2 * n, rbytes),
            axis=1,
            bitorder="little",
        )[:, : 2 * n]
        xr = pack_bit_matrix(cols[:n].T)
        zr = pack_bit_matrix(cols[n:].T)
        return xr, zr

    def _signs_words(self) -> np.ndarray:
        """Stabilizer sign bits as ``(W,)`` uint64 words (read-only)."""
        n = self.num_qubits
        raw = (self._r >> n).to_bytes(words_for(n) * 8, "little")
        return np.frombuffer(raw, dtype=_U64)

    # -- row products on column words ------------------------------------------

    def _stabilizer_product(self, rows: int) -> Tuple[int, int, int]:
        """The product of the stabilizer rows ``n + i`` for every bit *i*
        of *rows*, multiplied in increasing row order as the
        Aaronson–Gottesman scratch-row reduction does, read straight off
        the column words.

        Returns ``(xs, zs, phase4)``: bit *q* of *xs* / *zs* is the
        product's X / Z bit on qubit *q*, and ``phase4`` its mod-4
        exponent of ``i``.  Per qubit the selected rows' letters
        ``P_1 … P_m`` (X/Z bit vectors ``x``, ``z`` over the rows) give
        ``P_m ⋯ P_1 = i^e · P`` with ``e = |x∧z| + 2·|z ∧ prefix(x)| −
        parity(x)·parity(z)``, where ``prefix(x)`` holds at each row the
        parity of the ``x`` bits below it (write ``Y = iXZ``, move every
        ``Z`` right past the ``X`` of earlier rows, fold ``XZ`` back into
        ``Y``); each row's sign adds 2.
        """
        n = self.num_qubits
        phase4 = 2 * ((self._r >> n) & rows).bit_count()
        xs = zs = 0
        for q in range(n):
            x = (self._xc[q] >> n) & rows
            z = (self._zc[q] >> n) & rows
            if not (x or z):
                continue
            px = x.bit_count() & 1
            pz = z.bit_count() & 1
            phase4 += (x & z).bit_count() - (px & pz)
            if x and z:
                prefix = x << 1
                shift = 1
                while shift < n:
                    prefix ^= prefix << shift
                    shift <<= 1
                phase4 += 2 * (z & prefix).bit_count()
            xs |= px << q
            zs |= pz << q
        return xs, zs, phase4 & 3

    # -- measurement -----------------------------------------------------------

    def _deterministic_outcome(self, qubit: int) -> int:
        """Outcome of measuring *qubit* when no stabilizer anticommutes
        with ``Z_qubit``: the sign of the product of the stabilizers the
        destabilizer bits of ``x[:, qubit]`` select
        (:meth:`_stabilizer_product`)."""
        n = self.num_qubits
        phase4 = self._stabilizer_product(self._xc[qubit] & ((1 << n) - 1))[2]
        if phase4 not in (0, 2):
            raise SimulationError("tableau corrupted: non-Hermitian Z product")
        return phase4 >> 1

    def marginal_probability_one(self, qubit: int) -> float:
        """``P(qubit = 1)`` — a single word test on the column int."""
        q = self._check_qubit(qubit)
        if self._xc[q] >> self.num_qubits:
            return 0.5
        return float(self._deterministic_outcome(q))

    def _collapse_random(self, qubit: int, outcome: int) -> None:
        """Measurement update for the random-outcome case, on the column
        words.

        The pivot *p* is the lowest stabilizer row with an X bit on
        *qubit*; ``rowsum(h, p)`` multiplies row *p* into every other
        such row *h* (the bits of *others*) in one pass over the qubit
        columns where row *p* has a letter.  Row *p*'s letter there
        picks the rows whose ``g`` exponent is +1 and −1 (X: +1 on Y,
        −1 on Z; Z: +1 on X, −1 on Y; Y: +1 on Z, −1 on X), which a
        bit-sliced mod-4 counter ``(lo, hi)`` over the rows sums; a
        row's new sign is ``r_h ⊕ r_p ⊕ hi_h``.  Then row *p* moves to
        the destabilizer slot ``p − n`` and becomes ``±Z_qubit``.
        """
        n = self.num_qubits
        xc, zc = self._xc, self._zc
        col = xc[qubit]
        stab = col >> n
        p = n + (stab & -stab).bit_length() - 1
        bit_p = 1 << p
        others = col ^ bit_p
        shift = p - n
        keep = self._mask ^ bit_p ^ (1 << shift)
        lo = hi = 0
        for q in range(n):
            x = xc[q]
            z = zc[q]
            xp = (x >> p) & 1
            zp = (z >> p) & 1
            if xp or zp:
                if not zp:  # X
                    plus, minus = x & z, z & ~x
                elif not xp:  # Z
                    plus, minus = x & ~z, x & z
                else:  # Y
                    plus, minus = z & ~x, x & ~z
                plus &= others
                minus &= others
                hi ^= (lo & plus) | (minus & ~lo)
                lo ^= plus | minus
                if xp:
                    x ^= others
                if zp:
                    z ^= others
            xc[q] = (x & keep) | (xp << shift)
            zc[q] = (z & keep) | (zp << shift)
        zc[qubit] |= bit_p
        r = self._r
        rp = (r >> p) & 1
        r ^= hi ^ (others if rp else 0)
        self._r = (r & keep) | (rp << shift) | (int(outcome) << p)

    def collapse(self, qubit: int, outcome: int) -> float:
        """Project *qubit* onto *outcome*; returns the pre-collapse
        probability of that outcome (raises if it is zero)."""
        q = self._check_qubit(qubit)
        if self._xc[q] >> self.num_qubits:
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
        if self._xc[q] >> self.num_qubits:
            outcome = 1 if u < 0.5 else 0
            self._collapse_random(q, outcome)
            return outcome
        return self._deterministic_outcome(q)

    def reset(self, qubit: int, rng: RandomState = None) -> "Tableau":
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
        same stabilizer product as a deterministic measurement
        (:meth:`_stabilizer_product`).  The rows anticommuting with *P*
        are the bits of its :meth:`pauli_mask`.
        """
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        n = self.num_qubits
        px = pz = 0
        for label, q in zip(pauli.upper(), qubits):
            bit = 1 << self._check_qubit(q)
            if label == "I":
                continue
            if label == "X":
                px ^= bit
            elif label == "Y":
                px ^= bit
                pz ^= bit
            elif label == "Z":
                pz ^= bit
            else:
                raise SimulationError(f"unknown Pauli label {label!r}")
        if not (px or pz):
            return 1.0
        anti = self.pauli_mask(pauli, qubits)
        if anti >> n:
            return 0.0
        sx, sz, phase4 = self._stabilizer_product(anti)
        if sx != px or sz != pz:
            raise SimulationError("tableau corrupted: Pauli reconstruction failed")
        if phase4 not in (0, 2):
            raise SimulationError("tableau corrupted: non-Hermitian stabilizer")
        return 1.0 if phase4 == 0 else -1.0

    def expectation_z(self, qubits: Sequence[int]) -> float:
        """Expectation of ``Z⊗…⊗Z`` on the listed qubits."""
        return self.expectation_pauli("Z" * len(qubits), qubits)

    # -- sampling --------------------------------------------------------------

    def coset_support(self) -> "CosetSupport":
        """The coset factorization of this tableau's X/Z structure (the
        hook the engine layer builds its shared support through)."""
        return CosetSupport(self)

    def sample(
        self,
        shots: int,
        rng: RandomState = None,
        qubits: Optional[Sequence[int]] = None,
        *,
        support: Optional["CosetSupport"] = None,
    ) -> np.ndarray:
        """Draw *shots* computational-basis samples without collapsing.

        Returns an ``(shots, k)`` uint8 array, column *j* being qubit
        ``qubits[j]`` (default all qubits in index order) — the same
        contract as :meth:`StateVector.sample`, ``shots = 0`` included.

        The outcome set of a stabilizer state is a coset ``c ⊕ span(B)``
        with uniform weights.  When the coset dimension fits in
        ``_EXACT_COSET_BITS``, each shot consumes one uniform draw ``u``
        and selects the ``⌊u·2^k⌋``-th smallest coset element — exactly
        the index the dense engine's ``rng.choice`` CDF inversion picks
        from the equal-weight probability vector, so seeded runs produce
        identical bits across engines.  Beyond that, each shot draws one
        uniform per free bit instead (the dense engine cannot represent
        such states anyway).  The coset walk runs on packed words
        (offset XOR basis-row XORs) and unpacks once at the end.

        Pass a precomputed *support* (from :class:`CosetSupport`) to skip
        the factorization when many tableaux share one X/Z structure —
        the grouped noise sampler's common case.
        """
        r = as_rng(rng)
        n = self.num_qubits
        qs = None if qubits is None else [self._check_qubit(q) for q in qubits]
        if support is None:
            support = CosetSupport(self)
        c = support.offset_words(self._signs_words())
        rows = support.draw_rows(np.broadcast_to(c, (int(shots), c.shape[0])), r)
        bits = unpack_bit_matrix(rows, n)
        if qs is None:
            return bits
        return bits[:, np.asarray(qs, dtype=np.int64)]

    # -- conversion ------------------------------------------------------------

    def coset_amplitudes(
        self, support: Optional["CosetSupport"] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse amplitude map of this state: ``(indices, amplitudes)``.

        A stabilizer state is a uniform-magnitude superposition over the
        outcome coset ``c ⊕ span(B)`` with per-element phases in
        ``{±1, ±i}``.  This computes all ``2^k`` nonzero amplitudes in
        ``O(2^k · k)`` vectorized work (plus one word-parallel
        elimination), so sparse states — a GHZ state has two nonzero
        amplitudes at any width — convert in microseconds.

        Method: Gaussian elimination over the stabilizer X-block yields
        ``k`` independent group elements ``g_j = i^{u_j} X^{a_j} Z^{z_j}``
        whose X-parts span the coset.  ``g|ψ⟩ = |ψ⟩`` pins every relative
        phase: ``ψ(x ⊕ a) = i^u (−1)^{z·x} ψ(x)``, so iterative doubling
        from the coset offset ``c`` (chosen real positive — global phase
        is a gauge) enumerates the full support.  Phases multiply
        consistently along any path because the stabilizer group is
        abelian *including* its phases.  At ``n ≤ 62`` a row's single
        word already is its basis index.

        Pass a precomputed *support* to skip rebuilding the coset
        constraint system when many sign-only-different tableaux convert
        — the hybrid engine's trajectory groups.  The group-element
        elimination for the phases is still performed per call: its row
        operations are structure-determined, but the accumulated phases
        depend on this tableau's own signs.  This is the conversion
        boundary of segment-granular mixed execution: the downstream
        dense/sparse engine starts from exactly these amplitudes.
        """
        n = self.num_qubits
        if n > 62:
            raise SimulationError(
                "coset_amplitudes packs basis indices into int64 words; "
                f"{n} qubits exceeds the 62-qubit packing limit"
            )
        xr, zr = self._packed_rows()
        sx = xr[n:]
        sz = zr[n:]
        # Canonical form i^u · X^x Z^z: each Y contributes one factor of
        # i (Y = iXZ), the tableau sign contributes (−1)^r = i^{2r}.
        u4 = (
            2 * _bits_of_int(self._r >> n, n).astype(np.int64)
            + _popcount_last_axis(sx & sz)
        ) % 4
        pivot_rows: List[int] = []
        for p, rows in _x_block_pivots(sx):
            pivot_rows.append(p)
            if rows.size:
                # (i^u1 X^x1 Z^z1)(i^u2 X^x2 Z^z2)
                #   = i^{u1+u2} (−1)^{z1·x2} X^{x1⊕x2} Z^{z1⊕z2}
                cross = _popcount_last_axis(sz[p][None, :] & sx[rows])
                u4[rows] = (u4[rows] + u4[p] + 2 * cross) % 4
                sx[rows] ^= sx[p]
                sz[rows] ^= sz[p]
        if support is None:
            support = CosetSupport(self)
        indices = support.offset_words(self._signs_words()).astype(np.int64)
        amps = np.array([2.0 ** (-0.5 * len(pivot_rows))], dtype=complex)
        i_pow = np.array([1.0, 1.0j, -1.0, -1.0j])
        for p in pivot_rows:
            a_int = np.int64(sx[p, 0])
            parity = indices & np.int64(sz[p, 0])
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
        """Dense ``2^n`` probability vector (validation only, n ≤ 16):
        exactly ``1/2^k`` at each of the ``2^k`` coset members."""
        n = self.num_qubits
        if n > 16:
            raise SimulationError("dense probabilities limited to 16 qubits")
        indices, _ = self.coset_amplitudes()
        out = np.zeros(1 << n, dtype=float)
        out[indices] = 1.0 / indices.size
        return out

    def __repr__(self) -> str:
        return f"<Tableau {self.num_qubits} qubits>"


class CosetSupport:
    """The computational-basis outcome coset of a tableau's X/Z structure.

    Factorizes the stabilizer block once: Gaussian elimination over the
    X-block isolates the Z-only stabilizer subgroup, whose sign bits pin
    the outcome set to a coset ``c ⊕ span(B)`` of ``F₂^n``.  Phases are
    tracked *symbolically* during elimination (each working row carries
    the set of original stabilizer rows multiplied into it plus the
    accumulated mod-4 ``g``-phase), so the factorization depends only on
    the X/Z bits.  Every row is a ``W = ceil(n/64)`` uint64 word vector:
    pivots are found by single-word bit tests, row eliminations are
    word-wide XORs, and the ``g``-phase bookkeeping runs through the
    popcount kernel (:func:`g4_words`).

    :meth:`offset_words` resolves the coset representative for a
    concrete packed sign vector in ``O(n²/64)`` word ops — trajectories
    that differ only by injected Pauli errors share one instance.

    The basis is fully reduced with pivots in descending bit order, so
    the map ``λ ↦ c ⊕ λ·B`` enumerates coset elements in increasing
    integer order — the property :meth:`Tableau.sample` relies on for
    dense-engine-compatible CDF inversion.
    """

    def __init__(self, tableau: Tableau) -> None:
        n = tableau.num_qubits
        self.num_qubits = n
        w = words_for(n)
        xr, zr = tableau._packed_rows()
        sx = xr[n:].copy()
        sz = zr[n:].copy()
        hist = pack_bit_matrix(np.eye(n, dtype=np.uint8))
        g4 = np.zeros(n, dtype=np.int64)
        used = np.zeros(n, dtype=bool)
        for p, rows in _x_block_pivots(sx):
            used[p] = True
            if rows.size:
                g = g4_words(sx[p][None, :], sz[p][None, :], sx[rows], sz[rows])
                g4[rows] = (g4[rows] + g4[p] + g) % 4
                hist[rows] ^= hist[p]
                sx[rows] ^= sx[p]
                sz[rows] ^= sz[p]
        zonly = np.nonzero(~used)[0]
        if (g4[zonly] % 2).any():
            raise SimulationError("tableau corrupted: odd phase on Z-only row")
        A = sz[zonly].copy()
        b0 = ((g4[zonly] >> 1) % 2).astype(np.uint8)
        H = hist[zonly].copy()
        m = A.shape[0]
        pivots: List[int] = []
        row = 0
        for col in range(n):
            if row == m:
                break
            shift = np.uint64(col & 63)
            word = col >> 6
            sub = np.nonzero((A[row:, word] >> shift) & np.uint64(1))[0]
            if sub.size == 0:
                continue
            pr = row + int(sub[0])
            if pr != row:
                A[[row, pr]] = A[[pr, row]]
                b0[[row, pr]] = b0[[pr, row]]
                H[[row, pr]] = H[[pr, row]]
            others = np.nonzero((A[:, word] >> shift) & np.uint64(1))[0]
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
        # One-hot packed row per pivot column: offset() ORs the selected
        # rows in a single ufunc reduce (pivot columns are distinct, so
        # OR and XOR coincide).
        pivot_onehot = np.zeros((m, n), dtype=np.uint8)
        if m:
            pivot_onehot[np.arange(m), self._pivot_cols] = 1
        self._pivot_rows = pack_bit_matrix(pivot_onehot) if m else np.zeros(
            (0, w), dtype=_U64
        )
        self._b0 = b0
        self._b0_bool = b0.astype(bool)
        self._H = H
        free_cols = sorted(set(range(n)) - set(pivots))
        k = len(free_cols)
        # Nullspace vector for free column f: 1 at f plus ``A[i, f]`` at
        # each pivot column p_i.  Echelon structure zeroes every row left
        # of its pivot, so each vector's top bit *is* its free column and
        # listing free columns in descending order already yields the
        # reduced descending-pivot basis the sorted-coset sampler needs.
        # Built bit-wise (O(k·n) bytes, once), packed for the sampler.
        basis_bits = np.zeros((k, n), dtype=np.uint8)
        for j, f in enumerate(reversed(free_cols)):
            basis_bits[j, f] = 1
            if m:
                col_f = (
                    (A[:, f >> 6] >> np.uint64(f & 63)) & np.uint64(1)
                ).astype(np.uint8)
                basis_bits[j, self._pivot_cols] = col_f
        self.basis_words = pack_bit_matrix(basis_bits) if k else np.zeros(
            (0, w), dtype=_U64
        )
        self._basis_pivots = np.asarray(free_cols[::-1], dtype=np.int64)
        self.dimension = k
        # Shift table for the exact-coset index → λ-bit expansion,
        # precomputed once so per-group sampling skips the arange.
        self._lam_shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
        # Read-only: one support serves many requests and threads.
        for array in self._arrays():
            array.flags.writeable = False

    def _arrays(self) -> Tuple[np.ndarray, ...]:
        return (
            self._pivot_cols,
            self._pivot_rows,
            self._b0,
            self._b0_bool,
            self._H,
            self.basis_words,
            self._basis_pivots,
            self._lam_shifts,
        )

    @property
    def nbytes(self) -> int:
        """Approximate footprint: the arrays' data plus their headers."""
        return sum(a.nbytes + _ARRAY_HEADER_BYTES for a in self._arrays())

    def offset_words(self, signs: np.ndarray) -> np.ndarray:
        """Reduced coset representative for packed stabilizer sign bits
        *signs*, as ``(W,)`` uint64 words.

        The smallest-integer outcome: the particular solution of the
        Z-only constraint system.  Its support lies in the constraint
        pivot columns — disjoint from the basis pivots — so ``λ ↦ c ⊕ λ·B``
        walks the coset in increasing integer order.
        """
        return self.offsets_words(signs[None, :])[0]

    def offsets_words(self, signs: np.ndarray) -> np.ndarray:
        """:meth:`offset_words` for a stack of ``(G, W)`` sign vectors at
        once, as ``(G, W)`` uint64 words."""
        if not self._pivot_cols.size:
            return np.zeros((signs.shape[0], words_for(self.num_qubits)), dtype=_U64)
        odd = _popcount_last_axis(self._H[None, :, :] & signs[:, None, :]) & 1
        chosen = self._b0_bool[None, :] ^ odd.astype(bool)
        return np.bitwise_or.reduce(
            np.where(chosen[:, :, None], self._pivot_rows[None, :, :], np.uint64(0)),
            axis=1,
        )

    def draw_rows(self, offsets: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sampled outcomes, one ``(W,)`` packed row per shot, for shots
        whose coset representatives are the rows of *offsets*.

        At most ``_EXACT_COSET_BITS`` free bits a shot consumes one
        uniform (:meth:`rows_from_uniforms`), ``k = 0`` included, to stay
        stream-aligned with the dense engine's CDF inversion; beyond
        that, one uniform per free bit."""
        shots = offsets.shape[0]
        k = self.dimension
        if k <= _EXACT_COSET_BITS:
            return self.rows_from_uniforms(offsets, rng.random(shots))
        return self._walk_basis(offsets, rng.random((shots, k)) < 0.5)

    def rows_from_uniforms(self, offsets: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The exact-coset map: uniform ``u`` selects the ``⌊u·2^k⌋``-th
        smallest element of its shot's coset — the index the dense
        engine's ``rng.choice`` CDF inversion picks from the
        equal-weight probability vector.  Requires ``k ≤
        _EXACT_COSET_BITS``, where ``⌊u·2^k⌋ < 2^k`` for every ``u < 1``
        and needs no clamp."""
        k = self.dimension
        if k == 0:
            return np.array(offsets, dtype=_U64)
        j = (u * float(1 << k)).astype(np.int64)
        return self._walk_basis(
            offsets, ((j[:, None] >> self._lam_shifts[None, :]) & 1).astype(bool)
        )

    def _walk_basis(self, offsets: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """``c ⊕ λ·B`` per shot on packed words (*lam* is ``(shots, k)``
        bool)."""
        rows = np.array(offsets, dtype=_U64)
        for i, word in enumerate(self.basis_words):
            on = lam[:, i]
            if on.any():
                rows[on] ^= word
        return rows


def sample_cosets(
    supports: Sequence[CosetSupport],
    groups: Sequence[Tuple[int, int, int]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Outcomes of many trajectory groups, as ``(Σ shots, W)`` packed
    rows in group order; each group is ``(support index, stabilizer sign
    word, shots)`` into *supports*, the sign word an integer with bit
    *i* the sign of stabilizer row *i*.

    Draws exactly what :meth:`Tableau.sample` would draw group by group.
    When every coset has at most ``_EXACT_COSET_BITS`` free bits, each
    group draws one uniform per shot, ``k = 0`` included, so one
    ``rng.random(Σ shots)`` sliced in group order is the same stream:
    offsets then come per support from the stacked signs of its groups
    (:meth:`CosetSupport.offsets_words`), and λ expands for every shot of
    a support at once.  Otherwise the groups draw one by one."""
    w = words_for(supports[0].num_qubits)
    signs = np.frombuffer(
        b"".join(word.to_bytes(8 * w, "little") for _, word, _ in groups), dtype=_U64
    ).reshape(len(groups), w)
    sid = np.array([i for i, _, _ in groups], dtype=np.int64)
    offsets = np.empty((len(groups), w), dtype=_U64)
    for i, support in enumerate(supports):
        members = np.flatnonzero(sid == i)
        offsets[members] = support.offsets_words(signs[members])
    sizes = np.array([shots for _, _, shots in groups], dtype=np.int64)
    if any(support.dimension > _EXACT_COSET_BITS for support in supports):
        return np.concatenate(
            [
                supports[sid[g]].draw_rows(
                    np.repeat(offsets[g : g + 1], sizes[g], axis=0), rng
                )
                for g in range(len(groups))
            ]
        )
    group_of_shot = np.repeat(np.arange(len(groups)), sizes)
    u = rng.random(group_of_shot.size)
    rows = np.empty((group_of_shot.size, w), dtype=_U64)
    support_of_shot = sid[group_of_shot]
    by_support = np.argsort(support_of_shot, kind="stable")
    bounds = np.searchsorted(support_of_shot[by_support], np.arange(len(supports) + 1))
    for i, support in enumerate(supports):
        at = by_support[bounds[i] : bounds[i + 1]]
        rows[at] = support.rows_from_uniforms(offsets[group_of_shot[at]], u[at])
    return rows


def simulate_tableau(
    circuit: QuantumCircuit, *, rng: RandomState = None
) -> Tableau:
    """Run *circuit*'s Clifford part, returning the final tableau.

    The stabilizer analogue of :func:`~repro.simulator.statevector.simulate_statevector`:
    measurements are skipped (sampling is the sampler's job), resets
    collapse stochastically using *rng*, barriers and delays are no-ops.
    Raises :class:`SimulationError` on any non-Clifford instruction.
    """
    tab = Tableau(circuit.num_qubits)
    r = as_rng(rng)
    for inst in circuit:
        if inst.name in gate_lib.UNITARY_NOOPS:
            continue
        if inst.name == "reset":
            tab.reset(inst.qubits[0], r)
            continue
        tab.apply_instruction(inst)
    return tab


def ghz_tableau(num_qubits: int) -> Tableau:
    """The ``(|0…0⟩ + |1…1⟩)/√2`` state as a tableau, at any width."""
    tab = Tableau(num_qubits)
    tab.apply("h", [0])
    for q in range(num_qubits - 1):
        tab.apply("cx", [q, q + 1])
    return tab


__all__ = [
    "Tableau",
    "CosetSupport",
    "sample_cosets",
    "simulate_tableau",
    "ghz_tableau",
    "g4_words",
    "pack_bit_matrix",
    "unpack_bit_matrix",
    "words_for",
]
