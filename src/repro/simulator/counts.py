"""Measurement-outcome histograms.

Section 2.4 of the paper: "The most common output format for
circuit-based jobs is a histogram of the measured bitstrings and the
number of their observed occurrences."  :class:`Counts` is exactly that
histogram, and is the payload every access path (REST and HPC) returns.

Bitstring convention: **little-endian display** — the rightmost character
of the key is classical bit 0 (matching Qiskit, which the paper's users
arrive with).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError


class Counts(Mapping[str, int]):
    """Immutable histogram of measured bitstrings."""

    def __init__(self, data: Mapping[str, int], num_bits: Optional[int] = None):
        if not data and num_bits is None:
            raise SimulationError("empty counts need an explicit num_bits")
        widths = {len(k) for k in data}
        if len(widths) > 1:
            raise SimulationError(f"inconsistent bitstring widths: {sorted(widths)}")
        self.num_bits = int(num_bits) if num_bits is not None else widths.pop()
        self._data: Dict[str, int] = {}
        for key, value in data.items():
            if len(key) != self.num_bits or set(key) - {"0", "1"}:
                raise SimulationError(f"invalid bitstring key {key!r}")
            v = int(value)
            if v < 0:
                raise SimulationError(f"negative count for {key!r}")
            if v:
                self._data[key] = v

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_bit_array(cls, bits: np.ndarray) -> "Counts":
        """Build from an ``(shots, num_bits)`` 0/1 array where column *j*
        is classical bit *j* (displayed rightmost-first).

        Registers up to 62 bits histogram through a packed-integer
        ``np.unique``; wider registers (the stabilizer engine samples
        hundreds of qubits) fall back to row-wise uniquing so the bit
        weights never overflow int64.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise SimulationError("bit array must be 2-D (shots, bits)")
        shots, width = bits.shape
        if width == 0:
            raise SimulationError("bit array needs at least one bit column")
        if width <= 62:
            weights = (1 << np.arange(width)).astype(np.int64)
            values = bits.astype(np.int64) @ weights
            uniq, cnt = np.unique(values, return_counts=True)
            data = {
                format(int(v), f"0{width}b"): int(c) for v, c in zip(uniq, cnt)
            }
        else:
            # Byte-pack rows before uniquing: 8× less data through the
            # lexicographic sort, and the packing is injective at fixed
            # width so the histogram is unchanged.  Keys are rebuilt from
            # the unpacked unique rows only (a few, not one per shot).
            packed = np.packbits(
                np.ascontiguousarray(bits, dtype=np.uint8), axis=1, bitorder="little"
            )
            rows, cnt = np.unique(packed, axis=0, return_counts=True)
            unpacked = np.unpackbits(rows, axis=1, bitorder="little")[:, :width]
            # Build all keys in one pass: '0'/'1' ASCII codes for every
            # unique row, decoded once and sliced per row.
            chars = (unpacked[:, ::-1] + ord("0")).astype(np.uint8)
            blob = chars.tobytes().decode("ascii")
            data = {
                blob[i * width : (i + 1) * width]: int(c)
                for i, c in enumerate(cnt)
            }
        return cls(data, num_bits=width)

    @classmethod
    def from_probabilities(
        cls, probs: Mapping[str, float], shots: int
    ) -> "Counts":
        """Expected (rounded) counts from a probability table — used for
        analytic baselines, not sampling."""
        data = {k: int(round(p * shots)) for k, p in probs.items()}
        width = len(next(iter(probs))) if probs else 1
        return cls(data, num_bits=width)

    # -- mapping protocol -------------------------------------------------------

    def __getitem__(self, key: str) -> int:
        return self._data.get(key, 0)

    def __contains__(self, key: object) -> bool:
        # Mapping's default falls back to __getitem__, which never raises
        # here (absent keys read as 0) — membership must check storage.
        return key in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        top = sorted(self._data.items(), key=lambda kv: -kv[1])[:4]
        body = ", ".join(f"{k}: {v}" for k, v in top)
        more = "" if len(self._data) <= 4 else f", … ({len(self._data)} keys)"
        return f"Counts({{{body}{more}}}, shots={self.shots})"

    # -- basic statistics -------------------------------------------------------

    @property
    def shots(self) -> int:
        """Total number of recorded shots (sum of all counts)."""
        return sum(self._data.values())

    def probabilities(self) -> Dict[str, float]:
        """The empirical outcome distribution (counts normalized by shots)."""
        total = self.shots
        if total == 0:
            return {}
        return {k: v / total for k, v in self._data.items()}

    def most_frequent(self) -> str:
        """The modal bitstring (ties break toward the larger key)."""
        if not self._data:
            raise SimulationError("no outcomes recorded")
        return max(self._data.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def bit_value(self, key: str, bit: int) -> int:
        """Value of classical bit *bit* in bitstring *key*."""
        return int(key[self.num_bits - 1 - bit])

    # -- transformations --------------------------------------------------------

    def marginal(self, bits: Sequence[int]) -> "Counts":
        """Marginalize onto the given classical bits (result bit *j* is
        input bit ``bits[j]``)."""
        for b in bits:
            if not 0 <= b < self.num_bits:
                raise SimulationError(f"bit {b} out of range")
        out: Dict[str, int] = {}
        for key, value in self._data.items():
            sub = "".join(str(self.bit_value(key, b)) for b in reversed(bits))
            out[sub] = out.get(sub, 0) + value
        return Counts(out, num_bits=len(bits))

    def merged(self, other: "Counts") -> "Counts":
        """Combine two histograms over the same bit width."""
        if other.num_bits != self.num_bits:
            raise SimulationError("cannot merge counts with different widths")
        out = dict(self._data)
        for k, v in other._data.items():
            out[k] = out.get(k, 0) + v
        return Counts(out, num_bits=self.num_bits)

    def __add__(self, other: "Counts") -> "Counts":
        """``a + b`` is :meth:`merged` — shot histograms add naturally."""
        if not isinstance(other, Counts):
            return NotImplemented
        return self.merged(other)

    # -- distances & observables --------------------------------------------------

    def total_variation_distance(self, other: "Counts") -> float:
        """TVD between the two empirical distributions."""
        p, q = self.probabilities(), other.probabilities()
        keys = set(p) | set(q)
        return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)

    def hellinger_fidelity(self, other: "Counts") -> float:
        """``(Σ √(p_i q_i))²`` — the standard counts-level fidelity proxy."""
        p, q = self.probabilities(), other.probabilities()
        keys = set(p) & set(q)
        bc = sum(math.sqrt(p[k] * q[k]) for k in keys)
        return bc * bc

    def expectation_z(self, bits: Optional[Sequence[int]] = None) -> float:
        """Expectation of ``Z⊗…⊗Z`` over the listed classical bits
        (default all): ``Σ_k p(k) · (−1)^{parity(k)}``."""
        use = list(range(self.num_bits)) if bits is None else list(bits)
        total = self.shots
        if total == 0:
            raise SimulationError("no outcomes recorded")
        acc = 0.0
        for key, value in self._data.items():
            parity = sum(self.bit_value(key, b) for b in use) & 1
            acc += (-1 if parity else 1) * value
        return acc / total

    def ghz_fidelity_estimate(self) -> float:
        """Population-based GHZ fidelity proxy: ``p(0…0) + p(1…1)``.

        The paper's live health checks run GHZ circuits and look at how
        much probability stays on the two ideal outcomes (Section 3.2).
        """
        probs = self.probabilities()
        zeros = "0" * self.num_bits
        ones = "1" * self.num_bits
        return probs.get(zeros, 0.0) + probs.get(ones, 0.0)

    def to_dict(self) -> Dict[str, int]:
        """A plain ``{bitstring: count}`` dict (zero entries dropped)."""
        return dict(self._data)


__all__ = ["Counts"]
