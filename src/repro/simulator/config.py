"""One request's execution settings: the frozen :class:`ExecutionConfig`.

Every setting that decides how a request runs — the engine mode, the
MPS truncation contract, the cache-working-set budget, the admission
budget and the flight recorder — lives on one immutable, validated
value.  The public entry points (``sample_counts``, ``prepare_engine``,
``check_admission`` / ``estimate_resources``, ``exact_expectation``
and ``plans.plan_for``) take it as ``config=``;
when it is omitted they read :func:`current_config` **once** and pass
the value down explicitly.

:func:`~repro.simulator.sampler.engine_mode` sets the current config for
a ``with`` block through a :class:`contextvars.ContextVar`, so each
thread (and asyncio task) sees its own value.  This module is a leaf: it
imports nothing from the sampler or the engines.
"""

from __future__ import annotations

import numbers
from contextvars import ContextVar
from dataclasses import dataclass

from repro.errors import EngineModeError
from repro.simulator.statevector import DENSE_QUBIT_LIMIT

#: The recognized engine modes (see :func:`repro.simulator.engine_mode`).
ENGINE_MODES = ("fast", "mps", "auto")

#: Default MPS bond-dimension cap.  64 keeps every state of ≤12 qubits
#: exact (the widest cut of an n-qubit chain is ``2^(n//2)``), which is
#: what the seeded-parity suites rely on; wide low-entanglement
#: workloads rarely need more.
DEFAULT_CHI = 64

#: Default MPS truncation threshold: the maximum cumulative *relative*
#: weight (``Σ s_i² / Σ s²`` of the discarded tail) one SVD may drop
#: beyond the ``chi`` cap.  0.0 means "truncate only when the bond cap
#: forces it" — the exact-parity default.
DEFAULT_TRUNCATION_THRESHOLD = 0.0

#: Default cache-working-set budget, in bytes of stacked amplitudes (16
#: per).  Two consumers: batched-walk chunks are sized to fit it whole
#: (the walk engages only where 16 stacked states fit — at most 13
#: qubits under this default; see
#: :func:`repro.simulator.engines.dense.batched_walk_fits`), and the
#: blocked sweep executor derives its tile width from it
#: (:func:`repro.simulator.engines.dense.blocked_tile_qubits` — 1/8 of
#: the budget per tile).  This is a **cache** budget, not a RAM
#: budget: the batched walk's total element work equals the scalar
#: walk's, so its entire advantage is amortizing per-gate dispatch — and
#: that only pays while the working set stays resident between gates.
#: Oversized chunks evict every row on every gate and run DRAM-bound,
#: *slower* than the scalar walk whose single state sits in L2 (measured
#: 0.2× at 16 qubits with a 512 MiB budget vs 2.3× at 10 qubits with
#: this one).
DEFAULT_BATCH_MAX_BYTES = 2 * 1024 * 1024

#: Smallest accepted ``batch_max_bytes``: below this a tile would drop
#: under the fast kernels' useful block sizes.
BATCH_BYTES_FLOOR = 1024

#: Default peak-memory admission budget: the dense engine's estimated
#: peak at the dense qubit limit.  Chosen so admission control is
#: invisible to every request the stack could already serve (a 26-qubit
#: dense run admits exactly) while anything wider fails fast with a
#: structured error instead of attempting the allocation.
DEFAULT_MAX_STATE_BYTES = 3 * (16 << DENSE_QUBIT_LIMIT)


def _is_int_at_least(value: object, floor: int) -> bool:
    # bool is an int subclass (True would silently mean 1), and numpy
    # integers from sweep/config code are perfectly valid.
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Integral)
        and value >= floor
    )


@dataclass(frozen=True)
class ExecutionConfig:
    """The validated execution settings of one request.

    One field per :func:`~repro.simulator.engine_mode` keyword (``mode``
    plus its sub-options; their semantics are documented there).
    Construction checks every field's type and range and raises
    :class:`~repro.errors.EngineModeError` on a bad value, so a config
    that exists is a config that can run.  Integral fields are stored as
    ``int`` and the threshold as ``float``, so numpy scalars from sweep
    code compare equal to their Python spellings.
    """

    mode: str = "fast"
    chi: int = DEFAULT_CHI
    truncation_threshold: float = DEFAULT_TRUNCATION_THRESHOLD
    batch_max_bytes: int = DEFAULT_BATCH_MAX_BYTES
    max_state_bytes: int = DEFAULT_MAX_STATE_BYTES
    trace: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise EngineModeError(
                f"unknown engine mode {self.mode!r}; expected one of {ENGINE_MODES}"
            )
        if not _is_int_at_least(self.chi, 1):
            raise EngineModeError(
                f"bond cap chi must be an integer >= 1, got {self.chi!r}"
            )
        threshold = self.truncation_threshold
        if (
            isinstance(threshold, bool)
            or not isinstance(threshold, numbers.Real)
            or not 0.0 <= threshold < 1.0
        ):
            raise EngineModeError(
                f"truncation_threshold must lie in [0, 1), got {threshold!r}"
            )
        if not _is_int_at_least(self.batch_max_bytes, BATCH_BYTES_FLOOR):
            raise EngineModeError(
                f"batch_max_bytes must be an integer >= {BATCH_BYTES_FLOOR}, "
                f"got {self.batch_max_bytes!r}"
            )
        if not _is_int_at_least(self.max_state_bytes, 1):
            raise EngineModeError(
                f"max_state_bytes must be an integer >= 1, got {self.max_state_bytes!r}"
            )
        if not isinstance(self.trace, bool):
            raise EngineModeError(f"trace must be a bool, got {self.trace!r}")
        normalize = object.__setattr__
        normalize(self, "chi", int(self.chi))
        normalize(self, "truncation_threshold", float(threshold))
        normalize(self, "batch_max_bytes", int(self.batch_max_bytes))
        normalize(self, "max_state_bytes", int(self.max_state_bytes))

    def plan_key(self) -> tuple:
        """This config's share of the plan-cache key: the settings that
        change what a compiled plan contains (the MPS contract and the
        working-set budget the blocked-sweep tile derives from)."""
        return (self.chi, self.truncation_threshold, self.batch_max_bytes)


_CURRENT: ContextVar[ExecutionConfig] = ContextVar(
    "repro_execution_config", default=ExecutionConfig()
)


def current_config() -> ExecutionConfig:
    """The config :func:`~repro.simulator.engine_mode` installed for the
    running context — ``ExecutionConfig()`` outside any block."""
    return _CURRENT.get()


__all__ = [
    "BATCH_BYTES_FLOOR",
    "DEFAULT_BATCH_MAX_BYTES",
    "DEFAULT_CHI",
    "DEFAULT_MAX_STATE_BYTES",
    "DEFAULT_TRUNCATION_THRESHOLD",
    "ENGINE_MODES",
    "ExecutionConfig",
    "current_config",
]
