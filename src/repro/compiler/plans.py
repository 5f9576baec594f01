"""Compiled execution plans and the cross-request plan cache.

The engines historically re-derived everything per trajectory window:
the DAG commutation scan, greedy fusion chunking, diagonal-table
builds, Clifford-segment boundaries, MPS SWAP routes.  For the
production traffic shape — many parameter bindings of one ansatz — all
of that analysis depends only on the circuit's *structure*, so this
module compiles it once into an engine-agnostic :class:`ExecutionPlan`
and caches plans across requests in a bounded LRU keyed by
``(structural_hash, options key)``, the options key being the request
config's :meth:`~repro.simulator.config.ExecutionConfig.plan_key`.

Two tiers keep parameter values out of the shared cache:

:class:`ExecutionPlan`
    One per circuit structure, shared across requests.  Holds strictly
    value-independent artifacts: per-window fusion *partitions* (which
    positions fuse into which diagonal table or gate block — see
    :func:`repro.simulator.engines.dense.partition_window`), fully
    materialized *static* fused items (every member takes zero
    parameters, so the table is bit-identical for any circuit sharing
    the hash), and the MPS SWAP route table.  The structural hash's
    per-instruction diagonality bit is what makes sharing partitions
    sound: same hash ⇒ same diagonality ⇒ same partition, even at
    value edges like ``ry(0)``.

:class:`BoundPlan`
    One per request (one concrete binding).  Resolves partitions into
    applicable item lists, rematerializing only the
    parameter-dependent items, and computes the bind-time artifacts
    whose value *does* depend on concrete angles (the hybrid engine's
    Clifford boundary — ``rz(π/2)`` is Clifford, ``rz(0.3)`` is not).

Everything is lazy: building a plan is cheap, each window's partition
and static tables are computed on first execution and memoized on the
shared tier, so a warm cache skips the scan, the routing, and the
static matrix/table builds entirely.

Correctness contract: planned and unplanned execution share one
partition/materialization code path (the plan layer only decides
whether results are *reused*), so seeded counts are bit-identical by
construction and RNG draw order is untouched.  The differential fuzz
suite (``tests/test_equivalence_fuzz.py``) pins this across all
backends.

Import discipline: at module scope this module imports only
``repro.circuits``, ``repro.qpu`` and the leaf
:mod:`repro.simulator.config`; the engines are imported lazily inside
functions (the sampler imports this module, and the simulator package
pulls in the sampler).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.dag import instruction_is_clifford
from repro.circuits.gates import UNITARY_NOOPS
from repro.circuits.serialize import structural_hash
from repro.simulator.config import ExecutionConfig, current_config
from repro.telemetry import tracing as _tracing

#: Bounded-LRU capacity of the cross-request plan cache.
PLAN_CACHE_MAX = 128

_CACHE: "OrderedDict[Tuple[str, tuple], ExecutionPlan]" = OrderedDict()
_LOCK = threading.RLock()
_HITS = 0
_MISSES = 0
_EVICTIONS = 0
_UNSET = object()


def _dense():
    from repro.simulator.engines import dense

    return dense


class ExecutionPlan:
    """Value-independent compiled artifacts for one circuit structure.

    Shared across requests (and threads) through the plan cache; every
    memo written here is derived purely from structure, so concurrent
    writers can only ever race to store equal values.
    """

    __slots__ = (
        "structural_hash",
        "options_key",
        "num_qubits",
        "num_clbits",
        "tile_qubits",
        "swap_routes",
        "_partitions",
        "_static",
        "_schedules",
    )

    def __init__(
        self,
        circuit: QuantumCircuit,
        key: Tuple[str, tuple],
        config: ExecutionConfig,
    ) -> None:
        self.structural_hash, self.options_key = key
        self.num_qubits = circuit.num_qubits
        #: Blocked-sweep tile width under the config's working-set
        #: budget (pinned by the options key).
        self.tile_qubits = _dense().blocked_tile_qubits(config.batch_max_bytes)
        self.num_clbits = circuit.num_clbits
        self.swap_routes = self._route_table(circuit)
        # (start, stop) window → fusion partition (or None: nothing fuses)
        self._partitions: Dict[Tuple[int, int], Optional[tuple]] = {}
        # (start, stop) window → {entry index → materialized static item}
        self._static: Dict[Tuple[int, int], Dict[int, tuple]] = {}
        # (start, stop) window → blocked sweep schedule (or None)
        self._schedules: Dict[Tuple[int, int], Optional[tuple]] = {}

    # -- artifacts -------------------------------------------------------------

    def _route_table(self, circuit: QuantumCircuit) -> Dict[Tuple[int, int], tuple]:
        """SWAP routes for every non-adjacent 2q gate in the circuit —
        exactly the paths the MPS engine would compute on the fly."""
        from repro.qpu.topology import Topology

        routes: Dict[Tuple[int, int], tuple] = {}
        topo = None
        for inst in circuit:
            if len(inst.qubits) != 2 or inst.name in UNITARY_NOOPS:
                continue
            a, b = inst.qubits
            lo, hi = (a, b) if a < b else (b, a)
            if hi - lo <= 1 or (lo, hi) in routes:
                continue
            if topo is None:
                topo = Topology.line(self.num_qubits)
            routes[(lo, hi)] = tuple(topo.shortest_path(lo, hi))
        return routes

    def window_partition(
        self, instructions: Sequence[Instruction], start: int, stop: int
    ) -> Optional[tuple]:
        """The fusion partition of ``instructions[start:stop]``, memoized
        across requests by window key."""
        key = (start, stop)
        part = self._partitions.get(key, _UNSET)
        if part is _UNSET:
            part = _dense().partition_window(instructions[start:stop])
            self._partitions[key] = part
        return part

    def window_block_schedule(
        self, instructions: Sequence[Instruction], start: int, stop: int
    ) -> Optional[tuple]:
        """The cache-blocked sweep schedule of ``instructions[start:stop]``
        (:func:`repro.simulator.engines.dense.plan_blocked_window`), or
        ``None`` when blocking does not engage.  Memoized across
        requests like the partition: the schedule depends only on
        structure and the working-set budget, both pinned by this plan's
        cache key."""
        key = (start, stop)
        schedule = self._schedules.get(key, _UNSET)
        if schedule is _UNSET:
            partition = self.window_partition(instructions, start, stop)
            schedule = _dense().plan_blocked_window(
                instructions[start:stop],
                partition,
                self.num_qubits,
                self.tile_qubits,
            )
            self._schedules[key] = schedule
        return schedule

    def static_item(
        self, window: Tuple[int, int], index: int, ops: Sequence[Instruction], entry
    ):
        """Materialize (once, globally) a static fused item — all members
        zero-parameter, so the table is shared by every binding."""
        cache = self._static.setdefault(window, {})
        item = cache.get(index)
        if item is None:
            item = _dense().materialize_entry(ops, entry)
            cache[index] = item
        return item

    # -- binding ---------------------------------------------------------------

    def bind(self, instructions: Sequence[Instruction]) -> "BoundPlan":
        """A per-request view over this plan for one concrete binding."""
        return BoundPlan(self, instructions)

    def __repr__(self) -> str:
        return (
            f"<ExecutionPlan {self.structural_hash[:12]} "
            f"{self.num_qubits}q windows={len(self._partitions)}>"
        )


class BoundPlan:
    """One request's view of a cached :class:`ExecutionPlan`.

    Memoizes fully materialized per-window item lists (static items
    come from the shared tier; parameter-dependent items are built once
    per binding) plus the bind-time artifacts that depend on concrete
    parameter values.
    """

    __slots__ = ("plan", "instructions", "_items", "_boundary")

    def __init__(self, plan: ExecutionPlan, instructions: Sequence[Instruction]) -> None:
        self.plan = plan
        self.instructions: Tuple[Instruction, ...] = tuple(instructions)
        self._items: Dict[Tuple[int, int], Optional[list]] = {}
        self._boundary: Optional[int] = None

    def window_items(self, start: int, stop: int) -> Optional[list]:
        """Applicable fused items for the window, or ``None`` when the
        partition found nothing to fuse (callers fall back to the plain
        per-instruction loop, same as the unplanned path)."""
        key = (start, stop)
        items = self._items.get(key, _UNSET)
        if items is not _UNSET:
            return items
        partition = self.plan.window_partition(self.instructions, start, stop)
        if partition is None:
            items = None
        else:
            dense = _dense()
            ops = self.instructions[start:stop]
            items = []
            for index, entry in enumerate(partition):
                if dense.entry_is_static(ops, entry):
                    items.append(self.plan.static_item(key, index, ops, entry))
                else:
                    items.append(dense.materialize_entry(ops, entry))
        self._items[key] = items
        return items

    def window_block_schedule(self, start: int, stop: int) -> Optional[tuple]:
        """The window's blocked sweep schedule from the shared memo (the
        schedule is value-independent, so binding adds nothing)."""
        return self.plan.window_block_schedule(self.instructions, start, stop)

    @property
    def clifford_boundary(self) -> int:
        """Index of the first non-Clifford instruction (bind-time:
        Clifford-ness depends on concrete angles — ``rz(π/2)`` is
        Clifford, ``rz(0.3)`` is not — so it cannot live on the shared
        structural tier)."""
        if self._boundary is None:
            boundary = len(self.instructions)
            for idx, inst in enumerate(self.instructions):
                if not instruction_is_clifford(inst):
                    boundary = idx
                    break
            self._boundary = boundary
        return self._boundary

    @property
    def swap_routes(self) -> Dict[Tuple[int, int], tuple]:
        return self.plan.swap_routes

    def __repr__(self) -> str:
        return f"<BoundPlan of {self.plan!r} ({len(self.instructions)} ops)>"


# -- the cross-request cache ---------------------------------------------------


def plan_for(
    circuit: QuantumCircuit, config: Optional[ExecutionConfig] = None
) -> ExecutionPlan:
    """The cached :class:`ExecutionPlan` for *circuit*'s structure under
    *config* (default: the current ``engine_mode`` config).

    LRU semantics: hits refresh recency; inserting beyond
    :data:`PLAN_CACHE_MAX` evicts the least recently used entry.
    """
    global _HITS, _MISSES, _EVICTIONS
    if config is None:
        config = current_config()
    with _tracing.span("plan.lookup"):
        key = (structural_hash(circuit), config.plan_key())
        with _LOCK:
            plan = _CACHE.get(key)
            if plan is not None:
                _CACHE.move_to_end(key)
                _HITS += 1
                _tracing.count("plan_cache.hits")
                return plan
            _MISSES += 1
            _tracing.count("plan_cache.misses")
    with _tracing.span("plan.compile"):
        plan = ExecutionPlan(circuit, key, config)
    with _LOCK:
        existing = _CACHE.get(key)
        if existing is not None:
            return existing
        _CACHE[key] = plan
        while len(_CACHE) > PLAN_CACHE_MAX:
            _CACHE.popitem(last=False)
            _EVICTIONS += 1
    return plan


def plan_cache_clear() -> None:
    """Drop every cached plan and zero the hit/miss/eviction counters."""
    global _HITS, _MISSES, _EVICTIONS
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
        _EVICTIONS = 0


def plan_cache_info() -> Dict[str, int]:
    """Cache statistics: entries, capacity, hits, misses, evictions.

    The telemetry layer snapshots these per process
    (:func:`repro.telemetry.store.record_plan_cache`), so cache
    effectiveness under production traffic is observable over time.
    """
    with _LOCK:
        return {
            "entries": len(_CACHE),
            "max_entries": PLAN_CACHE_MAX,
            "hits": _HITS,
            "misses": _MISSES,
            "evictions": _EVICTIONS,
        }


def plan_cache_keys() -> List[Tuple[str, tuple]]:
    """The cache keys in LRU order (oldest first) — test/diagnostic hook."""
    with _LOCK:
        return list(_CACHE.keys())


__all__ = [
    "ExecutionPlan",
    "BoundPlan",
    "plan_for",
    "plan_cache_clear",
    "plan_cache_info",
    "plan_cache_keys",
    "PLAN_CACHE_MAX",
]
