"""Process-pool shot sharding with crash recovery.

The batched grouped walk removes per-group dispatch overhead inside one
process; this layer scales *across* processes: a shot request is split
into fixed-size **blocks**, each block runs the classic sampling driver
(:func:`repro.simulator.sampler._sample_counts_single`) end to end, and
the per-block :class:`~repro.simulator.counts.Counts` fold together with
:meth:`Counts.merge`.

Reproducibility contract
------------------------
Block *i* draws from ``child_rng(seed, "shard", i)`` — the stable
SHA-256 seed derivation from :mod:`repro.utils.rng`, which depends only
on the seed and the block index, never on which process runs the block
or in what order blocks finish.  The block partition itself is a
function of ``(shots, block_shots)`` alone.  Consequently **any worker
count produces identical counts** — ``workers=4`` reproduces
``workers=1`` bit for bit — and a failed block can be re-run anywhere:
on a rebuilt pool, or inline in the parent.  The sharded stream
intentionally differs from the single-stream driver's draw order (that
is what makes it splittable); ``engine_mode(workers=...)`` is documented
as a semantics switch for exactly this reason, and live generators are
rejected because a shared mutable stream cannot be split
deterministically.

Crash recovery protocol
-----------------------
The block-stream contract above is what makes recovery *trivially
correct*; this module makes it *actually implemented*.  Blocks are
submitted as individual futures (not ``pool.map``, whose single iterator
dies with the first failure).  The driver then runs a fixed, test-pinned
protocol:

1. Collect per-block results, optionally bounding each wait with
   *block_timeout*.  A block that raises is recorded as failed; a dead
   worker (``BrokenProcessPool``) fails every in-flight block; a timeout
   abandons the pool (its workers are killed — a hung worker cannot be
   trusted to ever finish).
2. While failed blocks remain and the rebuild budget
   (:data:`MAX_POOL_REBUILDS`) allows, tear the pool down, sleep a
   capped exponential backoff
   (:data:`REBUILD_BACKOFF_BASE` / :data:`REBUILD_BACKOFF_CAP`), build a
   fresh pool, and re-submit **only** the failed blocks.
3. Any stragglers after the last rebuild run inline in the parent — the
   path that is always available.

Every step increments the :mod:`repro.simulator.resilience` counters
(``retries`` / ``pool_rebuilds`` / ``inline_fallbacks``), and the whole
protocol is driven deterministically in tests by
:mod:`repro.testing.faults` injection points (``shard.block``,
``shard.init``, ``shard.attach``, ``shard.merge``).

Clean-prefix sharing
--------------------
For dense-family routes the instructions before the first noisy op are
identical in every block and every trajectory group.  The parent
simulates that prefix **once** and publishes the amplitudes read-only
via a :class:`SharedPrefix` — a context-managed owner around
:class:`multiprocessing.shared_memory.SharedMemory` whose ``with`` block
guarantees the segment is closed *and unlinked* on every exit path
(worker crash, fault mid-merge, ``KeyboardInterrupt``), closing the leak
window a bare try/finally around ``pool.map`` left open.  The segment
carries a SHA-256 digest header; a worker that attaches a missing or
corrupt segment **degrades** to recomputing the prefix per block instead
of sampling from garbage — counts are identical either way, by the same
contract.  The inline (``workers=1``) path uses the same precomputed
prefix, so pooled and inline runs see bit-identical inputs.

Every block task carries the request's
:class:`~repro.simulator.config.ExecutionConfig`, so a worker runs
exactly the settings its parent was asked for, however and whenever the
pool was created.  Workers are forked (POSIX); on platforms without
``fork`` the driver degrades to the inline path, which is always
available and produces the same counts.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.errors import SimulationError
from repro.simulator.config import ExecutionConfig, current_config
from repro.simulator.counts import Counts
from repro.simulator.engines import DenseEngine, select_engine
from repro.simulator.noise import NoiseModel, QuantumError
from repro.simulator.statevector import DENSE_QUBIT_LIMIT
from repro.telemetry import tracing as _tracing
from repro.testing import faults as _faults
from repro.utils.rng import child_rng

#: Shots per block.  Independent of the worker count on purpose: the
#: block partition (and therefore every block's derived stream) must not
#: change when the pool is resized, or worker counts would stop being
#: interchangeable.
SHARD_BLOCK_SHOTS = 256

#: How many times one request may rebuild a failed pool before the
#: remaining blocks fall back inline.  One rebuild recovers every
#: single-fault scenario (a killed worker, one poisoned block); a pool
#: that breaks twice is treated as systematically broken.
MAX_POOL_REBUILDS = 1

#: Capped exponential backoff between pool rebuilds: rebuild *k* sleeps
#: ``min(REBUILD_BACKOFF_CAP, REBUILD_BACKOFF_BASE * 2**k)`` seconds.
#: Tests zero the base to keep the recovery matrix fast.
REBUILD_BACKOFF_BASE = 0.05
REBUILD_BACKOFF_CAP = 1.0

#: Size of the SHA-256 integrity header a :class:`SharedPrefix` segment
#: carries ahead of the amplitude payload.
_DIGEST_BYTES = 32

#: Worker-side clean-prefix state, installed by the pool initializer:
#: ``(amplitudes, position)`` or ``None``.
_WORKER_PREFIX: Optional[Tuple[np.ndarray, int]] = None

#: Keeps the worker's shared-memory handle alive for the pool's life.
_WORKER_SHM = None

#: Name of the most recently created shared-prefix segment (set by
#: :class:`SharedPrefix`, surviving its unlink).  Debug/test aid: the
#: leak test asserts the named segment no longer exists after a faulted
#: run.
_LAST_SEGMENT_NAME: Optional[str] = None


def _block_sizes(shots: int, block_shots: int) -> List[int]:
    """Partition *shots* into fixed-size blocks (last one ragged)."""
    full, rem = divmod(int(shots), int(block_shots))
    sizes = [int(block_shots)] * full
    if rem:
        sizes.append(rem)
    return sizes


def _clean_prefix_state(
    circuit: QuantumCircuit,
    noise: Optional[NoiseModel],
    extra: Mapping[int, QuantumError],
    config: ExecutionConfig,
) -> Optional[Tuple[np.ndarray, int]]:
    """The shared clean-prefix payload, or ``None`` when inapplicable.

    Applicable exactly when every block would run the grouped walk on a
    dense-family engine: the instructions before the first noisy op are
    then identical across blocks and groups, so one simulation serves
    all workers.  Returns ``(amplitudes, position)`` with *position*
    the index of the first noisy instruction.
    """
    from repro.simulator import sampler

    if sampler._needs_per_shot(circuit):
        return None
    if circuit.num_qubits > DENSE_QUBIT_LIMIT:
        return None
    engine_cls = select_engine(config.mode, circuit)
    if not issubclass(engine_cls, DenseEngine):
        return None
    noisy = sampler._noisy_ops(circuit, noise, extra)
    first = noisy[0][0] if noisy else len(list(circuit))
    if first == 0:
        return None
    engine = engine_cls(circuit, config)
    engine.advance(list(circuit)[:first])
    return engine.to_dense().data.copy(), first


class SharedPrefix:
    """Context-managed owner of the clean-prefix shared-memory segment.

    Owns the segment's whole lifecycle: creation, the digest-stamped
    payload write, and — on **every** exit path of the ``with`` block —
    close + unlink.  ``close()`` is idempotent, so explicit early
    teardown composes with the context manager.

    Layout: ``sha256(payload) || payload``.  Workers verify the digest
    at attach time (:func:`_init_worker`) and degrade to recomputing the
    prefix when it does not match — a torn or corrupted segment must
    never be sampled from.
    """

    def __init__(self, state: np.ndarray) -> None:
        from multiprocessing import shared_memory

        global _LAST_SEGMENT_NAME
        payload = state.tobytes()
        self._shm = shared_memory.SharedMemory(
            create=True, size=_DIGEST_BYTES + len(payload)
        )
        self._closed = False
        _LAST_SEGMENT_NAME = self._shm.name
        self._shm.buf[:_DIGEST_BYTES] = hashlib.sha256(payload).digest()
        self._shm.buf[_DIGEST_BYTES : _DIGEST_BYTES + len(payload)] = payload

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        self._shm.unlink()

    def __enter__(self) -> "SharedPrefix":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _init_worker(shm_name: Optional[str], num_qubits: int, position: int) -> None:
    """Pool initializer: attach the read-only clean-prefix segment.

    Defensive by specification: a missing segment, a size mismatch, or a
    digest mismatch **degrades** to ``_WORKER_PREFIX = None`` (each block
    recomputes the prefix, same counts) instead of poisoning the pool.
    """
    global _WORKER_PREFIX, _WORKER_SHM
    _faults.fault_point("shard.init")
    if shm_name is None:
        _WORKER_PREFIX = None
        return
    from multiprocessing import shared_memory

    try:
        _faults.fault_point("shard.attach")
        # Forked workers inherit the parent's resource-tracker pipe, so
        # this attach re-registers the segment into the tracker's
        # (set-valued) cache — harmless, and the parent's single unlink
        # unregisters it.  Do NOT unregister here: a second unregister
        # for the same name races the parent's and KeyErrors inside the
        # tracker process.
        shm = shared_memory.SharedMemory(name=shm_name)
        nbytes = 16 << num_qubits
        payload = bytes(shm.buf[_DIGEST_BYTES : _DIGEST_BYTES + nbytes])
        if hashlib.sha256(payload).digest() != bytes(shm.buf[:_DIGEST_BYTES]):
            shm.close()
            raise SimulationError(
                f"shared prefix segment {shm_name!r} failed integrity check"
            )
        arr = np.ndarray(
            (1 << num_qubits,),
            dtype=np.complex128,
            buffer=shm.buf,
            offset=_DIGEST_BYTES,
        )
        arr.setflags(write=False)
    except Exception:
        _WORKER_PREFIX = None
        _WORKER_SHM = None
        return
    _WORKER_SHM = shm
    _WORKER_PREFIX = (arr, int(position))


def _run_block(task: Tuple, initial: Optional[Tuple[np.ndarray, int]]):
    """Sample one block, resuming from the clean prefix *initial* (or
    recomputing it when ``None``).

    Returns the block's :class:`Counts` — or, when tracing is enabled,
    ``(Counts, span summary)``: each completed block carries its own
    picklable trace digest home, so the parent-side report stays
    complete even when other workers of the same pool were killed."""
    circuit, block_shots, noise, base, index, extra, config = task
    from repro.simulator import sampler

    _faults.fault_point("shard.block", index)
    rng = child_rng(base, "shard", index)
    if not config.trace:
        return sampler._sample_counts_single(
            circuit, block_shots, noise, rng, extra, config, initial
        )
    with _tracing.block_trace() as tracer:
        with tracer.span("shard.block", index=index, shots=block_shots):
            counts = sampler._sample_counts_single(
                circuit, block_shots, noise, rng, extra, config, initial
            )
    return counts, tracer.summary()


def _run_pooled_block(task: Tuple):
    """Pool entry point: a worker resumes from the prefix its
    initializer attached (:func:`_init_worker`).  The inline paths pass
    their prefix to :func:`_run_block` directly instead, so concurrent
    requests in one process never share it."""
    return _run_block(task, _WORKER_PREFIX)


def _merge_block_results(parts: List) -> Counts:
    """Fold per-block results: absorb any trace summaries into the
    active parent tracer (``Counts.merge``-style), then merge counts."""
    counts_parts: List[Counts] = []
    summaries = []
    for value in parts:
        if isinstance(value, tuple):
            counts_parts.append(value[0])
            summaries.append(value[1])
        else:
            counts_parts.append(value)
    if summaries:
        _tracing.absorb_block_summaries(summaries)
    return Counts.merge(counts_parts)


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without trusting its workers to cooperate.

    Used after a timeout (a hung worker never finishes, so a graceful
    ``shutdown(wait=True)`` would hang the parent too) and between
    rebuilds (a broken pool's shutdown is already non-blocking)."""
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=1.0)


def _run_blocks_recovering(
    tasks: List[Tuple],
    prefix: Optional[Tuple[np.ndarray, int]],
    effective: int,
    initargs: Tuple,
    block_timeout: Optional[float],
) -> Dict[int, object]:
    """The crash-recovery driver: all blocks through pools + inline.

    Returns ``{block index: block result}`` (a :class:`Counts`, or
    ``(Counts, trace summary)`` under tracing — see :func:`_run_block`)
    for every task, or raises only when a block fails *inline* (at that
    point the failure is a genuine defect in the request, not an
    infrastructure fault)."""
    from repro.simulator import resilience

    ctx = multiprocessing.get_context("fork")

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=effective,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=initargs,
        )

    results: Dict[int, object] = {}
    pending = set(range(len(tasks)))
    pool: Optional[ProcessPoolExecutor] = make_pool()
    rebuilds = 0
    try:
        while pending and pool is not None:
            futures = {}
            abandoned = False
            try:
                with _tracing.span("shard.submit", blocks=len(pending)):
                    for index in sorted(pending):
                        futures[index] = pool.submit(_run_pooled_block, tasks[index])
            except (BrokenProcessPool, RuntimeError):
                # The pool broke before (or while) accepting work; any
                # futures already accepted are collected below.
                pass
            for index, future in futures.items():
                try:
                    results[index] = future.result(timeout=block_timeout)
                    pending.discard(index)
                except FuturesTimeoutError:
                    # A hung worker: nothing this pool reports can be
                    # trusted to arrive, so stop waiting on it entirely.
                    abandoned = True
                    break
                except Exception:
                    # Block-level failure (injected or real) or a
                    # BrokenProcessPool surfacing through the future.
                    continue
            if not pending:
                break
            resilience.count_event("retries", len(pending))
            _tracing.count("shard.retries", len(pending))
            _abandon_pool(pool)
            pool = None
            if rebuilds < MAX_POOL_REBUILDS and not abandoned:
                resilience.count_event("pool_rebuilds")
                _tracing.count("shard.pool_rebuilds")
                with _tracing.span("shard.rebuild", pending=len(pending)):
                    time.sleep(
                        min(
                            REBUILD_BACKOFF_CAP,
                            REBUILD_BACKOFF_BASE * (2 ** rebuilds),
                        )
                    )
                    rebuilds += 1
                    pool = make_pool()
    finally:
        if pool is not None:
            if pending:
                _abandon_pool(pool)
            else:
                pool.shutdown(wait=True)
    if pending:
        # Stragglers: the always-available inline path, using the same
        # in-memory prefix the pool published.  Same per-block streams,
        # same counts — the contract this module exists to uphold.
        resilience.count_event("inline_fallbacks", len(pending))
        _tracing.count("shard.inline_fallbacks", len(pending))
        with _tracing.span("shard.inline", blocks=len(pending)):
            for index in sorted(pending):
                results[index] = _run_block(tasks[index], prefix)
    return results


def sample_counts_sharded(
    circuit: QuantumCircuit,
    shots: int,
    *,
    noise: Optional[NoiseModel] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    block_shots: Optional[int] = None,
    block_timeout: Optional[float] = None,
    instruction_errors: Optional[Mapping[int, QuantumError]] = None,
    config: Optional[ExecutionConfig] = None,
) -> Counts:
    """Sample *shots* outcomes, sharded into blocks across *workers*.

    The sharded analogue of :func:`repro.simulator.sample_counts`
    (normally reached through ``engine_mode(workers=...)``): shots are
    split into :data:`SHARD_BLOCK_SHOTS`-sized blocks, block *i* draws
    from ``child_rng(seed, "shard", i)``, and the per-block histograms
    fold with :meth:`Counts.merge`.  Counts are identical for every
    *workers* value — including runs where workers crash: failed blocks
    are re-run on a rebuilt pool and inline per the crash-recovery
    protocol in the module docstring.  *block_timeout* optionally bounds
    each block-result wait in seconds; on expiry the pool is abandoned
    and the remaining blocks run inline.

    Admission control runs first: the routed engine's estimated peak
    memory is checked against the request's budget
    (``engine_mode(max_state_bytes=...)``) **before** the prefix is
    simulated or any worker forked, raising
    :class:`~repro.errors.ResourceAdmissionError` on oversize requests.

    *seed* must be an ``int`` or ``None`` (``None`` draws a fresh base
    seed once, then shards deterministically from it).  *config*
    defaults to the current ``engine_mode`` config and every block runs
    under it; *workers*, not ``config.workers``, sizes the pool.
    """
    from repro.simulator import resilience

    if isinstance(seed, np.random.Generator):
        raise SimulationError(
            "sharded sampling needs an int seed or None, not a live "
            "Generator: per-block streams are derived from the seed"
        )
    if isinstance(workers, bool) or workers < 1:
        raise SimulationError(f"workers must be an integer >= 1, got {workers!r}")
    if shots < 1:
        raise SimulationError("shots must be >= 1")
    if not circuit.has_measurements():
        raise SimulationError(
            f"circuit {circuit.name!r} has no measurements; nothing to sample"
        )
    if config is None:
        config = current_config()
    extra = dict(instruction_errors or {})
    bs = int(block_shots) if block_shots is not None else SHARD_BLOCK_SHOTS
    if bs < 1:
        raise SimulationError(f"block_shots must be >= 1, got {block_shots!r}")
    with _tracing.run_scope(
        "sampler.sharded",
        enabled=config.trace,
        mode=config.mode,
        num_qubits=circuit.num_qubits,
        shots=int(shots),
        workers=int(workers),
    ):
        _tracing.note("mode", config.mode)
        _tracing.note("num_qubits", circuit.num_qubits)
        _tracing.note("shots", int(shots))
        estimate = resilience.check_admission(circuit, config=config)
        _tracing.note("engine", estimate.engine)
        _tracing.note("estimated_peak_bytes", estimate.peak_bytes)
        sizes = _block_sizes(shots, bs)
        _tracing.count("shard.blocks", len(sizes))
        base = (
            int(seed) if seed is not None else int(np.random.SeedSequence().entropy)
        )
        with _tracing.span("shard.prefix"):
            prefix = _clean_prefix_state(circuit, noise, extra, config)
        tasks = [
            (circuit, size, noise, base, index, extra, config)
            for index, size in enumerate(sizes)
        ]
        effective = min(int(workers), len(sizes))
        if effective > 1 and "fork" not in multiprocessing.get_all_start_methods():
            effective = 1  # no fork → inline, same counts by construction
        if effective <= 1:
            return _merge_block_results([_run_block(task, prefix) for task in tasks])
        initargs: Tuple = (None, 0, 0)
        if prefix is not None:
            state, position = prefix
            with SharedPrefix(state) as segment:
                initargs = (segment.name, circuit.num_qubits, position)
                results = _run_blocks_recovering(
                    tasks, prefix, effective, initargs, block_timeout
                )
                _faults.fault_point("shard.merge")
                return _merge_block_results(
                    [results[i] for i in range(len(tasks))]
                )
        results = _run_blocks_recovering(
            tasks, prefix, effective, initargs, block_timeout
        )
        _faults.fault_point("shard.merge")
        return _merge_block_results([results[i] for i in range(len(tasks))])


__all__ = [
    "sample_counts_sharded",
    "SharedPrefix",
    "SHARD_BLOCK_SHOTS",
    "MAX_POOL_REBUILDS",
    "REBUILD_BACKOFF_BASE",
    "REBUILD_BACKOFF_CAP",
]
