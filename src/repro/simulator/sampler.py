"""Shot sampler: trajectory grouping, prefix-sharing, engine dispatch.

Sampling a noisy 20-qubit circuit shot-by-shot would re-simulate the
full state vector thousands of times.  Because every executor error is a
*stochastic event* (Pauli injection or reset — see
:mod:`repro.simulator.noise`), two shots whose sampled error events are
identical traverse identical trajectories.  The sampler therefore:

1. pre-samples the error realization of every shot (vectorized),
2. groups shots by realization — at realistic error rates the
   overwhelmingly common group is "no error at all",
3. simulates one trajectory per distinct realization,
4. samples measurement outcomes per group and applies readout confusion
   bit-wise (vectorized).

Step 3 additionally shares the *clean prefix* between trajectories: all
instructions before a group's first error event are noise-free, so the
sampler advances a single clean state monotonically through the circuit
(processing groups in order of first error site) and replays only the
suffix after forking a copy at the injection point.  At realistic error
rates this turns the ``O(groups × depth)`` simulation cost into roughly
``O(depth + groups × suffix)``.  Because groups are visited in
first-error-site order rather than insertion order, the per-group RNG
consumption order differs from the naive implementation — sampled
distributions are identical, individual seeded streams are not (the
naive seed walk is kept as :mod:`repro.testing.reference` for the perf
harness and the equivalence suite).

Circuits with mid-circuit measurement or reset fall back to a per-shot
path, since their collapse randomness de-groups trajectories.

Engine dispatch
---------------
There is exactly **one** grouped walk (:func:`_sample_grouped`) and
**one** per-shot walk (:func:`_sample_per_shot`), both parameterized
over an :class:`~repro.simulator.engines.base.ExecutionEngine` class
from the engine registry (:mod:`repro.simulator.engines`).  Which
backend serves a request is decided per circuit by
:func:`repro.simulator.engines.select_engine` under the mode of the
request's :class:`~repro.simulator.config.ExecutionConfig` — dense
state vector, stabilizer tableau, the segment-granular hybrid
(tableau→dense) engine, or the matrix product state — once per request:
admission control and the walks share the answer.  Under ``"fast"``
and ``"auto"`` the grouped walk then serves a Clifford circuit within
the dense limit on whichever of the dense engine and the tableau its
fitted cost estimate calls cheaper for the realized groups
(:func:`_route_by_cost`).  The config is read once at the entry point
(:func:`sample_counts`) and passed down the walks explicitly.  The
production tableau runs its grouped walk as
:func:`~repro.simulator.engines.tableau.grouped_sign_walk`, which
samples Pauli-only groups from sign masks of one clean walk.

All engines consume the RNG stream in lock-step (realization draws,
then per-group outcome draws in first-error-site order, then readout),
and every backend inverts the same outcome CDF the dense engine's
``rng.choice`` does — so seeded Clifford runs produce bit-identical
counts regardless of which engine served them, and seeded hybrid runs
match the dense engine to float precision.

The **batched** walk (:func:`_grouped_batched_walk`) stacks all
trajectory groups into one ``(rows, 2^n)`` array and advances them in
lockstep windows with one kernel call per gate, preserving the RNG
stream exactly — every dense route takes it by itself wherever enough
groups are realized and the stacked rows fit the working-set budget
(:func:`_use_batched_walk`).  Every request draws from one RNG stream;
its shots are never split across processes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields, replace
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Type

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import is_clifford_circuit
from repro.errors import EngineModeError, SimulationError
from repro.simulator import batched as _batched
from repro.simulator import config as _config
from repro.simulator.config import ENGINE_MODES, ExecutionConfig, current_config
from repro.simulator.counts import Counts
from repro.simulator.engines import (
    DenseEngine,
    ExecutionEngine,
    TableauEngine,
    get_engine,
    select_engine,
)
from repro.simulator.engines import dense as _dense
from repro.simulator.engines import tableau as _tableau
from repro.simulator.noise import NoiseModel, QuantumError
from repro.simulator.statevector import DENSE_QUBIT_LIMIT
from repro.telemetry import tracing as _tracing
from repro.utils.rng import RandomState, as_rng


def sample_counts(
    circuit: QuantumCircuit,
    shots: int,
    *,
    noise: Optional[NoiseModel] = None,
    rng: RandomState = None,
    instruction_errors: Optional[Mapping[int, QuantumError]] = None,
    config: Optional[ExecutionConfig] = None,
) -> Counts:
    """Sample *shots* measurement outcomes of *circuit* under *noise*.

    Returns a :class:`Counts` over the circuit's classical bits.  Qubits
    never measured leave their classical bits at 0.

    *instruction_errors* optionally attaches an extra
    :class:`QuantumError` to specific instruction indices — the device
    executor uses this for duration-dependent idle/delay decoherence
    that cannot be keyed by gate name alone.

    *config* defaults to the :func:`current_config` that
    :func:`engine_mode` installed; it is read once here and passed down.
    """
    if shots < 1:
        raise SimulationError("shots must be >= 1")
    if not circuit.has_measurements():
        raise SimulationError(
            f"circuit {circuit.name!r} has no measurements; nothing to sample"
        )
    if config is None:
        config = current_config()
    extra = dict(instruction_errors or {})
    # Pre-flight admission control: reject an over-budget request with a
    # structured error *before* any state allocation.
    from repro.simulator import resilience as _resilience

    with _tracing.run_scope(
        "sampler.run",
        enabled=config.trace,
        mode=config.mode,
        num_qubits=circuit.num_qubits,
        shots=int(shots),
    ):
        _tracing.note("mode", config.mode)
        _tracing.note("num_qubits", circuit.num_qubits)
        _tracing.note("shots", int(shots))
        # Routed once per request: admission and the walks share it.
        engine_cls = select_engine(config.mode, circuit)
        estimate = _resilience.check_admission(
            circuit, engine_cls=engine_cls, config=config
        )
        _tracing.note("estimated_peak_bytes", estimate.peak_bytes)
        return _sample_counts_single(
            circuit, int(shots), noise, as_rng(rng), extra, config, engine_cls
        )


def _sample_counts_single(
    circuit: QuantumCircuit,
    shots: int,
    noise: Optional[NoiseModel],
    r: np.random.Generator,
    extra: Mapping[int, QuantumError],
    config: ExecutionConfig,
    engine_cls: Type[ExecutionEngine],
) -> Counts:
    """The single-stream driver behind :func:`sample_counts`, run once
    admission has passed on *engine_cls*, the request's routed engine."""
    bound = _bound_plan(circuit, config)
    if _needs_per_shot(circuit):
        _tracing.note("engine", engine_cls.name)
        with _tracing.span("sampler.per_shot", shots=shots):
            bits = _sample_per_shot(
                circuit, shots, noise, r, extra, engine_cls, config, bound=bound
            )
    else:
        # The grouped walk may serve the request on a cheaper engine
        # (:func:`_route_by_cost`); it notes the engine that ran.
        with _tracing.span("sampler.grouped", qubits=circuit.num_qubits):
            bits = _sample_grouped(
                circuit, shots, noise, r, extra, engine_cls, config, bound=bound
            )
    with _tracing.span("sampler.readout"):
        bits = _apply_readout(circuit, bits, noise, r)
    return Counts.from_bit_array(bits)


def _bound_plan(circuit: QuantumCircuit, config: ExecutionConfig):
    """The request's :class:`~repro.compiler.plans.BoundPlan`.

    One cache lookup (or one cheap plan construction on a miss) per
    request; all heavy per-window analysis inside the plan is lazy and
    memoized, and the engines' unplanned path (``plan=None``, what
    direct engine use gets) runs the same code — plans only decide
    whether results are *reused*.
    """
    from repro.compiler import plans as _plans

    return _plans.plan_for(circuit, config).bind(circuit.instructions)


def ideal_probabilities(circuit: QuantumCircuit) -> Dict[str, float]:
    """Noiseless outcome probabilities over the measured classical bits."""
    from repro.simulator.statevector import simulate_statevector

    state = simulate_statevector(circuit)
    mapping = _measurement_map(circuit)
    probs = state.probabilities()
    out: Dict[str, float] = {}
    width = circuit.num_clbits
    for basis, p in enumerate(probs):
        if p < 1e-15:
            continue
        bits = ["0"] * width
        for qubit, clbit in mapping.items():
            bits[width - 1 - clbit] = str((basis >> qubit) & 1)
        key = "".join(bits)
        out[key] = out.get(key, 0.0) + float(p)
    return out


# ---------------------------------------------------------------------------
# engine-mode facade
# ---------------------------------------------------------------------------


#: Modes under which the MPS sub-options (``chi`` /
#: ``truncation_threshold``) are meaningful (those whose routing can
#: reach the MPS engine).
_MPS_OPTION_MODES = ("mps", "auto")

#: Modes under which the ``batch_max_bytes`` sub-option is meaningful:
#: every mode but ``"mps"``, since each of them can route to the dense
#: engine, which consumes the budget — the batched walk sizes its chunks
#: from it and the blocked sweep executor derives its tile width from it
#: (:func:`repro.simulator.engines.dense.blocked_tile_qubits`).
_BATCH_BYTES_MODES = tuple(mode for mode in ENGINE_MODES if mode != "mps")

#: The keyword sub-options :func:`engine_mode` accepts: every
#: :class:`ExecutionConfig` field besides ``mode``.
_SUB_OPTIONS = tuple(f.name for f in fields(ExecutionConfig) if f.name != "mode")

#: Minimum trajectory-group count (clean group included) before the
#: batched grouped walk engages; below it the scalar prefix-sharing walk
#: wins on setup cost.  Counts are bit-identical either side of it.
_BATCH_MIN_GROUPS = 4


@contextmanager
def engine_mode(
    mode: Optional[str] = None, **options: object
) -> Iterator[ExecutionConfig]:
    """Run the block under *mode* and the given sub-options.

    Sets the :func:`current_config` for the dynamic extent of the block
    to ``replace(current_config(), mode=mode, **options)`` and yields it;
    the previous config comes back on exit.  The value lives in a
    :class:`contextvars.ContextVar`, so the block applies to the
    calling thread (or asyncio task) only: other threads keep their own
    config.  Blocks nest, and an inner block inherits every setting it
    does not name — *mode* included, when it is omitted.  Modes:

    ``"fast"`` (the default)
        Specialized state-vector kernels + trajectory prefix-sharing.
        Clifford circuits wider than the dense limit (26 qubits) route
        through the stabilizer tableau automatically.  A Clifford
        circuit within the limit runs, on the grouped walk, on whichever
        of the dense engine and the tableau costs less for the
        trajectory groups the run realizes: a fitted per-engine cost of
        the instructions the walk advances and of its groups, at the
        circuit's width, with the dense cost taken for the walk's
        batched or scalar form (``sampler._walk_cost``).  Only engines
        whose peak estimate fits ``max_state_bytes`` compete.  The
        compact GHZ-5 device job stays dense; the GHZ-12 one runs on the
        tableau.  Realizations are drawn before either engine exists and
        both consume the stream in lockstep, so seeded counts do not
        depend on the choice.  Per-shot circuits (mid-circuit
        measurement or reset) stay dense.  On every dense route (under
        any mode) the grouped walk picks its own form: when a run
        realizes at least four trajectory groups and a chunk of stacked
        states fits ``batch_max_bytes``, the groups advance together in
        one ``(rows, 2^n)`` array, one kernel call per gate
        (:mod:`repro.simulator.batched`); otherwise one state at a time.
        RNG draw order is the same either way, so seeded counts are too.
    ``"mps"``
        The bounded-bond matrix-product-state engine
        (:class:`~repro.simulator.engines.mps.MPSEngine`) for every
        circuit: low-entanglement workloads run far beyond the dense
        limit at ``O(n · chi³)`` per gate.
    ``"auto"``
        Best-known routing per circuit: Clifford circuits within the
        dense limit go to the cheaper of dense and tableau by the same
        cost estimate as ``"fast"`` on the grouped walk (tableau on the
        per-shot walk), wider ones to the tableau; beyond the
        sparse-amplitude packing limit (62 qubits), MPS for everything
        else; between the dense limit and that, hybrid for
        guaranteed-sparse tails and MPS for line-like circuits; at dense
        widths, hybrid when the Clifford prefix contains entangling
        structure, dense otherwise.  The segment-granular hybrid engine
        (:class:`~repro.simulator.engines.hybrid.HybridSegmentEngine`)
        is reached through this mode only: it runs the maximal Clifford
        prefix on a tableau and hands off to (sparse, then dense)
        amplitudes at the first non-Clifford gate.

    Sub-options (keyword-only; each sets the :class:`ExecutionConfig`
    field of the same name):

    *chi* and *truncation_threshold* (``"mps"`` / ``"auto"``)
        The MPS engine's truncation contract — the bond-dimension cap
        and the maximum relative weight one SVD may drop beyond it.
        These *do* change semantics: a saturated cap truncates the
        state, with the discarded weight reported on the engine
        (``MPSEngine.truncation_error``).
    *batch_max_bytes* (``"fast"`` / ``"auto"``)
        The cache-working-set budget: whether the batched walk engages,
        its chunk sizing, and the blocked sweep executor's tile width
        all derive from it.  A
        performance policy, not a semantics switch — seeded counts are
        bit-identical at any budget (pinned by ``tests/test_blocked.py``);
        the equivalence suite shrinks it to force blocked sweeps at test
        widths.
    *max_state_bytes* (any mode)
        The pre-flight admission-control budget: a request whose routed
        engine estimates a peak footprint above it raises a structured
        :class:`~repro.errors.ResourceAdmissionError` **before any state
        allocation**.  The default admits everything the stack could
        historically serve (the dense peak at the dense qubit limit);
        counts of admitted requests are unaffected.
    *trace* (any mode)
        Arms the execution flight recorder
        (:mod:`repro.telemetry.tracing`): every sampling run records
        hierarchical phase spans and counters into one structured
        :class:`~repro.telemetry.tracing.ExecutionReport`, handed to the
        caller that opened the outermost ``tracing.run_scope`` (the QRM
        attaches it to the job it ran; a bare call's report only feeds
        ``tracing.exec_counters()``).  Tracing never draws random
        numbers and never changes instruction visit order, so seeded
        counts are bit-identical with tracing on or off.

    A sub-option the mode's routing can never consume (``chi`` /
    ``truncation_threshold`` outside ``"mps"`` / ``"auto"``,
    ``batch_max_bytes`` under ``"mps"``) is rejected
    rather than silently ignored, as is any unrecognized keyword.  Every
    error is an :class:`~repro.errors.EngineModeError` (a
    :class:`ValueError`) raised before the block runs, with the enclosing
    config untouched.

    The seed engine is not a mode: it lives on as the test oracle
    :mod:`repro.testing.reference`.
    """
    unknown = sorted(set(options) - set(_SUB_OPTIONS))
    if unknown:
        # Hygiene: an unrecognized sub-option must fail loudly instead
        # of silently configuring nothing (a typo like ``ci=64`` would
        # otherwise run the whole block on defaults).
        raise EngineModeError(
            f"unknown engine_mode sub-option(s): {', '.join(unknown)}; "
            f"recognized sub-options are {', '.join(_SUB_OPTIONS)}"
        )
    base = current_config()
    if mode is None:
        mode = base.mode
    if mode not in ENGINE_MODES:
        raise EngineModeError(
            f"unknown engine mode {mode!r}; expected one of {ENGINE_MODES}"
        )
    passed = {name: value for name, value in options.items() if value is not None}
    if {"chi", "truncation_threshold"} & set(passed) and mode not in _MPS_OPTION_MODES:
        raise EngineModeError(
            "chi / truncation_threshold are not sub-options of engine "
            f"mode {mode!r}; they apply to {_MPS_OPTION_MODES}"
        )
    if "batch_max_bytes" in passed and mode not in _BATCH_BYTES_MODES:
        raise EngineModeError(
            f"batch_max_bytes is not a sub-option of engine mode {mode!r}; "
            f"it applies to {_BATCH_BYTES_MODES}"
        )
    config = replace(base, mode=mode, **passed)
    token = _config._CURRENT.set(config)
    try:
        yield config
    finally:
        _config._CURRENT.reset(token)


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _needs_per_shot(circuit: QuantumCircuit) -> bool:
    """True when collapse randomness prevents trajectory grouping."""
    measured: set[int] = set()
    for inst in circuit:
        if inst.name == "reset":
            return True
        if inst.name == "measure":
            measured.add(inst.qubits[0])
            continue
        if inst.name == "barrier":
            continue
        if measured & set(inst.qubits):
            return True  # gate after measurement on the same qubit
    return False


def _measurement_map(circuit: QuantumCircuit) -> Dict[int, int]:
    """qubit → clbit mapping (last measurement of each qubit wins)."""
    mapping: Dict[int, int] = {}
    for inst in circuit:
        if inst.name == "measure":
            mapping[inst.qubits[0]] = inst.clbits[0]
    return mapping


def _noisy_ops(
    circuit: QuantumCircuit,
    noise: Optional[NoiseModel],
    extra: Mapping[int, QuantumError],
) -> List[Tuple[int, QuantumError]]:
    out: List[Tuple[int, QuantumError]] = []
    for idx, inst in enumerate(circuit):
        if inst.name == "barrier":
            continue
        err: Optional[QuantumError] = None
        if noise is not None and not noise.is_trivial():
            err = noise.error_for(inst.name, inst.qubits)
        bonus = extra.get(idx)
        if bonus is not None:
            err = bonus if err is None else err.compose(bonus)
        if err is not None and err.terms:
            out.append((idx, err))
    return out


def _group_realizations(
    noisy: List[Tuple[int, QuantumError]], shots: int, rng: np.random.Generator
) -> Dict[Tuple[Tuple[int, int], ...], int]:
    """Steps 1-2: sample every shot's error realization and histogram them.

    Keys are ``((op_index, term_index), ...)`` tuples sorted by op index;
    the empty key is the clean (error-free) group, inserted first when
    present, and the other keys follow in order of first occurrence
    across shots — the visit order of groups that share a first error
    site, and so of their outcome draws, depends on it.

    Array-at-a-time: one ``(sites, shots)`` uniform draw consumes the
    stream of one ``sample_many(shots)`` call per site in site order;
    a term fires iff ``u < cumulative[-1]``, and only those hits are
    inverted.  Equal realizations are grouped by a stable lexicographic
    sort of the errored shots' rows.  The per-shot oracle is
    :func:`repro.testing.reference.group_realizations`.
    """
    groups: Dict[Tuple[Tuple[int, int], ...], int] = {}
    if not noisy:
        groups[()] = shots
        return groups
    u = rng.random((len(noisy), shots))
    widest = max(len(err.terms) for _, err in noisy)
    # Each site's cumulative term probabilities, padded with +inf: the
    # count of entries ``<= u`` is ``searchsorted(side="right")``.
    cumulative = np.full((len(noisy), widest), np.inf)
    last = np.empty(len(noisy))
    for j, (_, err) in enumerate(noisy):
        cumulative[j, : len(err.terms)] = err._cumulative
        last[j] = err._cumulative[-1]
    fired = u < last[:, None]
    errored = np.flatnonzero(fired.any(axis=0))
    clean = shots - errored.size
    if clean:
        groups[()] = clean
    if not errored.size:
        return groups
    site_of, shot_of = np.nonzero(fired[:, errored])
    draws = np.full((errored.size, len(noisy)), -1, dtype=np.int64)
    draws[shot_of, site_of] = (
        cumulative[site_of] <= u[site_of, errored[shot_of]][:, None]
    ).sum(axis=1)
    # Group equal rows: a stable lexicographic sort puts each group's
    # first occurrence at the head of its run (``np.unique(axis=0)``
    # does the same but sorts a void view, ~15x slower here).
    order = np.lexsort(draws.T)
    ranked = draws[order]
    heads = np.ones(errored.size, dtype=bool)
    heads[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(heads)
    sizes = np.diff(np.append(starts, errored.size))
    # Back to first-occurrence order.
    visit = np.argsort(order[starts], kind="stable")
    rows, sizes = ranked[starts[visit]], sizes[visit]
    # Keys in one pass: the hits of the unique rows, row-major, split
    # at each row's hit count.
    hits = rows >= 0
    group_of, site_idx = np.nonzero(hits)
    ops = np.array([idx for idx, _ in noisy])[site_idx].tolist()
    terms = rows[group_of, site_idx].tolist()
    bounds = np.cumsum(hits.sum(axis=1)).tolist()
    lo = 0
    for hi, size in zip(bounds, sizes.tolist()):
        groups[tuple(zip(ops[lo:hi], terms[lo:hi]))] = size
        lo = hi
    return groups


def _sample_grouped(
    circuit: QuantumCircuit,
    shots: int,
    noise: Optional[NoiseModel],
    rng: np.random.Generator,
    extra: Mapping[int, QuantumError],
    engine_cls: Type[ExecutionEngine],
    config: ExecutionConfig,
    bound=None,
) -> np.ndarray:
    """The one prefix-sharing grouped walk, shared by every engine.

    Steps 3-4 of the sampler: one trajectory per distinct error
    realization, sharing the clean prefix — groups are visited in order
    of first error site so a single clean engine advances monotonically
    and each group replays only the suffix after its first injection
    (the error fires *after* its instruction; the clean group sorts
    last, so the shared prefix *is* its state).

    After routing, two engines leave this per-group replay for a walk
    of their own that keeps the same visit order and RNG stream: the
    dense engine for the batched walk where it engages
    (:func:`_grouped_batched_walk`), and the production tableau always,
    for the sign-mask walk
    (:func:`~repro.simulator.engines.tableau.grouped_sign_walk`).  The
    replay below serves the scalar dense walk, the hybrid and MPS
    engines, and engines derived from the tableau (the byte-tableau
    reference); ``tests/helpers/parity.py: replayed_tableau()`` puts the
    production tableau back on it.

    Every backend must consume the RNG stream in lock-step (realization
    draws, then per-group outcome draws in this exact visit order) for
    seeded runs to stay aligned across engines — so there is exactly one
    copy of the walk, parameterized over the
    :class:`~repro.simulator.engines.base.ExecutionEngine` class.
    ``engine.inject`` reports whether the injection preserved shareable
    state structure; the flag reaches ``engine.sample`` so
    structure-keyed caches (the tableau's shared coset factorization)
    apply exactly where they are valid.

    Beyond the clean prefix, consecutive groups often share *injected*
    structure too: multi-error realizations drawn from the same early
    error site agree on their leading ``(site, term)`` pairs.  The walk
    forks a checkpoint of the state right after each shared injection
    (only at depths the *next* visited group actually shares, so
    single-error groups — the overwhelming majority — pay nothing) and
    the next group resumes from the deepest matching checkpoint instead
    of replaying the shared window.  ``inject``/``advance`` never draw
    from the RNG and the visit order is unchanged, so seeded streams are
    the ones a full replay of every group would draw (pinned by
    ``tests/test_sampler.py``).
    """
    noisy = _noisy_ops(circuit, noise, extra)
    errors = dict(noisy)
    with _tracing.span("sampler.realizations", shots=shots):
        groups = _group_realizations(noisy, shots, rng)
    _tracing.count("sampler.trajectory_groups", len(groups))
    instructions = list(circuit)
    end = len(instructions)
    mapping = _measurement_map(circuit)
    qubits = sorted(mapping)
    width = circuit.num_clbits
    ordered = sorted(groups.items(), key=lambda kv: kv[0][0][0] if kv[0] else end)
    # Realizations are drawn before any engine exists, and every engine
    # draws the rest of the stream in lockstep, so the choice leaves
    # seeded counts as they are.
    engine_cls = _route_by_cost(engine_cls, circuit, ordered, config)
    _tracing.note("engine", engine_cls.name)
    clbit_cols = np.asarray([mapping[q] for q in qubits], dtype=np.int64)
    # Engines treat qubits=None as "full register in index order" — the
    # same bits, minus a per-group column-selection copy in every engine.
    sample_qubits = None if qubits == list(range(circuit.num_qubits)) else qubits
    if _use_sign_walk(engine_cls):
        out = np.zeros((shots, width), dtype=np.uint8)
        out[:, clbit_cols] = _tableau.grouped_sign_walk(
            circuit, shots, ordered, errors, rng, sample_qubits
        )
        return out
    prefix = engine_cls(circuit, config)
    if bound is not None:
        # Forks inherit the plan, so one bind covers every trajectory.
        prefix.bind_plan(bound)
    if _use_batched_walk(engine_cls, circuit, len(ordered), config):
        return _grouped_batched_walk(
            circuit,
            shots,
            ordered,
            errors,
            rng,
            prefix,
            config,
            bound=bound,
        )
    prefix_pos = 0
    # One preallocated output filled in visit order — row order (and
    # therefore the readout-noise RNG pairing downstream) is identical
    # to concatenating per-group chunks.
    out = np.zeros((shots, width), dtype=np.uint8)
    row = 0
    # Suffix checkpoints: depth d maps to the (never-mutated) state
    # right after injecting the previous group's leading d error terms,
    # plus its shares_structure flag.  Entries are only created at
    # depths the next visited group provably shares, so they always
    # match the current group's leading injections by construction.
    ckpts: Dict[int, Tuple[ExecutionEngine, bool]] = {}
    for index, (key, group_shots) in enumerate(ordered):
        first = key[0][0] if key else end
        fork = min(first + 1, end)
        prefix.advance_span(instructions, prefix_pos, fork)
        prefix_pos = fork
        shares_structure = True
        if key:
            # Replay the suffix in whole windows between error sites
            # (identical operation order and RNG stream to a
            # per-instruction walk — inject/advance never draw): the
            # engine's bulk `advance` gets one call per window instead
            # of one Python frame + list slice per instruction, which is
            # where replay-bound engines (the tableau) spend
            # their time, and gives the dense engine fusible windows.
            next_key = ordered[index + 1][0] if index + 1 < len(ordered) else ()
            new_ckpts: Dict[int, Tuple[ExecutionEngine, bool]] = {}
            depth = max(ckpts) if ckpts else 0
            if depth:
                # Resume from the deepest shared checkpoint instead of
                # replaying the shared injection window.
                ckpt_state, shares_structure = ckpts[depth]
                state = ckpt_state.fork()
                prev = key[depth - 1][0]
            else:
                state = prefix.fork()
                prev = first
                shares_structure &= state.inject(
                    instructions[first], errors[first], key[0][1]
                )
                depth = 1
                if next_key[:1] == key[:1]:
                    new_ckpts[1] = (state.fork(), shares_structure)
            # Checkpoints shallower than the resume depth stay valid for
            # the next group iff it still shares that much of this key.
            for d, entry in ckpts.items():
                if d <= depth and next_key[:d] == key[:d]:
                    new_ckpts[d] = entry
            for site, term in key[depth:]:
                state.advance_span(instructions, prev + 1, site + 1)
                shares_structure &= state.inject(
                    instructions[site], errors[site], term
                )
                prev = site
                depth += 1
                if next_key[:depth] == key[:depth]:
                    new_ckpts[depth] = (state.fork(), shares_structure)
            state.advance_span(instructions, prev + 1, end)
            ckpts = new_ckpts
        else:
            state = prefix
            ckpts = {}
        sampled = state.sample(
            group_shots, rng, sample_qubits, shares_structure=shares_structure
        )
        if clbit_cols.size:
            out[row : row + group_shots, clbit_cols] = sampled
        row += group_shots
    return out


def _use_sign_walk(engine_cls: Type[ExecutionEngine]) -> bool:
    """Whether the grouped walk runs as the tableau's sign-mask walk
    (:func:`~repro.simulator.engines.tableau.grouped_sign_walk`).

    Only the production :class:`TableauEngine` does: the walk reads its
    bit-packed tableau directly.  Engines derived from it (the
    byte-tableau reference) keep the per-group replay, which stays the
    independent check of the sign walk."""
    return engine_cls is TableauEngine


def _use_batched_walk(
    engine_cls: Type[ExecutionEngine],
    circuit: QuantumCircuit,
    group_count: int,
    config: ExecutionConfig,
) -> bool:
    """Whether the grouped walk should run batched for this request.

    Requires a dense route (the tableau, hybrid and MPS backends keep
    the scalar walk), enough trajectory groups to amortize the batch
    setup (:data:`_BATCH_MIN_GROUPS`), and a register narrow enough that
    a chunk of stacked states stays inside the cache-working-set budget
    (:func:`repro.simulator.engines.dense.batched_walk_fits` — the same
    predicate admission control reads).  The mode does not enter: the
    walk's form is a performance choice the sampler observes, with
    bit-identical seeded counts either way.
    """
    return (
        issubclass(engine_cls, DenseEngine)
        and group_count >= _BATCH_MIN_GROUPS
        and _dense.batched_walk_fits(circuit.num_qubits, config.batch_max_bytes)
    )


class WalkCost(NamedTuple):
    """The fitted cost, in seconds, of one grouped walk on one engine::

        walked * (per_op + per_amp_op * 2**n)
        + groups * (per_group + per_group_amp * 2**n)

    *walked* counts the instructions the walk advances: the clean prefix
    once plus every noisy group's suffix, ``Σ(end − first error site)``;
    *groups* counts the realized trajectory groups, clean one included.
    The per-request cost every engine shares (admission, plan, readout)
    cancels from the comparison and is left out.
    """

    per_op: float
    per_amp_op: float
    per_group: float
    per_group_amp: float

    def seconds(self, num_qubits: int, walked: int, groups: int) -> float:
        amps = float(1 << num_qubits)
        return walked * (self.per_op + self.per_amp_op * amps) + groups * (
            self.per_group + self.per_group_amp * amps
        )


#: Per-engine walk costs behind :func:`_route_by_cost`: one
#: non-negative least-squares fit, in relative error and with one
#: per-request intercept shared by all engines, to native device GHZ
#: jobs at widths 3-14 and 128-4096 shots plus noiseless ones at 3-16
#: qubits, timed on a 2-vCPU VM (``scripts/bench.py --fit-route-costs``;
#: the sweep is recorded in the ``noisy_device_ghz12`` lane of
#: ``BENCH_simulator.json``).  Only the ratios between engines matter.
_WALK_COSTS: Dict[str, WalkCost] = {
    "dense-batched": WalkCost(0.0, 1.32e-9, 3.97e-5, 1.09e-7),
    "dense-scalar": WalkCost(1.5e-5, 1.83e-9, 4.2e-5, 0.0),
    "tableau": WalkCost(5.22e-6, 8.36e-11, 1.36e-4, 0.0),
}

def _walk_cost(
    engine_cls: Type[ExecutionEngine],
    num_qubits: int,
    walked: int,
    groups: int,
    batched: bool,
) -> float:
    """Estimated seconds for *engine_cls* to serve one grouped walk
    (:class:`WalkCost`); *batched* says whether a dense walk would run
    batched."""
    if issubclass(engine_cls, DenseEngine):
        model = _WALK_COSTS["dense-batched" if batched else "dense-scalar"]
    else:
        model = _WALK_COSTS["tableau"]
    return model.seconds(num_qubits, walked, groups)


def _route_by_cost(
    engine_cls: Type[ExecutionEngine],
    circuit: QuantumCircuit,
    ordered: List[Tuple[Tuple[Tuple[int, int], ...], int]],
    config: ExecutionConfig,
) -> Type[ExecutionEngine]:
    """The engine that serves this grouped walk.

    A Clifford circuit within the dense limit routed to the dense engine
    or the tableau (as ``"fast"`` and ``"auto"`` route it) runs on
    whichever of the two :func:`_walk_cost` estimates cheaper for the
    realized groups (*ordered*), among those whose
    ``estimate_peak_bytes`` fits ``config.max_state_bytes``; every other
    request keeps *engine_cls*, the routed answer of
    :func:`~repro.simulator.engines.select_engine`.  The estimate draws
    nothing from the RNG.
    """
    if circuit.num_qubits > DENSE_QUBIT_LIMIT:
        return engine_cls
    dense = get_engine(DenseEngine.name)
    tableau = get_engine(TableauEngine.name)
    if engine_cls not in (dense, tableau) or not is_clifford_circuit(circuit):
        return engine_cls
    end = len(circuit)
    walked = end + sum(end - key[0][0] for key, _ in ordered if key)
    batched = _use_batched_walk(dense, circuit, len(ordered), config)
    best, best_cost = engine_cls, float("inf")
    for candidate in (engine_cls, tableau if engine_cls is dense else dense):
        peak = candidate.estimate_peak_bytes(circuit, config)
        if peak is not None and peak > config.max_state_bytes:
            continue
        cost = _walk_cost(
            candidate, circuit.num_qubits, walked, len(ordered), batched
        )
        if cost < best_cost:
            best, best_cost = candidate, cost
    return best


def _grouped_batched_walk(
    circuit: QuantumCircuit,
    shots: int,
    ordered: List[Tuple[Tuple[Tuple[int, int], ...], int]],
    errors: Dict[int, QuantumError],
    rng: np.random.Generator,
    prefix: ExecutionEngine,
    config: ExecutionConfig,
    bound=None,
) -> np.ndarray:
    """The batched grouped walk: every trajectory group in one kernel
    call per lockstep window.

    Groups arrive in first-error-site order (*ordered*, the same visit
    order as the scalar walk, clean group last).  Noisy groups are
    stacked — in visit-order chunks bounded by ``config.batch_max_bytes`` —
    into a :class:`~repro.simulator.batched.BatchedStateVector`; within
    a chunk, the union of the groups' injection sites delimits the
    lockstep windows.  At each window boundary the active rows advance
    together (one kernel call per gate, diagonal-run fusion included);
    groups whose **first** error fires there fork off the clean prefix
    (which advances lazily, join-to-join) as one contiguous block of
    rows, and every error that fires at the site — on joining rows and
    on already-active multi-error rows alike — is applied in one
    :func:`~repro.simulator.batched.inject_site` call.  After the last
    boundary the whole chunk advances to the end of the circuit and is
    sampled from one uniform draw
    (:meth:`~repro.simulator.batched.BatchedStateVector.sample_outcomes`).

    RNG parity: the walk draws nothing during advance/fork/inject, and a
    chunk's one ``rng.random(Σ group_shots)`` yields the very numbers
    the scalar walk's per-group ``rng.random(group_shots)`` calls draw
    in visit order, each inverted against its own group's CDF (built by
    the scalar pipeline) with ``searchsorted(side="right")`` semantics —
    so the consumed stream and the outcomes are the scalar walk's.
    Per-row amplitudes may differ from the scalar walk by float rounding
    (~1e-16) where diagonal-run fusion partitions windows differently,
    and by the sign of zero after a per-site injection; the repo's
    parity standard (bit-identical *counts* under pinned seeds, as with
    the hybrid engine) is pinned by ``tests/test_batched.py``.
    """
    instructions = list(circuit)
    end = len(instructions)
    mapping = _measurement_map(circuit)
    qubits = sorted(mapping)
    width = circuit.num_clbits
    clbit_cols = np.asarray([mapping[q] for q in qubits], dtype=np.int64)
    sample_qubits = None if qubits == list(range(circuit.num_qubits)) else qubits
    qs = (
        np.arange(circuit.num_qubits, dtype=np.int64)
        if sample_qubits is None
        else np.asarray(sample_qubits, dtype=np.int64)
    )
    out = np.zeros((shots, width), dtype=np.uint8)
    row = 0
    noisy_groups = [kv for kv in ordered if kv[0]]
    n = circuit.num_qubits
    # Every chunk stays inside the working-set budget; the walk only
    # engages where a chunk of many rows fits it (``batched_walk_fits``).
    rows_per_chunk = config.batch_max_bytes // (16 << n)
    prefix_pos = 0
    for start in range(0, len(noisy_groups), rows_per_chunk):
        chunk = noisy_groups[start : start + rows_per_chunk]
        batch = _batched.BatchedStateVector(n, len(chunk))
        # Window boundaries: every injection site of every group in the
        # chunk.  ``fires[site]`` holds the rows (ascending) and terms
        # injected there; ``joins[site]`` the rows whose trajectory
        # begins there (first error) — a contiguous run, since groups
        # are stacked in first-error-site order.
        fires: Dict[int, Tuple[List[int], List[int]]] = {}
        joins: Dict[int, List[int]] = {}
        for i, (key, _) in enumerate(chunk):
            joins.setdefault(key[0][0], []).append(i)
            for site, term in key:
                rows, terms = fires.setdefault(site, ([], []))
                rows.append(i)
                terms.append(term)
        active = 0
        batch_pos = prefix_pos
        for site in sorted(fires):
            stop = site + 1
            if active:
                _batched.advance_batch_span(
                    batch.narrow(active), instructions, batch_pos, stop, plan=bound
                )
            joined = joins.get(site)
            if joined:
                if prefix_pos < stop:
                    prefix.advance_span(instructions, prefix_pos, stop)
                    prefix_pos = stop
                active = joined[-1] + 1
                batch.data[joined[0] : active] = prefix.to_dense().data
            rows, terms = fires[site]
            _batched.inject_site(batch, rows, terms, instructions[site], errors[site])
            batch_pos = stop
        _batched.advance_batch_span(batch, instructions, batch_pos, end, plan=bound)
        chunk_shots = [group_shots for _, group_shots in chunk]
        total = sum(chunk_shots)
        with _tracing.span("sampler.batched_sample", rows=len(chunk), shots=total):
            outcomes = batch.sample_outcomes(chunk_shots, rng)
            if clbit_cols.size:
                out[row : row + total, clbit_cols] = (
                    (outcomes[:, None] >> qs[None, :]) & 1
                ).astype(np.uint8)
        row += total
    if ordered and not ordered[-1][0]:
        # The clean group sorts last and *is* the prefix, exactly as in
        # the scalar walk.
        _, group_shots = ordered[-1]
        prefix.advance_span(instructions, prefix_pos, end)
        sampled = prefix.sample(
            group_shots, rng, sample_qubits, shares_structure=True
        )
        if clbit_cols.size:
            out[row : row + group_shots, clbit_cols] = sampled
        row += group_shots
    return out


def _sample_per_shot(
    circuit: QuantumCircuit,
    shots: int,
    noise: Optional[NoiseModel],
    rng: np.random.Generator,
    extra: Mapping[int, QuantumError],
    engine_cls: Type[ExecutionEngine],
    config: ExecutionConfig,
    bound=None,
) -> np.ndarray:
    """The one per-shot walk (mid-circuit measurement/reset), shared by
    every engine.

    Each backend must consume the RNG stream in lock-step (one draw per
    measurement/reset, one realization draw per noisy op) for seeded
    runs to stay aligned across engines — so there is exactly one copy
    of the walk, parameterized over the engine class; a fresh engine
    instance is one trajectory.

    The walk is compiled once per request into an event list: maximal
    unitary *spans* between collapse/injection boundaries, plus the
    boundary events themselves.  Spans go through ``advance_span`` —
    multi-gate windows, so the dense engines fuse exactly as in the
    grouped walk (and reuse plan memos when a plan is bound) instead of
    paying one ``advance`` call per gate per shot.  Event order (and
    therefore RNG draw order) is identical to the historical
    per-instruction loop.
    """
    noisy = dict(_noisy_ops(circuit, noise, extra))
    instructions = list(circuit)
    width = circuit.num_clbits
    bits = np.zeros((shots, width), dtype=np.uint8)

    events: List[tuple] = []
    span_start = -1

    def _flush(stop: int) -> None:
        nonlocal span_start
        if span_start >= 0 and stop > span_start:
            events.append(("span", span_start, stop))
        span_start = -1

    for idx, inst in enumerate(instructions):
        if inst.name == "measure":
            _flush(idx)
            events.append(("measure", inst.qubits[0], inst.clbits[0]))
        elif inst.name == "reset":
            _flush(idx)
            events.append(("reset", inst.qubits[0]))
        elif span_start < 0:
            span_start = idx
        err = noisy.get(idx)
        if err is not None:
            # The error fires after its instruction, so the span must
            # close *including* this gate before the injection draw.
            _flush(idx + 1)
            events.append(("noise", inst, err))
    _flush(len(instructions))

    for s in range(shots):
        engine = engine_cls(circuit, config)
        if bound is not None:
            engine.bind_plan(bound)
        for ev in events:
            kind = ev[0]
            if kind == "span":
                engine.advance_span(instructions, ev[1], ev[2])
            elif kind == "measure":
                bits[s, ev[2]] = engine.measure(ev[1], rng)
            elif kind == "reset":
                engine.reset(ev[1], rng)
            else:
                _, inst, err = ev
                draw = int(err.sample_many(1, rng)[0])
                if draw >= 0:
                    engine.inject(inst, err, draw)
    return bits


def _apply_readout(
    circuit: QuantumCircuit,
    bits: np.ndarray,
    noise: Optional[NoiseModel],
    rng: np.random.Generator,
) -> np.ndarray:
    if noise is None:
        return bits
    mapping = _measurement_map(circuit)
    out = bits.copy()
    for qubit, clbit in mapping.items():
        ro = noise.readout_for(qubit)
        if ro is not None:
            out[:, clbit] = ro.apply_to_bits(out[:, clbit], rng)
    return out


__all__ = ["sample_counts", "ideal_probabilities", "engine_mode", "ENGINE_MODES"]
