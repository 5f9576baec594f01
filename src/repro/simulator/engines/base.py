"""Execution-engine protocol and registry.

An :class:`ExecutionEngine` is one *trajectory's worth of simulation
state* behind a uniform surface: the shot sampler, the expectation
estimators, and the perf harness all drive engines through this protocol
instead of hard-coding a state representation.  That is what makes the
backends pluggable — the dense state vector, the stabilizer tableau, and
the segment-granular hybrid (tableau→dense) engine are peers in a
registry, and a future backend (density matrix, remote QPU) only has to
implement the same eight methods and register itself.

Protocol
--------
``prepare(circuit)``
    (Re)initialize to ``|0…0⟩`` for *circuit*.  Called by the
    constructor, after it stored the request's
    :class:`~repro.simulator.config.ExecutionConfig` as ``self.config``;
    a fresh engine instance *is* a fresh trajectory.
``advance(ops)``
    Apply a window of circuit instructions.  Unitary no-ops
    (barrier/delay/measure/id) are skipped; measurement collapse is
    never performed here — that is :meth:`measure`'s job, driven by the
    per-shot sampler.
``fork()``
    An independent copy of the current state (the trajectory-group fork
    of the prefix-sharing sampler).  Forks keep their parent's config
    and may share immutable or structure-keyed caches with it.
``inject(instruction, error, term_index)``
    Apply one sampled error term at *instruction*.  Returns ``True``
    when the injection preserved shareable state structure (every Pauli
    term on a tableau), ``False`` on a genuine collapse — the sampler
    uses this to decide whether a group may reuse shared factorizations.
``sample(shots, rng, qubits, shares_structure=...)``
    Draw measurement outcomes without collapsing.  All engines must
    consume exactly ``shots`` uniform draws from *rng* and invert the
    same outcome CDF, so seeded runs stay aligned across backends (see
    ``docs/architecture.md`` for the parity contract).
``measure(qubit, rng)`` / ``reset(qubit, rng)``
    Collapsing mid-circuit operations for the per-shot path.
``to_dense()``
    The current state as a dense
    :class:`~repro.simulator.statevector.StateVector` — the conversion
    boundary of mixed execution (exponential; raises beyond the dense
    qubit limit).
``expectation(hamiltonian)``
    Exact ``⟨H⟩`` of a :class:`~repro.hybrid.observables.PauliSum` on
    the current state, evaluated however this backend does it best.

Registration
------------
Concrete engines self-register under :attr:`ExecutionEngine.name` via
the :func:`register_engine` decorator; :func:`get_engine` resolves names
and :func:`engine_registry` snapshots the table.  Mode-string *routing*
(which engine serves which circuit under ``engine_mode``) lives in
:func:`repro.simulator.engines.select_engine`, one level up.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Dict, Optional, Sequence, Tuple, Type

import numpy as np

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.errors import SimulationError
from repro.simulator.config import ExecutionConfig
from repro.simulator.noise import QuantumError
from repro.simulator.statevector import StateVector


class ExecutionEngine(ABC):
    """One trajectory of simulation state behind the engine protocol."""

    #: Registry key; concrete subclasses must override.
    name: ClassVar[str] = ""

    #: Names of the :class:`repro.compiler.plans.ExecutionPlan` artifacts
    #: this backend consumes (empty: plans are accepted but ignored).
    #: Purely declarative — tests and docs pin each backend's entry.
    plan_artifacts: ClassVar[Tuple[str, ...]] = ()

    #: Bound execution plan, or ``None`` for the unplanned path.  A class
    #: attribute (not set in ``__init__``) so engines created through
    #: ``cls.__new__`` in ``fork()`` implementations inherit the default;
    #: forks that should keep their parent's plan copy it explicitly.
    _plan = None

    def __init__(
        self, circuit: QuantumCircuit, config: Optional[ExecutionConfig] = None
    ) -> None:
        # An engine built outside an entry point runs on the defaults;
        # the sampler and prepare_engine always pass the request's config.
        self.config = ExecutionConfig() if config is None else config
        self.circuit = circuit
        self.prepare(circuit)

    # -- admission control -----------------------------------------------------

    @classmethod
    def estimate_peak_bytes(
        cls, circuit: QuantumCircuit, config: ExecutionConfig
    ) -> Optional[int]:
        """Estimated peak state memory, in bytes, for one sampling
        request of *circuit* on this backend under *config* — or
        ``None`` when the backend cannot predict its footprint.

        Consumed by pre-flight admission control
        (:func:`repro.simulator.resilience.check_admission`) **before**
        any allocation, so the estimate must be computable from the
        circuit and the config alone.  ``None`` (the default for
        backends that do not override this) admits the request
        unconditionally.
        """
        return None

    # -- execution plans -------------------------------------------------------

    def bind_plan(self, plan) -> None:
        """Attach a :class:`~repro.compiler.plans.BoundPlan` for this
        request.  Backends that consume plan artifacts override
        :meth:`advance_span` (or this hook) to use it; the default just
        records the plan so forks can inherit it."""
        self._plan = plan

    @property
    def plan(self):
        """The bound execution plan, or ``None`` when running unplanned."""
        return self._plan

    # -- state lifecycle -------------------------------------------------------

    @abstractmethod
    def prepare(self, circuit: QuantumCircuit) -> None:
        """(Re)initialize internal state to ``|0…0⟩`` for *circuit*."""

    @abstractmethod
    def fork(self) -> "ExecutionEngine":
        """An independent copy of the current state (trajectory fork)."""

    # -- evolution -------------------------------------------------------------

    @abstractmethod
    def advance(self, ops: Sequence[Instruction]) -> None:
        """Apply the unitary part of *ops* in order (no-ops skipped)."""

    def advance_span(self, instructions: Sequence[Instruction], start: int, stop: int) -> None:
        """Apply the window ``instructions[start:stop]``.

        The span form is how the sampler drivers address windows of the
        *full* instruction list, which lets plan-aware backends look up
        memoized per-window artifacts by ``(start, stop)`` key.  The
        default delegates to :meth:`advance` on the slice — identical
        semantics for backends without window artifacts.
        """
        self.advance(instructions[start:stop])

    @abstractmethod
    def inject(
        self, instruction: Instruction, error: QuantumError, term_index: int
    ) -> bool:
        """Apply one sampled error term; ``True`` iff structure-preserving."""

    # -- measurement -----------------------------------------------------------

    @abstractmethod
    def sample(
        self,
        shots: int,
        rng: np.random.Generator,
        qubits: Optional[Sequence[int]] = None,
        *,
        shares_structure: bool = True,
    ) -> np.ndarray:
        """``(shots, k)`` outcome bits; consumes exactly *shots* draws."""

    @abstractmethod
    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Projectively measure one qubit, collapsing the state."""

    @abstractmethod
    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        """Measure-and-flip reset of one qubit to ``|0⟩``."""

    # -- conversion / observables ----------------------------------------------

    @abstractmethod
    def to_dense(self) -> StateVector:
        """The current state as a dense :class:`StateVector`."""

    @abstractmethod
    def expectation(self, hamiltonian) -> float:
        """Exact ``⟨H⟩`` of a ``PauliSum`` on the current state."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.circuit.num_qubits} qubits>"


_REGISTRY: Dict[str, Type[ExecutionEngine]] = {}


def register_engine(cls: Type[ExecutionEngine]) -> Type[ExecutionEngine]:
    """Class decorator: add *cls* to the engine registry under its name.

    Re-registering a name replaces the previous entry (latest wins), so
    downstream code can swap in an instrumented or experimental backend
    without touching the sampler.
    """
    if not cls.name:
        raise SimulationError(f"engine class {cls.__name__} has no registry name")
    _REGISTRY[cls.name] = cls
    return cls


def get_engine(name: str) -> Type[ExecutionEngine]:
    """Resolve a registered engine class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown execution engine {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def engine_registry() -> Dict[str, Type[ExecutionEngine]]:
    """A snapshot of the current name → engine-class table."""
    return dict(_REGISTRY)


__all__ = [
    "ExecutionEngine",
    "register_engine",
    "get_engine",
    "engine_registry",
]
