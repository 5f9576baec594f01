"""Quantum circuit intermediate representation.

:class:`QuantumCircuit` is the lingua franca of the stack: every
front-end adapter (Section 2.6's Qiskit/Pennylane/CUDAQ/QPI adapters)
translates *into* it, the multi-dialect compiler lowers *through* it, and
the QPU executor consumes the transpiled, native-gate form of it.

The representation is a flat, ordered list of :class:`Instruction`
records.  Structural analyses (depth, layering, commutation) live in
:mod:`repro.circuits.dag`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import gates as gate_lib
from repro.circuits.parameters import (
    Parameter,
    ParameterValue,
    bind_value,
    numeric_value,
    parameters_of,
)
from repro.errors import CircuitError, GateError
from repro.utils.validation import check_distinct, check_index


@dataclass(frozen=True)
class Instruction:
    """One gate or directive applied to specific qubits.

    Attributes
    ----------
    name:
        Gate mnemonic registered in :mod:`repro.circuits.gates`.
    qubits:
        Operand qubit indices (order matters for non-symmetric gates).
    params:
        Angle parameters — numeric or symbolic.
    clbits:
        Classical bit targets (measurements only).
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[ParameterValue, ...] = ()
    clbits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        spec = gate_lib.spec(self.name)
        if self.name != "barrier" and len(self.qubits) != spec.num_qubits:
            raise GateError(
                f"gate {self.name!r} takes {spec.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if spec.num_params != len(self.params):
            raise GateError(
                f"gate {self.name!r} takes {spec.num_params} parameters, "
                f"got {len(self.params)}"
            )
        check_distinct(self.qubits, f"{self.name} operands")

    def __getstate__(self) -> Dict[str, object]:
        # Pickle the fields only: the memoized caches below rebuild on
        # demand, and the tableau's compiled programs are closures,
        # which pickle cannot serialize.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def spec(self) -> gate_lib.GateSpec:
        """The registered :class:`~repro.circuits.gates.GateSpec` of this gate."""
        return gate_lib.spec(self.name)

    @property
    def is_directive(self) -> bool:
        """Whether this is a non-unitary directive (measure/reset/barrier/delay)."""
        return self.spec.directive

    @property
    def is_measurement(self) -> bool:
        """Whether this instruction is a measurement."""
        return self.name == "measure"

    @property
    def is_two_qubit(self) -> bool:
        """Whether this is a two-qubit *gate* (directives excluded)."""
        return len(self.qubits) == 2 and not self.is_directive

    @property
    def free_parameters(self) -> frozenset[Parameter]:
        """Unbound symbolic parameters appearing in this instruction."""
        out: set[Parameter] = set()
        for p in self.params:
            out |= parameters_of(p)
        return frozenset(out)

    def matrix(self) -> np.ndarray:
        """Numeric unitary of this instruction (raises on directives or
        unbound parameters).

        Memoized per instance: instructions are immutable, so repeated
        trajectories over the same circuit resolve each matrix once (the
        shared array is read-only — copy before mutating).
        """
        cached = self.__dict__.get("_matrix")
        if cached is None:
            cached = self.spec.matrix([numeric_value(p) for p in self.params])
            object.__setattr__(self, "_matrix", cached)
        return cached

    def clifford_primitives(self):
        """Memoized tableau-primitive decomposition of this instruction.

        ``None`` when the instruction is not a Clifford unitary — a
        directive, a gate with unbound parameters, or a genuinely
        non-Clifford gate (see
        :func:`repro.circuits.gates.clifford_primitives`).  Memoized per
        instance like :meth:`matrix`, so the stabilizer engine's
        trajectory replays and the sampler's dispatch predicate resolve
        each decomposition once.
        """
        cached = self.__dict__.get("_clifford", False)  # None is a valid value
        if cached is False:
            if self.free_parameters:
                cached = None
            else:
                cached = gate_lib.clifford_primitives(
                    self.name, [numeric_value(p) for p in self.params]
                )
            object.__setattr__(self, "_clifford", cached)
        return cached

    def is_diagonal(self) -> bool:
        """Memoized: whether this instruction's unitary is diagonal in
        the computational basis (see
        :func:`repro.circuits.gates.is_diagonal_gate`).  Directives and
        unbound-parameter gates are never diagonal.  The dense engine's
        diagonal-run fusion keys off this predicate.
        """
        cached = self.__dict__.get("_diagonal")
        if cached is None:
            if self.free_parameters:
                cached = False
            else:
                cached = gate_lib.is_diagonal_gate(
                    self.name, [numeric_value(p) for p in self.params]
                )
            object.__setattr__(self, "_diagonal", cached)
        return cached

    def bound(self, binding: Mapping[Parameter, float]) -> "Instruction":
        """A copy with *binding* substituted into the parameters."""
        if not self.free_parameters:
            return self
        return Instruction(
            self.name,
            self.qubits,
            tuple(bind_value(p, binding) for p in self.params),
            self.clbits,
        )

    def remapped(self, mapping: Mapping[int, int]) -> "Instruction":
        """A copy with qubit indices translated through *mapping*."""
        return Instruction(
            self.name,
            tuple(mapping[q] for q in self.qubits),
            self.params,
            self.clbits,
        )

    def __repr__(self) -> str:
        bits = ", ".join(map(str, self.qubits))
        if self.params:
            pl = ", ".join(
                f"{numeric_value(p):.4g}" if not parameters_of(p) else repr(p)
                for p in self.params
            )
            return f"{self.name}({pl}) q[{bits}]"
        if self.clbits:
            return f"{self.name} q[{bits}] -> c[{', '.join(map(str, self.clbits))}]"
        return f"{self.name} q[{bits}]"


class QuantumCircuit:
    """An ordered sequence of instructions on ``num_qubits`` qubits.

    Examples
    --------
    >>> qc = QuantumCircuit(3, name="ghz3")
    >>> qc.h(0)
    >>> qc.cx(0, 1)
    >>> qc.cx(1, 2)
    >>> qc.measure_all()
    >>> qc.depth()
    4
    """

    def __init__(
        self,
        num_qubits: int,
        num_clbits: Optional[int] = None,
        name: str = "circuit",
    ) -> None:
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits) if num_clbits is not None else self.num_qubits
        self.name = str(name)
        self._instructions: List[Instruction] = []
        self.metadata: Dict[str, object] = {}

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self._instructions[idx]

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The instruction sequence as an immutable tuple."""
        return tuple(self._instructions)

    # -- construction -----------------------------------------------------------

    def append(
        self,
        name: str,
        qubits: Sequence[int],
        params: Sequence[ParameterValue] = (),
        clbits: Sequence[int] = (),
    ) -> "QuantumCircuit":
        """Append a gate by mnemonic; returns ``self`` for chaining."""
        qubits = tuple(int(q) for q in qubits)
        for q in qubits:
            check_index(q, self.num_qubits, "qubit")
        clbits = tuple(int(c) for c in clbits)
        for c in clbits:
            check_index(c, self.num_clbits, "clbit")
        self._instructions.append(Instruction(name, qubits, tuple(params), clbits))
        return self

    def append_instruction(self, instruction: Instruction) -> "QuantumCircuit":
        """Append a pre-built :class:`Instruction` (bounds-checked)."""
        return self.append(
            instruction.name, instruction.qubits, instruction.params, instruction.clbits
        )

    # one method per library gate — the adapter-facing sugar ------------------

    def id(self, q: int) -> "QuantumCircuit":
        """Identity (explicit idle marker)."""
        return self.append("id", [q])

    def x(self, q: int) -> "QuantumCircuit":
        """Pauli-X."""
        return self.append("x", [q])

    def y(self, q: int) -> "QuantumCircuit":
        """Pauli-Y."""
        return self.append("y", [q])

    def z(self, q: int) -> "QuantumCircuit":
        """Pauli-Z."""
        return self.append("z", [q])

    def h(self, q: int) -> "QuantumCircuit":
        """Hadamard."""
        return self.append("h", [q])

    def s(self, q: int) -> "QuantumCircuit":
        """Phase gate S = √Z."""
        return self.append("s", [q])

    def sdg(self, q: int) -> "QuantumCircuit":
        """Inverse phase gate S†."""
        return self.append("sdg", [q])

    def t(self, q: int) -> "QuantumCircuit":
        """T = √S."""
        return self.append("t", [q])

    def tdg(self, q: int) -> "QuantumCircuit":
        """Inverse T gate."""
        return self.append("tdg", [q])

    def sx(self, q: int) -> "QuantumCircuit":
        """√X."""
        return self.append("sx", [q])

    def rx(self, theta: ParameterValue, q: int) -> "QuantumCircuit":
        """X rotation by *theta*."""
        return self.append("rx", [q], [theta])

    def ry(self, theta: ParameterValue, q: int) -> "QuantumCircuit":
        """Y rotation by *theta*."""
        return self.append("ry", [q], [theta])

    def rz(self, phi: ParameterValue, q: int) -> "QuantumCircuit":
        """Z rotation by *phi* (virtual on phased-RX hardware)."""
        return self.append("rz", [q], [phi])

    def prx(self, theta: ParameterValue, phi: ParameterValue, q: int) -> "QuantumCircuit":
        """Phased-RX — the native 1q gate of the modeled QPU."""
        return self.append("prx", [q], [theta, phi])

    def u(
        self,
        theta: ParameterValue,
        phi: ParameterValue,
        lam: ParameterValue,
        q: int,
    ) -> "QuantumCircuit":
        """Generic single-qubit unitary (OpenQASM ``U`` convention)."""
        return self.append("u", [q], [theta, phi, lam])

    def p(self, lam: ParameterValue, q: int) -> "QuantumCircuit":
        """Diagonal phase gate ``diag(1, e^{iλ})``."""
        return self.append("p", [q], [lam])

    def cz(self, q0: int, q1: int) -> "QuantumCircuit":
        """Controlled-Z — the native 2q gate of the modeled QPU."""
        return self.append("cz", [q0, q1])

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """CNOT with explicit control/target order."""
        return self.append("cx", [control, target])

    def swap(self, q0: int, q1: int) -> "QuantumCircuit":
        """SWAP the two qubits."""
        return self.append("swap", [q0, q1])

    def iswap(self, q0: int, q1: int) -> "QuantumCircuit":
        """iSWAP (swap plus an i phase on the exchanged states)."""
        return self.append("iswap", [q0, q1])

    def cp(self, lam: ParameterValue, q0: int, q1: int) -> "QuantumCircuit":
        """Controlled-phase by *lam*; symmetric in its operands."""
        return self.append("cp", [q0, q1], [lam])

    def rzz(self, theta: ParameterValue, q0: int, q1: int) -> "QuantumCircuit":
        """Two-qubit ZZ interaction ``exp(-i θ Z⊗Z / 2)``."""
        return self.append("rzz", [q0, q1], [theta])

    def measure(self, qubit: int, clbit: Optional[int] = None) -> "QuantumCircuit":
        """Measure *qubit* into *clbit* (defaults to the same index)."""
        return self.append("measure", [qubit], clbits=[qubit if clbit is None else clbit])

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into the like-numbered classical bit."""
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def reset(self, q: int) -> "QuantumCircuit":
        """Actively reset *q* to ``|0⟩`` (measure-and-flip semantics)."""
        return self.append("reset", [q])

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        """Synchronization barrier across *qubits* (default: all qubits)."""
        # barrier takes a variable operand list; spec arity 0 means "any".
        qs = tuple(int(q) for q in qubits) or tuple(range(self.num_qubits))
        for q in qs:
            check_index(q, self.num_qubits, "qubit")
        check_distinct(qs, "barrier operands")
        self._instructions.append(Instruction("barrier", qs))
        return self

    def delay(self, duration: float, q: int) -> "QuantumCircuit":
        """Idle *q* for *duration* seconds (noise accumulates while idle)."""
        return self.append("delay", [q], [duration])

    # -- composition ------------------------------------------------------------

    def compose(
        self,
        other: "QuantumCircuit",
        qubit_map: Optional[Mapping[int, int]] = None,
    ) -> "QuantumCircuit":
        """Append *other*'s instructions (optionally remapped) onto ``self``."""
        mapping = dict(qubit_map) if qubit_map is not None else {
            q: q for q in range(other.num_qubits)
        }
        for src in mapping.values():
            check_index(src, self.num_qubits, "mapped qubit")
        for inst in other:
            self._instructions.append(
                Instruction(
                    inst.name,
                    tuple(mapping[q] for q in inst.qubits),
                    inst.params,
                    inst.clbits,
                )
            )
        return self

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """An independent copy (optionally renamed); metadata is copied too."""
        qc = QuantumCircuit(self.num_qubits, self.num_clbits, name or self.name)
        qc._instructions = list(self._instructions)
        qc.metadata = dict(self.metadata)
        return qc

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (unitary part only; raises on measurements)."""
        qc = QuantumCircuit(self.num_qubits, self.num_clbits, f"{self.name}_dg")
        inverses = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
        for inst in reversed(self._instructions):
            if inst.name in ("measure", "reset"):
                raise CircuitError("cannot invert a circuit containing measure/reset")
            if inst.name == "barrier":
                qc._instructions.append(inst)
            elif inst.spec.hermitian:
                qc._instructions.append(inst)
            elif inst.name in inverses:
                qc.append(inverses[inst.name], inst.qubits)
            elif inst.name == "sx":
                # sx† = sx·sx·sx (sx^4 = 1); express via rx(-π/2) instead
                qc.append("rx", inst.qubits, [-np.pi / 2.0])
            elif inst.name in ("rx", "ry", "rz", "p", "cp", "rzz", "delay"):
                neg = tuple(-p if not isinstance(p, (int, float)) else -float(p) for p in inst.params)
                if inst.name == "delay":
                    neg = inst.params  # idling is self-adjoint in duration
                qc.append(inst.name, inst.qubits, neg)
            elif inst.name == "prx":
                theta, phi = inst.params
                neg_theta = -theta if not isinstance(theta, (int, float)) else -float(theta)
                qc.append("prx", inst.qubits, [neg_theta, phi])
            elif inst.name == "u":
                theta, phi, lam = inst.params
                qc.append(
                    "u",
                    inst.qubits,
                    [
                        -theta if not isinstance(theta, (int, float)) else -float(theta),
                        -lam if not isinstance(lam, (int, float)) else -float(lam),
                        -phi if not isinstance(phi, (int, float)) else -float(phi),
                    ],
                )
            elif inst.name == "iswap":
                # iswap† = iswap^3; cheaper: rzz/swap identity — use matrix-free
                qc.append("iswap", inst.qubits)
                qc.append("iswap", inst.qubits)
                qc.append("iswap", inst.qubits)
            else:  # pragma: no cover - every library gate is handled above
                raise CircuitError(f"no inverse rule for gate {inst.name!r}")
        return qc

    # -- parameters ---------------------------------------------------------------

    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        """Free parameters, sorted by name then creation order."""
        seen: set[Parameter] = set()
        for inst in self._instructions:
            seen |= inst.free_parameters
        return tuple(sorted(seen, key=lambda p: (p.name, p._uid)))

    def bind(self, binding: Mapping[Parameter, float]) -> "QuantumCircuit":
        """A copy with parameters substituted (may be partial)."""
        qc = QuantumCircuit(self.num_qubits, self.num_clbits, self.name)
        qc.metadata = dict(self.metadata)
        qc._instructions = [inst.bound(binding) for inst in self._instructions]
        return qc

    def bind_values(self, values: Sequence[float]) -> "QuantumCircuit":
        """Bind positionally against :attr:`parameters`."""
        params = self.parameters
        if len(values) != len(params):
            raise CircuitError(
                f"circuit has {len(params)} parameters, got {len(values)} values"
            )
        return self.bind(dict(zip(params, map(float, values))))

    # -- analysis -------------------------------------------------------------

    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate mnemonics."""
        out: Dict[str, int] = {}
        for inst in self._instructions:
            out[inst.name] = out.get(inst.name, 0) + 1
        return out

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates (the dominant error/duration source)."""
        return sum(1 for inst in self._instructions if inst.is_two_qubit)

    def depth(self, *, count_directives: bool = True) -> int:
        """Circuit depth: longest qubit-wise chain of instructions.

        Barriers synchronize all their operands; with
        ``count_directives=False`` measurements/resets/delays do not add a
        layer of their own.
        """
        level = [0] * self.num_qubits
        for inst in self._instructions:
            if inst.name == "barrier":
                top = max((level[q] for q in inst.qubits), default=0)
                for q in inst.qubits:
                    level[q] = top
                continue
            adds = 1 if (count_directives or not inst.is_directive) else 0
            top = max(level[q] for q in inst.qubits) + adds
            for q in inst.qubits:
                level[q] = top
        return max(level, default=0)

    def qubits_used(self) -> frozenset[int]:
        """Indices of qubits touched by at least one instruction."""
        used: set[int] = set()
        for inst in self._instructions:
            used.update(inst.qubits)
        return frozenset(used)

    def interactions(self) -> Dict[Tuple[int, int], int]:
        """Two-qubit interaction multigraph as ``{(min, max): count}``."""
        out: Dict[Tuple[int, int], int] = {}
        for inst in self._instructions:
            if inst.is_two_qubit:
                key = (min(inst.qubits), max(inst.qubits))
                out[key] = out.get(key, 0) + 1
        return out

    def has_measurements(self) -> bool:
        """Whether any instruction is a measurement."""
        return any(inst.is_measurement for inst in self._instructions)

    def is_native(self) -> bool:
        """Whether every instruction is in the QPU native gate set."""
        return all(gate_lib.is_native(inst.name) for inst in self._instructions)

    # -- rendering ------------------------------------------------------------

    def draw(self) -> str:
        """A compact text rendering, one line per qubit."""
        lanes: List[List[str]] = [[] for _ in range(self.num_qubits)]

        def pad() -> None:
            width = max((len(lane) for lane in lanes), default=0)
            for lane in lanes:
                lane.extend(["---"] * (width - len(lane)))

        for inst in self._instructions:
            if inst.name == "barrier":
                pad()
                for q in inst.qubits:
                    lanes[q].append("|")
                continue
            if len(inst.qubits) == 2:
                pad()
                a, b = inst.qubits
                lanes[a].append(f"{inst.name}:0")
                lanes[b].append(f"{inst.name}:1")
            else:
                q = inst.qubits[0]
                label = inst.name
                if inst.params:
                    try:
                        label += "(" + ",".join(f"{numeric_value(p):.3g}" for p in inst.params) + ")"
                    except Exception:
                        label += "(θ)"
                lanes[q].append(label)
        pad()
        return "\n".join(
            f"q{idx:>2}: " + "-".join(lane) for idx, lane in enumerate(lanes)
        )

    def __repr__(self) -> str:
        return (
            f"<QuantumCircuit {self.name!r}: {self.num_qubits} qubits, "
            f"{len(self._instructions)} instructions, depth {self.depth()}>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self._instructions == other._instructions
        )

    def __hash__(self) -> int:  # circuits are mutable; identity hash
        return id(self)


# ---------------------------------------------------------------------------
# Stock circuit constructors used throughout the stack
# ---------------------------------------------------------------------------


def ghz_circuit(num_qubits: int, *, measure: bool = True, name: Optional[str] = None) -> QuantumCircuit:
    """The GHZ-state preparation circuit used as the paper's live benchmark.

    Section 3.2: "Standardized algorithms such as GHZ state creations are
    regularly run on all qubits of the QPU or subsets of them."
    """
    qc = QuantumCircuit(num_qubits, name=name or f"ghz{num_qubits}")
    qc.h(0)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    if measure:
        qc.measure_all()
    return qc


def bell_circuit(*, measure: bool = True) -> QuantumCircuit:
    """A 2-qubit Bell pair circuit."""
    qc = QuantumCircuit(2, name="bell")
    qc.h(0)
    qc.cx(0, 1)
    if measure:
        qc.measure_all()
    return qc


def brickwork_circuit(
    num_qubits: int,
    depth: int,
    *,
    seed: object = 0,
    measure: bool = True,
    name: Optional[str] = None,
) -> QuantumCircuit:
    """Shallow brickwork: RY layers + even/odd CZ brick pattern.

    The canonical bounded-entanglement workload (branching, non-Clifford,
    line-like) the MPS engine targets — one builder shared by the perf
    harness, the microbenchmarks, and the test suites so the lanes and
    the pins can never drift apart.
    """
    from repro.utils.rng import as_rng

    rng = as_rng(seed)  # type: ignore[arg-type]
    qc = QuantumCircuit(num_qubits, name=name or f"brickwork{num_qubits}x{depth}")
    for layer in range(depth):
        for q in range(num_qubits):
            qc.ry(float(rng.uniform(-np.pi, np.pi)), q)
        for q in range(layer % 2, num_qubits - 1, 2):
            qc.cz(q, q + 1)
    if measure:
        qc.measure_all()
    return qc


def random_circuit(
    num_qubits: int,
    depth: int,
    *,
    seed: object = None,
    two_qubit_prob: float = 0.35,
    measure: bool = True,
) -> QuantumCircuit:
    """A random circuit with textbook gates; used by tests and workloads."""
    from repro.utils.rng import as_rng

    rng = as_rng(seed)  # type: ignore[arg-type]
    qc = QuantumCircuit(num_qubits, name=f"random{num_qubits}x{depth}")
    one_q = ["h", "x", "y", "z", "s", "t", "sx"]
    for _ in range(depth):
        q = int(rng.integers(num_qubits))
        if num_qubits >= 2 and rng.random() < two_qubit_prob:
            q2 = int(rng.integers(num_qubits - 1))
            if q2 >= q:
                q2 += 1
            qc.append(str(rng.choice(["cx", "cz", "swap"])), [q, q2])
        elif rng.random() < 0.5:
            qc.append(str(rng.choice(one_q)), [q])
        else:
            qc.append(
                str(rng.choice(["rx", "ry", "rz"])),
                [q],
                [float(rng.uniform(-np.pi, np.pi))],
            )
    if measure:
        qc.measure_all()
    return qc


__all__ = [
    "Instruction",
    "QuantumCircuit",
    "ghz_circuit",
    "bell_circuit",
    "brickwork_circuit",
    "random_circuit",
]
