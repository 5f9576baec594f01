"""Matrix-product-state execution engine for low-entanglement circuits.

The fourth backend class of the registry: every non-Clifford workload
previously died at the 26-qubit dense limit unless its tail stayed
sparse.  A matrix product state represents an ``n``-qubit pure state as
a chain of site tensors ``T_i`` of shape ``(D_l, 2, D_r)`` (one per
qubit, little-endian: site *i* is qubit *i*), where the bond dimensions
``D`` measure the entanglement across each cut.  Cost is
``O(n · chi³)`` per two-qubit gate instead of ``O(2^n)``, so shallow
brickwork circuits, QAOA/VQE ansätze, and Trotterized dynamics run at
50–100+ qubits whenever entanglement stays bounded.

Canonical form
--------------
:class:`MPSState` keeps a **mixed-canonical** chain: every tensor left
of the orthogonality :attr:`~MPSState.center` is left-canonical
(``Σ_s T[s]† T[s] = I``), every tensor right of it right-canonical
(``Σ_s T[s] T[s]† = I``), and the center tensor carries the state's
norm.  The invariant is maintained by QR/LQ sweeps
(:meth:`~MPSState.canonicalize_to`) and makes every local quantity —
single-qubit marginals, conditional sampling probabilities, Pauli-string
expectations — computable from the tensors it touches alone.

Gates
-----
* **1q** — a local contraction into one site tensor.  Unitaries
  preserve both canonical forms, so no sweep is needed.
* **2q adjacent** — contract the two site tensors and the gate into a
  ``(D_l·2, 2·D_r)`` block, SVD, and truncate: singular values beyond
  the bond cap ``chi`` are discarded, as are trailing values whose
  cumulative relative weight stays below ``truncation_threshold``
  (plus machine-noise zeros below :data:`ZERO_CUTOFF`).  Both come from
  the request's :class:`~repro.simulator.config.ExecutionConfig`
  (defaults :data:`~repro.simulator.config.DEFAULT_CHI` and
  :data:`~repro.simulator.config.DEFAULT_TRUNCATION_THRESHOLD`).  The
  discarded weight accumulates in :attr:`~MPSState.truncation_error`
  and the kept spectrum is renormalized, so the state stays a unit
  vector.
* **2q non-adjacent** — SWAP insertion along the line: the router
  computes the site path with the same shortest-path primitive the
  transpiler's SWAP-insertion pass uses (:class:`~repro.qpu.topology.
  Topology.line`), moves one operand into adjacency with SWAP gates,
  applies the gate, and unwinds.

Sampling and RNG parity
-----------------------
At or below the dense limit (:data:`DENSE_QUBIT_LIMIT` qubits),
:meth:`MPSState.sample` contracts the chain exactly
(:meth:`~MPSState.to_statevector`) and inverts the identical outcome
CDF the dense engine does — with an unconstrained ``chi`` seeded counts
are bit-comparable against :class:`~repro.simulator.engines.dense.
DenseEngine` (pinned by ``tests/test_mps.py``).  Beyond the dense limit
no ``2^n`` CDF can exist; the sampler switches to the standard
left-to-right **conditional-marginal sweep**: with the center at site 0
the chain right of every site is right-canonical, so the conditional
``P(bit_i = 1 | bits_{<i})`` is the squared norm of a ``(shots, D)``
boundary vector and all shots advance through one ``O(n · chi²)``
vectorized pass, drawing one uniform batch per site (``n × shots``
draws — the same wide-state stream deviation the packed tableau's
free-bit sampler documents).

Mid-circuit measurement and stochastic-event noise injection reuse the
dense engine's exact semantics: :meth:`measure` draws one uniform with
``outcome = u < P(1)``, and
:func:`~repro.simulator.engines.dense.inject_into_dense` drives
:meth:`apply_matrix` / :meth:`marginal_probability_one` /
:meth:`collapse` directly.
"""

from __future__ import annotations

import math
import numbers
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import gates as gate_lib
from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.gates import UNITARY_NOOPS
from repro.errors import SimulationError
from repro.qpu.topology import Topology
from repro.simulator.config import DEFAULT_CHI, DEFAULT_TRUNCATION_THRESHOLD
from repro.simulator.engines.base import ExecutionEngine, register_engine
from repro.simulator.engines.dense import inject_into_dense
from repro.simulator.noise import QuantumError
from repro.simulator.statevector import DENSE_QUBIT_LIMIT, StateVector
from repro.telemetry import tracing as _tracing
from repro.utils.rng import RandomState, as_rng

#: Relative singular-value cutoff for machine-noise zeros: values below
#: ``s_max · ZERO_CUTOFF`` are always dropped (a rank-2 GHZ cut must
#: keep bond dimension 2, not ``min(2·D_l, 2·D_r)`` of float dust).
ZERO_CUTOFF: float = 1e-14

#: Cumulative truncation loss above which sampling a truncated state
#: emits a :class:`UserWarning` (once per state lineage).  Sampling is
#: where a silently-approximate state turns into silently-wrong counts —
#: in particular under ``"auto"`` routing, where the caller never asked
#: for an approximate backend.  States whose loss stays within the
#: configured ``truncation_threshold`` budget (an explicit opt-in to
#: lossy compression) do not warn below that budget.
TRUNCATION_WARNING_THRESHOLD: float = 1e-9

#: ``"auto"``-routing heuristic knob: a circuit counts as *line-like*
#: (MPS-friendly) when every two-qubit gate spans at most this many
#: index steps along the chain.
LINE_RANGE: int = 2

_SWAP = None  # resolved lazily (gate library import order)


def _swap_matrix() -> np.ndarray:
    global _SWAP
    if _SWAP is None:
        _SWAP = gate_lib.spec("swap").matrix()
    return _SWAP


def is_line_like(circuit: QuantumCircuit) -> bool:
    """Whether every two-qubit gate of *circuit* spans at most
    :data:`LINE_RANGE` index steps — the ``"auto"`` router's
    MPS-friendliness predicate (brickwork layers, nearest-neighbour
    QAOA/Trotter chains qualify; all-to-all ansätze do not)."""
    for inst in circuit:
        if inst.is_two_qubit and abs(inst.qubits[0] - inst.qubits[1]) > LINE_RANGE:
            return False
    return True


class MPSState:
    """An n-qubit pure state as a mixed-canonical matrix product state.

    Created in ``|0…0⟩`` (every tensor ``(1, 2, 1)``, center at site 0).
    All mutating operations preserve unit norm; truncation loss is
    tracked in :attr:`truncation_error` instead of leaking into the
    norm.
    """

    def __init__(
        self,
        num_qubits: int,
        *,
        chi: Optional[int] = None,
        truncation_threshold: Optional[float] = None,
    ) -> None:
        if num_qubits < 1:
            raise SimulationError("state needs at least one qubit")
        self.num_qubits = int(num_qubits)
        cap = DEFAULT_CHI if chi is None else chi
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise SimulationError(f"bond cap chi must be an integer >= 1, got {cap!r}")
        self.chi = int(cap)
        self.truncation_threshold = float(
            DEFAULT_TRUNCATION_THRESHOLD
            if truncation_threshold is None
            else truncation_threshold
        )
        if not 0.0 <= self.truncation_threshold < 1.0:
            raise SimulationError(
                "truncation threshold must lie in [0, 1), got "
                f"{self.truncation_threshold}"
            )
        tensor = np.zeros((1, 2, 1), dtype=complex)
        tensor[0, 0, 0] = 1.0
        self.tensors: List[np.ndarray] = [tensor.copy() for _ in range(self.num_qubits)]
        self.center = 0
        #: Cumulative discarded relative weight across every truncated SVD.
        self.truncation_error = 0.0
        # One truncation warning per state lineage (forks inherit it).
        self._truncation_warned = False
        #: Precomputed SWAP routes ``(lo, hi) → site path`` from a bound
        #: execution plan (shared read-only across forks); ``None`` means
        #: compute routes on the fly.
        self.routes: Optional[dict] = None

    # -- bookkeeping -----------------------------------------------------------

    def copy(self) -> "MPSState":
        """An independent deep copy (``O(n · chi²)`` — the trajectory
        fork of the grouped sampler)."""
        dup = MPSState.__new__(MPSState)
        dup.num_qubits = self.num_qubits
        dup.chi = self.chi
        dup.truncation_threshold = self.truncation_threshold
        dup.tensors = [t.copy() for t in self.tensors]
        dup.center = self.center
        dup.truncation_error = self.truncation_error
        dup._truncation_warned = self._truncation_warned
        dup.routes = self.routes  # read-only table, shared by reference
        return dup

    def bond_dimensions(self) -> Tuple[int, ...]:
        """The ``n-1`` bond dimensions between neighbouring sites."""
        return tuple(t.shape[2] for t in self.tensors[:-1])

    @property
    def max_bond_dimension(self) -> int:
        """The largest bond dimension currently in the chain."""
        return max(self.bond_dimensions(), default=1)

    def norm(self) -> float:
        """Euclidean norm (1 for a valid state) — the center tensor's
        norm, by the canonical invariant."""
        return float(np.linalg.norm(self.tensors[self.center]))

    def _check_qubit(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit state"
            )
        return int(qubit)

    # -- canonical-form maintenance --------------------------------------------

    def canonicalize_to(self, site: int) -> "MPSState":
        """Move the orthogonality center to *site* via QR/LQ sweeps.

        Exact (no truncation): a QR step leaves the departed tensor
        left-canonical and multiplies the triangular factor into its
        neighbour; the mirrored LQ step moves left.
        """
        self._check_qubit(site)
        while self.center < site:
            c = self.center
            t = self.tensors[c]
            dl, _, dr = t.shape
            q, r = np.linalg.qr(t.reshape(dl * 2, dr))
            self.tensors[c] = q.reshape(dl, 2, -1)
            self.tensors[c + 1] = np.einsum(
                "ab,bsr->asr", r, self.tensors[c + 1]
            )
            self.center = c + 1
        while self.center > site:
            c = self.center
            t = self.tensors[c]
            dl, _, dr = t.shape
            # LQ via QR of the conjugate transpose: A = L·Q with
            # row-orthonormal Q ⇒ the departed tensor is right-canonical.
            q, r = np.linalg.qr(t.reshape(dl, 2 * dr).conj().T)
            self.tensors[c] = q.conj().T.reshape(-1, 2, dr)
            self.tensors[c - 1] = np.einsum(
                "lsa,ab->lsb", self.tensors[c - 1], r.conj().T
            )
            self.center = c - 1
        return self

    # -- gate application ------------------------------------------------------

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "MPSState":
        """Apply a 1- or 2-qubit operator (same index conventions as
        :meth:`StateVector.apply_matrix`: operand ``qubits[j]`` is bit
        *j* of the matrix index).

        Larger operators are not supported — decompose first (the gate
        library is 1q/2q only).
        """
        matrix = np.asarray(matrix, dtype=complex)
        k = len(qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise SimulationError(
                f"matrix shape {matrix.shape} does not match {k} qubits"
            )
        if len(set(qubits)) != k:
            raise SimulationError(f"operands must be distinct, got {tuple(qubits)}")
        for q in qubits:
            self._check_qubit(q)
        if k == 1:
            return self._apply_1q(matrix, qubits[0])
        if k == 2:
            return self._apply_2q(matrix, qubits[0], qubits[1])
        raise SimulationError(
            "MPS handles 1- and 2-qubit operators; decompose larger blocks"
        )

    def _apply_1q(self, matrix: np.ndarray, qubit: int) -> "MPSState":
        # A unitary on the physical index preserves both canonical
        # forms, so no center movement is needed.  (Non-unitary 1q
        # operators only reach the center tensor via collapse().)
        self.tensors[qubit] = np.einsum(
            "st,ltr->lsr", matrix, self.tensors[qubit]
        )
        return self

    def _apply_2q(self, matrix: np.ndarray, q0: int, q1: int) -> "MPSState":
        lo, hi = (q0, q1) if q0 < q1 else (q1, q0)
        if hi - lo == 1:
            return self._apply_2q_adjacent(matrix, q0, q1)
        # SWAP insertion along the chain: the site path comes from the
        # same shortest-path primitive the transpiler's router walks
        # (trivially lo..hi on a line, but stated in routing terms).  A
        # bound execution plan precomputes the table once per structure.
        path = self.routes.get((lo, hi)) if self.routes is not None else None
        if path is None:
            path = Topology.line(self.num_qubits).shortest_path(lo, hi)
        # Move the *hi* operand down to lo+1 ...
        for a, b in zip(path[-2:0:-1], path[-1:1:-1]):
            self._apply_2q_adjacent(_swap_matrix(), a, b)
        # ... apply with operand order preserved (the moved qubit now
        # sits at site lo+1) ...
        if q0 == lo:
            self._apply_2q_adjacent(matrix, lo, lo + 1)
        else:
            self._apply_2q_adjacent(matrix, lo + 1, lo)
        # ... then unwind so qubit indices keep meaning site indices.
        for a, b in zip(path[1:-1], path[2:]):
            self._apply_2q_adjacent(_swap_matrix(), a, b)
        return self

    def _apply_2q_adjacent(self, matrix: np.ndarray, q0: int, q1: int) -> "MPSState":
        """Contract → gate → SVD → truncate on neighbouring sites."""
        lo = min(q0, q1)
        if self.center < lo:
            self.canonicalize_to(lo)
        elif self.center > lo + 1:
            self.canonicalize_to(lo + 1)
        a, b = self.tensors[lo], self.tensors[lo + 1]
        dl, dr = a.shape[0], b.shape[2]
        # theta[l, s_lo, s_hi, r]
        theta = np.einsum("lsm,mtr->lstr", a, b)
        gate = matrix.reshape(2, 2, 2, 2)
        if q0 == lo:
            # matrix bit 0 ↔ lower site: index i = s_hi·2 + s_lo, so the
            # reshaped gate is [s_hi', s_lo', s_hi, s_lo].
            theta = np.einsum("dcba,labr->lcdr", gate, theta)
        else:
            # matrix bit 0 ↔ upper site.
            theta = np.einsum("dcba,lbar->ldcr", gate, theta)
        self._split_theta(theta, lo)
        return self

    def _split_theta(self, theta: np.ndarray, lo: int) -> None:
        """SVD a two-site block back into site tensors, truncating."""
        dl, _, _, dr = theta.shape
        u, s, vh = np.linalg.svd(
            theta.reshape(dl * 2, 2 * dr), full_matrices=False
        )
        total = float(np.dot(s, s))
        if total <= 0.0:
            raise SimulationError("cannot split a numerically zero state")
        keep = int(np.count_nonzero(s > s[0] * ZERO_CUTOFF)) or 1
        if self.truncation_threshold > 0.0 and keep > 1:
            # Largest k whose discarded tail stays below the threshold.
            weights = (s[:keep] * s[:keep]) / total
            tail = np.cumsum(weights[::-1])[::-1]  # tail[k] = Σ_{i>=k} w_i
            allowed = np.nonzero(tail <= self.truncation_threshold)[0]
            if allowed.size:
                keep = max(int(allowed[0]), 1)
        keep = min(keep, self.chi)
        kept = float(np.dot(s[:keep], s[:keep]))
        self.truncation_error += max(0.0, 1.0 - kept / total)
        # Renormalize so the state stays a unit vector.
        scale = 1.0 / math.sqrt(kept)
        self.tensors[lo] = u[:, :keep].reshape(dl, 2, keep)
        self.tensors[lo + 1] = (
            (s[:keep, None] * vh[:keep]) * scale
        ).reshape(keep, 2, dr)
        # U is an isometry ⇒ the lower site is left-canonical; the norm
        # (and with it the orthogonality center) lives on the upper one.
        self.center = lo + 1

    def apply_instruction(self, instruction: Instruction) -> "MPSState":
        """Apply one circuit instruction (unitary no-ops are skipped)."""
        if instruction.name in UNITARY_NOOPS:
            return self
        return self.apply_matrix(instruction.matrix(), instruction.qubits)

    # -- measurement -----------------------------------------------------------

    def marginal_probability_one(self, qubit: int) -> float:
        """``P(qubit = 1)`` from the center tensor alone."""
        self.canonicalize_to(self._check_qubit(qubit))
        t = self.tensors[qubit]
        ones = t[:, 1, :]
        total = float(np.real(np.vdot(t, t)))
        return float(np.real(np.vdot(ones, ones))) / total

    def collapse(self, qubit: int, outcome: int) -> float:
        """Project *qubit* onto *outcome* and renormalize.

        Returns the pre-collapse probability of the outcome; raises if
        it is numerically zero.  Only the center tensor is touched, so
        the canonical invariant survives.
        """
        return self._project(qubit, outcome, self.marginal_probability_one(qubit))

    def _project(self, qubit: int, outcome: int, p1: float) -> float:
        """:meth:`collapse` given ``p1 = P(qubit = 1)`` already computed
        (by :meth:`marginal_probability_one`, which left *qubit* the
        canonical center)."""
        prob = p1 if outcome else 1.0 - p1
        if prob < 1e-15:
            raise SimulationError(
                f"cannot collapse qubit {qubit} onto impossible outcome {outcome}"
            )
        t = self.tensors[qubit].copy()
        t[:, 1 - outcome, :] = 0.0
        self.tensors[qubit] = t / math.sqrt(prob)
        return prob

    def measure(self, qubit: int, rng: RandomState = None) -> int:
        """Projectively measure one qubit (one uniform draw,
        ``outcome = u < P(1)`` — the dense engine's discipline)."""
        r = as_rng(rng)
        p1 = self.marginal_probability_one(qubit)
        outcome = 1 if r.random() < p1 else 0
        self._project(qubit, outcome, p1)
        return outcome

    def reset(self, qubit: int, rng: RandomState = None) -> "MPSState":
        """Measure-and-flip reset of one qubit to ``|0⟩``."""
        if self.measure(qubit, rng):
            self.apply_matrix(np.array([[0, 1], [1, 0]], dtype=complex), [qubit])
        return self

    def sample(
        self,
        shots: int,
        rng: RandomState = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Draw *shots* basis-state samples without collapsing.

        At or below the dense limit the chain is contracted exactly and
        sampled through :meth:`StateVector.sample` — identical outcome
        CDF and RNG stream as the dense engine, which is what makes
        seeded MPS counts bit-comparable at small widths.  Beyond it,
        the left-to-right conditional-marginal sweep draws one uniform
        batch per site (``n × shots`` draws) and costs ``O(n · chi²)``
        per shot without ever materializing ``2^n`` amplitudes.
        """
        r = as_rng(rng)
        self._warn_if_truncated()
        if self.num_qubits <= DENSE_QUBIT_LIMIT:
            return self.to_statevector().sample(shots, r, qubits=qubits)
        self.canonicalize_to(0)
        shots = int(shots)
        bits = np.empty((shots, self.num_qubits), dtype=np.uint8)
        env = np.ones((shots, 1), dtype=complex)
        for site, tensor in enumerate(self.tensors):
            v0 = env @ tensor[:, 0, :]  # (shots, D_r)
            v1 = env @ tensor[:, 1, :]
            p0 = np.einsum("sd,sd->s", v0.conj(), v0).real
            p1 = np.einsum("sd,sd->s", v1.conj(), v1).real
            prob_one = p1 / (p0 + p1)
            chosen = (r.random(shots) < prob_one).astype(np.uint8)
            bits[:, site] = chosen
            pick = chosen.astype(bool)[:, None]
            env = np.where(pick, v1, v0)
            # Normalize per shot so conditionals stay conditionals.
            env /= np.sqrt(np.where(pick[:, 0], p1, p0))[:, None]
        if qubits is None:
            return bits
        return bits[:, np.asarray(list(qubits), dtype=np.int64)]

    def _warn_if_truncated(self) -> None:
        """Warn (once per state lineage) before sampling a state whose
        cumulative truncation loss exceeds both the configured budget
        and :data:`TRUNCATION_WARNING_THRESHOLD` — the counts about to
        be drawn are approximate, which matters most when the router
        (not the caller) chose this backend."""
        budget = max(self.truncation_threshold, TRUNCATION_WARNING_THRESHOLD)
        if self._truncation_warned or self.truncation_error <= budget:
            return
        self._truncation_warned = True
        # Stable text (no interpolated loss value) so the default
        # warning filter collapses repeats across trajectory groups;
        # the exact loss is on MPSEngine.truncation_error.
        warnings.warn(
            f"sampling a truncated MPS (chi={self.chi}): bond truncation "
            "discarded nonzero weight, so counts are approximate; raise "
            "chi via engine_mode('mps', chi=...) for an exact run",
            UserWarning,
            stacklevel=3,
        )

    # -- observables / conversion ----------------------------------------------

    def expectation_pauli(self, pauli: str, qubits: Sequence[int]) -> float:
        """``⟨ψ| P |ψ⟩`` via the local transfer-matrix sweep.

        With the center inside the Pauli string's site span, the left
        and right environments are exact identities, so only the spanned
        sites are contracted — ``O(span · chi³)``, independent of *n*.
        """
        if len(pauli) != len(qubits):
            raise SimulationError("pauli string and qubit list lengths differ")
        ops: Dict[int, np.ndarray] = {}
        for label, q in zip(pauli.upper(), qubits):
            if label == "I":
                continue
            if label not in _PAULI_2x2:
                raise SimulationError(f"unknown Pauli label {label!r}")
            ops[self._check_qubit(q)] = _PAULI_2x2[label]
        if not ops:
            return 1.0
        a, b = min(ops), max(ops)
        if self.center < a:
            self.canonicalize_to(a)
        elif self.center > b:
            self.canonicalize_to(b)
        env: Optional[np.ndarray] = None
        for site in range(a, b + 1):
            t = self.tensors[site]
            op = ops.get(site)
            ts = t if op is None else np.einsum("st,ltr->lsr", op, t)
            if env is None:
                env = np.einsum("lsr,lsq->rq", t.conj(), ts)
            else:
                env = np.einsum("xy,xsr,ysq->rq", env, t.conj(), ts)
        return float(np.real(np.trace(env)))

    def to_statevector(self) -> StateVector:
        """Contract the chain into a dense :class:`StateVector`
        (little-endian; raises beyond the dense qubit limit)."""
        if self.num_qubits > DENSE_QUBIT_LIMIT:
            raise SimulationError(
                f"cannot densify a {self.num_qubits}-qubit MPS: the dense "
                f"engine caps at {DENSE_QUBIT_LIMIT} qubits"
            )
        psi = np.ones((1, 1), dtype=complex)
        for tensor in self.tensors:
            # index grows little-endian: new_idx = s · 2^site + old_idx
            psi = np.einsum("il,lsr->sir", psi, tensor).reshape(
                2 * psi.shape[0], tensor.shape[2]
            )
        return StateVector(self.num_qubits, data=psi.reshape(-1))

    def __repr__(self) -> str:
        return (
            f"<MPSState {self.num_qubits} qubits, chi {self.chi}, "
            f"max bond {self.max_bond_dimension}, "
            f"trunc {self.truncation_error:.3g}>"
        )


_PAULI_2x2: Dict[str, np.ndarray] = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@register_engine
class MPSEngine(ExecutionEngine):
    """Bounded-bond tensor-network backend (any gate, low entanglement).

    Takes ``chi`` and ``truncation_threshold`` from its
    :class:`~repro.simulator.config.ExecutionConfig`
    (``engine_mode("mps", chi=..., truncation_threshold=...)`` sets
    them), and forks keep them, so every trajectory of one sampling
    request shares one truncation contract.
    """

    name = "mps"

    #: From the plan this backend reads the precomputed SWAP-route table
    #: for non-adjacent 2q gates (identical paths to the on-the-fly
    #: shortest-path computation, so arithmetic is unchanged).
    plan_artifacts = ("swap_routes",)

    @classmethod
    def estimate_peak_bytes(cls, circuit: QuantumCircuit, config) -> int:
        # Every site tensor is at most (chi, 2, chi) complex128; the
        # two-site contraction scratch and the trajectory fork together
        # roughly double that, hence the factor 2.
        chi = config.chi
        return 2 * circuit.num_qubits * (2 * chi * chi * 16)

    def prepare(self, circuit: QuantumCircuit) -> None:
        with _tracing.span(
            "engine.prepare", engine=self.name, qubits=circuit.num_qubits
        ):
            self._state = MPSState(
                circuit.num_qubits,
                chi=self.config.chi,
                truncation_threshold=self.config.truncation_threshold,
            )

    def bind_plan(self, plan) -> None:
        super().bind_plan(plan)
        self._state.routes = plan.swap_routes if plan is not None else None

    def fork(self) -> "MPSEngine":
        # type(self), not MPSEngine: subclassed backends must survive
        # the trajectory fork.
        cls = type(self)
        dup = cls.__new__(cls)
        dup.config = self.config
        dup.circuit = self.circuit
        dup._state = self._state.copy()
        dup._plan = self._plan
        return dup

    @property
    def chi(self) -> int:
        """The bond-dimension cap this trajectory runs under."""
        return self._state.chi

    @property
    def truncation_error(self) -> float:
        """Cumulative relative weight discarded by bond truncation."""
        return self._state.truncation_error

    @property
    def max_bond_dimension(self) -> int:
        """Largest bond dimension the state currently carries."""
        return self._state.max_bond_dimension

    def advance(self, ops: Sequence[Instruction]) -> None:
        state = self._state
        with _tracing.span("engine.mps_window", ops=len(ops)) as rec:
            for inst in ops:
                if inst.name in UNITARY_NOOPS:
                    continue
                state.apply_matrix(inst.matrix(), inst.qubits)
            rec.set(
                max_bond=state.max_bond_dimension,
                truncation_error=state.truncation_error,
            )
        _tracing.note_max("max_bond_dimension", state.max_bond_dimension)
        _tracing.note_max("truncation_error", state.truncation_error)

    def inject(
        self, instruction: Instruction, error: QuantumError, term_index: int
    ) -> bool:
        return inject_into_dense(self._state, instruction, error, term_index)

    def sample(
        self,
        shots: int,
        rng: np.random.Generator,
        qubits: Optional[Sequence[int]] = None,
        *,
        shares_structure: bool = True,
    ) -> np.ndarray:
        return self._state.sample(shots, rng, qubits=qubits)

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        return self._state.measure(qubit, rng)

    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        self._state.reset(qubit, rng)

    def to_dense(self) -> StateVector:
        return self._state.to_statevector()

    def expectation(self, hamiltonian) -> float:
        from repro.hybrid.observables import expectation_mps

        return expectation_mps(hamiltonian, self._state)


def simulate_mps(
    circuit: QuantumCircuit,
    *,
    chi: Optional[int] = None,
    truncation_threshold: Optional[float] = None,
    rng: RandomState = None,
) -> MPSState:
    """Run *circuit*'s unitary part on an MPS, returning the final state.

    The MPS counterpart of ``simulate_statevector``: measurements are
    skipped, resets collapse stochastically using *rng*, barriers and
    delays are no-ops.
    """
    state = MPSState(
        circuit.num_qubits, chi=chi, truncation_threshold=truncation_threshold
    )
    r = as_rng(rng)
    for inst in circuit:
        if inst.name in UNITARY_NOOPS:
            continue
        if inst.name == "reset":
            state.reset(inst.qubits[0], r)
            continue
        state.apply_matrix(inst.matrix(), inst.qubits)
    return state


__all__ = [
    "MPSState",
    "MPSEngine",
    "simulate_mps",
    "is_line_like",
    "TRUNCATION_WARNING_THRESHOLD",
    "LINE_RANGE",
]
