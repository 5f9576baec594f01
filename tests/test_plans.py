"""Compiled execution plans and the cross-request plan cache.

Three contracts under test:

* the **structural hash** keys plans by circuit *shape* — gate names,
  wiring, parameter slots, per-gate diagonality — and never by numeric
  parameter values, so rebinding an ansatz hits the cache;
* the **cache** is a bounded LRU keyed by ``(structural_hash,
  options_key)``: collisions are impossible by construction, eviction
  respects the cap, and engine sub-options that change plan artifacts
  (``chi``, fusion toggles) key distinct entries;
* the **plan artifacts** each backend declares are the ones it actually
  consumes, and every planned result is bit-identical to the unplanned
  path (the fuzz suite extends this pin; here we test the memo layers
  directly).
"""

import numpy as np
import pytest

from helpers.parity import counts_under_mode, ghz_t
from repro.circuits import QuantumCircuit, ghz_circuit
from repro.circuits.parameters import Parameter, parameter_slots
from repro.circuits.serialize import structural_hash
from repro.compiler import plans
from repro.compiler.jit import JITCompiler
from repro.compiler.lowering import circuit_to_qir
from repro.qpu import Topology
from repro.simulator import engine_mode
from repro.simulator.engines import dense as dense_mod
from repro.simulator.engines import (
    BatchedDenseEngine,
    DenseEngine,
    HybridSegmentEngine,
    MPSEngine,
    TableauEngine,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    plans.plan_cache_clear()
    yield
    plans.plan_cache_clear()


def _ansatz(theta_values=None, wire=0):
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.cx(0, 1)
    if theta_values is None:
        theta = Parameter("theta")
        qc.rz(theta, wire)
    else:
        for v in theta_values:
            qc.rz(v, wire)
    qc.measure(0, 0)
    qc.measure(1, 1)
    return qc


class TestStructuralHash:
    def test_deterministic_across_rebuilds(self):
        assert structural_hash(ghz_t(5)) == structural_hash(ghz_t(5))

    def test_numeric_values_masked(self):
        a = _ansatz(theta_values=[0.5])
        b = _ansatz(theta_values=[0.7])
        assert structural_hash(a) == structural_hash(b)

    def test_gate_name_changes_hash(self):
        a = QuantumCircuit(1)
        a.s(0)
        b = QuantumCircuit(1)
        b.t(0)
        assert structural_hash(a) != structural_hash(b)

    def test_wiring_changes_hash(self):
        a = _ansatz(theta_values=[0.5], wire=0)
        b = _ansatz(theta_values=[0.5], wire=1)
        assert structural_hash(a) != structural_hash(b)

    def test_extra_gate_changes_hash(self):
        a = _ansatz(theta_values=[0.5])
        b = _ansatz(theta_values=[0.5, 0.5])
        assert structural_hash(a) != structural_hash(b)

    def test_clbit_wiring_changes_hash(self):
        a = QuantumCircuit(2, 2)
        a.h(0)
        a.measure(0, 0)
        b = QuantumCircuit(2, 2)
        b.h(0)
        b.measure(0, 1)
        assert structural_hash(a) != structural_hash(b)

    def test_register_shape_changes_hash(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(3)
        b.h(0)
        assert structural_hash(a) != structural_hash(b)

    def test_parameter_slot_sharing_distinguishes_reuse(self):
        """rz(θ),rz(θ) and rz(θ1),rz(θ2) are different *structures*:
        the first binds one value, the second two."""
        shared = QuantumCircuit(1)
        theta = Parameter("theta")
        shared.rz(theta, 0)
        shared.rz(theta, 0)
        distinct = QuantumCircuit(1)
        distinct.rz(Parameter("a"), 0)
        distinct.rz(Parameter("b"), 0)
        assert structural_hash(shared) != structural_hash(distinct)

    def test_fresh_parameter_objects_hash_identically(self):
        """Slot ids come from first-appearance order, not object
        identity — rebuilding an ansatz with new Parameter objects (the
        cross-request case) must hit the same hash."""
        a = _ansatz()
        b = _ansatz()
        assert a.parameters[0] is not b.parameters[0]
        assert structural_hash(a) == structural_hash(b)

    def test_diagonality_edge_values_key_separately(self):
        """ry(0) is diagonal where ry(0.3) is not; the per-gate
        diagonality bit keeps "same hash ⇒ same fusion partition"
        sound, at the cost of separate cache entries for such edges."""
        a = QuantumCircuit(1)
        a.ry(0.0, 0)
        b = QuantumCircuit(1)
        b.ry(0.3, 0)
        assert structural_hash(a) != structural_hash(b)

    def test_parameter_slots_first_appearance_order(self):
        x, y = Parameter("x"), Parameter("y")
        qc = QuantumCircuit(1)
        qc.rz(y, 0)
        qc.rz(x, 0)
        slots = parameter_slots(inst.params for inst in qc)
        assert slots == {y: 0, x: 1}


class TestPlanCache:
    def test_identical_structure_hits(self):
        p1 = plans.plan_for(ghz_t(4))
        p2 = plans.plan_for(ghz_t(4))
        assert p1 is p2
        info = plans.plan_cache_info()
        assert info["hits"] >= 1 and info["entries"] == 1

    def test_rebound_ansatz_hits(self):
        qc = _ansatz()
        p1 = plans.plan_for(qc.bind_values([0.4]))
        p2 = plans.plan_for(qc.bind_values([1.9]))
        assert p1 is p2

    def test_lru_eviction_under_small_cap(self, monkeypatch):
        monkeypatch.setattr(plans, "PLAN_CACHE_MAX", 2)
        circuits = [ghz_circuit(n, measure=False) for n in (2, 3, 4)]
        for qc in circuits:
            plans.plan_for(qc)
        info = plans.plan_cache_info()
        assert info["entries"] == 2
        # oldest (ghz-2) evicted; re-planning it is a miss...
        misses = info["misses"]
        plans.plan_for(circuits[0])
        assert plans.plan_cache_info()["misses"] == misses + 1
        # ...while ghz-4 (most recent of the survivors) still hits
        hits = plans.plan_cache_info()["hits"]
        plans.plan_for(circuits[2])
        assert plans.plan_cache_info()["hits"] == hits + 1

    def test_lru_order_refreshed_on_hit(self, monkeypatch):
        monkeypatch.setattr(plans, "PLAN_CACHE_MAX", 2)
        a, b, c = (ghz_circuit(n, measure=False) for n in (2, 3, 4))
        plans.plan_for(a)
        plans.plan_for(b)
        plans.plan_for(a)  # refresh a: b is now the eviction candidate
        plans.plan_for(c)
        keys = plans.plan_cache_keys()
        assert len(keys) == 2
        assert keys[0][0] == structural_hash(a)
        assert keys[1][0] == structural_hash(c)

    def test_mps_chi_options_key_separate_entries(self):
        qc = ghz_t(4)
        p_default = plans.plan_for(qc)
        with engine_mode("mps", chi=2):
            p_chi = plans.plan_for(qc)
        assert p_chi is not p_default
        # restoring the mode restores the original cache entry
        assert plans.plan_for(qc) is p_default

    def test_fusion_toggle_options_key_separate_entries(self, monkeypatch):
        qc = ghz_t(4)
        p_fused = plans.plan_for(qc)
        monkeypatch.setattr(dense_mod, "FUSE_BLOCKS", False)
        p_unfused = plans.plan_for(qc)
        assert p_unfused is not p_fused

    def test_clear_resets_entries_and_counters(self):
        plans.plan_for(ghz_t(3))
        plans.plan_cache_clear()
        assert plans.plan_cache_info() == {
            "entries": 0,
            "max_entries": plans.PLAN_CACHE_MAX,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }

    def test_eviction_counter_counts_lru_drops(self, monkeypatch):
        plans.plan_cache_clear()
        monkeypatch.setattr(plans, "PLAN_CACHE_MAX", 2)
        for n in (3, 4, 5, 6):
            plans.plan_for(ghz_t(n))
        info = plans.plan_cache_info()
        assert info["entries"] == 2
        assert info["misses"] == 4
        assert info["evictions"] == 2


class TestPlanArtifacts:
    def test_per_engine_declarations(self):
        assert DenseEngine.plan_artifacts == (
            "window_partitions",
            "diagonal_tables",
            "block_matrices",
            "block_schedules",
        )
        assert BatchedDenseEngine.plan_artifacts == DenseEngine.plan_artifacts
        assert TableauEngine.plan_artifacts == ()
        assert HybridSegmentEngine.plan_artifacts == ("clifford_boundary",)
        assert MPSEngine.plan_artifacts == ("swap_routes",)

    def test_window_items_match_unplanned_partition(self):
        qc = ghz_t(6)
        ops = list(qc)
        bound = plans.plan_for(qc).bind(tuple(ops))
        n = len(ops)
        unplanned = dense_mod.plan_diagonal_fusion(ops[:n])
        planned = bound.window_items(0, n)
        assert (planned is None) == (unplanned is None)
        if planned is not None:
            assert len(planned) == len(unplanned)
            for a, b in zip(planned, unplanned):
                if isinstance(a, tuple) and isinstance(b, tuple):
                    np.testing.assert_array_equal(a[0], b[0])
                    assert a[1] == b[1]
                else:
                    assert a is b  # raw Instruction passthrough

    def test_static_items_cached_across_bindings(self):
        """Zero-param fused tables are computed once per plan and
        shared across bindings; parameterized windows are not."""
        qc = ghz_circuit(4, measure=False)
        qc.t(0)
        qc.t(1)
        qc.t(2)
        qc.measure_all()
        ops = tuple(qc)
        plan = plans.plan_for(qc)
        b1 = plan.bind(ops)
        b2 = plan.bind(ops)
        i1 = b1.window_items(0, len(ops))
        i2 = b2.window_items(0, len(ops))
        fused_pairs = [
            (a, b)
            for a, b in zip(i1, i2)
            if isinstance(a, tuple) and isinstance(b, tuple)
        ]
        assert fused_pairs, "workload produced no fused items"
        for a, b in fused_pairs:
            assert a[0] is b[0], "static fused table rebuilt per binding"

    def test_clifford_boundary_matches_classifier(self):
        qc = ghz_t(5)
        ops = tuple(qc)
        bound = plans.plan_for(qc).bind(ops)
        from repro.circuits.dag import instruction_is_clifford

        expected = len(ops)
        for i, inst in enumerate(ops):
            if not instruction_is_clifford(inst):
                expected = i
                break
        assert bound.clifford_boundary == expected

    def test_swap_routes_match_line_topology(self):
        qc = QuantumCircuit(6, 6)
        qc.h(0)
        qc.cx(0, 4)
        qc.cx(2, 3)  # adjacent: no route needed
        qc.cx(5, 1)
        qc.measure_all()
        routes = plans.plan_for(qc).swap_routes
        topo = Topology.line(6)
        assert routes[(0, 4)] == tuple(topo.shortest_path(0, 4))
        assert routes[(1, 5)] == tuple(topo.shortest_path(1, 5))
        assert (2, 3) not in routes

    def test_fused_block_equals_gate_product(self):
        """The ≤2-qubit block matrix equals applying the member gates
        one by one to every basis state."""
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.x(1)
        qc.cx(0, 1)
        qc.h(1)
        ops = list(qc)
        matrix, qubits = dense_mod._fused_block(ops)
        assert qubits == [0, 1]
        from repro.simulator import StateVector

        for basis in range(4):
            sv = StateVector(2)
            sv._data[:] = 0
            sv._data[basis] = 1.0
            for inst in ops:
                sv.apply_matrix(inst.matrix(), inst.qubits)
            np.testing.assert_allclose(sv.data, matrix[:, basis], atol=1e-12)


class TestPlannedExecutionParity:
    """Direct planned-vs-unplanned pins (the fuzz suite broadens these
    over random circuits)."""

    @pytest.mark.parametrize("mode", ["fast", "batched", "hybrid", "mps"])
    def test_grouped_walk_counts_identical(self, mode):
        from helpers.parity import heavy_noise

        qc = ghz_t(6)
        planned = counts_under_mode(qc, mode, 7, noise=heavy_noise())
        plans.PLANS_ENABLED = False
        try:
            unplanned = counts_under_mode(qc, mode, 7, noise=heavy_noise())
        finally:
            plans.PLANS_ENABLED = True
        assert planned.to_dict() == unplanned.to_dict()

    def test_per_shot_walk_counts_identical(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(1)
        qc.cx(0, 1)
        qc.measure(1, 1)
        planned = counts_under_mode(qc, "fast", 3, shots=256)
        plans.PLANS_ENABLED = False
        try:
            unplanned = counts_under_mode(qc, "fast", 3, shots=256)
        finally:
            plans.PLANS_ENABLED = True
        assert planned.to_dict() == unplanned.to_dict()


class TestCompilerIntegration:
    def test_jit_execution_plan_returns_cached_plan(self):
        from repro.qdmi import QPUQDMIDevice
        from repro.qpu import QPUDevice

        qc = ghz_t(4)
        jit = JITCompiler(QPUQDMIDevice(QPUDevice(seed=1)))
        p1 = jit.execution_plan(qc)
        p2 = jit.execution_plan(circuit_to_qir(qc))
        assert p1 is plans.plan_for(qc)
        assert p2 is p1

    def test_structural_fingerprint_masks_values_not_wiring(self):
        a = circuit_to_qir(_ansatz(theta_values=[0.5]))
        b = circuit_to_qir(_ansatz(theta_values=[0.7]))
        c = circuit_to_qir(_ansatz(theta_values=[0.5], wire=1))
        assert a.structural_fingerprint() == b.structural_fingerprint()
        assert a.structural_fingerprint() != c.structural_fingerprint()
        assert a.fingerprint() != b.fingerprint()  # values still count here
