"""Tests for the QuantumCircuit IR."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, bell_circuit, ghz_circuit, random_circuit
from repro.circuits.circuit import Instruction
from repro.circuits.parameters import Parameter
from repro.errors import CircuitError, GateError
from repro.simulator.statevector import circuit_unitary
from tests.conftest import assert_close_up_to_phase


class TestConstruction:
    def test_needs_positive_qubits(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_default_clbits_match_qubits(self):
        assert QuantumCircuit(5).num_clbits == 5

    def test_chaining(self):
        qc = QuantumCircuit(2)
        assert qc.h(0).cx(0, 1) is qc
        assert len(qc) == 2

    def test_append_validates_qubit_range(self):
        qc = QuantumCircuit(2)
        with pytest.raises(IndexError):
            qc.h(2)

    def test_append_validates_arity(self):
        qc = QuantumCircuit(2)
        with pytest.raises(GateError):
            qc.append("cx", [0])

    def test_duplicate_operands_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            qc.cx(1, 1)

    def test_measure_default_clbit(self):
        qc = QuantumCircuit(3)
        qc.measure(2)
        assert qc[0].clbits == (2,)

    def test_measure_explicit_clbit(self):
        qc = QuantumCircuit(3)
        qc.measure(0, 2)
        assert qc[0].clbits == (2,)

    def test_barrier_default_all(self):
        qc = QuantumCircuit(3)
        qc.barrier()
        assert qc[0].qubits == (0, 1, 2)

    def test_barrier_subset(self):
        qc = QuantumCircuit(3)
        qc.barrier(0, 2)
        assert qc[0].qubits == (0, 2)

    def test_every_gate_method(self):
        qc = QuantumCircuit(3)
        qc.id(0).x(0).y(0).z(0).h(0).s(0).sdg(0).t(0).tdg(0).sx(0)
        qc.rx(0.1, 0).ry(0.2, 0).rz(0.3, 0).prx(0.4, 0.5, 0)
        qc.u(0.1, 0.2, 0.3, 0).p(0.4, 0)
        qc.cz(0, 1).cx(0, 1).swap(0, 1).iswap(0, 1).cp(0.5, 0, 1).rzz(0.6, 1, 2)
        qc.delay(1e-6, 0).reset(2)
        assert len(qc) == 24


class TestAnalysis:
    def test_depth_ghz(self):
        # h, cx, cx + measure layer on the last-touched chain
        qc = ghz_circuit(3, measure=False)
        assert qc.depth() == 3

    def test_depth_parallel_gates(self):
        qc = QuantumCircuit(4)
        qc.h(0).h(1).h(2).h(3)
        assert qc.depth() == 1

    def test_depth_barrier_synchronizes(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.barrier()
        qc.h(1)
        assert qc.depth() == 2

    def test_count_ops(self):
        qc = ghz_circuit(4)
        ops = qc.count_ops()
        assert ops == {"h": 1, "cx": 3, "measure": 4}

    def test_num_two_qubit_gates(self):
        assert ghz_circuit(5).num_two_qubit_gates() == 4

    def test_interactions(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1).cx(1, 0).cz(1, 2)
        assert qc.interactions() == {(0, 1): 2, (1, 2): 1}

    def test_qubits_used(self):
        qc = QuantumCircuit(5)
        qc.h(1).cx(1, 3)
        assert qc.qubits_used() == frozenset({1, 3})

    def test_has_measurements(self):
        assert ghz_circuit(2).has_measurements()
        assert not ghz_circuit(2, measure=False).has_measurements()

    def test_is_native(self):
        qc = QuantumCircuit(2)
        qc.prx(0.1, 0.2, 0).cz(0, 1).measure_all()
        assert qc.is_native()
        qc2 = QuantumCircuit(2)
        qc2.h(0)
        assert not qc2.is_native()

    def test_draw_contains_lanes(self):
        art = ghz_circuit(3).draw()
        assert "q 0" in art and "cx:0" in art


class TestCompose:
    def test_compose_identity_map(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        a.compose(b)
        assert [i.name for i in a] == ["h", "cx"]

    def test_compose_with_mapping(self):
        a = QuantumCircuit(3)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        a.compose(b, {0: 2, 1: 0})
        assert a[0].qubits == (2, 0)

    def test_compose_rejects_out_of_range(self):
        a = QuantumCircuit(2)
        b = QuantumCircuit(2)
        b.h(0)
        with pytest.raises(IndexError):
            a.compose(b, {0: 5, 1: 1})

    def test_copy_independent(self):
        a = ghz_circuit(2)
        b = a.copy()
        b.x(0)
        assert len(b) == len(a) + 1


class TestInverse:
    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_unitary(self, seed):
        qc = random_circuit(3, 12, seed=seed, measure=False)
        qc.cp(0.7, 0, 1).rzz(0.3, 1, 2).iswap(0, 2).prx(0.5, 0.3, 0)
        inv = qc.inverse()
        u = circuit_unitary(qc)
        u_inv = circuit_unitary(inv)
        assert_close_up_to_phase(u_inv @ u, np.eye(8, dtype=complex))

    def test_inverse_rejects_measurements(self):
        with pytest.raises(CircuitError):
            ghz_circuit(2).inverse()


class TestParameterized:
    def test_parameters_collected_sorted(self):
        qc = QuantumCircuit(1)
        b, a = Parameter("b"), Parameter("a")
        qc.rx(b, 0).ry(a, 0)
        assert [p.name for p in qc.parameters] == ["a", "b"]

    def test_bind_produces_numeric(self):
        qc = QuantumCircuit(1)
        p = Parameter("p")
        qc.rx(p, 0)
        bound = qc.bind({p: 0.5})
        assert not bound.parameters
        assert bound[0].params == (0.5,)

    def test_bind_values_positional(self):
        qc = QuantumCircuit(1)
        a, b = Parameter("a"), Parameter("b")
        qc.rx(a, 0).ry(b, 0)
        bound = qc.bind_values([0.1, 0.2])
        assert bound[0].params == (0.1,)

    def test_bind_values_wrong_length(self):
        qc = QuantumCircuit(1)
        qc.rx(Parameter("a"), 0)
        with pytest.raises(CircuitError):
            qc.bind_values([0.1, 0.2])

    def test_expression_parameter_binding(self):
        qc = QuantumCircuit(1)
        p = Parameter("p")
        qc.rx(2.0 * p + 1.0, 0)
        bound = qc.bind({p: 0.5})
        assert bound[0].params == (2.0,)

    def test_original_unchanged_after_bind(self):
        qc = QuantumCircuit(1)
        p = Parameter("p")
        qc.rx(p, 0)
        qc.bind({p: 1.0})
        assert qc.parameters == (p,)


class TestStockCircuits:
    def test_ghz_structure(self):
        qc = ghz_circuit(4)
        assert qc.count_ops()["cx"] == 3
        assert qc.num_qubits == 4

    def test_bell(self):
        qc = bell_circuit()
        assert qc.num_qubits == 2
        assert qc.has_measurements()

    def test_random_circuit_reproducible(self):
        a = random_circuit(4, 20, seed=9)
        b = random_circuit(4, 20, seed=9)
        assert a.instructions == b.instructions

    def test_random_circuit_depth_scales(self):
        qc = random_circuit(4, 30, seed=1, measure=False)
        assert len(qc) == 30


class TestInstruction:
    def test_remapped(self):
        inst = Instruction("cx", (0, 1))
        assert inst.remapped({0: 5, 1: 2}).qubits == (5, 2)

    def test_matrix_requires_bound(self):
        from repro.errors import ParameterError

        inst = Instruction("rx", (0,), (Parameter("p"),))
        with pytest.raises(ParameterError):
            inst.matrix()

    def test_repr_forms(self):
        assert "cx" in repr(Instruction("cx", (0, 1)))
        assert "->" in repr(Instruction("measure", (0,), clbits=(0,)))

    def test_pickles_after_tableau_replay(self):
        """Replay memoizes compiled closures on each instruction; pickling
        keeps the fields only, so a circuit stays serializable after any
        engine has run it."""
        import pickle

        from helpers.parity import engine_route
        from repro.simulator import sample_counts

        qc = ghz_circuit(5)
        with engine_route("tableau"):
            before = sample_counts(qc, 64, rng=3).to_dict()
        copy = pickle.loads(pickle.dumps(qc))
        assert copy.instructions == qc.instructions
        with engine_route("tableau"):
            assert sample_counts(copy, 64, rng=3).to_dict() == before
