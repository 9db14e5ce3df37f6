import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bell, ghz, random_product_state, random_state
from mpsprep import circuit, mps, sim
from mpsprep.errors import CorruptMps, NotCanonical, NotUnitary


class TestGateOp:
    def test_identity_accepted(self):
        op = circuit.GateOp(start_qubit=1, width=2, matrix=np.eye(4))
        assert op.last_qubit == 2

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            circuit.GateOp(start_qubit=1, width=1, matrix=np.array([[1, 0], [0, 2]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(NotUnitary):
            circuit.GateOp(start_qubit=1, width=2, matrix=np.eye(2))


class TestWidths:
    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=11))
    @settings(max_examples=60, deadline=None)
    def test_width_formula_and_chain(self, raw_dims):
        # clamp an arbitrary dim list into a valid bond profile
        q = len(raw_dims) + 1
        dims = []
        prev = 1
        for n, d in enumerate(raw_dims, start=1):
            cap = min(2 * prev, 2**n, 2 ** (q - n))
            dims.append(max(1, min(d, cap)))
            prev = dims[-1]
        for n in range(len(dims) - 1, 0, -1):
            if dims[n - 1] > 2 * dims[n]:
                dims[n - 1] = 2 * dims[n]
        chain = [1] + dims + [1]
        cores = tuple(
            np.zeros((chain[k], 2, chain[k + 1])) for k in range(q)
        )
        state = mps.MpsState(cores=cores, right_canonical=False)
        widths = circuit.gate_widths(state)
        assert len(widths) == q
        assert widths[-1] == 1
        for n, d in enumerate(dims, start=1):
            assert widths[n - 1] == 1 + math.ceil(math.log2(d))
            assert n + widths[n - 1] - 1 <= q
        for n in range(1, q):
            assert widths[n - 1] - 1 <= widths[n]

    def test_gate_widths_product_state(self, rng):
        state = mps.decompose(random_product_state(5, rng))
        assert circuit.gate_widths(state) == [1, 1, 1, 1, 1]

    def test_gate_widths_ghz(self):
        state = mps.decompose(ghz(4))
        assert circuit.gate_widths(state) == [2, 2, 2, 1]


class TestSynthesize:
    def test_exact_preparation(self, rng):
        for q in (2, 3, 5, 7):
            target = random_state(q, rng)
            circ = circuit.synthesize(mps.decompose(target))
            assert sim.verify(circ, target) == pytest.approx(1.0, abs=1e-11)

    def test_gate_order_and_spans(self, rng):
        state = mps.decompose(random_state(6, rng))
        circ = circuit.synthesize(state)
        widths = circuit.gate_widths(state)
        assert len(circ.gates) == 6
        for n, gate in enumerate(circ.gates, start=1):
            assert gate.start_qubit == n
            assert gate.width == widths[n - 1]

    def test_first_column_holds_core(self, rng):
        state = mps.decompose(random_state(4, rng))
        gate = circuit.synthesize(state).gates[0]
        core = state.cores[0]
        col = gate.matrix[:, 0]
        assert np.allclose(col[: core.shape[2] * 2], core[0].T.reshape(-1))
        assert np.allclose(col[core.shape[2] * 2 :], 0.0)

    def test_not_canonical_rejected(self, rng):
        state = mps.decompose(random_state(3, rng))
        cores = list(state.cores)
        cores[1] = 1.5 * cores[1]
        broken = mps.MpsState(cores=tuple(cores), right_canonical=False)
        with pytest.raises(NotCanonical):
            circuit.synthesize(broken)

    def test_deterministic(self, rng):
        state = mps.decompose(random_state(5, rng))
        a = circuit.synthesize(state)
        b = circuit.synthesize(state)
        for ga, gb in zip(a.gates, b.gates):
            assert np.array_equal(ga.matrix, gb.matrix)

    def test_truncated_state_fidelity_matches_mps(self, rng):
        target = random_state(6, rng)
        state = mps.decompose(target)
        for _ in range(4):
            step = mps.next_truncation(state)
            state = mps.apply_truncation(state, step)
        circ = circuit.synthesize(state)
        want = mps.fidelity(mps.reconstruct(state), target)
        assert sim.verify(circ, target) == pytest.approx(want, abs=1e-10)


class TestCostModel:
    def test_policy_values(self):
        assert circuit.generic_unitary_cost(1) == 0
        assert circuit.generic_unitary_cost(2) == 3
        assert circuit.generic_unitary_cost(3) == 20
        assert circuit.generic_unitary_cost(4) == 100

    def test_leading_order_growth(self):
        for d in range(3, 9):
            exact = (23 / 48) * 4**d - 1.5 * 2**d + 4 / 3
            assert circuit.generic_unitary_cost(d) == math.ceil(exact)

    def test_product_state_costs_nothing(self, rng):
        circ = circuit.synthesize(mps.decompose(random_product_state(6, rng)))
        assert circuit.entangling_cost(circ) == 0

    def test_ghz_cost(self):
        circ = circuit.synthesize(mps.decompose(ghz(4)))
        # three two-qubit gates plus one single-qubit gate
        assert circuit.entangling_cost(circ) == 9

    def test_custom_cost_fn(self):
        circ = circuit.synthesize(mps.decompose(ghz(3)))
        assert circuit.entangling_cost(circ, cost_fn=lambda d: d) == 5

    def test_isometry_reference(self):
        assert circuit.isometry_reference_cost(8) == 256
        assert circuit.isometry_reference_cost(1) == 2


class TestCircuitProperties:
    def test_width_histogram(self, rng):
        circ = circuit.synthesize(mps.decompose(random_state(6, rng)))
        hist = circ.width_histogram
        assert sum(hist.values()) == len(circ.gates)
        assert set(hist) == {g.width for g in circ.gates}

    def test_depth_counts_overlap(self):
        gates = (
            circuit.GateOp(2, 2, np.eye(4)),
            circuit.GateOp(1, 2, np.eye(4)),
        )
        circ = circuit.Circuit(num_qubits=3, gates=gates)
        assert circ.depth_estimate == 2

    def test_depth_parallel_gates(self):
        gates = (
            circuit.GateOp(3, 2, np.eye(4)),
            circuit.GateOp(1, 2, np.eye(4)),
        )
        circ = circuit.Circuit(num_qubits=4, gates=gates)
        assert circ.depth_estimate == 1

    def test_sequential_layer_depth(self, rng):
        circ = circuit.synthesize(mps.decompose(random_state(6, rng)))
        # every adjacent pair of gates shares a qubit, so the staircase
        # cannot be compressed
        assert circ.depth_estimate == len(
            [g for g in circ.gates]
        ) - sum(
            1
            for a, b in zip(circ.gates, circ.gates[1:])
            if a.start_qubit > b.last_qubit or b.start_qubit > a.last_qubit
        )


class TestCappedBaseline:
    def test_ghz_exact(self):
        target = ghz(4)
        circ = circuit.capped_baseline(target)
        assert all(g.width <= 2 for g in circ.gates)
        assert sim.verify(circ, target) == pytest.approx(1.0, abs=1e-11)

    def test_generic_state_capped(self, rng):
        target = random_state(6, rng)
        circ = circuit.capped_baseline(target)
        assert all(g.width <= 2 for g in circ.gates)
        assert sim.verify(circ, target) < 1.0


class TestSerialization:
    def test_roundtrip(self, rng):
        target = random_state(5, rng)
        circ = circuit.synthesize(mps.decompose(target))
        obj = json.loads(json.dumps(circuit.circuit_to_obj(circ)))
        back = circuit.circuit_from_obj(obj)
        assert back.num_qubits == circ.num_qubits
        assert len(back.gates) == len(circ.gates)
        for ga, gb in zip(back.gates, circ.gates):
            assert ga.start_qubit == gb.start_qubit
            assert np.array_equal(ga.matrix, gb.matrix)
        assert sim.verify(back, target) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda g: g.pop("width"),
            lambda g: g.pop("matrix"),
            lambda g: g["matrix"].pop(),  # one pair short
            lambda g: g.update(matrix=[["a", 0]] * len(g["matrix"])),
            lambda g: g.update(width=-1),
        ],
    )
    def test_malformed_gate_rejected(self, edit):
        obj = json.loads(json.dumps(circuit.circuit_to_obj(circuit.synthesize(
            mps.decompose(bell())))))
        edit(obj["gates"][0])
        with pytest.raises(CorruptMps):
            circuit.circuit_from_obj(obj)

    def test_bell_json(self):
        circ = circuit.synthesize(mps.decompose(bell()))
        obj = circuit.circuit_to_obj(circ)
        assert obj["num_qubits"] == 2
        assert obj["gates"][0]["width"] in (1, 2)
