import numpy as np
import pytest

from conftest import bell, ghz, random_product_state, random_state
from mpsprep import circuit, mps, sim
from mpsprep.errors import DimensionMismatch, NotUnitary, SpanError


def hadamard():
    return np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def cnot():
    # control on the span's start qubit, which apply_gate treats as the
    # local least significant bit
    m = np.eye(4)
    m[[1, 3]] = m[[3, 1]]
    return m


class TestStateVector:
    def test_zero_state(self):
        state = sim.zero_state(3)
        assert state.amps[0] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_probabilities(self):
        state = sim.zero_state(2)
        assert np.allclose(state.probabilities(), [1, 0, 0, 0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            sim.StateVector(2, np.array([1.0, 0.0]))

    def test_unallocatable_register_rejected(self):
        # numpy refuses 2**64 entries before allocating anything
        with pytest.raises(DimensionMismatch):
            sim.zero_state(64)


class TestApplyGate:
    def test_hadamard_on_first_qubit(self):
        gate = circuit.GateOp(1, 1, hadamard())
        out = sim.apply_gate(sim.zero_state(2), gate)
        assert np.allclose(out.amps, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])

    def test_hadamard_on_last_qubit(self):
        gate = circuit.GateOp(2, 1, hadamard())
        out = sim.apply_gate(sim.zero_state(2), gate)
        assert np.allclose(out.amps, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])

    def test_bell_from_h_and_cnot(self):
        state = sim.zero_state(2)
        state = sim.apply_gate(state, circuit.GateOp(1, 1, hadamard()))
        state = sim.apply_gate(state, circuit.GateOp(1, 2, cnot()))
        assert np.allclose(state.amps, bell().amps)

    def test_span_bit_order(self):
        # X on the low qubit of a 2-qubit span embedded as I (x) X
        x = np.array([[0, 1], [1, 0]])
        gate = circuit.GateOp(2, 2, np.kron(np.eye(2), x))
        out = sim.apply_gate(sim.zero_state(3), gate)
        # qubit 2 flips: |000> -> |010>
        assert out.amps[2] == pytest.approx(1.0)

    def test_span_high_bit(self):
        x = np.array([[0, 1], [1, 0]])
        gate = circuit.GateOp(2, 2, np.kron(x, np.eye(2)))
        out = sim.apply_gate(sim.zero_state(3), gate)
        # qubit 3 flips: |000> -> |001>
        assert out.amps[1] == pytest.approx(1.0)

    def test_out_of_range_span(self):
        with pytest.raises(SpanError):
            sim.apply_gate(sim.zero_state(2), circuit.GateOp(2, 2, np.eye(4)))
        with pytest.raises(SpanError):
            sim.apply_gate(sim.zero_state(2), circuit.GateOp(0, 1, np.eye(2)))

    def test_tampered_gate_rejected(self):
        gate = circuit.GateOp(1, 1, np.eye(2))
        object.__setattr__(gate, "matrix", np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(NotUnitary):
            sim.apply_gate(sim.zero_state(1), gate)

    def test_norm_preserved(self, rng):
        state = sim.zero_state(5)
        for _ in range(10):
            start = int(rng.integers(1, 5))
            block = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u = np.linalg.qr(block)[0]
            state = sim.apply_gate(state, circuit.GateOp(start, 2, u))
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


class TestRun:
    def test_empty_circuit(self):
        circ = circuit.Circuit(num_qubits=3, gates=())
        out = sim.run(circ)
        assert np.array_equal(out.amps, sim.zero_state(3).amps)

    def test_prepares_random_targets(self, rng):
        for q in (2, 4, 6):
            target = random_state(q, rng)
            circ = circuit.synthesize(mps.decompose(target))
            out = sim.run(circ)
            fid = mps.fidelity(out.as_amplitude_vector(), target)
            assert fid == pytest.approx(1.0, abs=1e-11)

    def test_ghz(self):
        target = ghz(5)
        circ = circuit.synthesize(mps.decompose(target))
        assert sim.verify(circ, target) == pytest.approx(1.0, abs=1e-12)


class TestVerify:
    def test_product_state(self, rng):
        target = random_product_state(8, rng)
        circ = circuit.synthesize(mps.decompose(target))
        assert sim.verify(circ, target) >= 1 - 1e-10

    def test_size_mismatch(self, rng):
        circ = circuit.synthesize(mps.decompose(bell()))
        with pytest.raises(DimensionMismatch):
            sim.verify(circ, random_state(3, rng))

    def test_matches_mps_fidelity_under_truncation(self, rng):
        target = random_state(7, rng)
        state = mps.decompose(target)
        while (step := mps.next_truncation(state)) is not None:
            state = mps.apply_truncation(state, step)
            circ = circuit.synthesize(state)
            mps_fid = mps.fidelity(mps.reconstruct(state), target)
            assert abs(sim.verify(circ, target) - mps_fid) < 1e-9
