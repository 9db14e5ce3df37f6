"""Exact statevector simulation of contiguous variable-width gates.

Shares the index conventions of :mod:`mpsprep.mps` (amplitude index has
j_1 as the most significant bit) and :mod:`mpsprep.circuit` (within a gate
span the start qubit is the local least significant bit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateOp
from .errors import DimensionMismatch, NotUnitary, SpanError
from .mps import AmplitudeVector, fidelity

NORM_TOL = 1e-9
GATE_UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class StateVector:
    """Dense register state; same index convention as AmplitudeVector."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != 2**self.num_qubits:
            raise DimensionMismatch(
                f"{amps.size} amplitudes do not fit {self.num_qubits} qubits"
            )
        object.__setattr__(self, "amps", amps)

    def as_amplitude_vector(self) -> AmplitudeVector:
        return AmplitudeVector(num_qubits=self.num_qubits, amps=self.amps.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def zero_state(num_qubits: int) -> StateVector:
    try:
        amps = np.zeros(2**num_qubits, dtype=complex)
    except (ValueError, MemoryError) as exc:  # beyond numpy's size limit or RAM
        raise DimensionMismatch(f"cannot allocate {num_qubits} qubits: {exc}") from exc
    amps[0] = 1.0
    return StateVector(num_qubits=num_qubits, amps=amps)


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Multiply the gate's 2^d block into the state along its qubit span."""
    q = state.num_qubits
    if gate.last_qubit > q:
        raise SpanError(
            f"gate span [{gate.start_qubit}, {gate.last_qubit}] exceeds {q} qubits"
        )
    dim = 2**gate.width
    m = gate.matrix
    if np.max(np.abs(m.conj().T @ m - np.eye(dim))) > GATE_UNITARY_TOL:
        raise NotUnitary(f"gate at qubit {gate.start_qubit} is not unitary")

    tensor = state.amps.reshape((2,) * q)
    # Axis k-1 carries qubit k.  Moving the span's axes to the back in
    # descending qubit order makes the start qubit the fastest (least
    # significant) bit of the flattened local index.
    axes = [qq - 1 for qq in range(gate.last_qubit, gate.start_qubit - 1, -1)]
    tensor = np.moveaxis(tensor, axes, range(q - gate.width, q))
    block = tensor.reshape(-1, dim)
    block = block @ m.T
    tensor = block.reshape((2,) * q)
    tensor = np.moveaxis(tensor, range(q - gate.width, q), axes)
    out = StateVector(num_qubits=q, amps=tensor.reshape(-1))
    norm = np.linalg.norm(out.amps)
    if abs(norm - 1.0) > NORM_TOL:
        raise NotUnitary(f"norm drifted to {norm!r} after gate application")
    return out


def run(circuit: Circuit) -> StateVector:
    """Apply all gates in order to |0...0>."""
    state = zero_state(circuit.num_qubits)
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def verify(circuit: Circuit, target: AmplitudeVector) -> float:
    """Simulated fidelity of the circuit's output against a target state."""
    if circuit.num_qubits != target.num_qubits:
        raise DimensionMismatch(
            f"circuit has {circuit.num_qubits} qubits, target {target.num_qubits}"
        )
    return fidelity(run(circuit).as_amplitude_vector(), target)
