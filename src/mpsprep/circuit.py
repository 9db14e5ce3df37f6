"""Synthesis of one layer of sequential variable-width gates from a
right-canonical MPS, plus circuit metrics.

Gate index mapping (single source of truth, shared with :mod:`mpsprep.sim`):
a gate starting at qubit n with width d acts on qubits n .. n+d-1, and
qubit n is the *least significant* bit of the gate's local basis index.
On the input side the local index is the integer carried by the left bond
of the matching core, with the fresh |0> qubits as the most significant
bits.  On the output side the local index is (right bond index) * 2 +
(physical index), i.e. the new physical bit lands on qubit n and the right
bond value moves one qubit up the chain, where the next gate reads it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg, mps as mpslib
from .errors import CorruptMps, DimensionMismatch, NotCanonical, NotUnitary, SpanError

UNITARY_TOL = 1e-10

#: Widths above this trigger a size warning during synthesis (dense 2^d x 2^d
#: matrices get expensive quickly).
WIDE_GATE_WARN = 10

CIRCUIT_SCHEMA = "mpsprep-circuit/1"

SYNTHESIS_TOL = 1e-8


@dataclass(frozen=True)
class GateOp:
    """A 2^width x 2^width unitary on the contiguous span starting at start_qubit."""

    start_qubit: int
    width: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if self.width < 1 or self.start_qubit < 1:
            raise SpanError(f"bad gate placement ({self.start_qubit}, {self.width})")
        dim = 2**self.width
        if m.shape != (dim, dim):
            raise NotUnitary(f"matrix shape {m.shape} does not match width {self.width}")
        if np.max(np.abs(m.conj().T @ m - np.eye(dim))) > UNITARY_TOL:
            raise NotUnitary(f"gate at qubit {self.start_qubit} is not unitary")

    @property
    def last_qubit(self) -> int:
        return self.start_qubit + self.width - 1


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; gates[0] is applied first."""

    num_qubits: int
    gates: tuple[GateOp, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise DimensionMismatch(f"register of {self.num_qubits} qubits, need >= 1")
        for g in self.gates:
            if g.last_qubit > self.num_qubits:
                raise SpanError(
                    f"gate [{g.start_qubit}, {g.last_qubit}] exceeds register "
                    f"of {self.num_qubits} qubits"
                )

    @property
    def width_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for g in self.gates:
            hist[g.width] = hist.get(g.width, 0) + 1
        return dict(sorted(hist.items()))

    @property
    def depth_estimate(self) -> int:
        """Greedy packing of gates into layers of disjoint spans."""
        busy = [0] * (self.num_qubits + 1)
        depth = 0
        for g in self.gates:
            layer = 1 + max(busy[g.start_qubit : g.last_qubit + 1], default=0)
            for q in range(g.start_qubit, g.last_qubit + 1):
                busy[q] = layer
            depth = max(depth, layer)
        return depth

    @property
    def entangling_cost_estimate(self) -> int:
        return entangling_cost(self)


def generic_unitary_cost(width: int) -> int:
    """Two-qubit-gate count proxy for one dense gate of the given width.

    Leading-order count for a generic unitary; a reporting policy, not a
    transpiler output.
    """
    if width <= 1:
        return 0
    if width == 2:
        return 3
    return math.ceil((23 / 48) * 4**width - 1.5 * 2**width + 4 / 3)


COST_POLICY_NAME = "generic-unitary-leading-order"


def entangling_cost(c: Circuit, cost_fn=generic_unitary_cost) -> int:
    """Sum of the per-gate cost policy over the circuit."""
    return sum(cost_fn(g.width) for g in c.gates)


def isometry_reference_cost(num_qubits: int) -> int:
    """Leading-order CNOT count of isometric decomposition; reporting reference."""
    return 2**num_qubits


def gate_widths(state: mpslib.MpsState) -> list[int]:
    """Per-gate qubit spans: 1 + ceil(log2 right bond dimension), last gate 1."""
    dims = state.bond_dims
    widths = [1 + math.ceil(math.log2(d)) for d in dims] + [1]
    q = state.num_qubits
    for n, d in enumerate(widths, start=1):
        if n + d - 1 > q:
            raise CorruptMps(f"gate {n} of width {d} does not fit {q} qubits")
    return widths


def synthesize(state: mpslib.MpsState) -> Circuit:
    """Embed each core into a unitary gate; gates in application order.

    Column b of gate n (for b below the left bond dimension) holds the core
    slice A[b] at rows (right bond)*2 + (physical bit), zero-padded;
    right-canonicality makes those columns orthonormal, and the remaining
    columns come from the deterministic orthonormal completion.
    """
    if not state.right_canonical or mpslib.verify_right_canonical(state) > SYNTHESIS_TOL:
        raise NotCanonical("synthesis requires a right-canonical MPS")
    widths = gate_widths(state)
    gates = []
    for n, (core, d) in enumerate(zip(state.cores, widths), start=1):
        if d > WIDE_GATE_WARN:
            warnings.warn(
                f"gate {n} spans {d} qubits ({2**d} x {2**d} dense unitary)",
                RuntimeWarning,
                stacklevel=2,
            )
        left, _, right = core.shape
        dim = 2**d
        partial = np.zeros((dim, left), dtype=complex)
        for b in range(left):
            # core[b] has shape (2, right); transposing puts the physical
            # bit in the fast position of the flattened column.
            partial[: 2 * right, b] = core[b].T.reshape(-1)
        matrix = linalg.complete_to_unitary(partial)
        gates.append(GateOp(start_qubit=n, width=d, matrix=matrix))
    return Circuit(
        num_qubits=state.num_qubits,
        gates=tuple(gates),
        metadata={"cost_policy": COST_POLICY_NAME, "source": "synthesize"},
    )


def capped_baseline(target: mpslib.AmplitudeVector) -> Circuit:
    """Single layer of at-most-2-qubit sequential gates: decompose with every
    bond capped at 2, then synthesize."""
    q = target.num_qubits
    state = mpslib.decompose(target, rank_caps=[2] * (q - 1))
    circ = synthesize(state)
    return Circuit(
        num_qubits=circ.num_qubits,
        gates=circ.gates,
        metadata={**circ.metadata, "source": "capped_baseline"},
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def circuit_to_obj(c: Circuit) -> dict:
    return {
        "schema": CIRCUIT_SCHEMA,
        "num_qubits": c.num_qubits,
        "gates": [
            {
                "start_qubit": g.start_qubit,
                "width": g.width,
                "matrix": mpslib._encode_complex(g.matrix.reshape(-1)),
            }
            for g in c.gates
        ],
        "metadata": dict(c.metadata),
    }


def circuit_from_obj(obj) -> Circuit:
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != CIRCUIT_SCHEMA:
        raise CorruptMps(f"unexpected circuit schema {schema!r}")
    try:
        gates = []
        for g in obj["gates"]:
            dim = 2 ** int(g["width"])
            matrix = mpslib._decode_complex(g["matrix"], 1).reshape(dim, dim)
            gates.append(GateOp(int(g["start_qubit"]), int(g["width"]), matrix))
        return Circuit(
            num_qubits=int(obj["num_qubits"]),
            gates=tuple(gates),
            metadata=dict(obj.get("metadata", {})),
        )
    except (LookupError, TypeError, ValueError) as exc:
        raise CorruptMps(f"malformed circuit object: {exc!r}") from exc
