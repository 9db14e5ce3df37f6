"""Output checks that do not trust the program under test.

Circuits are parsed from their JSON files and applied to |0...0> by the
plain numpy code below, written separately from ``mpsprep.sim``.  The
Schmidt ranks of the prepared state give the bond dimensions that the gate
width rule ``width = 1 + ceil(log2 bond)`` is checked against.

Every ``check_*`` function returns ``(entangling_cost, problems)``; an op
passes when ``problems`` is empty.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: Fidelity slack for threshold checks; the program's own sweep guarantees
#: fidelity >= threshold, so only rounding may show up here.
FIDELITY_SLACK = 1e-9
#: Exact preparation must reach fidelity >= 1 - EXACT_TOL.
EXACT_TOL = 1e-9
#: Singular values below RANK_RTOL * largest count as zero.
RANK_RTOL = 1e-10
UNITARY_TOL = 1e-8


def _generic_cost(width: int) -> int:
    """Two-qubit-gate count of a generic unitary on ``width`` qubits, at
    leading order: the cost policy the program's records must follow."""
    if width <= 1:
        return 0
    if width == 2:
        return 3
    return math.ceil(23 / 48 * 4**width - 1.5 * 2**width + 4 / 3)


def load_circuit(path: Path) -> tuple[int, list[tuple[int, int, np.ndarray]]]:
    """(num_qubits, [(start_qubit, width, matrix), ...]) from a circuit file."""
    with open(path) as fh:
        obj = json.load(fh)
    if obj.get("schema") != "mpsprep-circuit/1":
        raise ValueError(f"{path.name}: unexpected schema {obj.get('schema')!r}")
    gates = []
    for g in obj["gates"]:
        dim = 2 ** int(g["width"])
        pairs = np.asarray(g["matrix"], dtype=float).reshape(dim * dim, 2)
        matrix = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(dim, dim)
        gates.append((int(g["start_qubit"]), int(g["width"]), matrix))
    return int(obj["num_qubits"]), gates


def _bit_reversal(width: int) -> np.ndarray:
    idx = np.arange(2**width)
    rev = np.zeros_like(idx)
    for b in range(width):
        rev |= ((idx >> b) & 1) << (width - 1 - b)
    return rev


def apply_circuit(num_qubits: int, gates) -> np.ndarray:
    """Statevector after applying ``gates`` in order to |0...0>.

    Amplitude index: qubit 1 is the most significant bit.  Within a gate the
    start qubit is the least significant bit of the local index, so the
    span's middle axis is bit-reversed before and after the matrix product.
    """
    psi = np.zeros(2**num_qubits, dtype=complex)
    psi[0] = 1.0
    for start, width, matrix in gates:
        rev = _bit_reversal(width)
        block = psi.reshape(2 ** (start - 1), 2**width, -1)[:, rev, :]
        out = np.empty_like(block)
        out[:, rev, :] = matrix @ block
        psi = out.reshape(-1)
    return psi


def schmidt_ranks(psi: np.ndarray, num_qubits: int) -> list[int]:
    """Schmidt rank of ``psi`` at each cut between qubits n and n+1."""
    ranks = []
    for n in range(1, num_qubits):
        s = np.linalg.svd(psi.reshape(2**n, -1), compute_uv=False)
        ranks.append(int(np.count_nonzero(s > RANK_RTOL * s[0])))
    return ranks


def mean_normalized_entropy(psi: np.ndarray, num_qubits: int) -> float:
    per_cut = []
    for n in range(1, num_qubits):
        p = np.linalg.svd(psi.reshape(2**n, -1), compute_uv=False) ** 2
        p = p[p > 0]
        per_cut.append(max(float(-np.sum(p * np.log2(p))), 0.0) / min(n, num_qubits - n))
    return float(np.mean(per_cut))


def _check_circuit(path: Path, target: np.ndarray, bonds=None):
    """Structure, unitarity and width rule of one circuit file; returns
    (prepared state, fidelity, widths, problems)."""
    q = int(round(math.log2(target.size)))
    num_qubits, gates = load_circuit(path)
    problems = []
    if num_qubits != q:
        return None, 0.0, [], [f"{path.name}: {num_qubits} qubits, target has {q}"]
    widths = [w for _, w, _ in gates]
    if [s for s, _, _ in gates] != list(range(1, q + 1)):
        problems.append(f"{path.name}: gates do not start at qubits 1..{q} in order")
    for start, width, m in gates:
        if np.max(np.abs(m.conj().T @ m - np.eye(2**width))) > UNITARY_TOL:
            problems.append(f"{path.name}: gate at qubit {start} is not unitary")
    psi = apply_circuit(q, gates)
    fid = float(abs(np.vdot(target, psi)) ** 2)
    ranks = schmidt_ranks(psi, q)
    if bonds is not None and list(bonds) != ranks:
        problems.append(f"{path.name}: bond dims {list(bonds)} != Schmidt ranks {ranks}")
    expected = [1 + math.ceil(math.log2(r)) for r in ranks] + [1]
    if widths != expected:
        problems.append(f"{path.name}: widths {widths} != 1 + ceil(log2 bond) = {expected}")
    return psi, fid, widths, problems


def _stdout_value(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


def check_sweep(target: np.ndarray, threshold: float, outdir: Path, stdouts):
    _, fid, widths, problems = _check_circuit(outdir / "circuit.json", target)
    if fid < threshold - FIDELITY_SLACK:
        problems.append(f"fidelity {fid:.12g} below threshold {threshold}")
    with open(outdir / "circuit.json.record.json") as fh:
        record = json.load(fh)
    cost = int(record["entangling_cost"])
    if cost != sum(_generic_cost(w) for w in widths):
        problems.append(f"record cost {cost} does not match gate widths {widths}")
    if abs(record["achieved_fidelity"] - fid) > 1e-8:
        problems.append(f"record fidelity {record['achieved_fidelity']} != simulated {fid:.12g}")
    return cost, problems


def check_prepare(target: np.ndarray, outdir: Path, stdouts):
    decompose_out, synthesize_out, simulate_out = stdouts
    bonds = json.loads(_stdout_value(decompose_out, "bond_dims") or "null")
    psi, fid, widths, problems = _check_circuit(outdir / "circuit.json", target, bonds)
    if psi is None:
        return -1, problems
    if fid < 1.0 - EXACT_TOL:
        problems.append(f"exact preparation reached fidelity {fid:.12g}")
    reported = float(_stdout_value(simulate_out, "fidelity") or "nan")
    if not reported >= 1.0 - EXACT_TOL:
        problems.append(f"simulate reported fidelity {reported}")
    probs = np.loadtxt(outdir / "probs.csv", delimiter=",", skiprows=1, ndmin=2)
    expected = np.abs(psi) ** 2
    if probs.shape != (expected.size, 2) or np.max(np.abs(probs[:, 1] - expected)) > 1e-9:
        problems.append("probabilities in probs.csv do not match the circuit")
    cost = int(_stdout_value(synthesize_out, "entangling_cost") or -1)
    if cost != sum(_generic_cost(w) for w in widths):
        problems.append(f"synthesize cost {cost} does not match gate widths {widths}")
    return cost, problems


def sparse_state(spec) -> np.ndarray:
    """The target of a ``sparse_random`` spec: ceil((1 - sparsity) 2^Q)
    uniform (0, 1] amplitudes at distinct seeded positions, normalized."""
    n = 2**spec.num_qubits
    rng = np.random.default_rng(int(spec.params["seed"]))
    nnz = max(math.ceil((1 - float(spec.params["sparsity"])) * n), 1)
    positions = rng.choice(n, size=nnz, replace=False)
    amps = np.zeros(n)
    amps[positions] = 1.0 - rng.random(nnz)
    return amps / np.linalg.norm(amps)


def check_bench(specs, thresholds, outdir: Path, stdouts):
    """Rows of one sparse ``bench`` table.  The table holds no circuits, so
    fidelities are the program's; entropies are recomputed here."""
    with open(outdir / "table.csv") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    problems = []
    if len(rows) != 3 * len(specs) * len(thresholds):
        problems.append(f"{len(rows)} rows for {len(specs)} specs x {len(thresholds)} thresholds")
    by_seed = {spec.params["seed"]: spec for spec in specs}
    entropy = {}
    cost = 0
    for row in rows:
        seed = int(dict(kv.split("=") for kv in row["params"].split(";"))["seed"])
        spec = by_seed.get(seed)
        if spec is None:
            problems.append(f"row for unknown spec seed {seed}")
            continue
        q = spec.num_qubits
        if seed not in entropy:
            entropy[seed] = mean_normalized_entropy(sparse_state(spec), q)
        if abs(float(row["entropy"]) - entropy[seed]) > 1e-7:
            problems.append(f"seed {seed}: entropy {row['entropy']} != {entropy[seed]:.9g}")
        t, fid = float(row["threshold"]), float(row["achieved_fidelity"])
        hist = {int(w): int(c) for w, c in
                (kv.split(":") for kv in row["width_histogram"].split())}
        row_cost = int(row["entangling_cost"])
        method = row["method"]
        if method == "isometry_ref":
            if row_cost != 2**q:
                problems.append(f"seed {seed}: isometry reference cost {row_cost}")
            continue
        if row_cost != sum(_generic_cost(w) * c for w, c in hist.items()):
            problems.append(f"seed {seed} {method}: cost {row_cost} != histogram {hist}")
        if sum(hist.values()) != q:
            problems.append(f"seed {seed} {method}: {sum(hist.values())} gates for {q} qubits")
        feasible = row["feasible"] == "true"
        if feasible and fid < t - FIDELITY_SLACK:
            problems.append(f"seed {seed} {method}: fidelity {fid} below threshold {t}")
        if method == "capped2" and max(hist) > 2:
            problems.append(f"seed {seed}: capped2 row has width {max(hist)}")
        if method == "adaptive":
            cost += row_cost
            # The Schmidt rank at any cut is at most the number of nonzeros.
            nnz = max(math.ceil((1.0 - spec.params["sparsity"]) * 2**q), 1)
            if max(hist) > 1 + math.ceil(math.log2(nnz)):
                problems.append(f"seed {seed}: width {max(hist)} exceeds the nnz={nnz} bound")
    return cost, problems
