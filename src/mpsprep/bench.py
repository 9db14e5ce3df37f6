"""Target-state families, fidelity-threshold sweeps, and comparison tables.

The sweep follows the greedy truncation schedule: run until the fidelity to
the target would fall below the threshold, and keep the circuit from the
step before.  The schedule is computed no further than the first state
below the lowest threshold asked for.  Tables compare the adaptive
variable-width circuit against the capped-width-2 single-layer baseline and
the 2^Q entangling-gate reference cost of isometric decomposition.
"""

from __future__ import annotations

import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import circuit as circlib, mps as mpslib, sim as simlib
from .errors import InvalidSpec

KINDS = ("normal", "lognormal", "sinusoidal", "sparse_random", "dense_random", "file")

#: Default distribution parameters; recorded in every emitted record.
DEFAULTS = {
    "normal": {"std_fraction": 1 / 6},     # std = 2^Q * fraction, mean at midpoint
    "lognormal": {"shape": 0.5},           # scale = 2^(Q-2)
    "sinusoidal": {"periods": 2.0},
    "sparse_random": {"sparsity": 0.9, "seed": 0},
    "dense_random": {"seed": 0},
}


@dataclass(frozen=True)
class TargetSpec:
    """Descriptor of one benchmark target state."""

    kind: str
    num_qubits: int
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        items = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(self.params.items()))
        return f"{self.kind}/Q{self.num_qubits}" + (f"/{items}" if items else "")


@dataclass(frozen=True)
class BenchRecord:
    """One row of the comparison table."""

    spec: TargetSpec
    entropy: float
    method: str                  # adaptive | capped2 | isometry_ref
    threshold: float
    achieved_fidelity: float
    width_histogram: dict
    entangling_cost: int
    depth_estimate: int
    truncation_count: int
    feasible: bool


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def generate(spec: TargetSpec) -> mpslib.AmplitudeVector:
    """Materialize a target state; deterministic per seed."""
    if spec.kind not in KINDS:
        raise InvalidSpec(f"unknown target kind {spec.kind!r}")
    q = spec.num_qubits
    if not 2 <= q <= 20:
        raise InvalidSpec(f"num_qubits {q} outside [2, 20]")
    n = 2**q
    x = np.arange(n, dtype=float)
    p = dict(DEFAULTS.get(spec.kind, {}), **spec.params)

    if spec.kind == "normal":
        std = n * float(p["std_fraction"])
        if std <= 0:
            raise InvalidSpec("normal std must be positive")
        density = np.exp(-((x - (n - 1) / 2) ** 2) / (2 * std**2))
    elif spec.kind == "lognormal":
        shape = float(p["shape"])
        if shape <= 0:
            raise InvalidSpec("lognormal shape must be positive")
        scale = 2 ** (q - 2)
        density = np.zeros(n)
        pos = x > 0
        density[pos] = np.exp(-(np.log(x[pos] / scale) ** 2) / (2 * shape**2)) / x[pos]
    elif spec.kind == "sinusoidal":
        periods = float(p["periods"])
        if periods < 0:
            raise InvalidSpec("periods must be non-negative")
        density = 1.0 + np.sin(2 * np.pi * x * periods / n)
    elif spec.kind == "sparse_random":
        sparsity = float(p["sparsity"])
        if not 0 <= sparsity < 1:
            raise InvalidSpec(f"sparsity {sparsity} outside [0, 1)")
        rng = np.random.default_rng(int(p["seed"]))
        nnz = max(int(math.ceil((1 - sparsity) * n)), 1)
        positions = rng.choice(n, size=nnz, replace=False)
        amps = np.zeros(n)
        amps[positions] = 1.0 - rng.random(nnz)  # uniform on (0, 1]
        return mpslib.AmplitudeVector.from_array(amps, normalize=True)
    elif spec.kind == "dense_random":
        rng = np.random.default_rng(int(p["seed"]))
        amps = 1.0 - rng.random(n)
        return mpslib.AmplitudeVector.from_array(amps, normalize=True)
    else:  # file
        with open(p["path"]) as fh:
            av = mpslib.amplitude_from_obj(json.load(fh), normalize=True)
        if av.num_qubits != q:
            raise InvalidSpec(f"file holds {av.num_qubits} qubits, spec asks {q}")
        return av

    total = density.sum()
    if total <= 0:
        raise InvalidSpec("density vanishes on the whole grid")
    return mpslib.AmplitudeVector.from_array(np.sqrt(density / total))


def greedy_trajectory(
    target: mpslib.AmplitudeVector,
    start: mpslib.MpsState | None = None,
    f_min: float = 0.0,
) -> list[tuple[mpslib.MpsState, float]]:
    """States along the greedy truncation schedule with their fidelities.

    The schedule stops after the first state whose fidelity falls below
    ``f_min``: that state is kept, so the crossing is visible, and nothing
    after it is computed.  A state below ``f_min`` is below every threshold
    t >= ``f_min`` too, and :func:`_pick` stops at the first crossing, so it
    picks the same state from this prefix as from the full schedule for
    every such t.  The default of 0 runs down to a product state.
    """
    state = start if start is not None else mpslib.decompose(target)
    fid = mpslib.fidelity(mpslib.reconstruct(state), target)
    traj = [(state, fid)]
    while fid >= f_min and (step := mpslib.next_truncation(state)) is not None:
        state = mpslib.apply_truncation(state, step)
        fid = mpslib.fidelity(mpslib.reconstruct(state), target)
        traj.append((state, fid))
    return traj


def _pick(traj, f_min: float) -> tuple[mpslib.MpsState, float]:
    """Last state before the first fidelity crossing below f_min."""
    chosen = traj[0]
    for state, fid in traj[1:]:
        if fid < f_min:
            break
        chosen = (state, fid)
    return chosen


def sweep_to_threshold(
    target: mpslib.AmplitudeVector, f_min: float
) -> tuple[circlib.Circuit, BenchRecord]:
    """Greedy-truncate as far as the fidelity threshold allows, then synthesize."""
    if not 0 < f_min <= 1:
        raise InvalidSpec(f"fidelity threshold {f_min} outside (0, 1]")
    spec = TargetSpec(kind="file", num_qubits=target.num_qubits, params={})
    entropy = mpslib.mean_normalized_bipartite_entropy(target).mean
    state, _ = _pick(greedy_trajectory(target, f_min=f_min), f_min)
    circ = circlib.synthesize(state)
    record = _record(spec, entropy, target, state, circ, "adaptive", f_min, True)
    return circ, record


def _record(
    spec, entropy, target, state, circ, method, threshold, feasible
) -> BenchRecord:
    return BenchRecord(
        spec=spec,
        entropy=entropy,
        method=method,
        threshold=threshold,
        achieved_fidelity=simlib.verify(circ, target),
        width_histogram=circ.width_histogram,
        entangling_cost=circ.entangling_cost_estimate,
        depth_estimate=circ.depth_estimate,
        truncation_count=len(state.truncation_log),
        feasible=feasible,
    )


def _eval_spec(args) -> list[BenchRecord]:
    spec, thresholds = args
    target = generate(spec)
    entropy = mpslib.mean_normalized_bipartite_entropy(target).mean
    f_min = min(thresholds)
    adaptive = greedy_trajectory(target, f_min=f_min)
    q = target.num_qubits
    capped_start = mpslib.decompose(target, rank_caps=[2] * (q - 1))
    capped = greedy_trajectory(target, start=capped_start, f_min=f_min)

    def record(state, method, t, feasible):
        circ = circlib.synthesize(state)
        return _record(spec, entropy, target, state, circ, method, t, feasible)

    records = []
    for t in thresholds:
        state, _ = _pick(adaptive, t)
        records.append(record(state, "adaptive", t, True))
        # within the cap-2 family only 2 -> 1 drops exist; if even the
        # untruncated capped state misses the threshold, flag the row
        feasible = capped[0][1] >= t
        state, _ = _pick(capped, t) if feasible else capped[0]
        records.append(record(state, "capped2", t, feasible))
        records.append(
            BenchRecord(
                spec=spec,
                entropy=entropy,
                method="isometry_ref",
                threshold=t,
                achieved_fidelity=1.0,
                width_histogram={},
                entangling_cost=circlib.isometry_reference_cost(q),
                depth_estimate=0,
                truncation_count=0,
                feasible=True,
            )
        )
    return records


def compare(
    specs: list[TargetSpec], thresholds: list[float], jobs: int = 1
) -> list[BenchRecord]:
    """Full comparison table, sorted by entropy then by stable record keys."""
    if not specs or not thresholds:
        raise InvalidSpec("compare needs at least one spec and one threshold")
    for t in thresholds:
        if not 0 < t <= 1:
            raise InvalidSpec(f"fidelity threshold {t} outside (0, 1]")
    work = [(spec, tuple(thresholds)) for spec in specs]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_eval_spec, work))
    else:
        chunks = [_eval_spec(w) for w in work]
    records = [r for chunk in chunks for r in chunk]
    records.sort(
        key=lambda r: (r.entropy, r.spec.kind, r.spec.num_qubits, r.spec.label(),
                       r.threshold, r.method)
    )
    return records


def make_sparse_corpus(
    num_qubits: int, count: int, seed: int, max_nonzeros: int | None = None
) -> list[TargetSpec]:
    """Seeded sparse-random corpus with nonzero counts log-uniform in
    [1, max_nonzeros], so entropies cover both near-product and highly
    entangled states.  The default upper limit is a sparsity of 0.9; a
    lower limit bounds the Schmidt rank (and therefore gate widths) of
    every member, since the rank at any cut cannot exceed the number of
    nonzero amplitudes."""
    n = 2**num_qubits
    max_nnz = max_nonzeros if max_nonzeros is not None else max(int(math.ceil(0.1 * n)), 2)
    master = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        nnz = int(round(math.exp(master.uniform(0.0, math.log(max_nnz)))))
        nnz = min(max(nnz, 1), max_nnz)
        specs.append(
            TargetSpec(
                kind="sparse_random",
                num_qubits=num_qubits,
                params={
                    "sparsity": 1.0 - nnz / n,
                    "seed": int(master.integers(2**31)),
                },
            )
        )
    return specs


# ---------------------------------------------------------------------------
# Table output
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "kind,num_qubits,params,entropy,method,threshold,achieved_fidelity,"
    "entangling_cost,depth_estimate,width_histogram,truncation_count,feasible"
)


def _histogram_str(hist: dict) -> str:
    return " ".join(f"{w}:{c}" for w, c in sorted(hist.items()))


def records_to_csv(records: list[BenchRecord]) -> str:
    out = io.StringIO()
    out.write(CSV_COLUMNS + "\n")
    for r in records:
        params = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.spec.params.items()))
        out.write(
            ",".join(
                [
                    r.spec.kind,
                    str(r.spec.num_qubits),
                    params,
                    format(r.entropy, ".9g"),
                    r.method,
                    format(r.threshold, ".9g"),
                    format(r.achieved_fidelity, ".9g"),
                    str(r.entangling_cost),
                    str(r.depth_estimate),
                    _histogram_str(r.width_histogram),
                    str(r.truncation_count),
                    str(r.feasible).lower(),
                ]
            )
            + "\n"
        )
    return out.getvalue()


def records_to_obj(records: list[BenchRecord]) -> list[dict]:
    return [
        {
            "kind": r.spec.kind,
            "num_qubits": r.spec.num_qubits,
            "params": {k: r.spec.params[k] for k in sorted(r.spec.params)},
            "entropy": float(format(r.entropy, ".9g")),
            "method": r.method,
            "threshold": float(format(r.threshold, ".9g")),
            "achieved_fidelity": float(format(r.achieved_fidelity, ".9g")),
            "entangling_cost": r.entangling_cost,
            "depth_estimate": r.depth_estimate,
            "width_histogram": {str(k): v for k, v in sorted(r.width_histogram.items())},
            "truncation_count": r.truncation_count,
            "feasible": r.feasible,
        }
        for r in records
    ]


def records_to_json(records: list[BenchRecord]) -> str:
    return json.dumps(records_to_obj(records), indent=2)
