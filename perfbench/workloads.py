"""The benchmark's workloads: seeded inputs, op plans and predictions.

An op is the unit the closed loop times: one or more ``mpsprep`` commands
run back to back, whose output files ``check`` verifies afterwards.
``build`` is the set-up step of a workload: it makes the inputs from the
workload seed, writes the input files and returns the op plan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import check

THRESHOLDS = (0.99, 0.95, 0.9)


@dataclass(frozen=True)
class Op:
    key: str                              # ops with equal keys write equal files
    commands: tuple[tuple[str, ...], ...]  # argv lists; "{out}" is the op's output dir
    thresholds: tuple[float, ...]          # fidelity thresholds the op requests
    check: Callable                        # (outdir, stdouts) -> (cost, problems)


@dataclass(frozen=True)
class Workload:
    """A workload; why it was chosen is recorded in BENCHMARK.json."""

    name: str
    build: Callable[[int, Path, str], list[Op]]   # (seed, input dir, scale) -> plan
    # Layers whose own code should take most of the traced op time.
    dominant: tuple[str, ...]
    # Per-layer metrics that must read 0 on this workload.
    expect_zero: tuple[str, ...] = ()


def _dense_random(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    """Same family as mpsprep's ``dense_random``: positive, uniform, normalized."""
    amps = 1.0 - rng.random(2**num_qubits)
    return amps / np.linalg.norm(amps)


def _write_amplitudes(path: Path, amps: np.ndarray) -> str:
    obj = {"schema": "mpsprep-amplitudes/1",
           "num_qubits": int(round(math.log2(amps.size))),
           "amps": amps.tolist()}
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def build_sweep_dense(seed: int, indir: Path, scale: str) -> list[Op]:
    q, count = (12, 3) if scale == "full" else (6, 1)
    rng = np.random.default_rng(seed)
    ops = []
    for j in range(count):
        amps = _dense_random(rng, q)
        path = _write_amplitudes(indir / f"dense{j}.json", amps)
        for f in THRESHOLDS:
            ops.append(Op(
                key=f"dense{j}-f{f}",
                commands=(("sweep", "--input", path, "--output", "{out}/circuit.json",
                           "--fidelity", repr(f)),),
                thresholds=(f,),
                check=partial(check.check_sweep, amps, f),
            ))
    return ops


def build_prepare_exact(seed: int, indir: Path, scale: str) -> list[Op]:
    q, count = (16, 3) if scale == "full" else (6, 1)
    rng = np.random.default_rng(seed)
    ops = []
    for j in range(count):
        amps = _dense_random(rng, q)
        path = _write_amplitudes(indir / f"dense{j}.json", amps)
        ops.append(Op(
            key=f"dense{j}",
            commands=(
                ("decompose", "--input", path, "--output", "{out}/mps.json"),
                ("synthesize", "--input", "{out}/mps.json", "--output", "{out}/circuit.json"),
                ("simulate", "--input", "{out}/circuit.json", "--output", "{out}/probs.csv",
                 "--target", path),
            ),
            thresholds=(),
            check=partial(check.check_prepare, amps),
        ))
    return ops


def balanced_corpora(rng: np.random.Generator, num_qubits: int, count: int):
    """The first ``count`` of a fixed number of ``bench --seed`` candidates
    drawn from ``rng`` whose sparse corpus holds exactly one spec per octave
    of nonzero count (1, 2-3, 4-7, ...), as (seed, specs) pairs.  The corpus
    size is the number of octaves up to the default limit of ceil(0.1 * 2^Q)
    nonzeros.

    The sparse corpus draws nonzero counts log-uniformly, and a spec's cost
    grows about 20x from the lowest octave to the highest, so plain random
    corpora of a few specs swing a run's time and entangling cost by more
    than half between seeds.  Stratifying by octave keeps each command a
    small cost-vs-entropy table over the whole range.  About 1 candidate in
    150 qualifies at Q=10; drawing a fixed 300 per command (more only if
    that is not enough) keeps the set-up work the same for every seed.
    """
    from mpsprep.bench import make_sparse_corpus

    max_nnz = max(math.ceil(0.1 * 2**num_qubits), 2)
    octaves = int(math.log2(max_nnz)) + 1
    found = []
    for drawn in range(1, 100_000):
        seed = int(rng.integers(2**31))
        specs = make_sparse_corpus(num_qubits, octaves, seed)
        nnz = [round((1.0 - s.params["sparsity"]) * 2**num_qubits) for s in specs]
        if sorted(int(math.log2(n)) for n in nnz) == list(range(octaves)):
            found.append((seed, specs))
        if drawn >= 300 * count and len(found) >= count:
            return found[:count]
    raise RuntimeError(f"only {len(found)} balanced sparse corpora in 100000 seeds")


def build_bench_sparse(seed: int, indir: Path, scale: str) -> list[Op]:
    q, count = (10, 13) if scale == "full" else (6, 2)
    rng = np.random.default_rng(seed)
    thresholds = ",".join(str(t) for t in sorted(THRESHOLDS))
    return [
        Op(
            key=f"bench{bench_seed}",
            commands=(("bench", "--corpus", "sparse", "--qubits", str(q),
                       "--count", str(len(specs)), "--seed", str(bench_seed),
                       "--thresholds", thresholds, "--jobs", "1",
                       "--format", "csv", "--output", "{out}/table.csv"),),
            thresholds=THRESHOLDS,
            check=partial(check.check_bench, specs, THRESHOLDS),
        )
        for bench_seed, specs in balanced_corpora(rng, q, count)
    ]


_GREEDY_LOOP = ("mps.next_truncation_s", "mps.bond_spectra_s", "mps.apply_truncation_s",
                "mps.truncation_steps", "mps.reconstruct_s", "mps.fidelity_s",
                "bench.greedy_trajectory_s", "bench.trajectory_steps")
# ``simulate --target`` computes one fidelity per op, so mps.fidelity_s is
# not expected to be 0 without a greedy loop.
_GREEDY_ONLY = tuple(m for m in _GREEDY_LOOP if m != "mps.fidelity_s")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_dense",
            build=build_sweep_dense,
            dominant=("mps", "linalg"),
        ),
        Workload(
            name="prepare_exact",
            build=build_prepare_exact,
            dominant=("cli", "io", "codec"),
            expect_zero=_GREEDY_ONLY + ("bench.steps_useful_ratio",),
        ),
        Workload(
            name="bench_sparse",
            build=build_bench_sparse,
            dominant=("mps", "linalg"),
        ),
    )
}

#: Which end-to-end metric each layer metric should move, and on which
#: workload; a traced run stores them beside its figures in its result file.
PREDICTIONS = (
    (("cli.self_s",), ("op_p50_s", "peak_rss_mb"), ("prepare_exact",)),
    (("codec.decode_s", "codec.encode_s", "io.read_s", "io.json_s", "io.write_s"),
     ("op_p50_s", "output_mb"), ("prepare_exact",)),
    (("mps.decompose_s", "mps.decompose_calls"), ("op_p50_s",), ("prepare_exact",)),
    (_GREEDY_LOOP, ("ops_per_s",), ("sweep_dense", "bench_sparse")),
    (("mps.entropy_s", "mps.entropy_calls"), ("ops_per_s",), ("bench_sparse",)),
    (("linalg.svd_s", "linalg.svd_calls", "linalg.svd_flops"), ("ops_per_s",),
     ("sweep_dense", "bench_sparse")),
    (("linalg.complete_s", "linalg.complete_calls", "linalg.complete_dim_max"),
     ("op_p50_s",), ("prepare_exact",)),
    (("circuit.synthesize_s", "circuit.gate_width_max"), ("op_p50_s",), ("prepare_exact",)),
    (("sim.run_s", "sim.apply_gate_calls"), ("op_p50_s", "ops_per_s"),
     ("prepare_exact", "bench_sparse")),
    (("bench.steps_useful_ratio",), ("ops_per_s",), ("sweep_dense", "bench_sparse")),
)
