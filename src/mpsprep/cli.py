"""Command-line entry point.

Commands: decompose, synthesize, simulate, sweep, bench, entropy.
Exit codes: 0 success, 2 bad input, 3 numerical failure, 4 IO failure.
All outputs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench as benchlib, circuit as circlib, mps as mpslib, sim as simlib
from .errors import BadInput, MpsPrepError, NumericalFailure

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise BadInput(f"{path}: not valid JSON ({exc})") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path: str | None, obj) -> None:
    # Compact, one-shot dumps: only this form runs CPython's C encoder.
    _write_text(path, json.dumps(obj, separators=(",", ":")) + "\n")


def _load_amplitudes(path: str) -> mpslib.AmplitudeVector:
    av = mpslib.amplitude_from_obj(_read_json(path))
    if abs(av.norm - 1.0) > mpslib.NORM_TOL:
        print(
            f"warning: input norm {av.norm:.9g} != 1, normalizing", file=sys.stderr
        )
        av = mpslib.AmplitudeVector.from_array(av.amps, normalize=True)
    return av


def _g(x: float) -> str:
    return format(x, ".9g")


def cmd_decompose(args) -> int:
    target = _load_amplitudes(args.input)
    state = mpslib.decompose(target)
    _write_json(args.output, mpslib.mps_to_obj(state))
    print(f"qubits: {target.num_qubits}")
    print(f"bond_dims: {list(state.bond_dims)}")
    if target.num_qubits >= 2:
        report = mpslib.mean_normalized_bipartite_entropy(target)
        print(f"mean_normalized_entropy: {_g(report.mean)}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    state = mpslib.mps_from_obj(_read_json(args.input))
    circ = circlib.synthesize(state)
    _write_json(args.output, circlib.circuit_to_obj(circ))
    print(f"gates: {len(circ.gates)}")
    print(f"widths: {[g.width for g in circ.gates]}")
    print(f"entangling_cost: {circ.entangling_cost_estimate}")
    print(f"depth_estimate: {circ.depth_estimate}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    circ = circlib.circuit_from_obj(_read_json(args.input))
    state = simlib.run(circ)
    probs = state.probabilities()
    if args.format == "csv":
        lines = ["index,probability"]
        lines += [f"{i},{_g(p)}" for i, p in enumerate(probs)]
        _write_text(args.output, "\n".join(lines) + "\n")
    else:
        _write_json(args.output, {"probabilities": [float(_g(p)) for p in probs]})
    if args.target:
        target = _load_amplitudes(args.target)
        print(f"fidelity: {_g(simlib.verify(circ, target))}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not 0 < args.fidelity <= 1:
        raise BadInput(f"--fidelity {args.fidelity} outside (0, 1]")
    target = _load_amplitudes(args.input)
    circ, record = benchlib.sweep_to_threshold(target, args.fidelity)
    _write_json(args.output, circlib.circuit_to_obj(circ))
    record_path = args.record
    if record_path is None and args.output not in (None, "-"):
        record_path = args.output + ".record.json"
    if record_path:
        _write_json(record_path, benchlib.records_to_obj([record])[0])
    print(f"threshold: {_g(args.fidelity)}")
    print(f"achieved_fidelity: {_g(record.achieved_fidelity)}")
    print(f"entangling_cost: {record.entangling_cost}")
    print(f"truncations: {record.truncation_count}")
    return EXIT_OK


def cmd_bench(args) -> int:
    thresholds = [float(t) for t in args.thresholds.split(",") if t]
    if args.corpus == "sparse":
        specs = benchlib.make_sparse_corpus(args.qubits, args.count, args.seed)
    elif args.corpus == "dense":
        master = np.random.default_rng(args.seed)
        specs = [
            benchlib.TargetSpec(
                "dense_random", args.qubits, {"seed": int(master.integers(2**31))}
            )
            for _ in range(args.count)
        ]
    else:
        specs = [benchlib.TargetSpec(args.corpus, args.qubits, {})]
    records = benchlib.compare(specs, thresholds, jobs=args.jobs)
    if args.format == "csv":
        table = benchlib.records_to_csv(records)
        _write_text(args.output, f"# seed={args.seed}\n" + table)
    else:
        rows = benchlib.records_to_obj(records)
        _write_json(args.output, {"seed": args.seed, "records": rows})
    return EXIT_OK


def cmd_entropy(args) -> int:
    target = _load_amplitudes(args.input)
    report = mpslib.mean_normalized_bipartite_entropy(target)
    for n, s in enumerate(report.per_cut, start=1):
        print(f"cut {n}: {_g(s)}")
    print(f"mean: {_g(report.mean)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpsprep",
        description="Prepare amplitude-encoded quantum registers via truncated "
        "matrix product states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="amplitude file -> MPS JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("synthesize", help="MPS JSON -> circuit JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="circuit JSON -> output probabilities")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--target", default=None, help="amplitude file to compare against")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="truncate to a fidelity threshold and synthesize")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--record", default=None, help="path for the benchmark record")
    p.add_argument("--fidelity", type=float, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="comparison table over a seeded corpus")
    p.add_argument("--qubits", type=int, default=8)
    p.add_argument("--corpus", default="sparse",
                   choices=("sparse", "dense", "normal", "lognormal", "sinusoidal"))
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--thresholds", default="0.9,0.95,0.99")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("entropy", help="per-cut normalized entropies of a state")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_entropy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MpsPrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
