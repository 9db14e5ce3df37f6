"""Benchmark of the mpsprep command line, driven in-process.

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program under test is the
``mpsprep`` package in ``src/`` next to this directory.  Each op calls
``mpsprep.cli.main(argv)`` on input files generated from ``--seed``; the
load is a closed loop with one client (an op starts when the previous one
returns), in one process, with one BLAS thread and ``--jobs 1``.

``--trace 0`` times the plan in a loop for at least ``--seconds`` of op
time and prints the end-to-end metrics, op times both in seconds and
relative to a fixed reference task timed between consecutive ops; the
set-up is repeated between ops too, and its median is reported.
``--trace 1`` runs each op of the plan once untraced and once traced, and
prints the per-layer metrics of the traced copies plus the tracing
overhead.  Every op's outputs are checked outside the timed region.  The
last line of stdout is the JSON result; the same result with the
environment, samples and checks goes to ``.perfbench/results/``, and spans
of a traced run to ``.perfbench/traces/``.
"""

from __future__ import annotations

import os

# One BLAS thread (<= nproc on any machine): one client, one process, and
# figures that do not depend on how busy the other cores are.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Set-ups per run at least, and the share of each op's wall time that the
#: set-ups after it may take (at least one set-up follows every op).
SETUP_REPEATS = 8
SETUP_SHARE = 0.15

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "ops_per_ref": "1/ref",
    "op_p50_ref": "ref",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
    "entangling_cost_sum": "count",
    "output_mb": "MB",
}
#: The end-to-end metrics in the result line (BENCHMARK.json's end_to_end).
#: On a shared host the wall time of the same op drifts by half between
#: minutes, so the gated op times are in units of a reference task timed just
#: before and after each op; the raw ops_per_s and op_p50_s are printed too.
#: failed_frac reads 0 when all is well and travels as failed/attempted.
GATED = ("setup_s", "ops_per_ref", "op_p50_ref", "peak_rss_mb",
         "entangling_cost_sum", "output_mb")


@dataclass
class OpRun:
    op: object
    outdir: Path
    wall: float
    stdouts: list[str]
    error: str | None
    cost: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def run_op(cli, op, outdir: Path) -> OpRun:
    """Run the op's commands through ``cli.main``; time them together."""
    outdir.mkdir(parents=True, exist_ok=True)
    stdouts, error = [], None
    start = time.perf_counter()
    for argv in op.commands:
        argv = [a.replace("{out}", str(outdir)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed op, not a crash
            error = f"{argv[0]}: {type(exc).__name__}: {exc}"
            break
        stdouts.append(out.getvalue())
        if code != 0:
            error = f"{argv[0]}: exit {code}: {err.getvalue().strip()}"
            break
    return OpRun(op, outdir, time.perf_counter() - start, stdouts, error)


def check_run(run: OpRun) -> None:
    if run.error is not None:
        return
    try:
        run.cost, run.problems = run.op.check(run.outdir, run.stdouts)
    except Exception as exc:  # unreadable or malformed output
        run.problems = [f"check raised {type(exc).__name__}: {exc}"]


def same_outputs(a: OpRun, b: OpRun) -> bool:
    files_a = sorted(p.name for p in a.outdir.iterdir())
    if files_a != sorted(p.name for p in b.outdir.iterdir()) or a.stdouts != b.stdouts:
        return False
    return all((a.outdir / n).read_bytes() == (b.outdir / n).read_bytes() for n in files_a)


def output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir())


def child_import_seconds() -> float:
    """Import time of ``mpsprep.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import mpsprep.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def setup(workload, seed: int, scale: str, indir: Path):
    """One set-up: import + input generation + file writes; (plan, seconds)."""
    t_import = child_import_seconds()
    shutil.rmtree(indir, ignore_errors=True)
    indir.mkdir(parents=True)
    start = time.perf_counter()
    plan = workload.build(seed, indir, scale)
    return plan, t_import + time.perf_counter() - start


def tail_percentile(samples: list[float]):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    ps = [p for p in (75, 90, 95, 99) if len(samples) * (100 - p) >= 1000]
    if not ps:
        return None
    return ps[-1], statistics.quantiles(samples, n=100)[ps[-1] - 1]


def reference_seconds() -> float:
    """Wall time of a fixed task doing the kinds of work the ops do: small
    complex SVDs, and building and serializing a list of floats."""
    import numpy as np

    m = np.random.default_rng(0).random((48, 48)) * (1 + 1j)
    start = time.perf_counter()
    for _ in range(40):
        np.linalg.svd(m)
    json.dumps([[float(i), -float(i)] for i in range(20_000)])
    return time.perf_counter() - start


def run_end_to_end(cli, plan, seconds: float, workdir: Path, setups: list[float], resetup):
    """Closed loop over the plan until it has run once and the ops have taken
    ``seconds``; the reference task and more set-ups (``resetup``, into
    their own directory) run between consecutive ops.

    ``setup_s`` is the median of the set-ups.  The host's speed for the same
    work swings by a third in phases lasting seconds, so set-ups done back to
    back all land in the phase the run started in; spread over the whole run
    they sample its phases as the ops do.
    """
    runs: list[OpRun] = []
    refs = [reference_seconds()]
    busy = 0.0
    while len(runs) < len(plan) or busy < seconds:
        seq = len(runs)
        runs.append(run_op(cli, plan[seq % len(plan)], workdir / "ops" / f"{seq:04d}"))
        busy += runs[-1].wall
        refs.append(reference_seconds())
        spent = 0.0
        while spent == 0.0 or spent < SETUP_SHARE * runs[-1].wall:
            setups.append(resetup())
            spent += setups[-1]
    while len(setups) < SETUP_REPEATS:
        setups.append(resetup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for run in runs:
        check_run(run)
    first_pass = runs[: len(plan)]
    failed = sum(r.failed for r in runs)
    samples = [r.wall for r in runs]
    relative = [w / ((a + b) / 2) for w, a, b in zip(samples, refs, refs[1:])]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (len(runs) - failed) / busy,
        "op_p50_s": statistics.median(samples),
        "ops_per_ref": (len(runs) - failed) / sum(relative),
        "op_p50_ref": statistics.median(relative),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / len(runs),
        "entangling_cost_sum": sum(r.cost for r in first_pass),
        "output_mb": sum(output_bytes(r.outdir) for r in first_pass) / 1e6,
    }
    extra = {"ops": len(runs), "distinct_ops": len(plan), "reference_s": refs,
             "setup_samples_s": setups, "op_samples_s": samples}
    tail = tail_percentile(samples)
    if tail is not None:
        extra[f"op_p{tail[0]}_s"] = tail[1]
    return runs, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, extra


def run_traced(cli, workload, plan, workdir: Path, spans_path: Path):
    """Each op untraced then traced (order alternating); per-layer metrics
    come from the traced copies, which must write the same bytes."""
    from spans import Tracer
    from workloads import PREDICTIONS

    tracer = Tracer()
    runs: list[OpRun] = []
    plain_s = traced_s = 0.0
    for i, op in enumerate(plan):
        tracer.op, tracer.thresholds = i, op.thresholds
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            with tracer.installed() if traced else contextlib.nullcontext():
                pair[traced] = run_op(cli, op, workdir / f"traced{traced:d}" / f"{i:04d}")
        plain, run = pair[False], pair[True]
        plain_s += plain.wall
        traced_s += run.wall
        check_run(run)
        if run.error is None and plain.error is None and not same_outputs(plain, run):
            run.problems.append("traced and untraced runs wrote different outputs")
        if plain.error is not None and run.error is None:
            run.problems.append(f"untraced run failed: {plain.error}")
        runs.append(run)

    metrics = tracer.per_layer(len(plan), traced_s, plain_s)
    shares = tracer.layer_shares(traced_s)
    dominant = sum(shares[layer] for layer in workload.dominant)
    nonzero = [m for m in workload.expect_zero if metrics[m][0] != 0]
    report = {
        "layer_self_share": {k: round(v, 4) for k, v in
                             sorted(shares.items(), key=lambda kv: -kv[1])},
        "dominant_expected": workload.dominant,
        "dominant_share": dominant,
        "dominant_match": dominant >= 0.5,
        "greedy_trajectory_share": metrics["bench.greedy_trajectory_s"][0]
                                   / metrics["op_traced_s"][0],
        "expected_zero_but_nonzero": nonzero,
        "predictions": [
            {"layer_metrics": {m: metrics[m][0] for m in lm}, "moves": e2e}
            for lm, e2e, names in PREDICTIONS if workload.name in names
        ],
    }
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path)
    return runs, metrics, report


def git_revision() -> str:
    """HEAD of the checkout this script runs from, if it is a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    top, head = proc.stdout.split()
    return head if Path(top).resolve() == ROOT else "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_threads() -> int | str:
    """Thread count OpenBLAS reports, else the count this script requested."""
    with contextlib.suppress(OSError):
        for line in open("/proc/self/maps"):
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                lib = ctypes.CDLL(path)
                for sym in ("scipy_openblas_get_num_threads64_",
                            "openblas_get_num_threads64_", "openblas_get_num_threads"):
                    fn = getattr(lib, sym, None)
                    if fn is not None:
                        fn.restype = ctypes.c_int
                        return fn()
    return f"{BLAS_THREADS} (requested)"


def environment(args) -> dict:
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "mpsprep" / "cli.py").is_file():
        print(f"error: no mpsprep sources at {SRC / 'mpsprep'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mpsprep import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mpsprep from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.scale == "tiny" else "")
    workdir = OUT / "work" / f"{label}-{os.getpid()}"
    try:
        plan, setup_s = setup(workload, args.seed, args.scale, workdir / "in")
        # One untimed op first: lazy initialisation, and the first growth of
        # the heap to its working size, would otherwise land in the first sample.
        run_op(cli, plan[0], workdir / "warm-up")
        if args.trace:
            runs, metrics, report = run_traced(
                cli, workload, plan, workdir,
                OUT / "traces" / f"{label}.json")
        else:
            runs, metrics, report = run_end_to_end(
                cli, plan, args.seconds, workdir, [setup_s],
                lambda: setup(workload, args.seed, args.scale, workdir / "setup")[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in runs if r.failed]
    env = environment(args)
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if args.trace or k in GATED},
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(runs)}  failed {len(failed)}")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if not args.trace:
        tail = {k: v for k, v in report.items() if k.startswith("op_p")}
        print("  " + "  ".join(f"{k}={v:.4g}" for k, v in tail.items())
              + f"  ({report['ops']} ops, {report['distinct_ops']} distinct; reference task"
              f" {statistics.median(report['reference_s']) * 1e3:.1f} ms;"
              f" {len(report['setup_samples_s'])} set-ups, fastest"
              f" {min(report['setup_samples_s']):.4g} s)")
    else:
        print("layer self-time shares: " + json.dumps(report["layer_self_share"]))
        verdict = "match" if report["dominant_match"] else "MISMATCH"
        print(f"dominant layers {'+'.join(workload.dominant)}: "
              f"{report['dominant_share']:.3f} of op time ({verdict})")
        print(f"greedy trajectory share of op time: {report['greedy_trajectory_share']:.3f}")
        if report["expected_zero_but_nonzero"]:
            print("MISMATCH, expected 0: " + ", ".join(report["expected_zero_but_nonzero"]))
    for run in failed:
        print(f"FAILED {run.op.key}: {run.error or '; '.join(run.problems)}")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{label}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "result": result, "report": report,
                   "failures": {r.op.key: r.error or r.problems for r in failed}},
                  fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
