"""In-memory span tracer that wraps mpsprep's public functions from outside.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.installed`
replaces each traced function at its module attribute, and at every other
attribute in the ``mpsprep`` package bound to the same object (for example
``mpsprep.sim.fidelity``, imported by name from ``mpsprep.mps``, or the
re-exports in ``mpsprep/__init__.py``), then puts the originals back.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (or -1) and ``op`` the id of the benchmark op that caused it.
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
import types
from collections import defaultdict

#: Serialization functions, wherever they live, form the ``codec`` layer.
CODEC_DECODE = ("amplitude_from_obj", "mps_from_obj", "circuit_from_obj")
CODEC_ENCODE = ("amplitude_to_obj", "mps_to_obj", "circuit_to_obj",
                "records_to_csv", "records_to_json")

LAYERS = ("cli", "io", "codec", "mps", "linalg", "circuit", "sim", "bench")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def svd_flops(shape) -> int:
    """Computed (not measured) real flops of a thin complex SVD of an m x n
    matrix: the R-SVD count 6*m*n^2 + 20*n^3 (m >= n; Golub & Van Loan,
    Matrix Computations, table 8.6.1), times 4 for complex arithmetic."""
    m, n = max(shape), min(shape)
    return 4 * (6 * m * n * n + 20 * n**3)


def kept_steps(traj, threshold: float) -> int:
    """Greedy steps up to the state a sweep to ``threshold`` keeps: the last
    state before the first fidelity below the threshold."""
    for i, (_, fid) in enumerate(traj[1:], start=1):
        if fid < threshold:
            return i - 1
    return len(traj) - 1


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, op, child_time]
        self._stack: list[int] = []
        self.op = -1
        self.thresholds: tuple[float, ...] = ()
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(args, result)``
        updates counters once the span has ended."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, self.op, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[1]
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters fed from call arguments and results ----------------------

    def _after_svd(self, args, result):
        self.counts["linalg.svd_flops"] += svd_flops(args[0].shape)

    def _after_complete(self, args, result):
        self.maxima["linalg.complete_dim_max"] = max(
            self.maxima["linalg.complete_dim_max"], args[0].shape[0])

    def _after_synthesize(self, args, result):
        self.maxima["circuit.gate_width_max"] = max(
            [self.maxima["circuit.gate_width_max"]] + [g.width for g in result.gates])

    def _after_trajectory(self, args, traj):
        self.counts["bench.trajectory_steps"] += len(traj) - 1
        self.counts["bench.useful_steps"] += max(
            (kept_steps(traj, t) for t in self.thresholds), default=0)

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(module, attribute, span name, after-hook) for every traced call."""
        from mpsprep import bench, circuit, cli, linalg, mps, sim

        hooks = {
            "linalg.svd": self._after_svd,
            "linalg.complete_to_unitary": self._after_complete,
            "circuit.synthesize": self._after_synthesize,
            "bench.greedy_trajectory": self._after_trajectory,
        }
        for mod in (cli, mps, linalg, circuit, sim, bench):
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if attr in CODEC_DECODE or attr in CODEC_ENCODE:
                    name = f"codec.{attr}"
                else:
                    name = f"{short}.{attr}"
                yield mod, attr, name, hooks.get(name)
        # File I/O and JSON text handling done by the CLI itself.
        yield cli, "_read_json", "io.read_json", None
        yield cli, "_write_text", "io.write_text", None

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function (and all its aliases) for the block."""
        from mpsprep import cli

        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "mpsprep" or n.startswith("mpsprep."))]
        for mod, attr, name, after in list(self._targets()):
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, after)
            for m in package:
                for alias, obj in list(vars(m).items()):
                    if obj is original:
                        self._patch(m, alias, wrapped)
        shim = types.ModuleType("json")
        shim.__dict__.update(json.__dict__)
        shim.dumps = self.wrap("io.json_dumps", json.dumps)
        shim.loads = self.wrap("io.json_loads", json.loads)
        self._patch(cli, "json", shim)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(self._patches):
                setattr(mod, attr, original)
            self._patches.clear()

    def _patch(self, mod, attr, value):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    # -- aggregation ------------------------------------------------------

    def per_layer(self, n_ops: int, traced_s: float, untraced_s: float) -> dict:
        """Per-op layer metrics (name -> (value, unit)) from the recorded spans."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, *_ in self.spans:
            total[name] += end - start
            calls[name] += 1
        self_time = self.self_times()

        def per_op(x):
            return x / n_ops

        def s(*names):
            return per_op(sum(total[n] for n in names))

        def n(name):
            return per_op(calls[name])

        steps = self.counts["bench.trajectory_steps"]
        m = {
            "io.read_s": (s("io.read_json"), "s"),
            "io.json_s": (s("io.json_dumps", "io.json_loads"), "s"),
            "io.write_s": (s("io.write_text"), "s"),
            "codec.decode_s": (s(*(f"codec.{f}" for f in CODEC_DECODE)), "s"),
            "codec.encode_s": (s(*(f"codec.{f}" for f in CODEC_ENCODE)), "s"),
            "mps.decompose_s": (s("mps.decompose"), "s"),
            "mps.decompose_calls": (n("mps.decompose"), "count"),
            "mps.next_truncation_s": (s("mps.next_truncation"), "s"),
            "mps.bond_spectra_s": (s("mps.bond_spectra"), "s"),
            "mps.apply_truncation_s": (s("mps.apply_truncation"), "s"),
            "mps.truncation_steps": (n("mps.apply_truncation"), "count"),
            "mps.reconstruct_s": (s("mps.reconstruct"), "s"),
            "mps.fidelity_s": (s("mps.fidelity"), "s"),
            "mps.entropy_s": (s("mps.mean_normalized_bipartite_entropy"), "s"),
            "mps.entropy_calls": (n("mps.mean_normalized_bipartite_entropy"), "count"),
            "mps.verify_right_canonical_s": (s("mps.verify_right_canonical"), "s"),
            "linalg.svd_s": (s("linalg.svd"), "s"),
            "linalg.svd_calls": (n("linalg.svd"), "count"),
            "linalg.svd_flops": (per_op(self.counts["linalg.svd_flops"]), "flop"),
            "linalg.singular_values_s": (s("linalg.singular_values"), "s"),
            "linalg.complete_s": (s("linalg.complete_to_unitary"), "s"),
            "linalg.complete_calls": (n("linalg.complete_to_unitary"), "count"),
            "linalg.complete_dim_max": (self.maxima["linalg.complete_dim_max"], "count"),
            "circuit.synthesize_s": (s("circuit.synthesize"), "s"),
            "circuit.gate_width_max": (self.maxima["circuit.gate_width_max"], "count"),
            "sim.run_s": (s("sim.run"), "s"),
            "sim.apply_gate_calls": (n("sim.apply_gate"), "count"),
            "bench.greedy_trajectory_s": (s("bench.greedy_trajectory"), "s"),
            "bench.trajectory_steps": (per_op(steps), "count"),
            "bench.generate_s": (s("bench.generate"), "s"),
            # 0 when no trajectory ran: nothing was computed, so nothing wasted.
            "bench.steps_useful_ratio": (
                self.counts["bench.useful_steps"] / steps if steps else 0.0, "ratio"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (per_op(self_time[layer]), "s")
        m["op_traced_s"] = (per_op(traced_s), "s")
        m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
        return m

    def self_times(self) -> dict[str, float]:
        """Per layer, the span time not covered by child spans."""
        self_time: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op, child in self.spans:
            self_time[layer_of(name)] += end - start - child
        return self_time

    def layer_shares(self, traced_s: float) -> dict[str, float]:
        """Share of the traced op wall time spent in each layer's own code;
        ``driver`` is the time no traced span covers."""
        self_time = self.self_times()
        shares = {layer: self_time[layer] / traced_s for layer in LAYERS}
        shares["driver"] = 1.0 - math.fsum(shares.values())
        return shares

    def dump(self, path) -> None:
        """Write all spans as JSON; times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - t0, 9), round(end - t0, 9), parent, op]
                for name, start, end, parent, op, _ in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))
