"""Fast self-test of the benchmark (about fifteen seconds).

    python3 perfbench/selftest.py

Runs every workload at the tiny scale in both modes and checks that the
result line carries exactly the metrics ``BENCHMARK.json`` names, with its
units, that no op failed, that the human-readable report names every
end-to-end metric including ``failed_frac``, and that the benchmark exits
non-zero without a result where there are no sources to measure.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import E2E_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--scale", "tiny")
            where = f"{name} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if trace == 0:
                table = {p[0]: p[1:] for p in map(str.split, lines[:-1]) if len(p) == 3}
                bad = [m for m, u in E2E_UNITS.items() if table.get(m, ["", ""])[1] != u]
                if bad or table["failed_frac"][0] != "0":
                    problems.append(f"{where}: report lacks {bad or 'failed_frac = 0'}")
            elif name == "prepare_exact" and result["metrics"]["mps.truncation_steps"]["value"]:
                problems.append(f"{where}: greedy steps ran without truncation")
        print(f"{name}: checked", flush=True)

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "sweep_dense", "--seed", "1", "--seconds", "1")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without sources: expected a non-zero exit and no result")

    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
