import json

import numpy as np
import pytest

from conftest import random_state
from mpsprep import cli, mps


def write_amps(path, target):
    path.write_text(json.dumps(mps.amplitude_to_obj(target)))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    amps = [0.7071067811865476, 0, 0, 0.7071067811865476]
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(amps))
    return str(path)


class TestDecompose:
    def test_writes_mps_and_summary(self, bell_file, tmp_path, capsys):
        out = tmp_path / "state.json"
        assert cli.main(["decompose", "--input", bell_file, "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "qubits: 2" in captured
        assert "bond_dims: [2]" in captured
        assert "mean_normalized_entropy: 1" in captured
        state = mps.mps_from_obj(json.loads(out.read_text()))
        assert state.bond_dims == (2,)

    def test_non_power_of_two_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 0, 0]")
        assert cli.main(["decompose", "--input", str(path)]) == cli.EXIT_BAD_INPUT
        assert "power of two" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["decompose", "--input", str(path)]) == cli.EXIT_BAD_INPUT

    def test_missing_file_is_io_error(self, tmp_path):
        assert (
            cli.main(["decompose", "--input", str(tmp_path / "nope.json")])
            == cli.EXIT_IO
        )

    @pytest.mark.parametrize("amps", ["[1, NaN]", "[0, 0]", "[0, 0, Infinity, 0]"])
    def test_nonfinite_or_zero_input_rejected(self, amps, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(amps)
        out = tmp_path / "state.json"
        code = cli.main(["decompose", "--input", str(path), "--output", str(out)])
        assert code == cli.EXIT_BAD_INPUT
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_unnormalized_input_warns_and_normalizes(self, tmp_path, capsys):
        path = tmp_path / "raw.json"
        path.write_text("[3, 0, 0, 4]")
        out = tmp_path / "state.json"
        assert cli.main(["decompose", "--input", str(path), "--output", str(out)]) == 0
        assert "normalizing" in capsys.readouterr().err


class TestPipeline:
    def test_decompose_synthesize_simulate(self, tmp_path, capsys, rng):
        target = random_state(4, rng)
        amps = write_amps(tmp_path / "target.json", target)
        state_path = tmp_path / "state.json"
        circ_path = tmp_path / "circuit.json"
        assert cli.main(["decompose", "--input", amps, "--output", str(state_path)]) == 0
        assert (
            cli.main(
                ["synthesize", "--input", str(state_path), "--output", str(circ_path)]
            )
            == 0
        )
        capsys.readouterr()
        probs_path = tmp_path / "probs.csv"
        assert (
            cli.main(
                [
                    "simulate",
                    "--input", str(circ_path),
                    "--output", str(probs_path),
                    "--target", amps,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        fid = float(out.split("fidelity:")[1].strip())
        assert fid == pytest.approx(1.0, abs=1e-9)
        lines = probs_path.read_text().strip().split("\n")
        assert lines[0] == "index,probability"
        assert len(lines) == 1 + 16
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_simulate_json_format(self, tmp_path, rng):
        target = random_state(3, rng)
        amps = write_amps(tmp_path / "t.json", target)
        state_path, circ_path = tmp_path / "s.json", tmp_path / "c.json"
        cli.main(["decompose", "--input", amps, "--output", str(state_path)])
        cli.main(["synthesize", "--input", str(state_path), "--output", str(circ_path)])
        out_path = tmp_path / "probs.json"
        assert (
            cli.main(
                [
                    "simulate",
                    "--input", str(circ_path),
                    "--output", str(out_path),
                    "--format", "json",
                ]
            )
            == 0
        )
        probs = json.loads(out_path.read_text())["probabilities"]
        assert len(probs) == 8


class TestSweep:
    def test_writes_circuit_and_record(self, tmp_path, capsys, rng):
        target = random_state(6, rng)
        amps = write_amps(tmp_path / "t.json", target)
        circ_path = tmp_path / "circ.json"
        assert (
            cli.main(
                [
                    "sweep",
                    "--input", amps,
                    "--output", str(circ_path),
                    "--fidelity", "0.9",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "threshold: 0.9" in out
        record = json.loads((tmp_path / "circ.json.record.json").read_text())
        assert record["achieved_fidelity"] >= 0.9
        assert record["method"] == "adaptive"

    def test_bad_fidelity(self, tmp_path, rng):
        amps = write_amps(tmp_path / "t.json", random_state(3, rng))
        assert (
            cli.main(["sweep", "--input", amps, "--fidelity", "0"])
            == cli.EXIT_BAD_INPUT
        )


class TestBench:
    def test_csv_output_with_seed_header(self, tmp_path):
        out = tmp_path / "table.csv"
        assert (
            cli.main(
                [
                    "bench",
                    "--qubits", "5",
                    "--count", "3",
                    "--seed", "17",
                    "--thresholds", "0.9,0.99",
                    "--jobs", "1",
                    "--output", str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# seed=17"
        assert lines[1].startswith("kind,num_qubits")
        assert len(lines) == 2 + 3 * 2 * 3

    def test_deterministic_across_jobs(self, tmp_path):
        outs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"t{jobs}.csv"
            cli.main(
                [
                    "bench",
                    "--qubits", "5",
                    "--count", "3",
                    "--seed", "17",
                    "--jobs", jobs,
                    "--output", str(out),
                ]
            )
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_json_format(self, tmp_path):
        out = tmp_path / "table.json"
        assert (
            cli.main(
                [
                    "bench",
                    "--qubits", "4",
                    "--count", "2",
                    "--corpus", "dense",
                    "--seed", "3",
                    "--thresholds", "0.9",
                    "--jobs", "1",
                    "--format", "json",
                    "--output", str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["seed"] == 3
        assert len(payload["records"]) == 2 * 1 * 3


class TestEntropy:
    def test_per_cut_output(self, bell_file, capsys):
        assert cli.main(["entropy", "--input", bell_file]) == 0
        out = capsys.readouterr().out
        assert "cut 1: 1" in out
        assert "mean: 1" in out
