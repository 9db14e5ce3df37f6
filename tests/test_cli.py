import json
import warnings

import numpy as np
import pytest

from conftest import bell, random_state
from mpsprep import circuit, cli, mps


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



def _bell_circuit_obj():
    return circuit.circuit_to_obj(circuit.synthesize(mps.decompose(bell())))


def _short_core_mps():
    # bond_dims [2] needs a 1 x 4 first core; this one is 1 x 2
    return {"schema": mps.MPS_SCHEMA, "num_qubits": 2, "bond_dims": [2],
            "cores": [[[[1, 0], [0, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}


def _gate_without_width():
    obj = _bell_circuit_obj()
    del obj["gates"][0]["width"]
    return obj


def _gate_one_pair_short():
    obj = _bell_circuit_obj()
    obj["gates"][0]["matrix"].pop()
    return obj


class TestSchemaErrors:
    @pytest.mark.parametrize(
        "command, payload",
        [
            ("synthesize", _short_core_mps),
            ("simulate", _gate_without_width),
            ("simulate", _gate_one_pair_short),
            ("decompose", lambda: {"schema": mps.AMPS_SCHEMA}),
        ],
    )
    def test_exit_2_without_traceback_or_output(self, command, payload, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload()))
        out = tmp_path / "out"
        code = cli.main([command, "--input", str(path), "--output", str(out)])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()


def _circuit_with_register(num_qubits, gates):
    obj = _bell_circuit_obj()
    obj["num_qubits"] = num_qubits
    obj["gates"] = obj["gates"][-1:] if gates else []
    return obj


class TestRegisterSize:
    # 64 qubits is beyond numpy's array size limit, so nothing is allocated
    @pytest.mark.parametrize("num_qubits", [64, -1, 0])
    @pytest.mark.parametrize("gates", [True, False])
    def test_exit_2_without_traceback_or_output(self, num_qubits, gates, tmp_path, capsys):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(_circuit_with_register(num_qubits, gates)))
        out = tmp_path / "probs.csv"
        code = cli.main(["simulate", "--input", str(path), "--output", str(out)])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()


class TestExtremeScale:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_huge_and_tiny_inputs_normalize(self, scale, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([scale, scale]))
        out = tmp_path / "state.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["decompose", "--input", str(path), "--output", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "normalizing" in err and "inf" not in err
        state = mps.mps_from_obj(json.loads(out.read_text()))
        amps = mps.reconstruct(state).amps
        assert np.allclose(amps, [2**-0.5, 2**-0.5], rtol=1e-15, atol=0)


class TestJsonOutput:
    def test_every_json_file_is_one_line(self, tmp_path, capsys):
        # One compact line per file: json.dumps without indent, the form that
        # CPython serializes with its C encoder.
        amps = write_amps(tmp_path / "t.json", random_state(4, np.random.default_rng(3)))
        mps_path, circ_path = str(tmp_path / "mps.json"), str(tmp_path / "circ.json")
        commands = [
            ["decompose", "--input", amps, "--output", mps_path],
            ["synthesize", "--input", mps_path, "--output", circ_path],
            ["simulate", "--input", circ_path, "--format", "json",
             "--output", str(tmp_path / "probs.json")],
            ["sweep", "--input", amps, "--fidelity", "0.9",
             "--output", str(tmp_path / "sweep.json")],
            ["bench", "--qubits", "4", "--count", "2", "--thresholds", "0.9",
             "--jobs", "1", "--format", "json", "--output", str(tmp_path / "table.json")],
        ]
        for argv in commands:
            assert cli.main(argv) == 0
        written = sorted(p.name for p in tmp_path.glob("*.json") if p.name != "t.json")
        assert written == ["circ.json", "mps.json", "probs.json", "sweep.json",
                           "sweep.json.record.json", "table.json"]
        for name in written:
            text = (tmp_path / name).read_text()
            assert text.endswith("\n") and text.count("\n") == 1, name
            json.loads(text)

    def test_indented_files_still_load(self, tmp_path, capsys):
        amps = write_amps(tmp_path / "t.json", random_state(4, np.random.default_rng(5)))
        paths = {n: str(tmp_path / n) for n in
                 ("mps.json", "mps2.json", "circ.json", "circ2.json", "p.csv", "p2.csv")}

        def indent(src, dst):  # rewrite a file the way earlier versions wrote it
            text = json.dumps(json.loads(open(src).read()), indent=2)
            assert "\n  " in text
            open(dst, "w").write(text + "\n")

        assert cli.main(["decompose", "--input", amps, "--output", paths["mps.json"]]) == 0
        indent(paths["mps.json"], paths["mps2.json"])
        for mps_name, circ_name in (("mps.json", "circ.json"), ("mps2.json", "circ2.json")):
            argv = ["synthesize", "--input", paths[mps_name], "--output", paths[circ_name]]
            assert cli.main(argv) == 0
        assert open(paths["circ.json"]).read() == open(paths["circ2.json"]).read()
        indent(paths["circ.json"], paths["circ2.json"])
        for circ_name, probs in (("circ.json", "p.csv"), ("circ2.json", "p2.csv")):
            argv = ["simulate", "--input", paths[circ_name], "--output", paths[probs],
                    "--target", amps]
            assert cli.main(argv) == 0
        assert open(paths["p.csv"]).read() == open(paths["p2.csv"]).read()
