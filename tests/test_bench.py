import json
import time

import numpy as np
import pytest

from mpsprep import bench, circuit, mps, sim
from mpsprep.errors import InvalidSpec


class TestGenerate:
    def test_normal_is_normalized_and_smooth(self):
        target = bench.generate(bench.TargetSpec("normal", 6))
        assert np.linalg.norm(target.amps) == pytest.approx(1.0, abs=1e-12)
        assert np.all(target.amps.real >= 0)
        # bell-shaped: peak near the middle of the grid
        peak = int(np.argmax(np.abs(target.amps)))
        assert 2**5 - 2 <= peak <= 2**5 + 1

    def test_lognormal(self):
        target = bench.generate(bench.TargetSpec("lognormal", 6))
        assert np.linalg.norm(target.amps) == pytest.approx(1.0, abs=1e-12)
        assert target.amps[0] == 0.0

    def test_sinusoidal(self):
        target = bench.generate(bench.TargetSpec("sinusoidal", 5))
        assert np.linalg.norm(target.amps) == pytest.approx(1.0, abs=1e-12)

    def test_sparse_random_support(self):
        spec = bench.TargetSpec(
            "sparse_random", 8, {"sparsity": 0.95, "seed": 7}
        )
        target = bench.generate(spec)
        nnz = np.count_nonzero(target.amps)
        assert nnz == int(np.ceil(0.05 * 256))
        assert np.linalg.norm(target.amps) == pytest.approx(1.0, abs=1e-12)

    def test_sparse_random_deterministic(self):
        spec = bench.TargetSpec("sparse_random", 6, {"sparsity": 0.9, "seed": 3})
        a, b = bench.generate(spec), bench.generate(spec)
        assert np.array_equal(a.amps, b.amps)

    def test_dense_random_distinct_seeds(self):
        a = bench.generate(bench.TargetSpec("dense_random", 5, {"seed": 1}))
        b = bench.generate(bench.TargetSpec("dense_random", 5, {"seed": 2}))
        assert not np.array_equal(a.amps, b.amps)

    def test_file_must_match_num_qubits(self, tmp_path):
        path = tmp_path / "amps.json"
        path.write_text(json.dumps([1.0] * 8))
        target = bench.generate(bench.TargetSpec("file", 3, {"path": str(path)}))
        assert target.num_qubits == 3
        with pytest.raises(InvalidSpec):
            bench.generate(bench.TargetSpec("file", 5, {"path": str(path)}))

    def test_bad_kind(self):
        with pytest.raises(InvalidSpec):
            bench.generate(bench.TargetSpec("cauchy", 4))

    def test_bad_params(self):
        with pytest.raises(InvalidSpec):
            bench.generate(bench.TargetSpec("sparse_random", 4, {"sparsity": 1.0}))
        with pytest.raises(InvalidSpec):
            bench.generate(bench.TargetSpec("normal", 4, {"std_fraction": 0.0}))
        with pytest.raises(InvalidSpec):
            bench.generate(bench.TargetSpec("normal", 1))


class TestTrajectory:
    def test_starts_exact_ends_product(self):
        target = bench.generate(bench.TargetSpec("normal", 6))
        traj = bench.greedy_trajectory(target)
        assert traj[0][1] == pytest.approx(1.0, abs=1e-10)
        assert traj[-1][0].bond_dims == (1,) * 5
        fids = [f for _, f in traj]
        assert all(0 <= f <= 1 + 1e-12 for f in fids)

    def test_truncation_counts_increase(self):
        target = bench.generate(bench.TargetSpec("dense_random", 5, {"seed": 9}))
        traj = bench.greedy_trajectory(target)
        for k, (state, _) in enumerate(traj):
            assert len(state.truncation_log) == k


class TestEarlyStop:
    SPECS = [
        bench.TargetSpec("dense_random", 6, {"seed": 3}),
        bench.TargetSpec("sparse_random", 7, {"seed": 5, "sparsity": 0.8}),
        bench.TargetSpec("normal", 6),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    @pytest.mark.parametrize("capped", [False, True])
    def test_prefix_of_full_trajectory(self, spec, capped):
        target = bench.generate(spec)
        q = target.num_qubits
        start = mps.decompose(target, rank_caps=[2] * (q - 1)) if capped else None
        full = bench.greedy_trajectory(target, start=start)
        fids = sorted({f for _, f in full})
        lengths = set()
        for f_min in (0.999, 0.95, 0.9, 0.5, fids[0], fids[len(fids) // 2]):
            early = bench.greedy_trajectory(target, start=start, f_min=f_min)
            lengths.add(len(early))
            assert len(early) <= len(full)
            for (a, fa), (b, fb) in zip(early, full):
                assert fa == fb
                assert a.truncation_log == b.truncation_log
                assert all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))
            # stops right after the first state below f_min, or at the end
            assert all(f >= f_min for _, f in early[:-1])
            assert early[-1][1] < f_min or len(early) == len(full)
            for t in sorted({f_min, (f_min + 1) / 2, 1.0} | {f for f in fids if f >= f_min}):
                picked, fid = bench._pick(early, t)
                ref, ref_fid = bench._pick(full, t)
                assert fid == ref_fid
                assert picked.truncation_log == ref.truncation_log
        assert min(lengths) < len(full)  # the stop did cut the schedule short

    def test_default_runs_to_product_state(self):
        target = bench.generate(bench.TargetSpec("dense_random", 5, {"seed": 9}))
        traj = bench.greedy_trajectory(target)
        assert traj[-1][0].bond_dims == (1,) * 4
        assert mps.next_truncation(traj[-1][0]) is None


class TestEntropyOncePerSpec:
    @pytest.fixture
    def entropy_calls(self, monkeypatch):
        calls = []
        original = mps.mean_normalized_bipartite_entropy

        def counted(target):
            calls.append(target)
            return original(target)

        monkeypatch.setattr(mps, "mean_normalized_bipartite_entropy", counted)
        return calls

    def test_eval_spec(self, entropy_calls):
        spec = bench.TargetSpec("sparse_random", 6, {"seed": 4, "sparsity": 0.7})
        records = bench._eval_spec((spec, (0.9, 0.95, 0.99)))
        assert len(entropy_calls) == 1
        assert {r.entropy for r in records} == {
            mps.mean_normalized_bipartite_entropy(entropy_calls[0]).mean
        }

    def test_sweep(self, entropy_calls):
        target = bench.generate(bench.TargetSpec("normal", 5))
        bench.sweep_to_threshold(target, 0.95)
        assert len(entropy_calls) == 1


class TestSweep:
    def test_threshold_respected(self):
        target = bench.generate(bench.TargetSpec("dense_random", 6, {"seed": 11}))
        circ, record = bench.sweep_to_threshold(target, 0.95)
        assert record.achieved_fidelity >= 0.95 - 1e-12
        assert sim.verify(circ, target) == pytest.approx(
            record.achieved_fidelity, abs=1e-12
        )

    def test_threshold_one_keeps_exact_state(self):
        target = bench.generate(bench.TargetSpec("normal", 5))
        circ, record = bench.sweep_to_threshold(target, 1.0)
        assert record.achieved_fidelity >= 1 - 1e-9

    def test_lower_threshold_never_costlier(self):
        target = bench.generate(bench.TargetSpec("dense_random", 7, {"seed": 21}))
        costs = []
        for t in (0.99, 0.95, 0.9, 0.8):
            _, record = bench.sweep_to_threshold(target, t)
            costs.append(record.entangling_cost)
        assert costs == sorted(costs, reverse=True)

    def test_bad_threshold(self):
        target = bench.generate(bench.TargetSpec("normal", 4))
        with pytest.raises(InvalidSpec):
            bench.sweep_to_threshold(target, 0.0)
        with pytest.raises(InvalidSpec):
            bench.sweep_to_threshold(target, 1.5)


class TestCompare:
    def make_specs(self):
        return bench.make_sparse_corpus(6, 6, seed=42)

    def test_record_layout(self):
        records = bench.compare(self.make_specs(), [0.9, 0.99])
        assert len(records) == 6 * 2 * 3
        methods = {r.method for r in records}
        assert methods == {"adaptive", "capped2", "isometry_ref"}
        for r in records:
            if r.method == "isometry_ref":
                assert r.entangling_cost == 2**6
            if r.method == "capped2" and r.feasible:
                assert r.achieved_fidelity >= r.threshold - 1e-12
            if r.method == "adaptive":
                assert r.achieved_fidelity >= r.threshold - 1e-12

    def test_sorted_by_entropy(self):
        records = bench.compare(self.make_specs(), [0.9])
        entropies = [r.entropy for r in records]
        assert entropies == sorted(entropies)

    def test_parallel_matches_serial(self):
        specs = self.make_specs()
        serial = bench.compare(specs, [0.9, 0.95])
        parallel = bench.compare(specs, [0.9, 0.95], jobs=4)
        assert bench.records_to_csv(serial) == bench.records_to_csv(parallel)

    def test_empty_inputs_rejected(self):
        with pytest.raises(InvalidSpec):
            bench.compare([], [0.9])
        with pytest.raises(InvalidSpec):
            bench.compare(self.make_specs(), [])


class TestSparseCorpus:
    def test_deterministic(self):
        a = bench.make_sparse_corpus(8, 10, seed=5)
        b = bench.make_sparse_corpus(8, 10, seed=5)
        assert a == b

    def test_count_and_kind(self):
        specs = bench.make_sparse_corpus(8, 10, seed=5)
        assert len(specs) == 10
        assert all(s.kind == "sparse_random" and s.num_qubits == 8 for s in specs)

    def test_nonzero_bound_respected(self):
        specs = bench.make_sparse_corpus(8, 30, seed=1, max_nonzeros=4)
        for spec in specs:
            target = bench.generate(spec)
            assert np.count_nonzero(target.amps) <= 4

    def test_entropy_spread(self):
        # the log-uniform nonzero counts must populate both the
        # near-product and the entangled end of the entropy range
        specs = bench.make_sparse_corpus(8, 40, seed=20240817, max_nonzeros=4)
        entropies = [
            mps.mean_normalized_bipartite_entropy(bench.generate(s)).mean
            for s in specs
        ]
        assert any(s < 0.1 for s in entropies)
        assert any(s > 0.5 for s in entropies)


class TestEntropyCostCorrelation:
    def test_low_entropy_cheaper_at_12_qubits(self):
        # wider register than the acceptance corpus; richer nonzero budget
        # so the entangled bin is populated
        start = time.monotonic()
        specs = bench.make_sparse_corpus(12, 10, seed=2024, max_nonzeros=150)
        records = bench.compare(specs, [0.95])
        lo = [
            r.entangling_cost
            for r in records
            if r.method == "adaptive" and r.entropy < 0.1
        ]
        hi = [
            r.entangling_cost
            for r in records
            if r.method == "adaptive" and r.entropy > 0.5
        ]
        assert lo and hi
        assert float(np.mean(lo)) < float(np.mean(hi))
        assert time.monotonic() - start < 120


class TestTableOutput:
    def make_records(self):
        return bench.compare(bench.make_sparse_corpus(5, 3, seed=8), [0.9])

    def test_csv_shape(self):
        records = self.make_records()
        text = bench.records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == bench.CSV_COLUMNS
        assert len(lines) == 1 + len(records)
        for line in lines[1:]:
            assert len(line.split(",")) == len(bench.CSV_COLUMNS.split(","))

    def test_json_parses(self):
        records = self.make_records()
        rows = json.loads(bench.records_to_json(records))
        assert rows == bench.records_to_obj(records)
        assert len(rows) == len(records)
        for row in rows:
            assert set(row) == set(bench.CSV_COLUMNS.split(","))

    def test_metric_precision(self):
        records = self.make_records()
        text = bench.records_to_csv(records)
        for line in text.strip().split("\n")[1:]:
            fid = line.split(",")[6]
            assert len(fid.replace(".", "").replace("-", "").lstrip("0")) <= 9
