import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import bell, ghz, random_product_state, random_state
from mpsprep import bench, linalg, mps
from mpsprep.errors import (
    CorruptMps,
    DimensionMismatch,
    InfeasibleRanks,
    InvalidMatrix,
    NotNormalized,
    StaleStep,
)


class TestDecompose:
    def test_product_state_01(self):
        state = mps.decompose(mps.AmplitudeVector.from_array([0, 1, 0, 0]))
        assert state.bond_dims == (1,)
        assert state.cores[0].shape == (1, 2, 1)

    def test_bell(self):
        state = mps.decompose(bell())
        assert state.bond_dims == (2,)

    def test_ghz4_rank1_caps(self):
        target = ghz(4)
        state = mps.decompose(target, rank_caps=[1, 1, 1])
        assert state.bond_dims == (1, 1, 1)
        fid = mps.fidelity(mps.reconstruct(state), target)
        assert fid == pytest.approx(0.5, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            mps.decompose(mps.AmplitudeVector.from_array([1, 1, 0, 0]))

    def test_infeasible_caps_rejected(self, rng):
        with pytest.raises(InfeasibleRanks):
            mps.decompose(random_state(4, rng), rank_caps=[1, 4, 1])
        with pytest.raises(InfeasibleRanks):
            mps.decompose(random_state(4, rng), rank_caps=[2, 0, 2])
        with pytest.raises(InfeasibleRanks):
            mps.decompose(random_state(4, rng), rank_caps=[2, 2])

    def test_caps_never_increase_rank(self, rng):
        target = random_product_state(5, rng)
        state = mps.decompose(target, rank_caps=[2, 2, 2, 2])
        assert state.bond_dims == (1, 1, 1, 1)


class TestReconstruct:
    def test_roundtrip_random(self, rng):
        target = random_state(6, rng)
        rec = mps.reconstruct(mps.decompose(target))
        assert np.linalg.norm(rec.amps - target.amps) < 1e-10

    def test_single_qubit(self):
        core = np.array([[[0.6], [0.8j]]])
        state = mps.MpsState(cores=(core,))
        assert np.allclose(mps.reconstruct(state).amps, [0.6, 0.8j])

    def test_fully_truncated_ghz_is_basis_state(self):
        state = mps.decompose(ghz(4))
        while (step := mps.next_truncation(state)) is not None:
            state = mps.apply_truncation(state, step)
        amps = mps.reconstruct(state).amps
        probs = np.abs(amps) ** 2
        assert np.max(probs) == pytest.approx(1.0, abs=1e-12)


class TestRightCanonical:
    def test_fresh_decomposition(self, rng):
        state = mps.decompose(random_state(7, rng))
        assert mps.verify_right_canonical(state) < 1e-10

    def test_scaled_core_detected(self, rng):
        state = mps.decompose(random_state(4, rng))
        cores = list(state.cores)
        cores[2] = 2.0 * cores[2]
        broken = mps.MpsState(cores=tuple(cores), right_canonical=False)
        assert mps.verify_right_canonical(broken) == pytest.approx(3.0, abs=1e-9)

    def test_product_state(self, rng):
        state = mps.decompose(random_product_state(5, rng))
        assert mps.verify_right_canonical(state) < 1e-12


class TestTruncation:
    def test_nothing_to_drop(self, rng):
        state = mps.decompose(random_product_state(4, rng))
        assert mps.next_truncation(state) is None

    def test_picks_smallest_relative_sigma(self):
        # two Bell-like pairs; the much weaker second Schmidt weight of the
        # right pair should be dropped first
        a, b = 0.8, 0.9999
        left = np.array([np.sqrt(a), 0, 0, np.sqrt(1 - a)])
        right = np.array([np.sqrt(b), 0, 0, np.sqrt(1 - b)])
        target = mps.AmplitudeVector.from_array(np.kron(left, right))
        state = mps.decompose(target)
        assert state.bond_dims == (2, 1, 2)
        step = mps.next_truncation(state)
        assert step.bond_index == 3
        assert step.dropped_relative_sigma == pytest.approx(
            np.sqrt((1 - b) / b), rel=1e-6
        )

    def test_infeasible_bond_skipped(self):
        # bond 3 has the smallest singular-value ratio but reducing it to
        # rank 1 would leave bond 2 at 3 > 2 * 1, so the greedy step must
        # land on bond 2 instead
        delta = 1e-3

        def ket(bits):
            v = np.zeros(16)
            v[int(bits, 2)] = 1.0
            return v

        u0 = (ket("0000") + ket("1110")) / np.sqrt(2)
        u1 = ket("0101")
        amps = np.sqrt(1 - delta**2) * u0 + delta * u1
        state = mps.decompose(mps.AmplitudeVector.from_array(amps))
        assert state.bond_dims == (2, 3, 2)
        spectra = mps.bond_spectra(state)
        ratios = [s[-1] / s[0] for s in spectra]
        assert np.argmin(ratios) == 2
        # bond 2's ratio is sqrt(2) * delta, strictly above bond 3's
        assert ratios[1] == pytest.approx(np.sqrt(2) * delta, rel=1e-3)
        step = mps.next_truncation(state)
        assert step.bond_index == 2

    def test_bell_truncation_fidelity(self):
        target = bell()
        state = mps.decompose(target)
        step = mps.next_truncation(state)
        assert step.old_rank == 2 and step.new_rank == 1
        truncated = mps.apply_truncation(state, step)
        assert truncated.bond_dims == (1,)
        assert mps.fidelity(mps.reconstruct(truncated), target) == pytest.approx(
            0.5, abs=1e-12
        )
        assert truncated.truncation_log == (step,)

    def test_ghz4_middle_bond(self):
        target = ghz(4)
        state = mps.decompose(target)
        spectra = mps.bond_spectra(state)
        step = mps.TruncationStep(
            bond_index=2,
            old_rank=2,
            new_rank=1,
            dropped_relative_sigma=float(spectra[1][1] / spectra[1][0]),
            local_frobenius_error=float(spectra[1][1]),
        )
        truncated = mps.apply_truncation(state, step)
        assert mps.fidelity(mps.reconstruct(truncated), target) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_canonical_after_every_step(self, rng):
        state = mps.decompose(random_state(6, rng))
        while (step := mps.next_truncation(state)) is not None:
            state = mps.apply_truncation(state, step)
            assert mps.verify_right_canonical(state) < 1e-10

    def test_bond_inequality_along_schedule(self, rng):
        state = mps.decompose(random_state(7, rng))
        while (step := mps.next_truncation(state)) is not None:
            state = mps.apply_truncation(state, step)
            dims = (1,) + state.bond_dims + (1,)
            for n in range(1, len(dims)):
                assert dims[n - 1] <= 2 * dims[n]

    def test_monotone_rank_schedule(self, rng):
        state = mps.decompose(random_state(6, rng))
        previous = state.bond_dims
        while (step := mps.next_truncation(state)) is not None:
            state = mps.apply_truncation(state, step)
            dims = state.bond_dims
            assert all(d <= p for d, p in zip(dims, previous))
            previous = dims

    def test_stale_step_rejected(self):
        state = mps.decompose(bell())
        step = mps.next_truncation(state)
        once = mps.apply_truncation(state, step)
        with pytest.raises(StaleStep):
            mps.apply_truncation(once, step)
        with pytest.raises(StaleStep):
            mps.apply_truncation(
                state,
                mps.TruncationStep(1, 3, 2, 0.5, 0.5),
            )

    def test_quadrature_error_bound(self, rng):
        target = random_state(8, rng)
        state = mps.decompose(target)
        dropped_sq = 0.0
        scale = 1.0
        while (step := mps.next_truncation(state)) is not None:
            dropped_sq += step.local_frobenius_error**2
            scale *= np.sqrt(max(1.0 - step.local_frobenius_error**2, 0.0))
            state = mps.apply_truncation(state, step)
            gap = np.linalg.norm(
                target.amps - scale * mps.reconstruct(state).amps
            ) ** 2
            assert gap <= dropped_sq + 1e-9


class TestStoredSpectra:
    @staticmethod
    def assert_matches_reference(state):
        reference = mps.bond_spectra(state)
        assert len(state.spectra) == len(reference)
        for stored, ref in zip(state.spectra, reference):
            assert stored.shape == ref.shape
            assert np.max(np.abs(stored - ref)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equal_bond_spectra_along_schedule(self, data):
        q = data.draw(st.integers(2, 7))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n = 2**q
        if data.draw(st.booleans()):  # dense
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        else:  # sparse
            amps = np.zeros(n, dtype=complex)
            nnz = data.draw(st.integers(1, n))
            amps[rng.choice(n, size=nnz, replace=False)] = 1.0 - rng.random(nnz)
        target = mps.AmplitudeVector.from_array(amps, normalize=True)
        caps = data.draw(st.lists(st.integers(1, 4), min_size=q - 1, max_size=q - 1))
        try:
            capped = mps.decompose(target, rank_caps=caps)
        except InfeasibleRanks:
            assume(False)
        for state in (mps.decompose(target), capped):
            self.assert_matches_reference(state)
            while (step := mps.next_truncation(state)) is not None:
                state = mps.apply_truncation(state, step)
                self.assert_matches_reference(state)

    def test_deserialized_state_recomputes(self, rng):
        state = mps.decompose(random_state(5, rng))
        back = mps.mps_from_obj(json.loads(json.dumps(mps.mps_to_obj(state))))
        assert back.spectra is None
        a, b = mps.next_truncation(back), mps.next_truncation(state)
        assert (a.bond_index, a.old_rank) == (b.bond_index, b.old_rank)
        assert a.dropped_relative_sigma == pytest.approx(
            b.dropped_relative_sigma, abs=1e-12
        )

    def test_exact_tie_goes_to_leftmost_bond(self):
        # bonds 4 and 7 have the same ratio in exact arithmetic; rounding
        # puts bond 7's last bit below bond 4's
        spec = bench.TargetSpec(
            "sparse_random", 10, {"seed": 115815301, "sparsity": 0.994140625}
        )
        state = mps.decompose(bench.generate(spec))
        assert mps.next_truncation(state).bond_index == 4
        assert mps.next_truncation(mps.MpsState(cores=state.cores)).bond_index == 4


def _two_sweep_step(state, step):
    """Reference: the greedy step as a left-to-right pruning sweep with the
    drop, followed by a whole right-canonicalization sweep (2(Q-1) SVDs)."""
    q, i = state.num_qubits, step.bond_index - 1
    cores = list(state.cores)
    carry = np.ones((1, 1), dtype=complex)
    for n in range(q - 1):
        core = np.tensordot(carry, cores[n], axes=([1], [0]))
        left, _, right = core.shape
        res = linalg.svd(core.reshape(left * 2, right))
        k = step.new_rank if n == i else max(res.rank, 1)
        cores[n] = res.u[:, :k].reshape(left, 2, k)
        carry = res.s[:k, None] * res.vh[:k]
    cores[q - 1] = np.tensordot(carry, cores[q - 1], axes=([1], [0]))
    cores, spectra = mps._right_canonicalize(cores)
    return mps.MpsState(
        cores=tuple(cores),
        truncation_log=state.truncation_log + (step,),
        spectra=spectra,
    )


def _draw_target(data, q):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = 2**q
    kind = data.draw(st.sampled_from(["dense", "complex", "sparse", "sparse_complex"]))
    if kind.startswith("sparse"):
        amps = np.zeros(n, dtype=complex)
        nnz = data.draw(st.integers(1, n))
        amps[rng.choice(n, size=nnz, replace=False)] = 1.0 - rng.random(nnz)
        if kind == "sparse_complex":
            amps *= np.exp(2j * np.pi * rng.random(n))
    else:
        amps = rng.normal(size=n) + (kind == "complex") * 1j * rng.normal(size=n)
    return mps.AmplitudeVector.from_array(amps, normalize=True)


def _schedule(state, step_fn=mps.apply_truncation, roundtrip=False):
    """States along the greedy schedule from ``state`` down to a product state."""
    states = [state]
    while True:
        if roundtrip:
            state = mps.mps_from_obj(json.loads(json.dumps(mps.mps_to_obj(state))))
            assert state.spectra is None
        if (step := mps.next_truncation(state)) is None:
            return states
        state = step_fn(state, step)
        states.append(state)


class TestSchmidtBasisForm:
    @staticmethod
    def assert_schmidt_basis(state):
        # the columns of every left block are orthogonal with norms equal
        # to the stored spectrum, independently of bond_spectra
        block = np.ones((1, 1), dtype=complex)
        for core, s in zip(state.cores[:-1], state.spectra):
            block = (block @ core.reshape(core.shape[0], -1)).reshape(-1, core.shape[2])
            gram = block.conj().T @ block
            assert np.max(np.abs(gram - np.diag(s**2))) < 1e-12
            assert np.all(np.diff(s) <= 0)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_invariant_along_schedule(self, data):
        q = data.draw(st.integers(2, 7))
        target = _draw_target(data, q)
        caps = data.draw(st.lists(st.integers(1, 4), min_size=q - 1, max_size=q - 1))
        try:
            capped = mps.decompose(target, rank_caps=caps)
        except InfeasibleRanks:
            assume(False)
        for start in (mps.decompose(target), capped):
            for state in _schedule(start):
                self.assert_schmidt_basis(state)
                assert mps.verify_right_canonical(state) < 1e-12

    @staticmethod
    def assert_same_schedule(a, b, target):
        assert [s.bond_dims for s in a] == [s.bond_dims for s in b]
        assert [t.bond_index for t in a[-1].truncation_log] == [
            t.bond_index for t in b[-1].truncation_log
        ]
        for x, y in zip(a, b):
            fa = mps.fidelity(mps.reconstruct(x), target)
            fb = mps.fidelity(mps.reconstruct(y), target)
            assert abs(fa - fb) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_same_schedule_as_two_sweep_reference(self, data):
        q = data.draw(st.integers(2, 7))
        target = _draw_target(data, q)
        start = mps.decompose(target)
        self.assert_same_schedule(
            _schedule(start), _schedule(start, _two_sweep_step), target
        )

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_deserialized_state_same_schedule(self, data):
        q = data.draw(st.integers(2, 7))
        target = _draw_target(data, q)
        start = mps.decompose(target)
        self.assert_same_schedule(
            _schedule(start), _schedule(start, roundtrip=True), target
        )

    @pytest.mark.parametrize("q", range(2, 9))
    def test_one_step_is_q_minus_2_svds(self, q, rng, monkeypatch):
        state = mps.decompose(random_state(q, rng))
        calls = []
        svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda m: calls.append(1) or svd(m))
        for i, (r, s) in enumerate(zip(state.bond_dims, state.spectra)):
            left = state.bond_dims[i - 1] if i else 1
            if r < 2 or left > 2 * (r - 1):
                continue
            step = mps.TruncationStep(i + 1, r, r - 1, float(s[-1] / s[0]), float(s[-1]))
            calls.clear()
            mps.apply_truncation(state, step)
            assert len(calls) == q - 2

    def test_redundant_hand_built_bond(self):
        # |00> written with a bond of dimension 2 whose second vector is
        # unused: the step drops the zero coefficient
        cores = (np.array([[[1, 0], [0, 0]]]), np.eye(2).reshape(2, 2, 1))
        state = mps.MpsState(cores=cores)
        step = mps.next_truncation(state)
        assert (step.bond_index, step.local_frobenius_error) == (1, 0.0)
        out = mps.apply_truncation(state, step)
        assert out.bond_dims == (1,)
        assert np.allclose(mps.reconstruct(out).amps, [1, 0, 0, 0])


class TestFidelity:
    def test_self(self, rng):
        v = random_state(5, rng)
        assert mps.fidelity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        zero = mps.AmplitudeVector.from_array([1, 0])
        one = mps.AmplitudeVector.from_array([0, 1])
        assert mps.fidelity(zero, one) == 0.0

    def test_bell_vs_best_product(self):
        target = bell()
        state = mps.decompose(target, rank_caps=[1])
        assert mps.fidelity(mps.reconstruct(state), target) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_phase_invariant(self, rng):
        v = random_state(3, rng)
        w = mps.AmplitudeVector(3, np.exp(0.7j) * v.amps)
        assert mps.fidelity(v, w) == pytest.approx(1.0, abs=1e-12)

    def test_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            mps.fidelity(random_state(2, rng), random_state(3, rng))


class TestOverlap:
    def test_matches_dense_inner_product(self, rng):
        a, b = random_state(6, rng), random_state(6, rng)
        ma, mb = mps.decompose(a), mps.decompose(b)
        dense = np.vdot(a.amps, b.amps)
        assert abs(mps.overlap(ma, mb) - dense) < 1e-10


class TestEntropy:
    def test_product_state_zero(self, rng):
        report = mps.mean_normalized_bipartite_entropy(random_product_state(5, rng))
        assert report.mean == pytest.approx(0.0, abs=1e-10)

    def test_bell_is_one(self):
        report = mps.mean_normalized_bipartite_entropy(bell())
        assert report.mean == pytest.approx(1.0, abs=1e-12)

    def test_ghz4(self):
        report = mps.mean_normalized_bipartite_entropy(ghz(4))
        assert report.per_cut == pytest.approx((1.0, 0.5, 1.0), abs=1e-12)
        assert report.mean == pytest.approx(5 / 6, abs=1e-12)

    def test_basis_state_exactly_zero(self):
        amps = np.zeros(64)
        amps[17] = 1.0
        report = mps.mean_normalized_bipartite_entropy(
            mps.AmplitudeVector.from_array(amps)
        )
        assert report.mean == 0.0

    def test_bounds(self, rng):
        report = mps.mean_normalized_bipartite_entropy(random_state(7, rng))
        assert all(0.0 <= s <= 1.0 + 1e-9 for s in report.per_cut)

    def test_single_qubit_undefined(self):
        with pytest.raises(DimensionMismatch):
            mps.mean_normalized_bipartite_entropy(
                mps.AmplitudeVector.from_array([1, 0])
            )


class TestAmplitudeVector:
    @pytest.mark.parametrize("bad", [[1, np.nan], [np.inf, 0], [0, 1j * np.nan, 0, 0]])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(InvalidMatrix):
            mps.AmplitudeVector.from_array(bad)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_zero_norm_rejected(self, normalize):
        with pytest.raises(NotNormalized):
            mps.AmplitudeVector.from_array([0, 0, 0, 0], normalize=normalize)

    def test_normalize(self):
        av = mps.AmplitudeVector.from_array([3, 4j], normalize=True)
        assert np.array_equal(av.amps, np.array([3, 4j]) / 5)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1.7e308, 5e-324])
    def test_huge_and_tiny_vectors_normalize(self, scale):
        av = mps.AmplitudeVector.from_array([scale, scale], normalize=True)
        assert np.allclose(av.amps, [2**-0.5, 2**-0.5], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_norm_of_huge_and_tiny_vectors(self, scale):
        av = mps.AmplitudeVector.from_array([scale, -scale])
        assert av.norm == pytest.approx(2**0.5 * scale, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-150, 150))
    def test_scaling_matches_plain_division(self, q, seed, log_scale):
        # Power-of-two scaling is exact, so where the plain sum of squares
        # neither overflows nor underflows both normalizations agree bitwise.
        rng = np.random.default_rng(seed)
        v = (rng.normal(size=2**q) + 1j * rng.normal(size=2**q)) * 10.0**log_scale
        plain = np.linalg.norm(v)
        av = mps.AmplitudeVector.from_array(v, normalize=True)
        assert av.amps.tobytes() == (v / plain).tobytes()
        assert mps.AmplitudeVector.from_array(v).norm == plain


class TestStateValidation:
    def test_eq7_enforced_for_canonical(self):
        # claims right-canonical with left bond 2 feeding right bond 1 at
        # an inner core of width 4 -> 4 > 2 * 1 is impossible
        with pytest.raises(CorruptMps):
            mps.MpsState(
                cores=(
                    np.zeros((1, 2, 2)),
                    np.zeros((2, 2, 4)),
                    np.zeros((4, 2, 1)),
                ),
            )

    def test_shape_chain_checked(self):
        with pytest.raises(CorruptMps):
            mps.MpsState(cores=(np.zeros((1, 2, 2)), np.zeros((3, 2, 1))))

    def test_boundary_dims_checked(self):
        with pytest.raises(CorruptMps):
            mps.MpsState(cores=(np.zeros((2, 2, 1)),))


class TestSerialization:
    def test_mps_roundtrip(self, rng):
        target = random_state(5, rng)
        state = mps.decompose(target)
        step = mps.next_truncation(state)
        state = mps.apply_truncation(state, step)
        obj = json.loads(json.dumps(mps.mps_to_obj(state)))
        back = mps.mps_from_obj(obj)
        assert back.bond_dims == state.bond_dims
        assert back.truncation_log == state.truncation_log
        assert np.linalg.norm(
            mps.reconstruct(back).amps - mps.reconstruct(state).amps
        ) < 1e-12

    def test_amplitude_roundtrip(self, rng):
        target = random_state(4, rng)
        obj = json.loads(json.dumps(mps.amplitude_to_obj(target)))
        back = mps.amplitude_from_obj(obj)
        assert np.array_equal(back.amps, target.amps)

    def test_bare_array_accepted(self):
        back = mps.amplitude_from_obj([1, 0, 0, 0])
        assert back.num_qubits == 2

    def test_schema_checked(self):
        with pytest.raises(CorruptMps):
            mps.mps_from_obj({"schema": "bogus", "cores": []})


_EDGE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)


class TestComplexCodec:
    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
        elements=st.builds(complex, _EDGE_FLOATS, _EDGE_FLOATS),
    ))
    def test_json_roundtrip_is_bit_exact(self, a):
        text = json.dumps(mps._encode_complex(a), separators=(",", ":"))
        back = mps._decode_complex(json.loads(text), a.ndim)
        assert back.shape == a.shape
        assert np.array_equal(back, a)
        assert back.tobytes() == a.tobytes()  # signs of zero included

    def test_encode_matches_per_entry_floats(self, rng):
        a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        want = [[[float(z.real), float(z.imag)] for z in row] for row in a]
        assert mps._encode_complex(a) == want

    def test_mixed_numbers_and_pairs_accepted(self):
        av = mps.amplitude_from_obj([0.5, [0, 0.5], [0.5, 0], -0.5])
        assert np.array_equal(av.amps, [0.5, 0.5j, 0.5, -0.5])

    def test_pairs_and_bare_numbers_agree(self, rng):
        v = rng.normal(size=8)
        obj = mps.amplitude_to_obj(mps.AmplitudeVector.from_array(v))
        bare = mps.amplitude_from_obj(v.tolist())
        assert bare.amps.tobytes() == mps.amplitude_from_obj(obj).amps.tobytes()

    @pytest.mark.parametrize(
        "values",
        [["a", 0], [None, 0], [[1, 0], [0]], [[1, 0], ["x", 0]], [[1, 0, 0]],
         [[[1, 0], [0, 0]]], 5, {"schema": mps.AMPS_SCHEMA}],
    )
    def test_bad_amplitudes_rejected(self, values):
        with pytest.raises(CorruptMps):
            mps.amplitude_from_obj(values)

    @pytest.mark.parametrize("rows", [[["a", "b"]], [[None, 0]], [[[1, 0]], [[0]]]])
    def test_bad_core_values_rejected(self, rows):
        obj = mps.mps_to_obj(mps.decompose(bell()))
        obj["cores"][0] = rows
        with pytest.raises(CorruptMps):
            mps.mps_from_obj(obj)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda o: o.pop("cores"),
            lambda o: o.pop("bond_dims"),
            lambda o: o.update(bond_dims=[2, 2]),
            lambda o: o.update(bond_dims="x"),
            lambda o: o["cores"][0][0].pop(),  # first core one pair short
            lambda o: o.update(truncation_log=[{"bond_index": 1}]),
        ],
    )
    def test_malformed_mps_rejected(self, edit):
        obj = json.loads(json.dumps(mps.mps_to_obj(mps.decompose(bell()))))
        edit(obj)
        with pytest.raises(CorruptMps):
            mps.mps_from_obj(obj)

    def test_non_object_rejected(self):
        with pytest.raises(CorruptMps):
            mps.mps_from_obj([1, 2])
