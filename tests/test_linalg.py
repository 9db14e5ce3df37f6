import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsprep import linalg
from mpsprep.errors import InvalidMatrix, InvalidSplit, NotIsometry


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestSvd:
    def test_identity(self):
        res = linalg.svd(np.eye(2))
        assert np.allclose(res.s, [1.0, 1.0])
        uvh = res.u @ res.vh
        assert np.max(np.abs(uvh.conj().T @ uvh - np.eye(2))) < 1e-12

    def test_diagonal(self):
        res = linalg.svd(np.diag([3.0, 0.0]))
        assert np.allclose(res.s, [3.0, 0.0])
        assert res.rank == 1

    def test_reconstruction(self, rng):
        m = random_complex(rng, 8, 8)
        res = linalg.svd(m)
        assert np.linalg.norm(res.u @ np.diag(res.s) @ res.vh - m) < 1e-10

    def test_descending_order(self, rng):
        res = linalg.svd(random_complex(rng, 12, 7))
        assert np.all(np.diff(res.s) <= 0)

    def test_gauge_fixed_and_deterministic(self, rng):
        m = random_complex(rng, 6, 6)
        a, b = linalg.svd(m), linalg.svd(m.copy())
        for k in range(6):
            pivot = np.argmax(np.abs(a.u[:, k]))
            entry = a.u[pivot, k]
            assert entry.imag == 0 and entry.real > 0
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.vh, b.vh)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gauge_fix_matches_column_loop(self, data):
        rows = data.draw(st.integers(1, 40))
        cols = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        m = random_complex(rng, rows, cols)
        if data.draw(st.booleans()):
            m = np.round(m)  # integer entries: tied magnitudes, zero columns
        res = linalg.svd(m)
        u, _, vh = np.linalg.svd(m, full_matrices=False)
        u, vh = np.ascontiguousarray(u), np.ascontiguousarray(vh)
        for k in range(u.shape[1]):  # the column-by-column gauge fix
            col = u[:, k]
            pivot = int(np.argmax(np.abs(col)))
            a = col[pivot]
            if a != 0:
                phase = a / abs(a)
                u[:, k] = col / phase
                u[pivot, k] = abs(a)
                vh[k, :] *= phase
        assert np.array_equal(res.u, u)
        assert np.array_equal(res.vh, vh)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidMatrix):
            linalg.svd(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(InvalidMatrix):
            linalg.svd(np.array([[np.inf, 0], [0, 1]]))

    def test_eckart_young(self, rng):
        m = random_complex(rng, 10, 10)
        res = linalg.svd(m)
        for k in range(1, 10):
            approx = res.u[:, :k] @ np.diag(res.s[:k]) @ res.vh[:k]
            err2 = np.linalg.norm(m - approx) ** 2
            tail = np.sum(res.s[k:] ** 2)
            assert err2 == pytest.approx(tail, rel=1e-9, abs=1e-12)


class TestUnfold:
    def test_2x2x2_split1(self):
        t = np.arange(8).reshape(2, 2, 2)
        m = linalg.unfold(t, 1)
        assert m.shape == (2, 4)
        for j1 in range(2):
            for j2 in range(2):
                for j3 in range(2):
                    assert m[j1, 2 * j2 + j3] == t[j1, j2, j3]

    def test_2x2x2_split2(self):
        m = linalg.unfold(np.arange(8).reshape(2, 2, 2), 2)
        assert m.shape == (4, 2)

    def test_split_out_of_range(self):
        t = np.zeros((2, 2, 2))
        for bad in (0, 3, -1):
            with pytest.raises(InvalidSplit):
                linalg.unfold(t, bad)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_roundtrip_exact(self, data):
        ndim = data.draw(st.integers(2, 6))
        shape = tuple(data.draw(st.integers(1, 4)) for _ in range(ndim))
        while int(np.prod(shape)) > 2**10:
            shape = shape[:-1]
        if len(shape) < 2:
            shape = shape + (2,)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for split in range(1, len(shape)):
            back = linalg.refold(linalg.unfold(t, split), shape)
            assert np.array_equal(back, t)


class TestCompleteToUnitary:
    def test_square_returned_unchanged(self, rng):
        q, _ = np.linalg.qr(random_complex(rng, 5, 5))
        out = linalg.complete_to_unitary(q)
        assert np.array_equal(out, q)

    def test_standard_basis_column(self):
        col = np.zeros((4, 1), dtype=complex)
        col[0, 0] = 1.0
        g = linalg.complete_to_unitary(col)
        assert np.array_equal(g[:, 0], col[:, 0])
        assert np.max(np.abs(g.conj().T @ g - np.eye(4))) < 1e-10

    def test_hadamard_like_column(self):
        col = np.array([[1.0], [1.0]]) / np.sqrt(2)
        g = linalg.complete_to_unitary(col)
        assert np.max(np.abs(g.conj().T @ g - np.eye(2))) < 1e-10
        assert abs(abs(np.linalg.det(g)) - 1.0) < 1e-10

    @pytest.mark.parametrize("dim,k", [(4, 2), (16, 3), (32, 17), (64, 1), (64, 63)])
    def test_random_isometries(self, dim, k, rng):
        q, _ = np.linalg.qr(random_complex(rng, dim, k))
        g = linalg.complete_to_unitary(q[:, :k])
        assert np.max(np.abs(g.conj().T @ g - np.eye(dim))) < 1e-10
        assert np.array_equal(g[:, :k], q[:, :k])

    def test_deterministic(self, rng):
        q, _ = np.linalg.qr(random_complex(rng, 8, 3))
        assert np.array_equal(
            linalg.complete_to_unitary(q), linalg.complete_to_unitary(q.copy())
        )

    def test_rejects_non_isometry(self, rng):
        with pytest.raises(NotIsometry):
            linalg.complete_to_unitary(random_complex(rng, 4, 2))
        with pytest.raises(NotIsometry):
            linalg.complete_to_unitary(np.ones((2, 3)))
