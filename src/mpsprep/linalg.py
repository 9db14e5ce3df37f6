"""Dense complex linear algebra substrate.

Gauge-fixed SVD, tensor unfolding in the rightmost-fastest (C) index
convention, and deterministic orthonormal completion of partial isometries.
All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, InvalidSplit, NotIsometry, NumericalFailure

#: Singular values below RANK_TOL * s_max are treated as exact zeros.
RANK_TOL = 1e-12

#: Entrywise tolerance for orthonormality checks on completion inputs.
ISOMETRY_TOL = 1e-8


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(s) @ vh`` with a fixed phase gauge."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @property
    def rank(self) -> int:
        """Number of singular values above the relative zero threshold."""
        if self.s.size == 0 or self.s[0] == 0.0:
            return 0
        return int(np.count_nonzero(self.s > RANK_TOL * self.s[0]))


def svd(m: np.ndarray) -> SvdResult:
    """Thin SVD with deterministic phases.

    Each left singular vector is rotated so its largest-magnitude entry
    (the first one on ties) is real and positive (the compensating phase
    goes into the matching row of ``vh``), which makes downstream gate
    synthesis reproducible across runs and platforms.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidMatrix(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("matrix contains NaN or Inf entries")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    u = np.ascontiguousarray(u)
    vh = np.ascontiguousarray(vh)
    cols = np.arange(s.size)
    pivots = np.argmax(np.abs(u), axis=0)
    a = u[pivots, cols]
    # hypot, not np.abs: it rounds like abs() of a complex scalar, so the
    # phases match a column-by-column gauge fix bit for bit
    mag = np.hypot(a.real, a.imag)
    nz = mag != 0
    phase = np.ones_like(a)
    phase[nz] = a[nz] / mag[nz]
    u /= phase
    # keep the pivot entries exactly real
    u[pivots[nz], cols[nz]] = mag[nz]
    vh *= phase[:, None]
    return SvdResult(u=u, s=s, vh=vh)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values only (descending), without computing u/vh."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("matrix contains NaN or Inf entries")
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def unfold(t: np.ndarray, split: int) -> np.ndarray:
    """Reshape a tensor into a matrix, grouping axes [0, split) as rows.

    The flat index convention is rightmost-fastest, so this is a plain
    C-order reshape: element (r, c) carries the multi-index obtained by
    concatenating the digit expansions of r and c.
    """
    t = np.asarray(t)
    if not 1 <= split <= t.ndim - 1:
        raise InvalidSplit(f"split {split} out of range for {t.ndim} axes")
    rows = int(np.prod(t.shape[:split]))
    return t.reshape(rows, -1)


def refold(m: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`unfold`; exact (bit-identical) round trip."""
    return np.asarray(m).reshape(shape)


def complete_to_unitary(partial: np.ndarray) -> np.ndarray:
    """Extend k orthonormal columns to a full D x D unitary.

    The completion appends the D standard basis vectors, runs modified
    Gram-Schmidt (with one re-orthogonalization pass), and keeps survivors
    in standard-basis order, so the output is deterministic and the first
    k columns equal ``partial`` exactly.
    """
    partial = np.asarray(partial, dtype=complex)
    if partial.ndim != 2:
        raise InvalidMatrix(f"expected a 2-d matrix, got shape {partial.shape}")
    dim, k = partial.shape
    if k > dim:
        raise NotIsometry(f"{k} columns cannot be orthonormal in dimension {dim}")
    gram = partial.conj().T @ partial
    if np.max(np.abs(gram - np.eye(k))) > ISOMETRY_TOL:
        raise NotIsometry("input columns are not orthonormal")
    if k == dim:
        return partial.copy()

    basis = np.empty((dim, dim), dtype=complex)
    basis[:, :k] = partial
    filled = k
    for j in range(dim):
        if filled == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[j] = 1.0
        for _ in range(2):
            v = v - basis[:, :filled] @ (basis[:, :filled].conj().T @ v)
        norm = np.linalg.norm(v)
        if norm < ISOMETRY_TOL:
            continue
        basis[:, filled] = v / norm
        filled += 1
    if filled != dim:
        raise NumericalFailure("Gram-Schmidt completion failed to fill the basis")
    return basis
