"""Matrix product state construction, truncation, and measurement.

Index convention (single source of truth for the whole package): an
amplitude vector of Q qubits is indexed with j_1 as the most significant
bit and j_Q as the least significant, i.e. C order on (j_1, ..., j_Q).
Core n of an MPS has shape (left bond, 2, right bond) with the boundary
bonds of dimension 1.

A state is *right-canonical* when every core except the first has
orthonormal rows under the grouping (left; physical, right) and the first
core has unit Frobenius norm.  Right-canonical states satisfy the bond
inequality left <= 2 * right at every core, which also constrains the
order in which bonds may be truncated.

A right-canonical state is in *Schmidt-basis* form when, for every n, cores
1..n contract to orthogonal columns whose norms are bond n's Schmidt
coefficients in descending order.  States carrying ``spectra`` are in it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import linalg
from .errors import (
    CorruptMps,
    DimensionMismatch,
    InfeasibleRanks,
    InvalidMatrix,
    NotNormalized,
    StaleStep,
)

NORM_TOL = 1e-10
#: Singular-value ratios closer than this count as tied in next_truncation.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class AmplitudeVector:
    """A length-2^Q complex vector of expansion coefficients."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.num_qubits < 1 or amps.size != 2**self.num_qubits:
            raise DimensionMismatch(
                f"{amps.size} amplitudes do not fit {self.num_qubits} qubits"
            )
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_array(cls, values, normalize: bool = False) -> "AmplitudeVector":
        """Validated vector: power-of-two length, finite entries, nonzero
        norm; divided by its norm when ``normalize`` is set."""
        amps = np.asarray(values, dtype=complex).reshape(-1)
        q = int(round(math.log2(amps.size))) if amps.size else 0
        if amps.size == 0 or 2**q != amps.size:
            raise DimensionMismatch(f"length {amps.size} is not a power of two")
        if not np.all(np.isfinite(amps)):
            raise InvalidMatrix("amplitudes contain NaN or Inf entries")
        unit, _ = _scaled(amps)
        norm = np.linalg.norm(unit)
        if norm == 0:
            raise NotNormalized("amplitude norm 0.0 cannot be normalized")
        if normalize:
            amps = unit / norm
        return cls(num_qubits=q, amps=amps)

    @property
    def norm(self) -> float:
        """Euclidean norm; inf only when it exceeds the largest float."""
        unit, exp = _scaled(self.amps)
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.linalg.norm(unit), exp))


def _scaled(amps: np.ndarray) -> tuple[np.ndarray, int]:
    """``(amps * 2**-e, e)``, the largest real or imaginary part scaled into
    [0.5, 1) so that no sum of squares over- or underflows.  The power-of-two
    scaling is exact: norms and quotients match the unscaled ones bitwise."""
    parts = np.ascontiguousarray(amps, dtype=complex).view(np.float64)
    exp = int(np.frexp(np.max(np.abs(parts)))[1])
    return np.ldexp(parts, -exp).view(complex), exp


@dataclass(frozen=True)
class TruncationStep:
    """One greedy rank-1 reduction at a single bond."""

    bond_index: int
    old_rank: int
    new_rank: int
    dropped_relative_sigma: float
    local_frobenius_error: float


@dataclass(frozen=True)
class EntropyReport:
    """Normalized bipartite entropies for every contiguous cut."""

    per_cut: tuple[float, ...]
    mean: float


@dataclass(frozen=True)
class MpsState:
    """Chain of Q rank-3 cores; immutable by convention."""

    cores: tuple[np.ndarray, ...]
    right_canonical: bool = True
    truncation_log: tuple[TruncationStep, ...] = field(default_factory=tuple)
    #: Schmidt coefficients of every bond; a state carrying them is in
    #: Schmidt-basis form.  None for a deserialized or hand-built state.
    spectra: tuple[np.ndarray, ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=complex) for c in self.cores)
        object.__setattr__(self, "cores", cores)
        q = len(cores)
        if q < 1:
            raise CorruptMps("empty core list")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise CorruptMps("boundary bond dimensions must be 1")
        for n, core in enumerate(cores):
            if core.ndim != 3 or core.shape[1] != 2:
                raise CorruptMps(f"core {n + 1} has shape {core.shape}")
            if n > 0 and core.shape[0] != cores[n - 1].shape[2]:
                raise CorruptMps(f"bond mismatch between cores {n} and {n + 1}")
        dims = self.bond_dims
        for n in range(1, q):  # bond n joins cores n and n+1 (1-based)
            left = dims[n - 2] if n >= 2 else 1
            r = dims[n - 1]
            if r > 2 * left or r > min(2**n, 2 ** (q - n)):
                raise CorruptMps(f"bond {n} dimension {r} exceeds its rank bound")
            if self.right_canonical and left > 2 * r:
                raise CorruptMps(
                    f"bond {n}: left dimension {left} > 2 * {r}, "
                    "not right-normalizable"
                )

    @property
    def num_qubits(self) -> int:
        return len(self.cores)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores[:-1])


def _validate_caps(caps, num_qubits: int) -> tuple[int, ...]:
    caps = tuple(int(c) for c in caps)
    if len(caps) != num_qubits - 1:
        raise InfeasibleRanks(
            f"expected {num_qubits - 1} rank caps, got {len(caps)}"
        )
    if any(c < 1 for c in caps):
        raise InfeasibleRanks("rank caps must be >= 1")
    eff = [min(caps[n - 1], 2**n, 2 ** (num_qubits - n)) for n in range(1, num_qubits)]
    prev = 1
    for n, c in enumerate(eff, start=1):
        if prev > 2 * c:
            raise InfeasibleRanks(
                f"caps force bond {n - 1} dimension {prev} > 2 * {c} at bond {n}"
            )
        prev = c
    return caps


def _right_canonicalize(
    cores: list[np.ndarray],
) -> tuple[list[np.ndarray], tuple[np.ndarray, ...]]:
    """Sweep right to left, leaving every core but the first row-orthonormal.

    Numerically zero singular values are pruned, and the first core is
    rescaled to unit Frobenius norm.  Every core but the last must be
    left-orthonormal on entry: then, when the sweep reaches core n, the
    state is in mixed-canonical form about bond n - 1, so the singular
    values of that SVD, divided by the final norm, are the Schmidt spectrum
    of the normalized state at that bond (Schollwoeck, Ann. Phys. 326, 96
    (2011), section 4).  Returns these spectra, bond 1 first, and the cores,
    in Schmidt-basis form because the sweep only transforms bonds to its left.
    """
    cores = list(cores)
    spectra: list[np.ndarray] = []
    for n in range(len(cores) - 1, 0, -1):
        left, _, right = cores[n].shape
        res = linalg.svd(cores[n].reshape(left, 2 * right))
        k = max(res.rank, 1)
        cores[n] = res.vh[:k].reshape(k, 2, right)
        carry = res.u[:, :k] * res.s[:k]
        cores[n - 1] = np.tensordot(cores[n - 1], carry, axes=([2], [0]))
        spectra.append(res.s[:k])
    norm = float(np.linalg.norm(cores[0]))
    if norm == 0:
        raise CorruptMps("state has zero norm")
    cores[0] = cores[0] / norm
    return cores, tuple(s / norm for s in reversed(spectra))


def decompose(target: AmplitudeVector, rank_caps=None) -> MpsState:
    """Tensor-train decomposition of an amplitude vector.

    Performs the left-to-right cascade of reshape/SVD steps, keeping at
    most ``rank_caps[n]`` singular values at bond n+1 when caps are given,
    then right-canonicalizes and renormalizes.  Without caps the result
    reconstructs the target exactly (up to the zero-singular-value
    threshold).
    """
    q = target.num_qubits
    if abs(target.norm - 1.0) > NORM_TOL:
        raise NotNormalized(f"input norm {target.norm!r} is not 1")
    caps = _validate_caps(rank_caps, q) if rank_caps is not None else None

    cores: list[np.ndarray] = []
    rest = target.amps.reshape(1, -1)
    for n in range(1, q):
        left = rest.shape[0]
        res = linalg.svd(rest.reshape(left * 2, -1))
        k = max(res.rank, 1)
        if caps is not None:
            k = min(k, caps[n - 1])
        cores.append(res.u[:, :k].reshape(left, 2, k))
        rest = res.s[:k, None] * res.vh[:k]
    cores.append(rest.reshape(rest.shape[0], 2, 1))

    cores, spectra = _right_canonicalize(cores)
    return MpsState(cores=tuple(cores), right_canonical=True, spectra=spectra)


def reconstruct(mps: MpsState) -> AmplitudeVector:
    """Contract all cores back into a dense amplitude vector."""
    acc = mps.cores[0].reshape(2, -1)
    for core in mps.cores[1:]:
        left = core.shape[0]
        if acc.shape[1] != left:
            raise CorruptMps("bond mismatch during contraction")
        acc = acc @ core.reshape(left, -1)
        acc = acc.reshape(-1, core.shape[2])
    return AmplitudeVector(num_qubits=mps.num_qubits, amps=acc.reshape(-1))


def verify_right_canonical(mps: MpsState) -> float:
    """Max-norm residual of the right-orthonormality relations."""
    first = mps.cores[0]
    worst = abs(float(np.sum(np.abs(first) ** 2)) - 1.0)
    for core in mps.cores[1:]:
        left = core.shape[0]
        m = core.reshape(left, -1)
        resid = np.max(np.abs(m @ m.conj().T - np.eye(left)))
        worst = max(worst, float(resid))
    return worst


def bond_spectra(mps: MpsState) -> list[np.ndarray]:
    """Schmidt coefficients across every bond of the current state.

    Computed with a left-orthogonalizing sweep; valid because everything to
    the right of the active bond is right-canonical.  States made by
    :func:`decompose` and :func:`apply_truncation` already carry these
    spectra (``MpsState.spectra``); this is the reference for them and the
    fallback for states that carry none.
    """
    spectra: list[np.ndarray] = []
    carry = np.ones((1, 1), dtype=complex)
    for core in mps.cores[:-1]:
        right = core.shape[2]
        t = np.tensordot(carry, core, axes=([1], [0]))
        res = linalg.svd(t.reshape(-1, right))
        spectra.append(res.s[:right].copy())
        carry = res.s[:, None] * res.vh
    return spectra


def next_truncation(mps: MpsState) -> TruncationStep | None:
    """Pick the cheapest feasible single-rank drop, or None when all bonds are 1.

    The candidate with the smallest ratio of smallest to largest singular
    value wins; a bond is feasible only if the reduced dimension still
    satisfies left <= 2 * right at that core.  Ties go to the leftmost bond:
    a ratio replaces the best so far only when it is smaller by more than
    ``TIE_TOL``, so that rounding noise in the spectra cannot reorder
    ratios that are equal in exact arithmetic.  Uses the spectra stored on
    the state and computes them with :func:`bond_spectra` only when the
    state carries none.
    """
    dims = mps.bond_dims
    spectra = mps.spectra if mps.spectra is not None else bond_spectra(mps)
    best: TruncationStep | None = None
    for i, s in enumerate(spectra):
        r = dims[i]
        if r < 2:
            continue
        left = dims[i - 1] if i > 0 else 1
        if left > 2 * (r - 1):
            continue
        ratio = float(s[r - 1] / s[0]) if s[0] > 0 else 0.0
        if best is None or ratio < best.dropped_relative_sigma - TIE_TOL:
            best = TruncationStep(
                bond_index=i + 1,
                old_rank=r,
                new_rank=r - 1,
                dropped_relative_sigma=ratio,
                local_frobenius_error=float(s[r - 1]),
            )
    return best


def _schmidt_form(mps: MpsState) -> tuple[list[np.ndarray], tuple[np.ndarray, ...]]:
    """Cores and spectra of ``mps`` in Schmidt-basis right-canonical form."""
    if mps.spectra is not None:
        return list(mps.cores), mps.spectra
    cores = list(mps.cores)  # left-orthonormalize with pruning, then sweep back
    for n in range(len(cores) - 1):
        res = linalg.svd(cores[n].reshape(-1, cores[n].shape[2]))
        k = max(res.rank, 1)
        cores[n] = res.u[:, :k].reshape(-1, 2, k)
        cores[n + 1] = np.tensordot(res.s[:k, None] * res.vh[:k], cores[n + 1], 1)
    return _right_canonicalize(cores)


def apply_truncation(mps: MpsState, step: TruncationStep) -> MpsState:
    """Drop the smallest Schmidt coefficient at one bond and renormalize.

    One pass of Q - 2 SVDs over the Schmidt-basis form (Vidal, PRL 91, 147902
    (2003); Schollwoeck, Ann. Phys. 326, 96 (2011), section 4).  The drop cuts
    the last basis vector of bond i.  Right of it, the SVD of core n weighted
    by bond n - 1's new coefficients gives bond n's spectrum and a rotation
    that keeps the cores right-orthonormal; left of it, the SVD of core n
    weighted by bond n - 1's old spectrum re-orthonormalizes it.  Other ranks
    may shrink when the drop leaves exact zeros.
    """
    q = mps.num_qubits
    i = step.bond_index - 1
    if not 0 <= i < q - 1:
        raise StaleStep(f"bond {step.bond_index} out of range")
    if mps.bond_dims[i] != step.old_rank or step.new_rank != step.old_rank - 1:
        raise StaleStep(
            f"bond {step.bond_index} has dimension {mps.bond_dims[i]}, "
            f"step expects {step.old_rank} -> {step.new_rank}"
        )
    cores, spectra = _schmidt_form(mps)
    s = spectra[i]
    sigma = float(s[step.new_rank]) if s.size > step.new_rank else 0.0  # pruned zero
    if abs(sigma - step.local_frobenius_error) > 1e-6 * max(s[0], 1.0):
        raise StaleStep("singular spectrum no longer matches the step")
    new = list(spectra)
    new[i] = w = s[: step.new_rank]
    cores[i], cores[i + 1] = cores[i][:, :, : w.size], cores[i + 1][: w.size]
    for n in range(i + 1, q - 1):
        res = linalg.svd((w[:, None, None] * cores[n]).reshape(-1, cores[n].shape[2]))
        vh = res.vh[: max(res.rank, 1)]
        cores[n] = cores[n] @ vh.conj().T
        cores[n + 1] = np.tensordot(vh, cores[n + 1], 1)
        new[n] = w = res.s[: len(vh)]
    for n in range(i, 0, -1):
        m = cores[n].reshape(cores[n].shape[0], -1)
        res = linalg.svd(spectra[n - 1][:, None] * m)
        vh = res.vh[: max(res.rank, 1)]
        cores[n] = vh.reshape(len(vh), 2, -1)
        cores[n - 1] = cores[n - 1] @ (m @ vh.conj().T)  # = u s / sigma, not divided
        new[n - 1] = res.s[: len(vh)]
    norm = float(np.linalg.norm(cores[0]))
    cores[0] = cores[0] / norm
    log = mps.truncation_log + (step,)
    return MpsState(tuple(cores), True, log, tuple(x / norm for x in new))


def fidelity(a: AmplitudeVector, b: AmplitudeVector) -> float:
    """Squared overlap |<a|b>|^2; phase-invariant."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatch(
            f"{a.num_qubits} vs {b.num_qubits} qubits"
        )
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def overlap(a: MpsState, b: MpsState) -> complex:
    """<a|b> computed by transfer-matrix contraction, never forming 2^Q vectors."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatch(f"{a.num_qubits} vs {b.num_qubits} qubits")
    env = np.ones((1, 1), dtype=complex)
    for ca, cb in zip(a.cores, b.cores):
        env = np.einsum("ajb,cjd,ac->bd", ca.conj(), cb, env)
    return complex(env[0, 0])


def mean_normalized_bipartite_entropy(target: AmplitudeVector) -> EntropyReport:
    """Average over all cuts of the von Neumann entropy divided by min(n, Q-n).

    Zero for product states, one for maximal entanglement at every cut.
    """
    q = target.num_qubits
    if q < 2:
        raise DimensionMismatch("bipartite entropy needs at least 2 qubits")
    tensor = target.amps.reshape((2,) * q)
    per_cut = []
    for n in range(1, q):
        s = linalg.singular_values(linalg.unfold(tensor, n))
        p = s**2
        p = p[p > 0]
        entropy = float(-np.sum(p * np.log2(p)))
        per_cut.append(max(entropy, 0.0) / min(n, q - n))
    return EntropyReport(per_cut=tuple(per_cut), mean=float(np.mean(per_cut)))


# ---------------------------------------------------------------------------
# JSON interchange: one codec (_encode_complex, _decode_complex) carries every
# complex array as bit-exact [re, im] pairs; malformed objects raise CorruptMps.
# ---------------------------------------------------------------------------

MPS_SCHEMA = "mpsprep-mps/1"
AMPS_SCHEMA = "mpsprep-amplitudes/1"


def _encode_complex(a: np.ndarray) -> list:
    """Nested lists of [re, im] Python floats, one pair per entry of ``a``."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _decode_complex(values, ndim: int) -> np.ndarray:
    """``ndim``-dimensional complex array from nested lists of [re, im] pairs."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise CorruptMps(f"cannot parse complex array: {exc}") from exc
    if arr.dtype.kind not in "biuf" or arr.shape[ndim:] != (2,):
        raise CorruptMps(f"not {ndim}-d [re, im] number pairs: {arr.dtype} {arr.shape}")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]


def amplitude_to_obj(av: AmplitudeVector) -> dict:
    return {
        "schema": AMPS_SCHEMA,
        "num_qubits": av.num_qubits,
        "amps": _encode_complex(av.amps),
    }


def amplitude_from_obj(obj, normalize: bool = False) -> AmplitudeVector:
    """Accepts either the schema dict or a bare JSON array whose entries are
    real numbers, [re, im] pairs, or a mix of both."""
    if isinstance(obj, dict) and "amps" not in obj:
        raise CorruptMps("amplitude object has no 'amps' array")
    values = obj["amps"] if isinstance(obj, dict) else obj
    try:
        amps = np.asarray(values)
    except ValueError:  # numbers mixed with [re, im] pairs
        pairs = [v if isinstance(v, list) else [v, 0] for v in values]
        amps = _decode_complex(pairs, 1)
    if amps.ndim != 1 or amps.dtype.kind not in "biufc":  # pairs, or rejected
        amps = _decode_complex(amps, 1)
    return AmplitudeVector.from_array(amps, normalize=normalize)


def mps_to_obj(mps: MpsState) -> dict:
    return {
        "schema": MPS_SCHEMA,
        "num_qubits": mps.num_qubits,
        "bond_dims": list(mps.bond_dims),
        "right_canonical": mps.right_canonical,
        "cores": [_encode_complex(c.reshape(c.shape[0], -1)) for c in mps.cores],
        "truncation_log": [asdict(t) for t in mps.truncation_log],
    }


def mps_from_obj(obj) -> MpsState:
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != MPS_SCHEMA:
        raise CorruptMps(f"unexpected MPS schema {schema!r}")
    try:
        dims = [1, *(int(d) for d in obj["bond_dims"]), 1]
        cores = tuple(
            _decode_complex(rows, 2).reshape(dims[n], 2, dims[n + 1])
            for n, rows in enumerate(obj["cores"])
        )
        names = [f.name for f in fields(TruncationStep)]
        log = tuple(
            TruncationStep(**{k: t[k] for k in names})
            for t in obj.get("truncation_log", [])
        )
    except (LookupError, TypeError, ValueError) as exc:
        raise CorruptMps(f"malformed MPS object: {exc!r}") from exc
    return MpsState(
        cores=cores,
        right_canonical=bool(obj.get("right_canonical", True)),
        truncation_log=log,
    )
