"""Subspace arithmetic in R^n.

A :class:`Subspace` is a point of a Grassmannian, held as a column-
orthonormal basis.  Bases are non-canonical, so subspaces are only ever
compared through principal angles, and every principal angle comes from
one stacked kernel, :func:`_angles`: cosines from the singular values of
A^T B, with the angles below pi/4 recomputed from the sines, the singular
values of (I - P_A) B.  :func:`principal_angles`,
:func:`grassmann_distance` (the largest angle, which makes statements
like "v stays at angle >= eps from the limit" directly readable off the
numbers), :meth:`Subspace.contains` and the Cauchy-window limits of
:func:`grassmann_limits` all read it, and an a/af verdict tests the
containment of its required subspace in every arc's limit with one call.

Rank decisions use one relative singular-value cutoff (RTOL times the
largest singular value) with a tiny absolute floor so that matrices that
are zero up to roundoff get rank 0.  A yes/no question "rank >= r?" over
a stack goes through one gate, :func:`_rank_at_least`: it certifies full
rank from a Gram determinant where the margin to that cutoff is wide,
and takes only the rows it leaves open through the SVD.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

RTOL = 1e-8  # relative rank tolerance
ATOL = 1e-12  # absolute floor for singular values
CONTAIN_TOL = 1e-6  # default containment tolerance, radians

__all__ = [
    "Subspace",
    "GrassmannLimit",
    "Containment",
    "span_of",
    "principal_angles",
    "grassmann_distance",
    "subspace_sum",
    "kernel",
    "grassmann_limit",
    "grassmann_limits",
]


def _fold_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the columns of a 2-D array, in order:
    ``(a[:, 0] op a[:, 1]) op a[:, 2]`` and so on.

    Along a short row this is a few elementwise passes, where
    ``ufunc.reduce(a, axis=1)`` pays per row.  Max, min, and and or come
    out exact (NaN propagates through max and min as in ``np.max``), and
    ``np.add`` sums in the order in which ``np.linalg.norm`` sums the
    squares of the rows of a (k, n) array, n <= 4, under numpy 2.4.6."""
    return functools.reduce(ufunc, a.T)


def _ranks(sv: np.ndarray) -> np.ndarray:
    """Numerical ranks from singular values (..., r), in any order along
    the last axis: the count above max(RTOL * largest, ATOL).  A row
    holding a NaN gets rank 0."""
    sv = np.asarray(sv, dtype=float)
    if sv.shape[-1] == 0:
        return np.zeros(sv.shape[:-1], dtype=int)
    cut = np.maximum(RTOL * sv.max(axis=-1, keepdims=True), ATOL)
    return (sv > cut).sum(axis=-1)


# Thresholds of the Gram certificate of _rank_at_least: squares of
# sigma_min / sigma_max >= 1e-5, a thousand times the RTOL cut, and of
# sigma_min >= 1e-10, a hundred times ATOL; a determinant below the floor
# may have lost its bits to underflow.
_CERT_REL = 1e-10
_CERT_ABS = 1e-20
_CERT_FLOOR = 1e-150
_CERT_MAX_LEN = 1000  # longest side whose Gram rounding stays far inside the margin


def _gram_certificate(mats: np.ndarray) -> np.ndarray:
    """(k,) bool: rows of mats (k, m, c), min(m, c) = p <= 3, whose
    Gram determinant certifies rank p (see :func:`_rank_at_least`)."""
    _, m, c = mats.shape
    p = min(m, c)
    sides = mats if c <= m else np.swapaxes(mats, 1, 2)
    cols = np.ascontiguousarray(np.transpose(sides, (2, 1, 0)))  # (p, L, k)
    with np.errstate(over="ignore", invalid="ignore"):
        g = {(i, j): (cols[i] * cols[j]).sum(axis=0) for i in range(p) for j in range(i, p)}
        if p == 1:
            det = g[0, 0]
        elif p == 2:
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[0, 1]
        else:
            det = (
                g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[1, 2])
                - g[0, 1] * (g[0, 1] * g[2, 2] - g[1, 2] * g[0, 2])
                + g[0, 2] * (g[0, 1] * g[1, 2] - g[1, 1] * g[0, 2])
            )
        trace = sum(g[i, i] for i in range(p))
        return (
            (det >= _CERT_REL * trace**p)
            & (det >= _CERT_ABS * trace ** (p - 1))
            & (det >= _CERT_FLOOR)
            & (det < np.inf)
        )


def _rank_at_least(mats, r: int) -> np.ndarray:
    """(k,) bool: whether each matrix of the stack (k, m, c) has rank
    at least r.  Row for row this equals
    ``_ranks(np.linalg.svd(mats, compute_uv=False)) >= r``, with the
    same exception where the SVD raises; it is the one gate for rank
    decisions whose singular values nothing else reads.

    With p = min(m, c), r <= 0 and r > p are decided by shape.  For
    r == p <= 3 and a longest side L = max(m, c) <= 1000, a row is
    certified when its Gram matrix G on the smaller side (p x p), with
    computed entries, trace t and cofactor determinant d, satisfies

    * d >= 1e-10 t^p and d >= 1e-20 t^(p-1),
    * 1e-150 <= d < inf: d is a normal float far above the subnormal
      range, and nothing overflowed.

    A row holding inf or NaN has a trace of inf or NaN, and fails.

    Every other row goes to one ``np.linalg.svd`` over just those rows:
    uncertified rows, non-finite rows (also where shape decides, so the
    SVD raises where it would), p > 3 and r < p.  The SVD gives each
    row the bits it would give it alone, so the open rows read as they
    would in the full stack.

    Why a certified row has SVD rank p (u = 2^-53, the unit roundoff;
    Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    sections 3.1 and 3.5).  The computed Gram matrix, read from its
    upper triangle, is G + E with |E| <= gamma_L |A|^T |A| entrywise, so
    ||E||_2 <= gamma_L tr(G), whatever the summation order; every entry
    is at most t in size, so the cofactor expansion is off the exact
    determinant of G + E by at most 6 gamma_5 t^p, and t is off
    tr(G + E) by gamma_p.  Underflow adds at most L 2^-1074 per entry,
    nothing next to d >= 1e-150 (t >= p d^(1/p)).  At L <= 1000 all of
    this stays below about 1e3 u t^p, a thousandth of the thresholds'
    margin.  Then G + E is positive definite (two negative eigenvalues
    of size <= gamma_L t would make d below 1e-10 t^p), so its smallest
    eigenvalue is at least det / tr^(p-1), and by Weyl's inequality
    lambda_min(G) >= 0.99 max(1e-10 tr(G), 1e-20): sigma_min >= 0.99e-5
    sigma_max and sigma_min >= 0.99e-10.  LAPACK's singular values are
    exact for A + F with ||F||_2 <= c(m, c) u sigma_max (Golub and Van
    Loan, *Matrix Computations*, 4th ed., section 8.6), so by Weyl each
    moves by at most c u sigma_max, a relative 1e-9 of sigma_min.  So
    every computed singular value clears RTOL times the largest by a
    factor near 1e3 and ATOL by one near 1e2, and ``_ranks`` reads p.
    """
    mats = np.asarray(mats, dtype=float)
    k, m, c = mats.shape
    p = min(m, c)
    if r <= 0 or r > p:
        out = np.full(k, r <= 0)
        left = ~np.isfinite(mats).all(axis=(1, 2))
    elif r == p <= 3 and max(m, c) <= _CERT_MAX_LEN:  # closed-form determinants up to 3 x 3
        out = _gram_certificate(mats)
        left = ~out
    else:
        out = np.zeros(k, dtype=bool)
        left = np.ones(k, dtype=bool)
    if left.any():
        out[left] = _ranks(np.linalg.svd(mats[left], compute_uv=False)) >= r
    return out


def _rank(sv: np.ndarray) -> int:
    return int(_ranks(sv))


def _orthonormal_range(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, rank-revealing via SVD."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0))
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, : _rank(sv)]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^n with an orthonormal basis (n x k)."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError("basis must be an n x k matrix")
        gram = b.T @ b
        if gram.size and np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-10:
            raise ValueError("basis columns are not orthonormal")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(np.zeros((n, 0)))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(np.eye(n))

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of vectors (..., n) onto the subspace."""
        v = np.asarray(v, dtype=float)
        return (v @ self.basis) @ self.basis.T

    def orthogonal_complement(self) -> "Subspace":
        if self.dim == 0:
            return Subspace.full(self.n)
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(u[:, self.dim :])

    def contains(self, other: "Subspace", tol: float = CONTAIN_TOL) -> "Containment":
        """Whether every direction of ``other`` lies in self, with evidence.

        The worst principal angle between ``other`` and its projection
        onto self, the last of :func:`_angles`, is returned together
        with the unit vector of ``other`` realizing it, the last right
        singular vector of A^T B.  If dim other exceeds dim self, some
        direction is lost entirely and the answer is no.
        """
        _check_ambient(self, other)
        if other.dim == 0:
            return Containment(True, 0.0, None)
        worst = float(_angles(self.basis[None], other.basis[None])[0, -1])
        if self.dim == 0:
            vectors = other.basis.copy()
        else:
            _, _, vt = np.linalg.svd(self.basis.T @ other.basis)
            vectors = other.basis @ vt.T
        return Containment(other.dim <= self.dim and worst < tol, worst, vectors[:, -1])

    def to_json(self) -> list[list[float]]:
        return [list(col) for col in self.basis.T]

    @staticmethod
    def from_json(cols: list[list[float]], n: int) -> "Subspace":
        if not cols:
            return Subspace.zero(n)
        return Subspace(np.array(cols, dtype=float).T)


@dataclass(frozen=True)
class Containment:
    ok: bool
    worst_angle: float
    worst_vector: np.ndarray | None


def _check_ambient(a: Subspace, b: Subspace) -> None:
    if a.n != b.n:
        raise ValueError(f"ambient dimensions differ: {a.n} vs {b.n}")


def span_of(vectors, n: int | None = None) -> Subspace:
    """Orthonormalised span of a list of n-vectors (rank-revealing).

    An empty list gives the zero subspace, in which case ``n`` is
    required.
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        if n is None:
            raise ValueError("ambient dimension required for an empty span")
        return Subspace.zero(n)
    mat = np.stack(vecs, axis=1)
    if n is not None and mat.shape[0] != n:
        raise ValueError(f"vectors have dimension {mat.shape[0]}, expected {n}")
    return Subspace(_orthonormal_range(mat))


def _angles(a_bases: np.ndarray, b_bases: np.ndarray) -> np.ndarray:
    """Principal angles of b against a for each stacked pair of
    orthonormal bases (k, n, da), (k, n, db): (k, db), ascending.

    The directions of b beyond dim a come out as pi/2.  The cosines are
    the singular values of A^T B, but arccos loses half the precision
    near 0, so the angles below pi/4 are recomputed from the singular
    values of the residual (I - P_A) B, their sines (Bjorck and Golub,
    1973).  Once any pair has an angle below pi/4 the residual is taken
    for the whole stack, which costs less than gathering the pairs that
    need it.  The kernel acts pair by pair, so each pair gets the floats
    a call of its own would.
    """
    k, _, da = a_bases.shape
    db = b_bases.shape[2]
    if da == 0 or db == 0:
        return np.full((k, db), np.pi / 2)
    cross = np.swapaxes(a_bases, 1, 2) @ b_bases
    cos = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    angles = np.arccos(np.concatenate([cos, np.zeros((k, db - cos.shape[1]))], axis=1))
    small = angles < np.pi / 4
    if np.any(small):
        sin = np.linalg.svd(b_bases - a_bases @ cross, compute_uv=False)[:, ::-1]
        angles = np.where(small, np.arcsin(np.clip(sin, 0.0, 1.0)), angles)
    return angles


def _largest(angles: np.ndarray) -> np.ndarray:
    """Last column of :func:`_angles`, the largest angle of each pair;
    0 where b has dimension 0."""
    return angles[:, -1] if angles.shape[1] else np.zeros(len(angles))


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles between two subspaces, nondecreasing in [0, pi/2].

    Returns min(dim a, dim b) angles; symmetric in its arguments.
    """
    _check_ambient(a, b)
    if a.dim < b.dim:
        a, b = b, a
    return _angles(a.basis[None], b.basis[None])[0]


def grassmann_distance(a: Subspace, b: Subspace) -> float:
    """Largest principal angle, padded to pi/2 on dimension mismatch."""
    _check_ambient(a, b)
    if a.dim != b.dim:
        return np.pi / 2
    return float(_largest(_angles(a.basis[None], b.basis[None]))[0])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return Subspace(_orthonormal_range(np.hstack([a.basis, b.basis])))


def kernel(matrix) -> Subspace:
    """Orthonormal basis of the numerical null space of an m x n matrix."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError("kernel expects a matrix")
    n = mat.shape[1]
    if mat.size == 0:
        return Subspace.full(n)
    _, sv, vt = np.linalg.svd(mat)
    r = _rank(sv)
    return Subspace(vt[r:].T) if r < n else Subspace.zero(n)


@dataclass(frozen=True)
class GrassmannLimit:
    converged: bool
    limit: Subspace | None
    residual: float
    history: tuple[float, ...]  # consecutive-pair distances along the sequence


def grassmann_limit(entries, window: int = 5, tol: float = CONTAIN_TOL) -> GrassmannLimit:
    """Detect convergence by a trailing Cauchy window: the one-sequence
    form of :func:`grassmann_limits` over a sequence of subspaces of one
    Grassmannian."""
    if not entries:
        raise ValueError("empty subspace sequence")
    n, k = entries[0].n, entries[0].dim
    for i, s in enumerate(entries):
        if s.n != n or s.dim != k:
            raise ValueError(
                f"entry {i} has shape ({s.n}, {s.dim}), sequence started at ({n}, {k}); "
                "the sequence does not live in one Grassmannian"
            )
    return grassmann_limits(np.stack([e.basis for e in entries]), [0, len(entries)], window, tol)[0]


def grassmann_limits(
    bases: np.ndarray, bounds, window: int = 5, tol: float = CONTAIN_TOL
) -> list[GrassmannLimit]:
    """Cauchy-window limits of the sequences ``bases[bounds[i]:bounds[i + 1]]``.

    ``bases`` (K, n, d) stacks orthonormal bases of one Grassmannian and
    ``bounds`` holds the K sequence offsets, from 0 to K, strictly
    increasing.  If every pair inside the last ``window`` entries of a
    sequence is within ``tol`` (largest principal angle), its final entry
    is reported as the limit together with the observed residual;
    otherwise the full residual history is returned for diagnosis.  No
    extrapolation is attempted: checkers need evidence, not acceleration.

    All distances of all sequences come from one stacked kernel call:
    per sequence, the consecutive pairs, then the non-adjacent pairs of
    the trailing window.  The kernel acts pair by pair, so each sequence
    gets the floats a call of its own would.
    """
    bases = np.asarray(bases, dtype=float)
    bounds = np.asarray(bounds, dtype=int)
    if bounds[0] != 0 or bounds[-1] != len(bases):
        raise ValueError(f"sequence bounds must run from 0 to {len(bases)}")
    if np.any(np.diff(bounds) < 1):
        raise ValueError("empty subspace sequence")
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    first, second, counts = [], [], []
    for lo, hi in spans:
        w = min(window, hi - lo)
        i, j = np.triu_indices(w, 2)
        first += [np.arange(lo, hi - 1), i + hi - w]
        second += [np.arange(lo + 1, hi), j + hi - w]
        counts.append(hi - lo - 1 + len(i))
    dists = _largest(_angles(bases[np.concatenate(first)], bases[np.concatenate(second)])).tolist()
    limits = []
    start = 0
    for (lo, hi), count in zip(spans, counts):
        k, w = hi - lo, min(window, hi - lo)
        own = dists[start : start + count]
        start += count
        history = tuple(own[: k - 1])
        residual = max([0.0] + own[k - w :])  # the window's pairs
        if residual < tol:
            limits.append(GrassmannLimit(True, Subspace(bases[hi - 1]), residual, history))
        else:
            limits.append(GrassmannLimit(False, None, residual, history))
    return limits
