"""Explicit constructions: smooth step, rank-drop maps, destabilizers,
and the test-submanifold witness for a foliated fault.

These are the working parts behind the instability experiments: a
bijective self-map of R^n whose rank drops to r at exactly one point, a
complement subspace that is transverse to a leaf but not to a limit of
leaves, a sequence of maps converging to a transverse base map while
each member is non-transverse at a fault sample, and a sampled sheet
that is transverse to the base leaf yet tangent to the approaching
foliation along an arc.

Each construction verifies its own defining identities numerically
after building; a failed verification is an error, never a silent
degradation.

A perturbed map, here and in the experiments, is one type:
``PerturbedMap(base, delta)``, the base map plus a correction field.  The
destabilizer's delta is a :class:`LocalizedCorrection`; a stability or
non-genericity trial's is a seeded perturbation field.  Every such
numeric map, the rank-drop map too, is a :class:`NumericMap`: it defines
its evaluation on a batch of points only, and the one-point case and
``__call__`` and ``jacobian`` come from the base class.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from .dsl import Add, Call, Expr, Mul, Num, NumericMap, SmoothMap, Sub, Var, _bump_value_and_slope
from .grassmann import Subspace, _angles, _largest, grassmann_distance, span_of, subspace_sum
from .regularity import FaultWitness, TransversalityResult, _on_base, transverse_at
from .seeds import rng_for
from .strata import StratifiedMapContext

C1_SAMPLES = 10_000  # uniform cube points a destabilizer's C^1 distances are sampled on

__all__ = [
    "ConstructionError",
    "RankDropMap",
    "rank_drop_map",
    "frame_for_image",
    "choose_complement_H",
    "least_rotation",
    "NumericMap",
    "PerturbedMap",
    "LocalizedCorrection",
    "DestabilizerEntry",
    "DestabilizerSequence",
    "destabilizing_sequence",
    "SampledSheet",
    "tf_witness",
]


class ConstructionError(Exception):
    pass


# ---------------------------------------------------------------------------
# Rank-drop map


def _nsum(terms: list[Expr]) -> Expr:
    out = terms[0]
    for t in terms[1:]:
        out = Add(out, t)
    return out


@dataclass(frozen=True)
class RankDropMap(NumericMap):
    """Bijective self-map of R^n: rank r at the center, rank n elsewhere,
    identity outside the closed ball of the given radius.

    In centered frame coordinates a = F^T (z - c) / R the map is
    (a_1, ..., a_r, a_{r+1} s(|a|^2), ..., a_n s(|a|^2)) with s the
    smooth step, mapped back by z = c + R F a'.  The frame's first r
    columns span the image of the differential at the center.
    """

    n: int
    r: int
    center: np.ndarray
    radius: float
    frame: np.ndarray = field(repr=False)
    map: SmoothMap = field(repr=False)

    def on_batch(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.map.value_and_jacobian(z, check_domain=False)

    def jacobian_at_center(self) -> np.ndarray:
        d = np.zeros(self.n)
        d[: self.r] = 1.0
        return self.frame @ np.diag(d) @ self.frame.T

    def image_at_center(self) -> Subspace:
        return Subspace(self.frame[:, : self.r])


def frame_for_image(image: Subspace) -> np.ndarray:
    """Orthogonal matrix whose leading columns span the given subspace."""
    comp = image.orthogonal_complement()
    return np.hstack([image.basis, comp.basis])


def rank_drop_map(
    n: int,
    r: int,
    center=None,
    radius: float = 1.0,
    frame: np.ndarray | None = None,
) -> RankDropMap:
    """Build the rank-drop self-map of R^n (needs n >= 2, 1 <= r < n)."""
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")
    if not 1 <= r < n:
        raise ValueError("rank must satisfy 1 <= r < n")
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    if frame is None:
        frame = np.eye(n)
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (n, n) or np.max(np.abs(frame.T @ frame - np.eye(n))) > 1e-10:
        raise ValueError("frame must be an n x n orthogonal matrix")

    inv_r = 1.0 / radius
    coords: list[Expr] = []
    for j in range(n):
        terms = [
            Mul(Num(float(frame[k, j] * inv_r)), Sub(Var(k), Num(float(c[k]))))
            for k in range(n)
            if frame[k, j] != 0.0
        ]
        coords.append(_nsum(terms) if terms else Num(0.0))
    norm_sq = _nsum([Mul(a, a) for a in coords])
    step = Call("bump", (norm_sq,))
    images: list[Expr] = [
        coords[j] if j < r else Mul(coords[j], step) for j in range(n)
    ]
    comps: list[Expr] = []
    for i in range(n):
        terms: list[Expr] = [Num(float(c[i]))]
        for j in range(n):
            if frame[i, j] != 0.0:
                terms.append(Mul(Num(float(frame[i, j] * radius)), images[j]))
        comps.append(_nsum(terms))
    smap = SmoothMap(n=n, components=tuple(comps))

    built = RankDropMap(n=n, r=r, center=c, radius=radius, frame=frame, map=smap)
    _verify_rank_drop(built)
    return built


def _verify_rank_drop(m: RankDropMap) -> None:
    jac = m.jacobian(m.center)
    sv = np.linalg.svd(jac, compute_uv=False)
    if not (np.all(sv[: m.r] > 0.5) and np.all(sv[m.r :] < 1e-12)):
        raise ConstructionError(f"center rank is not {m.r}: singular values {sv}")
    outside = m.center + 1.0001 * m.radius * np.eye(m.n)[0]
    if np.max(np.abs(m(outside) - outside)) > 1e-12:
        raise ConstructionError("map is not the identity just outside the ball")


# ---------------------------------------------------------------------------
# Complement choice


def choose_complement_H(tau: Subspace, leaf_y: Subspace, v, n: int) -> Subspace:
    """Complement H of the base leaf whose sum with the limit subspace
    falls short of the ambient space.

    Defining properties (verified after building): H (+) leaf_y spans
    R^n with trivial intersection, while H + tau does not span.  Built
    directly: w is the unit component of v off tau; H is the orthogonal
    complement of span{w} (+) (leaf_y intersected with w-perp), so H is
    perpendicular to w along with tau, which caps the sum, while the
    leaf keeps its w-component and completes the direct sum: <w, v> is
    |v - P_tau v| >= 1e-6, so H + leaf spans with a smallest singular
    value near 1e-6 at worst, far above the rank cut.  A construction
    that still fails verification raises :class:`ConstructionError`.
    """
    v = np.asarray(v, dtype=float)
    vnorm = np.linalg.norm(v)
    if vnorm < 1e-6:
        raise ValueError("witness vector must be nonzero")
    v = v / vnorm
    if not leaf_y.contains(span_of([v], n=n), tol=1e-6).ok:
        raise ValueError("witness vector must lie in the base leaf tangent")
    resid = v - tau.project(v)
    rnorm = np.linalg.norm(resid)
    if rnorm < 1e-6:
        raise ValueError(
            "witness vector lies in the limit subspace: no complement can "
            "separate them (there is no fault to exploit)"
        )
    w = resid / rnorm
    s = leaf_y.dim
    # leaf_y intersect w-perp, exactly: leaf directions orthogonal to w
    coeff = leaf_y.basis.T @ w
    if s:
        _, _, vt = np.linalg.svd(coeff[None, :], full_matrices=True)
        inner = leaf_y.basis @ vt.T[:, 1:]
    else:
        inner = np.zeros((n, 0))
    blocked = np.hstack([w[:, None], inner])
    u, _, _ = np.linalg.svd(blocked, full_matrices=True)
    h = Subspace(u[:, blocked.shape[1] :])
    with_leaf, with_tau = subspace_sum(h, leaf_y).dim, subspace_sum(h, tau).dim
    if h.dim == n - s and with_leaf == n and with_tau < n:
        return h
    raise ConstructionError(
        f"the built complement fails verification: dim(H+leaf)={with_leaf}, dim(H+tau)={with_tau}"
    )


# ---------------------------------------------------------------------------
# Destabilizer


def least_rotation(w_from: np.ndarray, w_to: np.ndarray) -> np.ndarray:
    """Rotation of R^n carrying one unit vector to another, acting only
    in their common plane."""
    n = w_from.size
    c = float(np.dot(w_from, w_to))
    if c > 1.0 - 1e-14:
        return np.eye(n)
    perp = w_to - c * w_from
    pn = np.linalg.norm(perp)
    if pn < 1e-14:  # antipodal: rotate through an arbitrary companion plane
        perp = np.eye(n)[int(np.argmin(np.abs(w_from)))] - w_from * w_from[
            int(np.argmin(np.abs(w_from)))
        ]
        pn = np.linalg.norm(perp)
    u2 = perp / pn
    s = float(np.sqrt(max(0.0, 1.0 - c * c)))
    u1 = w_from
    return (
        np.eye(n)
        + (c - 1.0) * (np.outer(u1, u1) + np.outer(u2, u2))
        + s * (np.outer(u2, u1) - np.outer(u1, u2))
    )


class PerturbedMap(NumericMap):
    """The base map plus a correction field: z -> base(z) + delta(z)."""

    def __init__(self, base, delta):
        self.base = base
        self.delta = delta
        self.m = delta.m
        self.n = delta.n

    def on_batch(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        base_val, base_jac = self.base.value_and_jacobian(z, check_domain=False)
        val, jac = self.delta.on_batch(z)
        return base_val + val, base_jac + jac


@dataclass(frozen=True)
class _Cutoff:
    """The part of a :class:`LocalizedCorrection` at points z that depends
    only on its center y and radius rho: the offsets d = z - y with their
    lengths |d|, the cutoff beta(|d|/rho), its derivative dbeta, and the
    gradient of |d|/rho with its length.  Corrections that share y and
    rho share it."""

    d: np.ndarray
    dist: np.ndarray
    beta: np.ndarray
    dbeta: np.ndarray
    grad_t: np.ndarray
    grad_norm: np.ndarray

    @classmethod
    def at(cls, z: np.ndarray, y: np.ndarray, radius: float) -> _Cutoff:
        d = z - y
        norms = np.linalg.norm(d, axis=1)
        beta, slope = _bump_value_and_slope(2.0 * (1.0 - norms / radius))
        grad_t = np.zeros_like(d)  # gradient of |z-y|/rho, 0 at the center
        pos = norms > 1e-300
        grad_t[pos] = d[pos] / (norms[pos, None] * radius)
        return cls(d, norms, beta, -2.0 * slope, grad_t, np.linalg.norm(grad_t, axis=1))

    def rows(self, idx) -> _Cutoff:
        """The profile at the points ``idx`` (an index array)."""
        return _Cutoff(*(getattr(self, f.name).take(idx, axis=0) for f in fields(self)))


class LocalizedCorrection(NumericMap):
    """The destabilizer's correction g_i - g: it moves the center value
    to a fault sample and rotates the center differential image.

    z -> cut(|z-y|/rho) * [shift + lin (z-y)], with cut a smooth cutoff
    that is 1 for |z-y| <= rho/2 and 0 for |z-y| >= rho, where the
    correction vanishes in value and Jacobian.
    """

    def __init__(self, y: np.ndarray, radius: float, shift: np.ndarray, lin: np.ndarray):
        self.y = np.asarray(y, dtype=float)
        self.radius = float(radius)
        self.shift = np.asarray(shift, dtype=float)
        self.lin = np.asarray(lin, dtype=float)
        self.n = self.y.size
        self.m = self.shift.size

    def on_batch(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.on_cutoff(_Cutoff.at(z, self.y, self.radius))

    def on_cutoff(self, cut: _Cutoff) -> tuple[np.ndarray, np.ndarray]:
        """Values (k, m) and Jacobians (k, m, n) at the points of a
        cutoff profile taken with this correction's center and radius.

        Each row depends only on its own point: a one-point profile is
        evaluated as two copies, because BLAS takes a matrix-vector path
        for a one-row product, whose rounding differs from the
        matrix-matrix path every longer profile takes."""
        d = cut.d if len(cut.d) != 1 else np.repeat(cut.d, 2, axis=0)
        inner = self.shift + (d @ self.lin.T)[: len(cut.d)]
        val = cut.beta[:, None] * inner
        jac = (
            cut.beta[:, None, None] * self.lin
            + (cut.dbeta[:, None] * inner)[:, :, None] * cut.grad_t[:, None, :]
        )
        return val, jac

    def sampled_c1_norm(self, cut: _Cutoff) -> float:
        """Sampled C^1 size on the points of a cutoff profile, evaluated
        on the rows that can reach the sup (:func:`_pruned_c1_size`).

        With s the shift and L the linear part, |value| <= beta (|s| +
        |L| |d|) and sigma_max(J) <= beta |L| + |dbeta| (|s| + |L| |d|)
        |grad t|, |L| the Frobenius norm."""
        lin_norm = np.linalg.norm(self.lin)
        reach = np.linalg.norm(self.shift) + lin_norm * cut.dist
        return _pruned_c1_size(
            lambda idx: self.on_cutoff(cut.rows(idx)),
            cut.beta * reach,
            cut.beta * lin_norm + np.abs(cut.dbeta) * reach * cut.grad_norm,
        )


@dataclass(frozen=True)
class DestabilizerEntry:
    index: int
    point: np.ndarray  # x_i, the fault sample hit by the center
    leaf: Subspace  # leaf tangent of the approaching stratum at x_i
    h_i: Subspace  # rotated complement, non-spanning with the leaf
    map: PerturbedMap
    c1_distance: float
    transversality: TransversalityResult  # of (h_i, leaf): must be non-transverse


@dataclass(frozen=True)
class DestabilizerSequence:
    base: RankDropMap
    y: np.ndarray
    radius: float
    entries: tuple[DestabilizerEntry, ...]


def destabilizing_sequence(
    base: RankDropMap,
    witness: FaultWitness,
    radius: float = 1.0,
    count: int = 20,
    seed: int = 0,
) -> DestabilizerSequence:
    """Maps g_i converging to the base in sampled C^1 distance, each
    non-transverse to the approaching foliation at a fault sample.

    The i-th map sends the fault point to the i-th arc sample x_i and
    rotates the center image onto a complement H_i that fails to span
    with the leaf at x_i (verified per entry).  g_i is
    ``PerturbedMap(base, delta)`` with a :class:`LocalizedCorrection`
    delta, and the C^1 distance of g_i to the base is the sampled C^1
    size of delta alone, taken on ``C1_SAMPLES`` uniform points of the
    cube y + radius * [-1, 1]^n.  delta and its Jacobian are exact zeros
    off the open ball of that radius, so only the cube points inside it
    count, and the sup over them is the sup over the cube; the
    corrections share y and the radius, so the cutoff profile on those
    points, with |d| and |grad t|, is computed once.  Each correction is
    then evaluated only on the in-ball points whose bound can reach its
    sup (:meth:`LocalizedCorrection.sampled_c1_norm`).  The distances
    must decrease strictly along the sequence.
    """
    y = np.asarray(witness.point, dtype=float)
    n = y.size
    arc = witness.arc
    if len(arc.points) < count:
        raise ValueError(f"witness arc has only {len(arc.points)} samples, need {count}")
    h = base.image_at_center()
    v = np.asarray(witness.vector, dtype=float)
    resid = v - witness.limit.project(v)
    rnorm = np.linalg.norm(resid)
    if rnorm < 1e-9:
        raise ConstructionError("witness vector does not leave the limit subspace")
    w = resid / rnorm
    if np.max(np.abs(h.basis.T @ w)) > 1e-9:
        raise ConstructionError("base image is not orthogonal to the separating vector")

    rng = rng_for(seed, "c1-samples")
    cube = y + radius * rng.uniform(-1.0, 1.0, size=(C1_SAMPLES, n))
    cut = _Cutoff.at(cube[np.linalg.norm(cube - y, axis=1) < radius], y, radius)
    entries: list[DestabilizerEntry] = []
    base_y, base_jac_y = base.value_and_jacobian(y)
    for i in range(count):
        x_i = np.asarray(arc.points[i], dtype=float)
        if np.linalg.norm(x_i - y) < 1e-12:
            raise ValueError(f"arc sample {i} coincides with the fault point")
        leaf = Subspace(arc.tangents[i])
        w_i_raw = w - leaf.project(w)
        w_i_norm = np.linalg.norm(w_i_raw)
        if w_i_norm < 0.1:
            raise ConstructionError(
                f"separating vector nearly lies in the leaf at sample {i}; "
                "the fault geometry is too degenerate for the rotation construction"
            )
        w_i = w_i_raw / w_i_norm
        rot = least_rotation(w, w_i)
        h_i = Subspace(rot @ h.basis)
        # rot carries w, orthogonal to h, to w_i, orthogonal to the leaf:
        # H_i and the leaf both miss w_i, so they cannot span
        res = transverse_at(h_i, leaf, n)
        if res.transverse:
            raise ConstructionError(f"the rotated complement spans with the leaf at arc sample {i}")
        correction = LocalizedCorrection(y, radius, x_i - base_y, (rot - np.eye(n)) @ base_jac_y)
        gmap = PerturbedMap(base, correction)
        # center value and center image must land exactly on the fault
        # data; g_i(y) is the sum PerturbedMap forms, from the base value
        # already taken at y
        if np.linalg.norm(base_y + correction(y) - x_i) > 1e-10:
            raise ConstructionError(f"g_{i} misses its fault sample")
        img = span_of(list((rot @ base.jacobian_at_center()).T), n=n)
        if grassmann_distance(img, h_i) > 1e-8:
            raise ConstructionError(f"center image of g_{i} is not H_{i}")
        c1_distance = correction.sampled_c1_norm(cut)
        entries.append(
            DestabilizerEntry(
                index=i + 1,
                point=x_i,
                leaf=leaf,
                h_i=h_i,
                map=gmap,
                c1_distance=c1_distance,
                transversality=res,
            )
        )
    dists = [e.c1_distance for e in entries]
    if not all(b < a for a, b in zip(dists, dists[1:])):
        raise ConstructionError("sampled C^1 distances are not strictly decreasing")
    return DestabilizerSequence(base=base, y=y, radius=radius, entries=tuple(entries))


_SLACK = 1.0 + 1e-10  # relative slack of the row prunes, far above rounding
_TINY = np.finfo(float).tiny


def _pruned_c1_size(evaluate, val_bound: np.ndarray, jac_bound: np.ndarray) -> float:
    """:func:`_sampled_c1_size` of a map on k sample rows, evaluating only
    the rows that can reach the sup.

    ``evaluate(idx)`` returns the values (len(idx), m) and Jacobians
    (len(idx), m, n) at the rows of an index array; ``val_bound`` and
    ``jac_bound`` (k,) bound |value| and sigma_max(J) from above at each
    row.  The row of largest ``val_bound`` and the row of largest
    ``jac_bound`` are evaluated first: v* is the squared norm of the
    first one's value and lam* the largest Gram eigenvalue of the
    second one's Jacobian, as :func:`_sampled_c1_size` computes them.  A
    row is kept when ``val_bound**2 * (1 + 1e-10) + tiny >= v*`` or
    ``jac_bound**2 * (1 + 1e-10) + tiny >= lam*``, tiny the smallest
    normal float, and the result is :func:`_sampled_c1_size` of the kept
    rows.  If a squared bound or v* or lam* is not finite, every row is
    kept.  No rows size to 0.0.

    The result is the float that :func:`_sampled_c1_size` returns on all
    k rows, bit for bit, given two facts:

    * row independence: ``evaluate`` gives each row the same bits
      whichever other rows it evaluates with it, and
      :func:`_sampled_c1_size` computes each row's norm and Gram
      eigenvalue on its own, so every row has one computed value norm
      and one computed eigenvalue, in the probe and in the final call;
    * each bound is an upper bound up to rounding.  The computed values
      and Jacobians have a relative error of a few eps of the bound
      (their terms are the ones the bound adds in absolute value); and
      squares, sums and a backward-stable eigensolver add a relative
      error of a few eps, plus, in the subnormal range, an absolute one
      far below tiny.  So every row's computed squared norm and
      eigenvalue are at most its squared bound times (1 + 1e-10) plus
      tiny.

    The row with the largest computed norm has a squared norm of at
    least v*, as the first probe row is one of the k rows, so it passes
    the first test; the row with the largest computed eigenvalue passes
    the second test likewise.  So the kept set contains a row that
    attains each max, and the max over the kept rows is the max over all
    rows.  The comparisons are made on squares, where the absolute
    error of an underflow stays below tiny: a norm taken as the square
    root of a subnormal sum can be off by far more than 1e-10
    relatively.  For the same reason a map whose bounds are all zero is
    still evaluated: its bounds can underflow where its size does not.
    """
    if len(val_bound) == 0:
        return 0.0
    idx = np.arange(len(val_bound))
    probes = np.array([np.argmax(val_bound), np.argmax(jac_bound)])
    with np.errstate(over="ignore", invalid="ignore"):
        reach_val = val_bound * val_bound * _SLACK + _TINY
        reach_jac = jac_bound * jac_bound * _SLACK + _TINY
    # argmax takes NaN as the largest, so every squared bound is finite
    # when the two at the probe rows are
    if np.isfinite(reach_val[probes[0]]) and np.isfinite(reach_jac[probes[1]]):
        vals, jacs = evaluate(probes)
        with np.errstate(over="ignore"):
            v_star = np.linalg.norm(vals[:1], axis=1)[0] ** 2
        lam_star = _largest_gram_eigenvalues(jacs[1:])[0]
        if np.isfinite(v_star) and np.isfinite(lam_star):
            idx = np.flatnonzero((reach_val >= v_star) | (reach_jac >= lam_star))
    return _sampled_c1_size(*evaluate(idx))


def _sampled_c1_size(vals: np.ndarray, jacs: np.ndarray) -> float:
    """Sampled C^1 size of a map from its values (k, m) and Jacobians
    (k, m, n) on a sample: max |value| + max largest singular value.
    This is the one formula; its callers evaluate the map only on the
    rows that can reach the sup, through :func:`_pruned_c1_size`.

    The largest singular value of J is the square root of the largest
    eigenvalue of its Gram matrix, built on the smaller side (J J^T or
    J^T J).  Only the rows that can attain the max go to ``eigvalsh``:
    with lam* the computed largest eigenvalue of the row of largest
    squared Frobenius norm ``fro2``, a row is dropped when
    ``fro2 * (1 + 1e-10) + tiny < lam*``, tiny the smallest normal
    float.  The result is the float the unpruned max returns, bit for
    bit.  sigma_max^2 <= |J|_F^2; ``fro2`` and the Gram matrix are
    computed with a relative error of a few eps (plus, for entries in
    the subnormal range, an absolute error far below tiny); and a
    backward-stable symmetric eigensolver returns eigenvalues within
    c * eps * |G| of those of the matrix it is given.  So every row's
    computed eigenvalue is at most ``fro2 * (1 + 1e-10) + tiny``: a
    dropped row's is below lam*, and the row that attains the max is
    kept.  A NaN row has the largest ``fro2`` (argmax takes NaN as
    largest), so lam* is NaN and no row is dropped; rows with an
    infinite ``fro2`` are never dropped.  Each row's norm and eigenvalue
    are computed on their own, whichever rows come with it.
    """
    sup_val = float(np.max(np.linalg.norm(vals, axis=1)))
    fro2 = np.einsum("kij,kij->k", jacs, jacs)
    top = int(np.argmax(fro2))
    lam = _largest_gram_eigenvalues(jacs[top : top + 1])[0]
    keep = ~(fro2 * _SLACK + _TINY < lam)
    sup_jac = float(np.sqrt(np.max(_largest_gram_eigenvalues(jacs[keep]))))
    return sup_val + sup_jac


def _largest_gram_eigenvalues(jacs: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each Jacobian's Gram matrix on its smaller side."""
    jt = np.swapaxes(jacs, 1, 2)
    gram = jacs @ jt if jacs.shape[1] <= jacs.shape[2] else jt @ jacs
    return np.linalg.eigvalsh(gram)[:, -1]


# ---------------------------------------------------------------------------
# Test-submanifold witness sheet


@dataclass(frozen=True)
class SampledSheet:
    """Codimension-one sheet swept along an arc: at each arc sample a
    plane of dimension n-2 spans the directions that stay inside the
    approaching foliation's normal slice, extended by reflection through
    the terminal normal hyperplane.

    The sheet is a sampled object: frames at discrete arc parameters,
    in decreasing parameter order, with nearest-patch projection.
    """

    center: np.ndarray
    center_tangent: Subspace
    centers: np.ndarray = field(repr=False)  # (K, n) patch base points
    frames: np.ndarray = field(repr=False)  # (K, n, n-2) plane directions
    arc_dirs: np.ndarray = field(repr=False)  # (K, n) unit arc tangents
    extent: float
    # leaf tangents at the positive arc samples, which are patches 0, 1, ...
    leaves: InitVar[tuple[Subspace, ...]] = ()
    # worst angle of each of those leaves against its patch tangent
    containment_angles: np.ndarray = field(init=False, repr=False)
    # (K, n, 2) orthonormal complements of the patch planes
    normals: np.ndarray = field(init=False, repr=False, compare=False)
    # (K, n, n-1) orthonormal bases of the patch planes plus arc directions
    tangents: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, leaves):
        full, _, _ = np.linalg.svd(self.frames)
        object.__setattr__(self, "normals", full[:, :, self.frames.shape[2] :])
        tangents = [span_of(list(f.T) + [a], n=self.n) for f, a in zip(self.frames, self.arc_dirs)]
        for k, t in enumerate(tangents):
            if t.dim != self.n - 1:
                raise ConstructionError(
                    f"patch {k} spans a tangent of dimension {t.dim}, expected {self.n - 1}"
                )
        object.__setattr__(self, "tangents", np.stack([t.basis for t in tangents]))
        angles = np.zeros(0)
        if leaves:
            stacked = np.stack([leaf.basis for leaf in leaves])
            angles = _largest(_angles(self.tangents[: len(leaves)], stacked))
        object.__setattr__(self, "containment_angles", angles)

    @property
    def n(self) -> int:
        return self.center.size

    def tangent_at_center(self) -> Subspace:
        return self.center_tangent

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest sheet points (k, n) with the normal (k, n, 2) and
        tangent (k, n, n-1) frames of their patches.  The normals are the
        complements of the patch planes, which leave out the arc direction
        that the tangents add."""
        pts = np.atleast_2d(points)
        delta = pts[:, None, :] - self.centers[None, :, :]  # (P, K, n)
        coords = np.einsum("pkn,knq->pkq", delta, self.frames)
        coords = np.clip(coords, -self.extent, self.extent)
        q = self.centers[None, :, :] + np.einsum("pkq,knq->pkn", coords, self.frames)
        dists = np.linalg.norm(pts[:, None, :] - q, axis=2)
        best = np.argmin(dists, axis=1)
        return q[np.arange(len(pts)), best], self.normals[best], self.tangents[best]


def tf_witness(
    ctx: StratifiedMapContext,
    x: str,
    y: str,
    point,
    arc: SmoothMap,
    v,
    t0: float = 0.05,
    ratio: float = 0.5,
    count: int = 14,
) -> SampledSheet:
    """Sheet transverse to the base leaf at the point but tangent to the
    approaching foliation along the arc.

    ``arc`` is a chart curve t -> chart of X, with images converging to
    the point as t -> 0+ and leaf tangents settling to a limit that
    misses ``v`` (the fault data).  At each sampled t the sheet's plane
    is assembled inside the normal slice of the arc: the part of the
    leaf tangent lying in the slice, completed by the directions
    orthogonal to both that part and the projected witness vector.
    Frames are carried along the arc by projection and the sheet is
    extended by reflection through the terminal normal hyperplane.  Each
    patch reaches 0.35 from its center along each plane direction, and
    every leaf tangent on the arc must lie within 1e-6 radians of its
    patch tangent.

    The arc samples are evaluated and tested against the chart domain at
    once, and the chart values and leaf bases of the samples before the
    first domain exit come from one call each.  So an evaluation or
    leaf-tangent failure at any of those samples is reported before the
    domain exit and before the per-sample construction errors (vanishing
    velocity, slice dimension, swallowed witness vector); among
    themselves, errors come in arc order.
    """
    sx = ctx.stratum(x)
    n = ctx.prestratification.ambient
    center = np.asarray(point, dtype=float)
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    _on_base(ctx, y, center)
    leaf_y = ctx.base_leaf(y, center)
    if not leaf_y.contains(span_of([v], n=n), tol=1e-6).ok:
        raise ConstructionError("witness vector is not tangent to the base leaf")
    if arc.n != 1 or arc.m != sx.dim:
        raise ConstructionError("arc must be a curve into the chart of the approaching stratum")

    ts = t0 * ratio ** np.arange(count)
    us, dus = arc.value_and_jacobian(ts[:, None])
    inside = sx.chart.in_domain(us)
    exit_at = count if inside.all() else int(np.argmin(inside))
    alphas, chart_jacs = sx.chart.value_and_jacobian(us[:exit_at])
    leaf_bases = ctx.leaf_tangents(sx, us[:exit_at])
    leafs: list[Subspace] = []
    p_dims: list[int] = []
    centers: list[np.ndarray] = []
    arc_dirs: list[np.ndarray] = []
    sigma_bases: list[np.ndarray] = []
    for k, t in enumerate(ts):
        if k == exit_at:
            raise ConstructionError(f"arc leaves the chart domain at t={t}")
        vel = chart_jacs[k] @ dus[k, :, 0]
        speed = np.linalg.norm(vel)
        if speed < 1e-14:
            raise ConstructionError(f"arc velocity vanishes at t={t}")
        a_hat = vel / speed
        leaf = Subspace(leaf_bases[k])
        leafs.append(leaf)
        # P_t: the part of the leaf tangent inside the normal slice of the arc
        align = a_hat @ leaf.basis
        if leaf.dim and np.max(np.abs(align)) > 1e-8:
            _, _, vt = np.linalg.svd(align[None, :], full_matrices=True)
            p_basis = leaf.basis @ vt.T[:, 1:]
        else:
            p_basis = leaf.basis.copy()
        p_dims.append(p_basis.shape[1])
        if p_dims[0] != p_dims[-1]:
            raise ConstructionError(
                f"slice dimension jumps from {p_dims[0]} to {p_dims[-1]} at t={t}"
            )
        v_t = v - np.dot(v, a_hat) * a_hat
        vt_norm = np.linalg.norm(v_t)
        if vt_norm < 1e-10:
            raise ConstructionError(
                f"witness vector is swallowed by the arc direction at t={t}"
            )
        v_t = v_t / vt_norm
        # sigma(t): P_t plus the complement of P_t (+) <v_t> inside the slice
        blocked = np.hstack([a_hat[:, None], p_basis, v_t[:, None]])
        u_full, _, _ = np.linalg.svd(blocked, full_matrices=True)
        comp = u_full[:, blocked.shape[1] :]
        sigma = np.hstack([p_basis, comp])
        if sigma.shape[1] != n - 2:
            raise ConstructionError(
                f"sheet plane at t={t} has dimension {sigma.shape[1]}, expected {n - 2}"
            )
        centers.append(alphas[k])
        arc_dirs.append(a_hat)
        sigma_bases.append(sigma)

    # frame continuity: carry the previous frame onto each new plane
    frames = [sigma_bases[0]]
    for sigma in sigma_bases[1:]:
        m = sigma.T @ frames[-1]
        uu, _, vvt = np.linalg.svd(m)
        frames.append(sigma @ (uu @ vvt))

    # the limit of the leaf tangents must miss v (the fault hypothesis)
    tau = leafs[-1]
    if np.linalg.norm(v - tau.project(v)) < 1e-3:
        raise ConstructionError(
            "witness vector is captured by the limiting leaf tangent; "
            "no fault to exploit"
        )

    # reflect through the terminal normal hyperplane to cross the point
    a0 = arc_dirs[-1]
    refl = np.eye(n) - 2.0 * np.outer(a0, a0)
    mir_centers = center + (np.array(centers) - center) @ refl.T
    mir_frames = np.einsum("ij,kjq->kiq", refl, np.array(frames))
    mir_dirs = np.array(arc_dirs) @ refl.T

    all_ts = np.concatenate([ts, [0.0], -ts])
    all_centers = np.concatenate([np.array(centers), center[None, :], mir_centers])
    center_frame = frames[-1]
    all_frames = np.concatenate([np.array(frames), center_frame[None, :, :], mir_frames])
    all_dirs = np.concatenate([np.array(arc_dirs), a0[None, :], mir_dirs])
    order = np.argsort(-all_ts)
    center_tangent = span_of(list(center_frame.T) + [a0], n=n)

    sheet = SampledSheet(
        center=center,
        center_tangent=center_tangent,
        centers=all_centers[order],
        frames=all_frames[order],
        arc_dirs=all_dirs[order],
        extent=0.35,
        leaves=tuple(leafs),
    )
    worst = np.max(sheet.containment_angles)
    if worst > 1e-6:
        raise ConstructionError(
            f"leaf tangents escape the sheet (worst angle {worst:.2e}); "
            "the arc does not hug the foliation"
        )
    pre = transverse_at(center_tangent, leaf_y, n)
    # a sliver of margin at the finite smallest t means the configuration
    # degenerates in the limit (the witness vector drifts into the arc
    # direction); demand honest separation, not a rank-test scrape
    if not pre.transverse or pre.margin < 1e-3:
        raise ConstructionError(
            "sheet is tangent to the base leaf at the point (defect "
            f"{pre.defect}, margin {pre.margin:.2e}); choose an arc whose "
            "terminal direction carries the leaf direction"
        )
    return sheet
