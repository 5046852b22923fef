"""Regularity checkers at declared incidence points.

Four conditions are decided for a stratum pair (X, Y) at a boundary
point y: Whitney "a", the foliated condition "af", the test-submanifold
condition "tf", and the retraction condition "afs".  Checkers sample
finitely many approach arcs (or shrinking radii), so a positive outcome
is always "holds-on-samples": failures are certificates, holds are
evidence.  Arcs whose tangent sequences do not settle in the
Grassmannian yield "inconclusive" rather than being silently dropped.

Every verdict carries its numeric evidence.  An a/af fault's
:class:`FaultWitness` (arc, limit, angle, tolerance, witness vector)
re-checks offline; a tf/afs fault's :class:`RadialWitness` holds the
first bad point of each radius.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dsl import SmoothMap
from .grassmann import (
    Subspace,
    _angles,
    _fold_columns,
    _largest,
    _rank,
    _rank_at_least,
    _ranks,
    grassmann_limits,
    span_of,
)
from .seeds import rng_for
from .strata import (
    ON_BASE_TOL,
    ApproachPlan,
    Arc,
    StratifiedMapContext,
    Stratum,
    _gauss_newton,
    _on_closure,
    _tangent_frames,
    _thin_qr,
    approach_sequence,
    tangent_space,
)

__all__ = [
    "Status",
    "TransversalityResult",
    "transverse_at",
    "ArcEvidence",
    "FaultWitness",
    "RadialWitness",
    "RegularityVerdict",
    "RadialPlan",
    "PreconditionError",
    "AffineSurface",
    "ChartSurface",
    "random_test_surface",
    "check_af_at",
    "check_whitney_a_at",
    "check_tf_at",
    "check_afs_at",
]


class PreconditionError(Exception):
    """The hypothesis of the condition being checked is not satisfied."""


class Status(str, enum.Enum):
    HOLDS = "holds-on-samples"
    FAILS = "fails-with-witness"
    INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# Transversality predicate


@dataclass(frozen=True)
class TransversalityResult:
    transverse: bool
    defect: int  # ambient dim minus dim of the sum
    margin: float  # smallest singular value of the stacked bases


def transverse_at(image: Subspace, leaf: Subspace, n: int) -> TransversalityResult:
    """Does image + leaf span R^n?  Defect counts the missing dimensions."""
    if image.n != n or leaf.n != n:
        raise ValueError("ambient dimension mismatch")
    sv = np.linalg.svd(np.hstack([image.basis, leaf.basis]), compute_uv=False)
    rank = _rank(sv)
    margin = float(sv[n - 1]) if sv.size >= n else 0.0
    return TransversalityResult(rank == n, n - rank, margin)


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class ArcEvidence:
    direction: tuple[float, ...]
    chart_points: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)
    tangents: np.ndarray = field(repr=False)  # (k, n, dim) orthonormal bases
    converged: bool
    limit: Subspace | None
    residual: float
    history: tuple[float, ...] = field(repr=False)
    contains_required: bool | None
    worst_angle: float | None


@dataclass(frozen=True)
class FaultWitness:
    point: tuple[float, ...]
    vector: tuple[float, ...]  # unit vector of the required subspace missed by the limit
    angle: float
    angle_tol: float  # the plan's tolerance the angle was judged at
    limit: Subspace
    required: Subspace
    arc: ArcEvidence


@dataclass(frozen=True)
class RadialWitness:
    points: np.ndarray = field(repr=False)  # (radii, n): each radius's first bad point


@dataclass(frozen=True)
class RegularityVerdict:
    condition: str  # 'a' | 'af' | 'tf' | 'afs'
    x: str
    y: str
    point: tuple[float, ...]
    status: Status
    required: Subspace | None = None
    arcs: tuple[ArcEvidence, ...] = ()
    witness: FaultWitness | RadialWitness | None = None
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Limit checkers: Whitney (a) and the foliated condition


def _limit_verdict(
    ctx: StratifiedMapContext,
    x: str,
    y: str,
    point,
    plan: ApproachPlan,
    condition: str,
    tangents_of,
    required: Subspace,
) -> RegularityVerdict:
    """Shared arc pipeline: march arcs, take Grassmann limits, test
    containment of the required subspace in each limit.

    ``tangents_of(chart_points)`` returns orthonormal tangent bases
    (k, n, dim) at chart points (k, d).  It is called once per a/af
    verdict, on the chart points of every arc in arc order; the
    Grassmann limits of all arcs come from one
    :func:`grassmann.grassmann_limits` call, and the worst angle of
    ``required`` against the limit of every converged arc from one
    :func:`grassmann._angles` call.  All three act row by row, so each
    arc's evidence is the one a call of its own would give, and an error
    names the first bad point in arc order.  Only the first failing arc
    calls :meth:`Subspace.contains`, for the witness vector.
    """
    arcs = approach_sequence(ctx.prestratification, x, point, plan)
    bounds = np.cumsum([0] + [len(arc.chart_points) for arc in arcs])
    tangents = tangents_of(np.concatenate([arc.chart_points for arc in arcs]))
    limits = grassmann_limits(tangents, bounds, plan.window, plan.angle_tol)
    limit_bases = tangents[bounds[1:][[lim.converged for lim in limits]] - 1]
    required_bases = np.broadcast_to(required.basis, (len(limit_bases), *required.basis.shape))
    worst = iter(_largest(_angles(limit_bases, required_bases)).tolist())
    fits = required.dim <= tangents.shape[2]
    evidence: list[ArcEvidence] = []
    witness: FaultWitness | None = None
    for arc, lim, lo, hi in zip(arcs, limits, bounds[:-1], bounds[1:]):
        angle = next(worst) if lim.converged else None
        ok = None if angle is None else fits and angle < plan.angle_tol
        evidence.append(
            ArcEvidence(
                arc.direction, arc.chart_points, arc.points, tangents[lo:hi],
                lim.converged, lim.limit, lim.residual, lim.history, ok, angle,
            )
        )
        if ok is False and witness is None:
            contains = lim.limit.contains(required, plan.angle_tol)
            witness = FaultWitness(
                point=tuple(np.asarray(point, dtype=float)),
                vector=tuple(contains.worst_vector),
                angle=contains.worst_angle,
                angle_tol=plan.angle_tol,
                limit=lim.limit,
                required=required,
                arc=evidence[-1],
            )
    if witness is not None:
        status = Status.FAILS
    elif any(not e.converged for e in evidence):
        status = Status.INCONCLUSIVE
    else:
        status = Status.HOLDS
    return RegularityVerdict(
        condition=condition,
        x=x,
        y=y,
        point=tuple(np.asarray(point, dtype=float)),
        status=status,
        required=required,
        arcs=tuple(evidence),
        witness=witness,
        detail={"arcs_total": len(evidence), "arcs_converged": sum(e.converged for e in evidence)},
    )


def _on_base(ctx: StratifiedMapContext, y: str, point) -> np.ndarray:
    """Chart point of :meth:`Prestratification.location` of the point on
    Y, which the point must lie on: within ON_BASE_TOL, or
    PreconditionError."""
    u, dist, _ = ctx.prestratification.location(y, point)
    if dist > ON_BASE_TOL:
        raise PreconditionError(
            f"point {np.asarray(point).tolist()} does not lie on stratum {y!r} "
            f"(distance {dist:.2e})"
        )
    return u


def check_af_at(
    ctx: StratifiedMapContext,
    x: str,
    y: str,
    point,
    plan: ApproachPlan | None = None,
    seed: int = 0,
) -> RegularityVerdict:
    """Foliated regularity of X over Y at a declared incidence point.

    Along every approach arc the leaf tangents of X must settle to a
    limit containing the leaf tangent of Y at the point.  The point's
    locations and the Y-leaf are the ones the prestratification and the
    context keep, so ``seed`` does not change the verdict.
    """
    plan = plan or ApproachPlan()
    _on_base(ctx, y, point)
    required = ctx.base_leaf(y, point)
    sx = ctx.stratum(x)
    return _limit_verdict(
        ctx, x, y, point, plan, "af", lambda U: ctx.leaf_tangents(sx, U), required,
    )


def check_whitney_a_at(
    ctx: StratifiedMapContext,
    x: str,
    y: str,
    point,
    plan: ApproachPlan | None = None,
    seed: int = 0,
) -> RegularityVerdict:
    """Whitney condition: same pipeline on full stratum tangent spaces;
    like af, it does not depend on ``seed``."""
    plan = plan or ApproachPlan()
    uy = _on_base(ctx, y, point)
    sx = ctx.stratum(x)
    required = tangent_space(ctx.stratum(y), uy)
    return _limit_verdict(
        ctx, x, y, point, plan, "a",
        lambda U: _tangent_frames(sx, U, sx.chart.jacobian(U)), required,
    )


# ---------------------------------------------------------------------------
# Test surfaces for the (t_f) checker


@dataclass(frozen=True)
class AffineSurface:
    """Affine test submanifold through a base point."""

    base: np.ndarray
    space: Subspace
    normal: np.ndarray = field(init=False, repr=False, compare=False)  # (n, n - s)

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "normal", self.space.orthogonal_complement().basis)

    def tangent_at_center(self) -> Subspace:
        return self.space

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest surface points (k, n) with the orthonormal normal
        (k, n, n - s) and tangent (k, n, s) frames there: two constant
        matrices."""
        pts = np.atleast_2d(points)
        q = self.base + self.space.project(pts - self.base)
        tangent = self.space.basis
        return (
            q,
            np.broadcast_to(self.normal, (len(q),) + self.normal.shape),
            np.broadcast_to(tangent, (len(q),) + tangent.shape),
        )


@dataclass(frozen=True)
class ChartSurface:
    """Chart-backed test submanifold: its chart and box make one
    :class:`Stratum`, on which point location finds its preimages."""

    chart: SmoothMap
    center_preimage: np.ndarray
    box: tuple[tuple[float, float], ...]
    sheet: Stratum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "center_preimage", np.asarray(self.center_preimage, dtype=float)
        )
        object.__setattr__(self, "sheet", Stratum("surface", self.chart, sample_box=self.box))

    @property
    def n(self) -> int:
        return self.chart.m

    def tangent_at_center(self) -> Subspace:
        jac = self.chart.jacobian(self.center_preimage, check_domain=False)
        return span_of(list(jac.T), n=self.n)

    def _preimages(self, points: np.ndarray) -> tuple[np.ndarray, int]:
        """Chart points of the nearest sheet points, by
        :meth:`Stratum._nearest` from the center preimage alone (every
        point admissible), and the number of them whose solve had not
        converged."""
        pts = np.atleast_2d(points)
        starts = np.tile(self.center_preimage, (len(pts), 1, 1))
        u, _, unconverged = self.sheet._nearest(pts, starts, -np.inf, max_iter=50)
        return u, int(unconverged.sum())

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest sheet points (k, n) with orthonormal normal frames
        (k, n, n - r), r the smallest rank of the chart in the batch, and
        tangent frames (k, n, s) there, from one full SVD of the chart
        Jacobians: the leading columns are tangent and the trailing ones
        normal.  Columns beyond a point's own rank are zero in its tangent
        frame, and columns within it are zero in its normal frame."""
        w, _ = self._preimages(points)
        vals, jacs = self.chart.value_and_jacobian(w, check_domain=False)
        frames, sv, _ = np.linalg.svd(jacs)
        ranks = _ranks(sv)[:, None, None]
        s = self.chart.n
        low = int(ranks.min()) if len(ranks) else s
        cols = np.arange(self.n)
        normal = frames[:, :, low:] * (cols[low:] >= ranks)
        tangent = frames[:, :, :s] * (cols[:s] < ranks)
        return vals, normal, tangent


def random_test_surface(
    ctx: StratifiedMapContext, y: str, point, seed: int, dim: int | None = None
) -> AffineSurface:
    """Seeded affine submanifold through the point, transverse to the
    Y-leaf there (the hypothesis every tf test surface must satisfy)."""
    _on_base(ctx, y, point)
    leaf = ctx.base_leaf(y, point)
    n = ctx.prestratification.ambient
    want = dim if dim is not None else n - leaf.dim
    if want < n - leaf.dim:
        raise ValueError("surface dimension too small to be transverse to the leaf")
    if want > n:
        raise ValueError(f"surface dimension {want} exceeds the ambient dimension {n}")
    rng = rng_for(seed, "test-surface", y)
    for _ in range(50):
        space = span_of(list(rng.standard_normal((want, n))), n=n)
        if space.dim != want:
            continue
        if transverse_at(space, leaf, n).transverse:
            return AffineSurface(base=np.asarray(point, dtype=float), space=space)
    raise PreconditionError("could not draw a transverse test surface")


# ---------------------------------------------------------------------------
# Radial sampling plans


class RadialPlan:
    """The one shrinking-radius schedule of tf and afs: ``count`` radii
    from ``r0``, each ``ratio`` times the last, with up to ``samples``
    chart points kept per radius."""

    r0 = 0.5
    ratio = 0.5
    count = 10
    samples = 200

    def radii(self) -> np.ndarray:
        return self.r0 * self.ratio ** np.arange(self.count)


def _samples_in_balls(
    stratum: Stratum, u0: np.ndarray, center: np.ndarray, radii: np.ndarray,
    count: int, rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Chart points of the stratum whose images lie within the balls, and
    the nondecreasing index ``which`` of the radius each belongs to: for
    the j-th radius, up to ``count`` of 6 * count draws from the j-th
    stream, uniform in u0 + radii[j] * [-1.5, 1.5]^d.

    The draws of every radius run through one domain test and one chart
    evaluation, and each row is tested against its own radius; both act
    row by row, so each radius keeps the rows a draw of its own would.
    One index into the draws runs through the tests, the radius of a
    draw is its index over 6 * count, and the rows are gathered with
    ``np.take``, which copies short rows faster than fancy indexing.  The
    distance to the center sums the squared coordinates in column order
    (:func:`grassmann._fold_columns`), the order of ``np.linalg.norm``,
    so a draw on a ball's boundary is kept or dropped as
    ``np.linalg.norm`` would have it.
    """
    radii = np.asarray(radii)
    draws = np.concatenate([
        rng.uniform(-1.5, 1.5, size=(count * 6, stratum.dim)) * r + u0
        for r, rng in zip(radii, rngs)
    ])
    idx = np.flatnonzero(stratum.chart.in_domain(draws))
    if idx.size:
        offset = stratum.chart(np.take(draws, idx, axis=0), check_domain=False) - center
        dist = np.sqrt(_fold_columns(np.add, offset * offset))
        idx = idx[dist <= radii[idx // (count * 6)]]
    which = idx // (count * 6)
    # the first ``count`` rows of each radius
    first = np.arange(len(which)) - np.searchsorted(which, which) < count
    return np.take(draws, idx[first], axis=0), which[first]


def _first_of_each_row(keys: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the first occurrence of each distinct row
    of ``keys`` (k, c): those of ``np.unique(keys, axis=0,
    return_index=True)``.  Rows are equal when every entry compares
    equal, so -0.0 and 0.0 match and a row holding a NaN matches none.
    A stable lexsort puts equal rows next to each other in index order,
    and the first of each run is kept."""
    order = np.lexsort(keys.T)
    ranked = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[starts])


class _Intersections(NamedTuple):
    u: np.ndarray  # (h, d) chart points of the kept solutions
    points: np.ndarray  # (h, n) their images
    tangents: np.ndarray  # (h, n, s) surface tangent frames there
    which: np.ndarray  # (h,) radius index of each, nondecreasing
    stalled: np.ndarray  # (len(radii),) unconverged: moving at the cap, or on a non-finite step


def _find_intersections(
    stratum: Stratum,
    surface,
    center: np.ndarray,
    radii: np.ndarray,
    seeds: np.ndarray,
    which: np.ndarray,
) -> _Intersections:
    """Gauss-Newton from chart seeds onto surface-stratum intersection
    points inside the balls of the given radii; ``which`` is the
    nondecreasing radius index of each seed.

    With ``q, N, _ = surface.project(psi(u))`` (nearest surface point and
    an orthonormal frame of the surface normal there) and the chart Jacobian
    J = QR, the residual is the normal offset N^T (psi(u) - q), in n - s
    coordinates for a surface of dimension s, and its Jacobian in the
    coordinates v = R u is N^T Q, of full rank n - s wherever the surface
    meets the stratum transversally.  Each step is the shortest move along
    the stratum, measured in the ambient space, that cancels the
    linearized offset: the least-norm v with N^T Q v = N^T (psi(u) - q),
    from the thin QR of (N^T Q)^T when there are fewer rows than chart
    coordinates, pulled back as u <- u - R^-1 v.  The ambient move Q v
    does not depend on the chart, and the iteration converges
    quadratically at transverse intersections.  Rows of lower rank, such
    as the zero columns of a chart surface's normal frames where its
    rank drops, take the ``pinv`` step.

    Iterates stay in :attr:`Stratum.solve_bounds`, the sample box nudged
    inward as in point location.  A coordinate on the box edge whose
    step leaves the box is held there while the others solve the
    reduced problem (:func:`strata._box_steps`), and is released once
    its step points back inside, so a seed whose nearest intersection
    lies outside the box stops at a fixed point on the edge instead of
    creeping along it.

    The seeds of all radii run in one solve; each seed's iterates do not
    depend on the others in the batch, so the result is the same as one
    solve per radius.  Every QR of a step, the chart Jacobian's and the
    one of the least-norm step, is :func:`strata._thin_qr`, Gram-Schmidt
    elementwise over the batch, and every triangular solve, R^-1 included,
    is the vectorized back-substitution :func:`strata._back_substitute`; where
    the chart Jacobian is rank-deficient, R has a zero diagonal entry
    and that coordinate is not moved, so a seed at a singular point of
    the chart takes a finite step instead of stopping the solve.  Kept
    are the solutions within 1e-9 of the surface, strictly inside the domain,
    inside the ball of their own seed's radius and not at the center,
    with numerically identical ones collapsed by one de-duplication over
    the key (radius index, ``round(u, 7)``) (:func:`_first_of_each_row`),
    which collapses only solutions of the same radius.  One
    ``surface.project`` over all solutions gives their distances to the
    surface and their surface tangent frames.  Each kept solution
    carries its seed's ``which``.
    Seeds that stop at positive distance witness no intersection;
    ``stalled`` counts, per radius, the seeds whose solve did not
    converge: still moving after 60 steps, or stopped on a step that is
    not finite (``converged=False`` of :func:`strata._gauss_newton`).
    """
    def residual(u, _idx):
        vals, jacs = stratum.chart.value_and_jacobian(u, check_domain=False)
        q, normals, _ = surface.project(vals)
        basis, tri = _thin_qr(jacs)
        normals_t = np.swapaxes(normals, 1, 2)
        return (normals_t @ (vals - q)[:, :, None])[:, :, 0], normals_t @ basis, tri

    solved = _gauss_newton(residual, seeds, *stratum.solve_bounds, tol=1e-14, max_iter=60)
    vals = stratum.chart(solved.u, check_domain=False)
    q, _, tangents = surface.project(vals)
    resid = np.linalg.norm(vals - q, axis=1)
    margins = stratum.domain_margins(solved.u)
    # strict positivity only: intersection points may hug the domain
    # boundary arbitrarily closely (that is what faults look like)
    interior = np.all(margins > 0.0, axis=1)
    dist_center = np.linalg.norm(vals - center, axis=1)
    # the incidence point itself belongs to the base stratum, not to X;
    # solutions indistinguishable from it are boundary-limit artifacts,
    # not intersection points
    kept = np.flatnonzero(
        (resid < 1e-9) & interior & (dist_center > 1e-7)
        & (dist_center <= np.asarray(radii)[which])
    )
    # collapse numerically identical solutions of the same radius
    kept = kept[_first_of_each_row(np.column_stack([which[kept], np.round(solved.u[kept], 7)]))]
    stalled = np.bincount(which[~solved.converged], minlength=len(radii))
    return _Intersections(solved.u[kept], vals[kept], tangents[kept], which[kept], stalled)


def _radial_verdict(
    ctx: StratifiedMapContext,
    condition: str,
    x: str,
    y: str,
    point,
    seed: int,
    required: Subspace,
    probe,
    flag: str,
    **detail,
) -> RegularityVerdict:
    """Shared shrinking-radius scheme of tf and afs.

    The point must lie on the closure of X, within the APPROACH_TOL that
    :func:`strata.approach_sequence` allows, or IncidenceError is raised;
    both read the prestratification's location of the point.
    For each radius of ``RadialPlan``, chart points of X inside the ball are
    drawn from the stream ``rng_for(seed, condition, x, y, j)`` for the
    j-th radius; the draws of all radii share one domain test and one
    chart evaluation (:func:`_samples_in_balls`) and stay one flat batch,
    each chart point tagged with the nondecreasing index ``which`` of its
    radius.  Then ``probe(radii, samples, which)`` runs once over the
    batch and returns the ambient points it tested, their ``which``
    (nondecreasing), a bad flag per point and a dict of per-radius count
    columns: tf solves the seeds of every radius together and tests all
    their hits with one leaf-tangent call and one rank gate, afs tests all
    samples the same way.

    Each radius's row holds its radius, its number of samples, whether
    one of its tested points is bad (under the key ``flag``) and its
    entry of every count column, and is marked ``"empty"`` when the probe
    tested none of its points; with ``"stalled"`` seeds as well it is
    unresolved, since those seeds may have missed what is there.  The
    first radius with neither a bad point nor an unresolved row is the
    clean radius and the condition holds; if that row is empty, the hold
    is vacuous and the detail says ``"vacuous": true``.  A bad point at
    every radius is a fault whose :class:`RadialWitness` holds the first
    bad point of each radius in radius order.  Bad points at some radii
    and unresolved rows at the others leave the verdict inconclusive.
    ``detail`` entries follow the radius rows, the clean radius and the
    vacuous flag in the verdict.
    """
    center = np.asarray(point, dtype=float)
    sx = ctx.stratum(x)
    u0 = _on_closure(ctx.prestratification, x, center)
    radii = RadialPlan().radii()
    streams = [rng_for(seed, condition, x, y, str(j)) for j in range(len(radii))]
    samples, which = _samples_in_balls(sx, u0, center, radii, RadialPlan.samples, streams)
    points, tested, bad, columns = probe(radii, samples, which)
    sampled = np.bincount(which, minlength=len(radii))
    found = np.bincount(tested, minlength=len(radii))
    # ``tested`` is nondecreasing, so a radius's first flagged point is
    # the first of its radius index among the flagged ones
    flagged = np.flatnonzero(bad)
    _, first = np.unique(tested[flagged], return_index=True)
    first_bad = dict(zip(tested[flagged[first]].tolist(), points[flagged[first]]))
    rows: list[dict] = []
    bad_points: list[np.ndarray] = []
    clean: dict | None = None
    for j, r in enumerate(radii):
        row = {"radius": float(r), "samples": int(sampled[j]), flag: j in first_bad}
        row.update((name, int(column[j])) for name, column in columns.items())
        if not found[j]:
            row["empty"] = True
        rows.append(row)
        if j in first_bad:
            bad_points.append(first_bad[j])
        elif clean is None and not (row.get("empty") and row.get("stalled")):
            clean = row
    witness = None
    if clean is not None:
        status = Status.HOLDS
    elif len(bad_points) < len(radii):
        status = Status.INCONCLUSIVE
    else:
        status = Status.FAILS
        witness = RadialWitness(np.array(bad_points))
    vacuous = {"vacuous": True} if clean is not None and clean.get("empty") else {}
    return RegularityVerdict(
        condition=condition,
        x=x,
        y=y,
        point=tuple(center),
        status=status,
        required=required,
        witness=witness,
        detail={
            "radii": rows,
            "clean_radius": clean["radius"] if clean is not None else None,
            **vacuous,
            **detail,
        },
    )


def check_tf_at(
    ctx: StratifiedMapContext,
    x: str,
    y: str,
    point,
    surface,
    seed: int = 0,
) -> RegularityVerdict:
    """Test-submanifold condition at shrinking radii.

    The surface must be transverse to the Y-leaf through the point (the
    hypothesis of the condition; violating it is an error, not a fault).
    Intersection points of the surface with X are found by one solve
    over the seeds of all radii, and the hits of all radii are tested for
    transversality to the X-leaves in one batch (one leaf-tangent call,
    one rank gate on [surface tangent | leaf]); each radius reports on the
    hits inside its own ball.
    A detail row adds the number of intersections, whether one of them
    is non-transverse and the number of stalled seeds (unconverged: still
    moving after the last step, or stopped on a non-finite one), and is
    marked ``"empty"`` when it keeps no intersection.  Verdict and witness
    follow :func:`_radial_verdict`.
    """
    n = ctx.prestratification.ambient
    center = np.asarray(point, dtype=float)
    _on_base(ctx, y, point)
    leaf_y = ctx.base_leaf(y, point)
    pre = transverse_at(surface.tangent_at_center(), leaf_y, n)
    if not pre.transverse:
        raise PreconditionError(
            f"test submanifold is not transverse to the Y-leaf at {center.tolist()} "
            f"(defect {pre.defect})"
        )
    sx = ctx.stratum(x)

    def probe(radii: np.ndarray, seeds: np.ndarray, which: np.ndarray):
        hits = _find_intersections(sx, surface, center, radii, seeds, which)
        short = np.zeros(len(hits.u), dtype=bool)
        if len(hits.u):
            stacked = np.concatenate([hits.tangents, ctx.leaf_tangents(sx, hits.u)], axis=2)
            short = ~_rank_at_least(stacked, n)
        counts = np.bincount(hits.which, minlength=len(radii))
        return hits.points, hits.which, short, {"intersections": counts, "stalled": hits.stalled}

    return _radial_verdict(ctx, "tf", x, y, point, seed, leaf_y, probe, "nontransverse")


# ---------------------------------------------------------------------------
# Retraction condition


def check_afs_at(
    ctx: StratifiedMapContext,
    x: str,
    y: str,
    point,
    plan: RadialPlan | None = None,
    seed: int = 0,
) -> RegularityVerdict:
    """Retraction condition at shrinking radii.

    The one retraction tested is the orthogonal projection onto the
    affine tangent of the Y-leaf through the point, whose differential
    is the constant projector P = B B^T, B the leaf's orthonormal basis.
    Restricted to X it must be a submersion onto the leaf on every X-leaf
    near the point: P applied to the X-leaf tangents must keep full rank
    equal to the Y-leaf dimension.  A fault is therefore a fault of af,
    and a hold covers this projection only, not every retraction.
    A detail row adds whether some sample drops rank, and is
    marked ``"empty"`` when the ball gave no samples; the detail adds
    the required rank.  Verdict and witness follow
    :func:`_radial_verdict`.  ``plan`` is ignored: every run takes the one
    ``RadialPlan`` schedule.  It stays only because the benchmark passes
    ``plan=RadialPlan()``, and goes with the benchmark's next revision
    (ROADMAP item 5).
    """
    n = ctx.prestratification.ambient
    _on_base(ctx, y, point)
    leaf_y = ctx.base_leaf(y, point)
    s_req = leaf_y.dim
    proj = leaf_y.basis @ leaf_y.basis.T
    sx = ctx.stratum(x)

    def probe(radii: np.ndarray, samples: np.ndarray, which: np.ndarray):
        low = np.zeros(len(samples), dtype=bool)
        pts = np.zeros((len(samples), n))  # only the points that drop rank are read
        if s_req and len(samples):  # a rank-0 requirement is vacuous
            leaves_x = ctx.leaf_tangents(sx, samples)
            pts = np.asarray(sx.chart(samples), dtype=float)
            pushed = proj @ leaves_x
            low = ~_rank_at_least(pushed, s_req)
        return pts, which, low, {}

    return _radial_verdict(
        ctx, "afs", x, y, point, seed, leaf_y, probe, "rank_drop",
        required_rank=s_req,
    )
