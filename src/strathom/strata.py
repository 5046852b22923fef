"""Strata, prestratifications, and stratified-map contexts.

A stratum is a connected parametrized submanifold of R^n: a chart map
psi: R^d -> R^n restricted to an open domain (conjunction of strict
inequalities in chart coordinates).  A prestratification collects
pairwise disjoint strata together with declared boundary incidences
(X, Y, y): a point y on Y that is a limit of points of X.

All validation here is sampled, never certified: reports carry their
sample counts and seeds, and a passing check means "no violation found
on these samples".  Incidence points are declared in the scene rather
than discovered; closure computation is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dsl import DomainError, SmoothMap, to_source
from .grassmann import Subspace, _fold_columns, _rank_at_least, _ranks
from .seeds import rng_for

ON_STRATUM_TOL = 1e-9  # point-membership / overlap distance
ON_BASE_TOL = 1e-8  # how far a checked point may lie from its base stratum Y
CLOSURE_MARGIN = -1e-8  # domain values above this admit a chart point to the closure
APPROACH_TOL = 1e-7  # how close the last arc term, and the closure of X, must come to y
# samples per stratum the overlap test locates, whatever the sample count: each
# costs one Gauss-Newton solve per other stratum, validation's dearest step
OVERLAP_POINTS = 20
RANK_SAMPLES = 60  # chart points per stratum a rank certificate samples

__all__ = [
    "Stratum",
    "Incidence",
    "Prestratification",
    "StratifiedMapContext",
    "ApproachPlan",
    "Arc",
    "Location",
    "RankCertificate",
    "ValidationError",
    "ImmersionError",
    "ConstantRankError",
    "OverlapError",
    "IncidenceError",
    "LocateError",
    "NumericalInconsistencyError",
    "tangent_space",
    "approach_sequence",
    "validate_constant_rank",
    "validate_prestratification",
]


class ValidationError(Exception):
    pass


class ImmersionError(ValidationError):
    pass


class ConstantRankError(ValidationError):
    pass


class OverlapError(ValidationError):
    pass


class IncidenceError(ValidationError):
    pass


class LocateError(ValidationError):
    pass


class NumericalInconsistencyError(ValidationError):
    """A computation contradicts a certificate it relies on, such as a
    rank of d(f o psi) above the certified constant rank."""


# ---------------------------------------------------------------------------
# Per-point Gauss-Newton


class Location(NamedTuple):
    u: np.ndarray  # chart coordinates of the nearest admissible chart image
    distance: float
    unconverged: int  # starts whose solve was still moving after the last step


class _GaussNewtonResult(NamedTuple):
    u: np.ndarray  # (k, d) final iterates
    iterations: np.ndarray  # (k,) steps taken by each point
    converged: np.ndarray  # (k,) clipped movement fell below tol


def _thin_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factors Q (k, m, d) and R (k, d, d) of matrices A (k, m, d),
    d <= m, with diag R >= 0.

    Classical Gram-Schmidt with one reorthogonalization pass, column by
    column, each step elementwise over the batch: column j loses its
    components along the earlier columns of Q twice, and what is left,
    normalized, is the j-th column of Q.  Two passes keep Q orthonormal
    to working precision whenever A is not numerically rank-deficient
    (Giraud, Langou, Rozloznik and van den Eshof, Numer. Math. 101, 2005).
    A column that nothing is left of, such as a zero column, gets a zero
    column of Q and a zero diagonal entry of R, so QR = A still holds;
    so does a remainder whose squares underflow (norm below about
    1e-154), far under the ``ATOL`` floor of every rank decision.
    """
    k, m, d = a.shape
    cols = np.ascontiguousarray(np.transpose(a, (2, 1, 0)))  # (d, m, k): one (k,) row per entry
    q = np.zeros((d, m, k))
    r = np.zeros((d, d, k))
    for j in range(d):
        v = cols[j]
        for _ in range(2 if j else 0):  # Gram-Schmidt, then the reorthogonalization pass
            coef = (q[:j] * v).sum(axis=1)  # (j, k), all from the same v
            v = v - (q[:j] * coef[:, None, :]).sum(axis=0)
            r[:j, j] += coef
        norm = np.sqrt((v * v).sum(axis=0))
        np.divide(v, norm, out=q[j], where=norm > 0.0)
        r[j, j] = norm
    return np.transpose(q, (2, 1, 0)), np.transpose(r, (2, 0, 1))


def _back_substitute(tri: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions x (k, d) of R x = b for upper-triangular R (k, d, d) and
    b (k, d), by back-substitution vectorized over the batch.  A
    coordinate whose diagonal entry is zero (a column :func:`_thin_qr`
    found nothing left of, whose row of R is zero) is set to 0."""
    d = rhs.shape[1]
    x = np.zeros(rhs.shape)
    for i in range(d - 1, -1, -1):
        known = (tri[:, i, i + 1 :] * x[:, i + 1 :]).sum(axis=1)
        pivot = tri[:, i, i]
        np.divide(rhs[:, i] - known, pivot, out=x[:, i], where=pivot != 0.0)
    return x


def _least_squares_steps(jacs: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Least-squares steps (k, d) solving J s ~ r for Jacobians (k, m, d).

    Every step factors with :func:`_thin_qr` and solves with
    :func:`_back_substitute`:

    * tall and square J (m >= d): J = QR, and a row of rank d takes
      ``R^-1 Q^T r``;
    * wide J (m < d): J^T = Q' R', and a row of rank m takes the
      minimum-norm step ``Q' c`` with R'^T c = r, a lower-triangular
      system solved as the back-substitution of its index reversal.

    Rank is decided by the ``_ranks`` cutoff on diag R;
    rank-deficient rows keep the minimum-norm step ``pinv(J) r``.  A row
    holding a NaN or an infinity gets a step that is not finite: NaN where
    it is rank-deficient (as a NaN row always is), since ``pinv``'s SVD
    does not converge on it.  Both kernels work elementwise over the
    batch, so each row's step is the one it would take alone.
    """
    _, m, d = jacs.shape
    if m < d:
        basis, tri = _thin_qr(np.swapaxes(jacs, 1, 2))
        coef = _back_substitute(np.swapaxes(tri, 1, 2)[:, ::-1, ::-1], res[:, ::-1])[:, ::-1]
        steps = (basis * coef[:, None, :]).sum(axis=2)
    else:
        basis, tri = _thin_qr(jacs)
        steps = _back_substitute(tri, (basis * res[:, :, None]).sum(axis=1))
    deficient = _ranks(tri.diagonal(0, 1, 2)) < min(m, d)
    if deficient.any():
        finite = np.isfinite(jacs).all(axis=(1, 2)) & np.isfinite(res).all(axis=1)
        steps[deficient & ~finite] = np.nan
        deficient &= finite
        steps[deficient] = (np.linalg.pinv(jacs[deficient]) @ res[deficient][:, :, None])[:, :, 0]
    return steps


def _box_steps(res, jacs, tri, u, lo, hi) -> np.ndarray:
    """Steps (k, d) for residuals (k, m) and Jacobians (k, m, d) taken in
    the coordinates v = R u, R (k, d, d) upper-triangular, with a box
    active set on u.

    The full step is ``R^-1 s(J, r)``, the least-squares step of
    :func:`_least_squares_steps` in v pulled back to u by
    :func:`_back_substitute`.  A coordinate that sits on a bound of
    [lo, hi] and whose full step leaves the box is fixed; the free
    coordinates F take the same kind of step for the reduced problem:
    with the thin QR R[:, F] = Q'' R'' of :func:`_thin_qr`, the step is
    ``R''^-1 s(J Q'', r)``, shortest in the metric of v.  The set is
    chosen afresh at every step, so a coordinate whose full step points
    back inside is released (projected Newton; Bertsekas, SIAM J.
    Control Optim. 20(2), 1982).  Every factorization is a :func:`_thin_qr`
    and every solve a :func:`_back_substitute`, but for the ``pinv`` step
    of rank-deficient rows.
    """
    steps = _back_substitute(tri, _least_squares_steps(jacs, res))
    new = u - steps
    fixed = ((u <= lo) & (new < lo)) | ((u >= hi) & (new > hi))
    rows = np.flatnonzero(_fold_columns(np.logical_or, fixed))
    if rows.size == 0:
        return steps
    codes = fixed[rows] @ (1 << np.arange(u.shape[1]))
    for code in np.unique(codes):
        idx = rows[codes == code]
        free = np.flatnonzero(~fixed[idx[0]])
        steps[idx] = 0.0
        if free.size:
            basis, sub = _thin_qr(tri[idx][:, :, free])
            reduced = _least_squares_steps(jacs[idx] @ basis, res[idx])
            steps[idx[:, None], free] = _back_substitute(sub, reduced)
    return steps


def _gauss_newton(residual, u0, lo, hi, tol: float, max_iter: int) -> _GaussNewtonResult:
    """Batched Gauss-Newton with a per-point exit.

    ``residual(u, idx)`` returns the residuals (k, r) and their Jacobians
    (k, r, d) at the iterates ``u`` of the rows ``idx``; only rows still
    active are evaluated.  Each step is ``u <- clip(u - s, lo, hi)``:

    * two arrays (residuals, Jacobians): s is the least-squares step of
      :func:`_least_squares_steps`, ``R^-1 Q^T r`` from the thin QR of J
      where J has full column rank, the minimum-norm step from the thin
      QR of J^T where J is wide of full row rank, and ``pinv(J) r`` on
      rank-deficient rows (a singular fold-search Jacobian, say);
    * three arrays, the third upper-triangular factors R (k, d, d): the
      Jacobians are taken in the coordinates v = R u (the Q of a chart
      Jacobian QR), and s is the same least-squares step in v pulled
      back to u by back-substitution, with coordinates on the box edge
      whose step leaves the box held fixed (:func:`_box_steps`).  The
      tf intersection search uses this form, in the normal coordinates
      of its test surface, with the chart Jacobian's thin QR from
      :func:`_thin_qr`; a zero diagonal entry of R, where that Jacobian
      is rank-deficient, leaves its coordinate unmoved.

    A point freezes once its clipped movement (max-abs) falls below
    ``tol``, so a point pinned to the box edge stops even though its
    unclipped step never shrinks, and a point held at a box-edge fixed
    point of the three-array form stops at once.  Points still moving
    after ``max_iter`` steps keep their last iterate and report
    ``converged=False``; so does a point whose step is not finite (a
    residual or Jacobian that overflowed, say), which stops at once at
    its last finite iterate without counting the step.
    """
    u = np.clip(np.asarray(u0, dtype=float), lo, hi)
    k = len(u)
    iterations = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k)
    for _ in range(max_iter):
        if active.size == 0:
            break
        ua = u[active]
        res, jacs, *r_factor = residual(ua, active)
        if r_factor:
            step = _box_steps(res, jacs, r_factor[0], ua, lo, hi)
        else:
            step = _least_squares_steps(jacs, res)
        if not np.isfinite(step).all():  # rows without a finite step stop where they are
            keep = np.isfinite(step).all(axis=1)
            active, ua, step = active[keep], ua[keep], step[keep]
        new = np.minimum(np.maximum(ua - step, lo), hi)  # np.clip, without its overhead
        u[active] = new
        iterations[active] += 1
        done = _fold_columns(np.maximum, np.abs(new - ua)) < tol  # max-abs movement
        converged[active[done]] = True
        active = active[~done]
    return _GaussNewtonResult(u, iterations, converged)


# ---------------------------------------------------------------------------
# Stratum


@dataclass(frozen=True)
class Stratum:
    """Parametrized submanifold: chart psi: R^d -> R^n on an open domain.

    ``inverse_hint`` (optional) maps ambient points near the stratum back
    to chart coordinates in closed form and seeds point location, a
    per-point Gauss-Newton solve clipped to :attr:`solve_bounds` and
    multistarted over ``sample_box``.
    """

    name: str
    chart: SmoothMap
    inverse_hint: SmoothMap | None = None
    sample_box: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not self.sample_box:
            object.__setattr__(self, "sample_box", ((-1.0, 1.0),) * self.dim)
        if len(self.sample_box) != self.dim:
            raise ValueError(
                f"sample_box has {len(self.sample_box)} intervals, "
                f"the chart has {self.dim} coordinates"
            )
        for lo, hi in self.sample_box:
            if lo > hi:
                raise ValueError(
                    f"sample_box interval [{lo}, {hi}] has its low end above its high end"
                )
        if self.inverse_hint is not None and (
            self.inverse_hint.n != self.ambient or self.inverse_hint.m != self.dim
        ):
            raise ValueError("inverse hint must map ambient points to chart points")

    @property
    def dim(self) -> int:
        return self.chart.n

    @property
    def ambient(self) -> int:
        return self.chart.m

    @property
    def solve_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper clip of every Gauss-Newton solve on the chart.

        The sample box is the declared working region of the chart; the
        bounds nudge it 1e-12 inward, which keeps iterates evaluable when
        the chart formula is singular on an open boundary (log, sqrt).
        """
        box = np.asarray(self.sample_box)
        return box[:, 0] + 1e-12, box[:, 1] - 1e-12

    # -- sampling ------------------------------------------------------------

    def sample_chart_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection-sample chart points from sample_box inside the domain."""
        box = np.asarray(self.sample_box)
        out: list[np.ndarray] = []
        attempts = 0
        while sum(len(o) for o in out) < count and attempts < 200:
            draw = rng.uniform(box[:, 0], box[:, 1], size=(max(count, 32), self.dim))
            keep = self.chart.in_domain(draw)
            out.append(draw[keep])
            attempts += 1
        pts = np.concatenate(out) if out else np.zeros((0, self.dim))
        if len(pts) < count:
            raise ValidationError(
                f"stratum {self.name!r}: could not sample {count} domain points "
                f"from its sample box (got {len(pts)})"
            )
        return pts[:count]

    # -- point location ------------------------------------------------------

    def domain_margins(self, u: np.ndarray, floor: float = 0.0) -> np.ndarray:
        """Values of the domain predicates at chart points (k, #preds),
        in order up to the first one not above ``floor``."""
        return self.chart.domain_values(np.atleast_2d(np.asarray(u, dtype=float)), floor)

    def locate(self, point, closure: bool = False) -> Location:
        """Chart coordinates of the nearest chart image to ``point``: the
        row of :meth:`locate_many` with the start set of seed 0, raising
        :class:`LocateError` if no start ends admissible."""
        p = np.asarray(point, dtype=float)
        u, dist, unconverged = self.locate_many(p[None], closure)
        if dist[0] == np.inf:
            raise LocateError(
                f"no admissible chart point found on {self.name!r} near {p.tolist()}"
            )
        return Location(u[0], float(dist[0]), int(unconverged[0]))

    def locate_many(
        self, points, closure: bool = False, seed: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_nearest` for the points (m, n), each started from the
        inverse hint, the box center and 8 seeded points of the sample
        box (the same 8 for every point).  With ``closure=True`` the
        domain predicates may sit at zero (boundary points are eligible);
        otherwise the result must lie strictly inside the domain."""
        p = np.asarray(points, dtype=float)
        box = np.asarray(self.sample_box)
        hints = 0 if self.inverse_hint is None else 1
        starts = np.empty((len(p), hints + 9, self.dim))
        if hints:
            starts[:, 0] = self.inverse_hint(p, check_domain=False)
        starts[:, hints] = box.mean(axis=1)
        starts[:, hints + 1 :] = rng_for(seed, "locate", self.name).uniform(
            box[:, 0], box[:, 1], size=(8, self.dim)
        )
        # strict interior with a small margin: a point that is only a
        # *limit* of the stratum drives the solve onto the boundary and
        # must not count as lying on it
        return self._nearest(p, starts, CLOSURE_MARGIN if closure else 1e-9)

    def _nearest(self, points, starts, floor: float, tol: float = 1e-13, max_iter: int = 80):
        """Nearest admissible chart point to each of the points (m, n) from
        its starts (m, s, d), in one Gauss-Newton solve over all starts.

        A solved start is admissible where every domain predicate reads
        above ``floor``; each point keeps its nearest admissible start,
        the first of equal ones, and gets distance ``inf`` with none.
        Every start exits on its own, so a row does not depend on the
        other points.  Returns u (m, d), the distances (m,) and, per
        point, the number of starts still moving after ``max_iter``
        steps (m,).
        """
        m, per_point, d = starts.shape
        targets = np.repeat(points, per_point, axis=0)

        def residual(u, idx):
            vals, jacs = self.chart.value_and_jacobian(u, check_domain=False)
            return vals - targets[idx], jacs

        solved = _gauss_newton(
            residual, starts.reshape(-1, d), *self.solve_bounds, tol=tol, max_iter=max_iter
        )
        u = solved.u
        ok = np.all(self.domain_margins(u, floor) > floor, axis=1)
        dists = np.linalg.norm(self.chart(u, check_domain=False) - targets, axis=1)
        dists = np.where(ok, dists, np.inf).reshape(m, per_point)
        best = np.arange(m) * per_point + np.argmin(dists, axis=1)
        unconverged = np.count_nonzero(~solved.converged.reshape(m, per_point), axis=1)
        return u[best], dists.ravel()[best], unconverged


def tangent_space(stratum: Stratum, u) -> Subspace:
    """Column span of the chart Jacobian; errors if the rank drops below d."""
    u = np.asarray(u, dtype=float)
    return Subspace(_tangent_frames(stratum, u[None], stratum.chart.jacobian(u)[None])[0])


def _tangent_frames(stratum: Stratum, U: np.ndarray, jacs: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames (k, n, d) from the chart Jacobians
    (k, n, d) at chart points U (k, d), cut at the ``_ranks`` cutoff;
    :class:`ImmersionError` names the first point of rank below d."""
    frames, sv, _ = np.linalg.svd(jacs, full_matrices=False)
    _require_immersion(stratum, U, sv)
    return frames


def _check_immersion(stratum: Stratum, U: np.ndarray, jacs: np.ndarray) -> None:
    """:func:`_require_immersion` of the chart Jacobians (k, n, d) at U
    (k, d), decided by the rank gate; only a stack that it finds short
    goes through the SVD, for the rank the error names."""
    if not _rank_at_least(jacs, stratum.dim).all():
        _require_immersion(stratum, U, np.linalg.svd(jacs, compute_uv=False))


def _require_immersion(stratum: Stratum, U: np.ndarray, sv: np.ndarray) -> None:
    """:class:`ImmersionError` naming the first chart point of U (k, d)
    whose chart Jacobian, of singular values sv (k, d), has rank below d
    at the ``_ranks`` cutoff."""
    ranks = _ranks(sv)
    bad = ranks < stratum.dim
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ImmersionError(
            f"chart of {stratum.name!r} has rank {ranks[i]} < {stratum.dim} at {U[i].tolist()}"
        )


# ---------------------------------------------------------------------------
# Prestratification


@dataclass(frozen=True)
class Incidence:
    x: str  # approaching stratum
    y: str  # base stratum
    point: tuple[float, ...]


@dataclass(frozen=True)
class Prestratification:
    """Pairwise disjoint strata and their declared incidences.

    Incidence points are located once: :meth:`location` keeps every
    location it computes, so the validation and every checker at the
    same point share one solve per stratum.
    """

    ambient: int
    strata: tuple[Stratum, ...]
    incidences: tuple[Incidence, ...] = ()
    _locations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [s.name for s in self.strata]
        if len(set(names)) != len(names):
            raise ValueError("stratum names must be unique")
        for s in self.strata:
            if s.ambient != self.ambient:
                raise ValueError(f"stratum {s.name!r} lives in R^{s.ambient}, not R^{self.ambient}")
        for inc in self.incidences:
            self.stratum(inc.x)
            self.stratum(inc.y)
            if len(inc.point) != self.ambient:
                raise ValueError(f"incidence point {inc.point} has wrong dimension")

    def stratum(self, name: str) -> Stratum:
        for s in self.strata:
            if s.name == name:
                return s
        raise KeyError(f"no stratum named {name!r}")

    def location(self, name: str, point, closure: bool = False) -> Location:
        """:meth:`Stratum.locate` of ``point`` on the stratum ``name``,
        computed on the first call for (name, point, closure) and kept,
        with a read-only ``u``.

        Every location uses the fixed start set of seed 0, so it does not
        depend on the caller.  Callers test the distance themselves; a
        :class:`LocateError` propagates and nothing is kept.
        """
        p = np.asarray(point, dtype=float)
        key = (name, p.tobytes(), closure)
        loc = self._locations.get(key)
        if loc is None:
            loc = self.stratum(name).locate(p, closure=closure)
            loc.u.flags.writeable = False
            self._locations[key] = loc
        return loc


# ---------------------------------------------------------------------------
# Constant-rank certificates and stratified-map context


@dataclass(frozen=True)
class RankCertificate:
    stratum: str
    rank: int
    samples: int
    seed: int
    chart_points: np.ndarray = field(repr=False)
    min_kept_sv: float  # smallest singular value counted into the rank
    max_dropped_sv: float  # largest singular value below the cutoff


def validate_constant_rank(f: SmoothMap, stratum: Stratum, seed: int = 0) -> RankCertificate:
    """Certify that d(f o psi) has one rank at every one of
    ``RANK_SAMPLES`` sampled chart points."""
    rng = rng_for(seed, "rank", stratum.name)
    pts = stratum.sample_chart_points(RANK_SAMPLES, rng)
    vals, chart_jacs = stratum.chart.value_and_jacobian(pts)
    _, f_jacs = f.value_and_jacobian(vals, check_domain=False)
    composed = f_jacs @ chart_jacs  # (k, p, d)
    svs = np.linalg.svd(composed, compute_uv=False)
    ranks = _ranks(svs)
    if not np.all(ranks == ranks[0]):
        lo = int(np.argmin(ranks))
        hi = int(np.argmax(ranks))
        raise ConstantRankError(
            f"rank of the map varies on stratum {stratum.name!r}: "
            f"rank {ranks[lo]} at {pts[lo].tolist()} vs rank {ranks[hi]} at {pts[hi].tolist()}"
        )
    r = int(ranks[0])
    min_kept = float(np.min(svs[:, r - 1])) if r > 0 else 0.0
    max_dropped = float(np.max(svs[:, r:])) if r < svs.shape[1] else 0.0
    return RankCertificate(
        stratum=stratum.name,
        rank=r,
        samples=RANK_SAMPLES,
        seed=seed,
        chart_points=pts,
        min_kept_sv=min_kept,
        max_dropped_sv=max_dropped,
    )


@dataclass(frozen=True)
class StratifiedMapContext:
    """A map f together with per-stratum constant-rank certificates.

    Immutable after construction; owner of induced-foliation queries.
    Leaf tangents come from one batched kernel, :meth:`leaf_tangents`,
    which the checkers call once per a/af verdict (every arc), per tf
    verdict (its hits at every radius) and per afs verdict (its samples
    at every radius), the witness sheet once, and the stability
    experiments once per stratum and transversality margin.  It reads
    every leaf from the kernel of d(f o psi) at the certified corank and
    checks at every point that the rank of d(f o psi) is not above the
    certificate.

    The base leaf, the Y-leaf tangent at the located chart point of an
    incidence point, is computed once per (y, point) by
    :meth:`base_leaf` and kept; af, tf, afs, their test surfaces and the
    tf witness sheet all read it.
    """

    f: SmoothMap
    prestratification: Prestratification
    ranks: dict[str, RankCertificate]
    _base_leaves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def build(
        f: SmoothMap, prestratification: Prestratification, seed: int = 0
    ) -> "StratifiedMapContext":
        if f.n != prestratification.ambient:
            raise ValueError("map and prestratification have different ambient dimensions")
        ranks = {s.name: validate_constant_rank(f, s, seed=seed) for s in prestratification.strata}
        return StratifiedMapContext(f=f, prestratification=prestratification, ranks=ranks)

    def stratum(self, name: str) -> Stratum:
        return self.prestratification.stratum(name)

    def rank(self, name: str) -> int:
        return self.ranks[name].rank

    def base_leaf(self, y: str, point) -> Subspace:
        """Leaf tangent of Y at :meth:`Prestratification.location` of
        ``point`` on Y, computed on the first call for (y, point) and
        kept.  The caller tests the location's distance first."""
        key = (y, np.asarray(point, dtype=float).tobytes())
        leaf = self._base_leaves.get(key)
        if leaf is None:
            leaf = self.leaf_tangent(self.stratum(y), self.prestratification.location(y, point).u)
            self._base_leaves[key] = leaf
        return leaf

    def leaf_tangent(self, stratum: Stratum | str, u) -> Subspace:
        """Tangent space of the induced-foliation leaf through psi(u): one
        row of :meth:`leaf_tangents`."""
        return Subspace(self.leaf_tangents(stratum, np.asarray(u, dtype=float)[None])[0])

    def leaf_tangents(self, stratum: Stratum | str, U) -> np.ndarray:
        """Orthonormal leaf-tangent bases (k, n, d - rank) at chart points U (k, d).

        The constant-rank certificate pins the leaf dimension at
        d - rank, so the leaf is the kernel of d(f o psi) forced to
        corank d - rank (a tolerance-based cut degenerates arbitrarily
        close to a fault), pushed forward through dpsi.  f o psi, and so
        the singular values sigma that separate the leaf, do not change
        under a rigid motion of the ambient space; the principal vectors
        of the tangent space against ker df would separate it only by
        cosines 1 - O(sigma^2), which rounding erases in rotated
        coordinates.

        The same SVD checks the certificate: d(f o psi) must not have
        rank above it at any point, and the pushed-forward kernel must
        have dimension d - rank.  Each step runs once for the whole
        batch, and a failing check raises
        :class:`NumericalInconsistencyError` naming the first chart
        point that fails it.

        A batch whose chart Jacobians and d(f o psi) are equal bit for bit
        in every row, as on an affine stratum under an affine map, runs
        the immersion gate, both SVDs and both checks on its first row
        and repeats that basis: the same bits and the same errors, since
        every row would fail where the first does.  A batch whose chart
        Jacobians alone are equal runs only the immersion gate on one
        row.  The input decides the path.

        The points may lie on the closure of the domain: every domain
        predicate must read above ``CLOSURE_MARGIN``, the band that
        ``Stratum.locate(closure=True)`` admits, and a point beyond it
        raises :class:`DomainError` naming the first such point.
        """
        s = self.stratum(stratum) if isinstance(stratum, str) else stratum
        U = np.asarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != s.dim:
            raise ValueError(f"expected chart points of shape (k, {s.dim}), got {U.shape}")
        n, d, rank = s.ambient, s.dim, self.rank(s.name)
        leaf_dim = d - rank
        if len(U) == 0:
            return np.zeros((0, n, leaf_dim))
        margins = s.domain_margins(U, CLOSURE_MARGIN)
        beyond = ~(margins > CLOSURE_MARGIN)
        if np.any(beyond):
            i, j = np.argwhere(beyond)[0]
            raise DomainError(
                f"point {U[i].tolist()} lies beyond the closure of the domain of {s.name!r}: "
                f"predicate {to_source(s.chart.domain[j])} > 0 reads {margins[i, j]:.2e}"
            )
        points, chart_jacs = s.chart.value_and_jacobian(U, check_domain=False)
        same_chart = _rows_equal(chart_jacs)
        _check_immersion(s, U, chart_jacs[:1] if same_chart else chart_jacs)
        if leaf_dim == 0:
            return np.zeros((len(U), n, 0))
        _, f_jacs = self.f.value_and_jacobian(points, check_domain=False)
        composed = f_jacs @ chart_jacs
        if same_chart and _rows_equal(composed):
            return np.repeat(self._leaf_bases(s, U, chart_jacs[:1], composed[:1]), len(U), axis=0)
        return self._leaf_bases(s, U, chart_jacs, composed)

    def _leaf_bases(self, s: Stratum, U: np.ndarray, chart_jacs: np.ndarray, composed: np.ndarray) -> np.ndarray:
        """The leaf bases (k, n, d - rank) from the chart Jacobians (k, n, d)
        and d(f o psi) (k, p, d) at the first k rows of U, with both checks
        of :meth:`leaf_tangents`."""
        rank = self.rank(s.name)
        leaf_dim = s.dim - rank
        _, c_sv, c_vt = np.linalg.svd(composed)
        c_ranks = _ranks(c_sv)
        above = c_ranks > rank
        if np.any(above):
            i = int(np.argmax(above))
            raise NumericalInconsistencyError(
                f"d(f o psi) on {s.name!r} at {U[i].tolist()} has rank {c_ranks[i]}, "
                f"above the certified rank {rank}"
            )
        pushed = chart_jacs @ np.swapaxes(c_vt, 1, 2)[:, :, rank:]
        leaves, p_sv, _ = np.linalg.svd(pushed, full_matrices=False)
        p_ranks = _ranks(p_sv)
        bad = p_ranks != leaf_dim
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NumericalInconsistencyError(
                f"pushed-forward chart kernel on {s.name!r} at {U[i].tolist()} has dimension "
                f"{p_ranks[i]}, expected {leaf_dim}"
            )
        return leaves


def _rows_equal(a: np.ndarray) -> bool:
    """Whether every row of the stack a (k, ...) equals its first, bit for
    bit (a NaN row never does)."""
    return bool((a == a[:1]).all())


# ---------------------------------------------------------------------------
# Approach plans and arcs


@dataclass(frozen=True)
class ApproachPlan:
    """How to march sample sequences toward an incidence point.

    ``ratio`` is the geometric step; arcs run u_i = u0 + ratio^i * dir
    for i = 1..terms over a direction set made of the chart-coordinate
    axis directions and random unit directions from the fixed
    ``rng_for(0, "arc-directions")`` stream, capped at
    ``total_directions`` (at least 1).  ``angle_tol``, in (0, pi/2], is the
    angle tolerance of the Cauchy window and of the limit's containment;
    principal angles never exceed pi/2, so a larger one passes every test.
    """

    ratio: float = 0.7
    terms: int = 60
    total_directions: int = 8
    window: int = 5
    angle_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie strictly inside (0, 1)")
        if self.terms < self.window:
            raise ValueError("term count must be at least the Cauchy window")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if not self.total_directions >= 1:
            raise ValueError("direction count must be at least 1")
        if not self.angle_tol > 0.0:
            raise ValueError("angle tolerance must be positive")
        if not self.angle_tol <= np.pi / 2:
            raise ValueError(f"angle tolerance must be at most pi/2, got {self.angle_tol}")

    def directions(self, dim: int) -> list[np.ndarray]:
        dirs: list[np.ndarray] = []
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = 1.0
            dirs.append(e.copy())
            dirs.append(-e)
        rng = rng_for(0, "arc-directions")
        while len(dirs) < self.total_directions:
            v = rng.standard_normal(dim)
            dirs.append(v / np.linalg.norm(v))
        return [d / max(np.linalg.norm(d), 1e-300) for d in dirs[: self.total_directions]]


@dataclass(frozen=True)
class Arc:
    direction: tuple[float, ...]
    chart_points: np.ndarray  # (k, d)
    points: np.ndarray  # (k, n)


def _on_closure(prestratification: Prestratification, name: str, y) -> np.ndarray:
    """Chart point of :meth:`Prestratification.location` of y on the
    closure of the stratum ``name``, which y must lie on: within
    APPROACH_TOL, or IncidenceError."""
    u0, dist, _ = prestratification.location(name, y, closure=True)
    if dist > APPROACH_TOL:
        raise IncidenceError(
            f"{np.asarray(y).tolist()} is not on the closure of {name!r} (distance {dist:.2e})"
        )
    return u0


def approach_sequence(
    prestratification: Prestratification,
    stratum: Stratum | str,
    y,
    plan: ApproachPlan | None = None,
) -> list[Arc]:
    """Geometric arcs in ``stratum`` whose images converge to y.

    The base chart point u0 is the prestratification's location of y on
    the closure of the chart domain; every surviving arc has strictly
    decreasing distances to y ending below APPROACH_TOL.  Directions
    whose arcs leave the domain or fail to approach are dropped; losing
    all of them is an error.

    The arc points of every direction go through one domain test and one
    chart evaluation, of the rows of the directions that keep enough of
    them; both act row by row, so each arc keeps the rows and images a
    test of its own would.  Arcs and failure messages come in direction
    order.
    """
    s = prestratification.stratum(stratum) if isinstance(stratum, str) else stratum
    plan = plan or ApproachPlan()
    y = np.asarray(y, dtype=float)
    u0 = _on_closure(prestratification, s.name, y)
    dirs = np.array(plan.directions(s.dim))
    powers = plan.ratio ** np.arange(1, plan.terms + 1)
    chart_pts = (u0[None, None, :] + powers[None, :, None] * dirs[:, None, :]).reshape(-1, s.dim)
    inside = s.chart.in_domain(chart_pts).reshape(len(dirs), plan.terms)
    enough = inside.sum(axis=1) >= max(plan.window, 2)
    inside &= enough[:, None]
    kept = chart_pts[inside.ravel()]
    images = s.chart(kept)
    bounds = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
    arcs: list[Arc] = []
    failures: list[str] = []
    for dvec, ok, lo, hi in zip(dirs, enough, bounds[:-1], bounds[1:]):
        if not ok:
            failures.append(f"direction {np.round(dvec, 6).tolist()}: leaves the domain")
            continue
        pts = images[lo:hi]
        dists = np.linalg.norm(pts - y, axis=1)
        if not (np.all(np.diff(dists) < 0.0) and dists[-1] < APPROACH_TOL):
            failures.append(
                f"direction {np.round(dvec, 6).tolist()}: does not approach y "
                f"(final distance {dists[-1]:.2e})"
            )
            continue
        arcs.append(Arc(direction=tuple(dvec), chart_points=kept[lo:hi], points=pts))
    if not arcs:
        raise IncidenceError(
            f"no approach arc toward {y.tolist()} on {s.name!r}: " + "; ".join(failures)
        )
    return arcs


# ---------------------------------------------------------------------------
# Prestratification validation


@dataclass(frozen=True)
class FrontierProbe:
    stratum: str
    status: str  # 'satisfied' | 'violated' | 'undetermined'
    detail: str


@dataclass(frozen=True)
class PrestratificationReport:
    samples: int
    seed: int
    incidences_confirmed: int
    frontier: tuple[FrontierProbe, ...]
    frontier_status: str


def validate_prestratification(
    prestratification: Prestratification,
    samples: int = 40,
    seed: int = 0,
    plan: ApproachPlan | None = None,
) -> PrestratificationReport:
    """Sampled validation: immersions, disjointness, incidences, frontier.

    Immersion is checked on ``samples`` chart points per stratum, and
    disjointness on the first ``OVERLAP_POINTS`` (20) of them, however
    many are asked for.  An incidence is confirmed by the approach arcs
    that ``plan`` (the default plan if None) marches toward its point.
    Those violations and incidence violations raise;
    the frontier condition is only probed (a prestratification need not
    satisfy it) and its status is reported as satisfied / violated /
    undetermined.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    P = prestratification
    sampled: dict[str, np.ndarray] = {}
    for s in P.strata:
        rng = rng_for(seed, "validate", s.name)
        pts = s.sample_chart_points(samples, rng)
        sampled[s.name] = pts
        _check_immersion(s, pts, s.chart.jacobian(pts))

    # overlap: a sampled point of one stratum claimed by another
    for a in P.strata:
        images = a.chart(sampled[a.name][:OVERLAP_POINTS])
        for b in P.strata:
            if b.name == a.name:
                continue
            _, dists, _ = b.locate_many(images, closure=False, seed=seed)
            claimed = np.flatnonzero(dists < ON_STRATUM_TOL)
            if claimed.size:
                raise OverlapError(
                    f"point {images[claimed[0]].tolist()} of stratum {a.name!r} "
                    f"also lies on {b.name!r}"
                )

    confirmed = 0
    for inc in P.incidences:
        dist = P.location(inc.y, inc.point).distance
        if dist > ON_STRATUM_TOL:
            raise IncidenceError(
                f"declared incidence point {list(inc.point)} is not on {inc.y!r} "
                f"(distance {dist:.2e})"
            )
        approach_sequence(P, inc.x, inc.point, plan)  # raises if unreachable
        confirmed += 1

    probes = [_probe_frontier(P, s, sampled[s.name], seed) for s in P.strata]
    statuses = {p.status for p in probes}
    if "violated" in statuses:
        frontier_status = "violated"
    elif "satisfied" in statuses:
        frontier_status = "satisfied"
    else:
        frontier_status = "undetermined"
    return PrestratificationReport(
        samples=samples,
        seed=seed,
        incidences_confirmed=confirmed,
        frontier=tuple(probes),
        frontier_status=frontier_status,
    )


def _probe_frontier(
    P: Prestratification, s: Stratum, interior: np.ndarray, seed: int
) -> FrontierProbe:
    """Walk interior samples to the predicate boundary and match the
    resulting frontier points against the other strata.

    The probe only decides coverage: every reachable frontier point must
    lie on some other stratum.  A stratum without domain predicates has
    no boundary to walk toward and comes out undetermined.
    """
    if not s.chart.domain:
        return FrontierProbe(s.name, "undetermined", "no domain predicates to probe")
    hits = [
        _walk_to_boundary(SmoothMap(n=s.dim, components=(pred,)), interior[:8])
        for pred in s.chart.domain
    ]
    candidates = np.concatenate(hits)
    if len(candidates) == 0:
        return FrontierProbe(s.name, "undetermined", "no reachable predicate boundary")
    p_star = np.asarray(s.chart(candidates, check_domain=False), dtype=float)
    others = [o for o in P.strata if o.name != s.name]
    on = np.array(
        [o.locate_many(p_star, closure=False, seed=seed)[1] < 1e-6 for o in others]
    ).reshape(len(others), len(candidates))
    unclaimed = np.flatnonzero(~on.any(axis=0))
    if unclaimed.size:
        return FrontierProbe(
            s.name,
            "violated",
            f"frontier point {np.round(p_star[unclaimed[0]], 9).tolist()} lies on no other stratum",
        )
    # each frontier point is claimed by the first stratum it lies on
    claimants = {others[i].name for i in np.argmax(on, axis=0)}
    return FrontierProbe(
        s.name, "satisfied", f"frontier samples matched by {sorted(claimants)}"
    )


def _walk_to_boundary(pred: SmoothMap, U: np.ndarray) -> np.ndarray:
    """Boundary points (h, d) reached from the interior points U (k, d),
    in row order: each marches against the predicate gradient, in
    doubling steps up to 8 chart units, until the predicate crosses
    zero, and the crossing is bisected.  Points with a vanishing
    gradient or no crossing within reach are dropped.  All points walk
    in lockstep, one predicate evaluation per step."""
    vals, jacs = pred.value_and_jacobian(U)
    grads = jacs[:, 0, :]
    # g^T g as a matrix product sums as np.linalg.norm of one vector does
    norms = np.sqrt(grads[:, None, :] @ grads[:, :, None])[:, 0, 0]
    keep = norms >= 1e-12
    U, vals, grads, norms = U[keep], vals[keep, 0], grads[keep], norms[keep]
    direction = -grads / norms[:, None]
    lo = np.zeros(len(U))
    hi = np.full(len(U), np.inf)
    t = np.minimum(1.0, vals / norms + 1e-3)
    walking = np.flatnonzero(t <= 8.0)
    while walking.size:
        tw = t[walking]
        crossed = pred(U[walking] + tw[:, None] * direction[walking])[:, 0] <= 0.0
        hi[walking[crossed]] = tw[crossed]
        lo[walking[~crossed]] = tw[~crossed]
        t[walking[~crossed]] = 2.0 * tw[~crossed]
        walking = walking[~crossed]
        walking = walking[t[walking] <= 8.0]  # the rest gave up beyond 8 chart units
    found = hi < np.inf
    U, direction, lo, hi = U[found], direction[found], lo[found], hi[found]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = pred(U + mid[:, None] * direction)[:, 0] > 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    # return the inside endpoints: the chart stays evaluable there and the
    # bracket is far tighter than any matching tolerance downstream
    return U + lo[:, None] * direction
