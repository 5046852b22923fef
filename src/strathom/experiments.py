"""Perturbation experiments on gallery scenes.

Two phenomena at desk scale:

* stability: over a regular foliated prestratification, a map that is
  transverse on a compact sample grid stays transverse under every
  sufficiently small C^1 perturbation; a calibrated size is found by
  bisection and certified by a seeded trial batch;
* instability: at a foliated fault, an explicitly constructed sequence
  of maps converges to a transverse base map in sampled C^1 distance
  while every member is non-transverse at a fault sample.

The non-genericity scenes run a third kind of trial: perturbed maps are
searched for an unavoidable tangency witness (a zero of the vertical
slope, or a fold point landing on the foliated circle).

Every trial map is ``constructions.PerturbedMap(base, delta)``: the base
map plus a seeded :class:`PerturbationField` delta, the same type that
carries the destabilizer's localized correction.

Transversality on samples is decided with an explicit margin (the
smallest singular value of the stacked differential-plus-leaf matrix).
Exact rank at finitely many sample points would almost surely call
everything transverse; the margin is the honest sampled analogue.

All trials derive their randomness from a single seed and replay
bit-identically.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .constructions import (
    DestabilizerSequence,
    NumericMap,
    PerturbedMap,
    _sampled_c1_size,
    choose_complement_H,
    destabilizing_sequence,
    frame_for_image,
    rank_drop_map,
)
from .dsl import _bump_value_and_slope, parse_map
from .regularity import PreconditionError, Status, check_af_at, transverse_at
from .scene import Scene
from .seeds import rng_for
from .strata import CLOSURE_MARGIN, StratifiedMapContext, Stratum, _gauss_newton

__all__ = [
    "PerturbationField",
    "StabilityReport",
    "InstabilityReport",
    "NongenericityReport",
    "grid_points",
    "seeded_full_rank_map",
    "make_perturbation",
    "transversality_margin",
    "stability_trial",
    "calibrate_epsilon",
    "stability_sweep",
    "sweep_csv_rows",
    "instability_demo",
    "nongenericity_demo",
]

MARGIN_TOL = 5e-2  # relative transversality margin threshold
PROXIMITY = 0.1  # images closer than this to a stratum are tested against it


def grid_points(box, dims) -> np.ndarray:
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(box, dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# Maps and perturbation fields


class AffineMap(NumericMap):
    """Numeric affine map w -> A w + b (the seeded transverse base map)."""

    def __init__(self, matrix: np.ndarray, offset: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        self.m, self.n = self.matrix.shape[0], self.matrix.shape[1]

    def value_and_jacobian(self, w, check_domain: bool = False):
        arr = np.asarray(w, dtype=float)
        out = np.atleast_2d(arr) @ self.matrix.T + self.offset
        if arr.ndim == 1:
            return out[0], self.matrix.copy()
        return out, np.broadcast_to(self.matrix, (arr.shape[0],) + self.matrix.shape).copy()


def seeded_full_rank_map(n: int, seed: int) -> AffineMap:
    """Seeded affine self-map of R^n with all singular values >= 0.35;
    full ambient rank makes it transverse to every foliated stratum."""
    rng = rng_for(seed, "base-map")
    for _ in range(100):
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        if np.linalg.svd(a, compute_uv=False)[-1] >= 0.35:
            return AffineMap(a, 0.05 * rng.standard_normal(n))
    raise RuntimeError("could not draw a well-conditioned base map")


class PerturbationField(NumericMap):
    """Finite sum of smooth localized humps with random offsets and
    linear parts; C^1 size is controlled by a single scale factor.

    On a circle domain the humps and linear parts are built from
    periodic quantities so the perturbed map stays a map of the circle.
    """

    def __init__(self, centers, radii, offsets, linears, topology: str = "line"):
        self.centers = np.asarray(centers, dtype=float)  # (B, m)
        self.radii = np.asarray(radii, dtype=float)  # (B,)
        self.offsets = np.asarray(offsets, dtype=float)  # (B, n)
        self.linears = np.asarray(linears, dtype=float)  # (B, n, m)
        self.topology = topology
        self.scale = 1.0
        self.m = self.centers.shape[1]
        self.n = self.offsets.shape[1]

    def _humps(self, w: np.ndarray):
        """Per-hump profile values and gradients at points (k, m)."""
        if self.topology == "circle":
            # squared chordal distance on the circle, periodic in w
            diff = w[:, None, 0] - self.centers[None, :, 0]
            d = (2.0 - 2.0 * np.cos(diff)) / self.radii[None, :] ** 2
            grad = (2.0 * np.sin(diff) / self.radii[None, :] ** 2)[:, :, None]
            disp = np.sin(diff)[:, :, None]  # periodic displacement
            disp_jac = np.cos(diff)[:, :, None, None]
        else:
            diff = w[:, None, :] - self.centers[None, :, :]
            d = np.sum(diff**2, axis=2) / self.radii[None, :] ** 2
            grad = 2.0 * diff / self.radii[None, :, None] ** 2
            disp = diff
            disp_jac = None  # the identity: d(w - c)/dw
        val, slope = _bump_value_and_slope(1.0 - d)
        dval = -slope[:, :, None] * grad  # (k, B, m)
        return val, dval, disp, disp_jac

    def value_and_jacobian(self, w, check_domain: bool = False):
        """Values and Jacobians from one pass over the humps."""
        arr = np.asarray(w, dtype=float)
        val, dval, disp, disp_jac = self._humps(np.atleast_2d(arr))
        payload = self.offsets[None, :, :] + np.einsum(
            "bnm,kbm->kbn", self.linears, disp
        )
        out = self.scale * np.sum(val[:, :, None] * payload, axis=1)
        # d/dw [val_b * payload_b] = payload_b (x) dval_b + val_b * L_b * d(disp_b)
        term1 = np.einsum("kbn,kbm->knm", payload, dval)
        if disp_jac is None:
            term2 = np.einsum("kb,bnm->knm", val, self.linears)
        else:
            term2 = np.einsum("kb,kbnm->knm", val, np.einsum("bnu,kbum->kbnm", self.linears, disp_jac))
        jac = self.scale * (term1 + term2)
        return (out[0], jac[0]) if arr.ndim == 1 else (out, jac)

    def sampled_c1_norm(self, sample: np.ndarray) -> float:
        return _sampled_c1_size(*self.value_and_jacobian(sample))


def make_perturbation(
    ambient: int,
    domain_dim: int,
    k_box,
    rng: np.random.Generator,
    bumps: int = 4,
    topology: str = "line",
) -> PerturbationField:
    box = np.asarray(k_box, dtype=float)
    widths = box[:, 1] - box[:, 0]
    centers = rng.uniform(box[:, 0], box[:, 1], size=(bumps, domain_dim))
    radii = rng.uniform(0.3, 1.0, size=bumps) * float(np.max(widths)) / 2.0
    offsets = rng.standard_normal((bumps, ambient))
    linears = rng.standard_normal((bumps, ambient, domain_dim))
    return PerturbationField(centers, radii, offsets, linears, topology=topology)


def _c1_sample(k_box, seed: int) -> np.ndarray:
    """The 1000 points of the box on which a perturbation's C^1 size is
    measured; one draw serves every trial of a run."""
    box = np.asarray(k_box)
    return rng_for(seed, "c1-sample").uniform(box[:, 0], box[:, 1], size=(1000, len(box)))


def _unit_perturbation(
    ambient: int,
    k_box,
    sample: np.ndarray,
    seed: int,
    trial: int,
    bumps: int,
    topology: str = "line",
) -> tuple[PerturbationField, float]:
    """Trial ``trial``'s perturbation at scale 1 and its C^1 size on ``sample``."""
    rng = rng_for(seed, "perturbation", str(trial))
    delta = make_perturbation(ambient, sample.shape[1], k_box, rng, bumps=bumps, topology=topology)
    raw = delta.sampled_c1_norm(sample)
    if raw <= 0.0:
        raise RuntimeError("degenerate perturbation draw")
    return delta, raw


def _at_size(delta: PerturbationField, raw: float, eps: float) -> PerturbationField:
    """A copy of the unit-scale ``delta`` scaled to C^1 size eps.  The
    scale multiplies last, so a kept draw rescaled equals a fresh draw
    bit for bit."""
    scaled = copy.copy(delta)
    scaled.scale = eps / raw
    return scaled


def _scaled_perturbation(
    ambient: int,
    k_box,
    sample: np.ndarray,
    eps: float,
    seed: int,
    trial: int,
    bumps: int,
    topology: str = "line",
) -> PerturbationField:
    """Trial ``trial``'s perturbation, scaled to C^1 size eps on ``sample``."""
    return _at_size(*_unit_perturbation(ambient, k_box, sample, seed, trial, bumps, topology), eps)


# ---------------------------------------------------------------------------
# Sampled transversality


def _nearest_chart_points(
    stratum: Stratum, points: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Batched point location: chart coordinates and distances of the
    nearest stratum point for each query (closure sense), and the number
    of starts whose solve had not converged.

    Every query runs from 2 starts (inverse hint, box center) or, without
    a hint, 4 (box center and 3 seeded box points).  All starts of all
    queries run in one solve; then, per query, the starts are folded in
    order and a later one replaces the best only if strictly nearer, so
    ties keep the earlier start.
    """
    box = np.asarray(stratum.sample_box)
    k = len(points)
    starts: list[np.ndarray] = []
    if stratum.inverse_hint is not None:
        starts.append(np.asarray(stratum.inverse_hint(points, check_domain=False), dtype=float))
        starts.append(np.tile(box.mean(axis=1), (k, 1)))
    else:
        starts.append(np.tile(box.mean(axis=1), (k, 1)))
        rng = rng_for(seed, "nearest", stratum.name)
        for _ in range(3):
            starts.append(rng.uniform(box[:, 0], box[:, 1], size=(k, stratum.dim)))
    lo = box[:, 0] + 1e-12
    hi = box[:, 1] - 1e-12

    def residual(u, idx):
        vals, jacs = stratum.chart.value_and_jacobian(u, check_domain=False)
        return vals - points[idx % k], jacs

    solved = _gauss_newton(residual, np.concatenate(starts), lo, hi, tol=1e-12, max_iter=40)
    u = solved.u
    vals = stratum.chart(u, check_domain=False)
    admissible = np.all(stratum.domain_margins(u, CLOSURE_MARGIN) > CLOSURE_MARGIN, axis=1)
    d = np.where(admissible, np.linalg.norm(vals - points[np.arange(len(u)) % k], axis=1), np.inf)
    (best_u, *later_u), (best_d, *later_d) = np.split(u, len(starts)), np.split(d, len(starts))
    for u_s, d_s in zip(later_u, later_d):
        better = d_s < best_d
        best_u[better] = u_s[better]
        best_d[better] = d_s[better]
    return best_u, best_d, int(np.count_nonzero(~solved.converged))


def transversality_margin(
    ctx: StratifiedMapContext, trial_map, k_points: np.ndarray, seed: int
) -> tuple[float, np.ndarray]:
    """Smallest transversality margin of the map over the sample grid.

    For each grid point whose image passes within ``PROXIMITY`` of a
    stratum, the stacked matrix [Dh | leaf basis] must have full row
    rank; the margin is the ratio of its n-th to its largest singular
    value (scale-invariant: exact rank at finitely many sample points is
    almost surely full, so nearness to degeneracy is what gets
    measured).  Points whose images stay clear of every stratum impose
    nothing.  The leaf bases at the nearest chart points, which may lie
    on the closure of the domain, come from
    :meth:`StratifiedMapContext.leaf_tangents`, which raises
    :class:`NumericalInconsistencyError` where the map has a rank above
    its certificate.
    """
    n = ctx.prestratification.ambient
    images, jacs = trial_map.value_and_jacobian(k_points)
    worst = np.inf
    worst_point = k_points[0]
    for stratum in ctx.prestratification.strata:
        u, d, _ = _nearest_chart_points(stratum, images, seed)
        near = np.nonzero(d < PROXIMITY)[0]
        if near.size == 0:
            continue
        leaf_bases = ctx.leaf_tangents(stratum, u[near])
        stacked = np.concatenate([jacs[near], leaf_bases], axis=2)
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv.shape[1] < n:
            margins = np.zeros(len(near))
        else:
            margins = np.where(sv[:, 0] > 0, sv[:, n - 1] / np.maximum(sv[:, 0], 1e-300), 0.0)
        idx = int(np.argmin(margins))
        if margins[idx] < worst:
            worst = float(margins[idx])
            worst_point = k_points[near[idx]]
    return (worst if np.isfinite(worst) else np.inf), worst_point


# ---------------------------------------------------------------------------
# Stability


@dataclass(frozen=True)
class StabilityReport:
    eps: float
    trials: int
    seed: int
    outcomes: tuple[bool, ...]
    min_margins: tuple[float, ...]
    fraction: float | None
    k_count: int
    margin_tol: float
    base_margin: float

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "trials": self.trials,
            "seed": self.seed,
            "fraction": self.fraction,
            "outcomes": [int(o) for o in self.outcomes],
            "min_margins": list(self.min_margins),
            "k_count": self.k_count,
            "margin_tol": self.margin_tol,
            "base_margin": self.base_margin,
        }

    def csv_rows(self) -> list[tuple]:
        return [
            (i, self.eps, int(ok)) for i, ok in enumerate(self.outcomes)
        ]


def stability_trial(
    ctx: StratifiedMapContext,
    base_map,
    k_points: np.ndarray,
    eps: float,
    trials: int,
    seed: int = 0,
    bumps: int = 4,
) -> StabilityReport:
    """Perturb a transverse base map ``trials`` times at C^1 size eps and
    count how many stay transverse on the grid."""
    base_margin, where = transversality_margin(ctx, base_map, k_points, seed)
    if base_margin < MARGIN_TOL:
        raise PreconditionError(
            f"base map is not transverse on the grid (margin {base_margin:.2e} "
            f"at {np.asarray(where).tolist()})"
        )
    margins = tuple(_trial_margins(ctx, base_map, k_points, eps, trials, seed, bumps))
    outcomes = tuple(margin >= MARGIN_TOL for margin in margins)
    return StabilityReport(
        eps=eps,
        trials=trials,
        seed=seed,
        outcomes=outcomes,
        min_margins=margins,
        fraction=sum(outcomes) / trials if trials else None,
        k_count=len(k_points),
        margin_tol=MARGIN_TOL,
        base_margin=base_margin,
    )


def _trial_margins(ctx, base_map, k_points, eps, trials, seed, bumps, drawn=None):
    """Transversality margins of the perturbed trial maps, lazily and in
    trial order, so a caller can stop at the first failure.

    ``drawn`` (a list) keeps each trial's unit-scale field and its C^1
    size across calls, so a caller that probes several eps draws and
    measures each trial's field once; the margins are those of fresh
    draws."""
    box = list(zip(k_points.min(0), k_points.max(0)))
    sample = _c1_sample(box, seed)
    drawn = [] if drawn is None else drawn
    for t in range(trials):
        if t == len(drawn):
            drawn.append(_unit_perturbation(ctx.prestratification.ambient, box, sample, seed, t, bumps))
        delta = _at_size(*drawn[t], eps)
        yield transversality_margin(ctx, PerturbedMap(base_map, delta), k_points, seed)[0]


def calibrate_epsilon(
    ctx: StratifiedMapContext,
    base_map,
    k_points: np.ndarray,
    seed: int = 0,
    probe_trials: int = 20,
    rounds: int = 10,
    bumps: int = 4,
    certify_trials: int = 0,
) -> float:
    """Bisect for a perturbation size with full persistence.

    Doubles upward until some probe trial fails (or a cap is hit), then
    bisects on the probe batch.  With ``certify_trials`` the returned
    size is additionally halved until every trial of the larger batch
    persists, so the certificate is not an artifact of a lucky probe.
    """
    base_margin, _ = transversality_margin(ctx, base_map, k_points, seed)
    lo = 0.0
    hi = max(base_margin / 4.0, 1e-4)
    drawn: list = []  # each trial's field, drawn once for every eps probed

    def all_pass(eps: float, trials: int) -> bool:
        margins = _trial_margins(ctx, base_map, k_points, eps, trials, seed, bumps, drawn)
        return all(margin >= MARGIN_TOL for margin in margins)

    for _ in range(12):
        if not all_pass(hi, probe_trials):
            break
        lo = hi
        hi *= 2.0
        if hi > 100.0 * base_margin:
            break
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if all_pass(mid, probe_trials):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise RuntimeError("no positive perturbation size persisted; grid too hostile")
    if certify_trials:
        for _ in range(20):
            if all_pass(lo, certify_trials):
                return lo
            lo *= 0.5
        raise RuntimeError("calibration failed to certify a positive size")
    return lo


def stability_sweep(
    ctx: StratifiedMapContext,
    base_map,
    k_points: np.ndarray,
    eps_values,
    trials: int,
    seed: int = 0,
    bumps: int = 4,
) -> list[StabilityReport]:
    """Same trial seeds re-scaled across a sweep of perturbation sizes."""
    return [
        stability_trial(ctx, base_map, k_points, float(eps), trials, seed=seed, bumps=bumps)
        for eps in eps_values
    ]


def sweep_csv_rows(reports: list[StabilityReport]) -> list[tuple]:
    """Flattened (trial, epsilon, transverse) rows of a sweep, for plotting."""
    return [row for report in reports for row in report.csv_rows()]


# ---------------------------------------------------------------------------
# Instability


@dataclass(frozen=True)
class InstabilityReport:
    count: int
    seed: int
    base_transverse_margin: float
    rows: tuple[dict, ...]  # per i: index, c1_distance, defect, |x_i - y|
    sequence: DestabilizerSequence = field(repr=False)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "base_transverse_margin": self.base_transverse_margin,
            "rows": list(self.rows),
        }

    def csv_rows(self) -> list[tuple]:
        return [(r["index"], r["c1_distance"], 0) for r in self.rows]


def instability_demo(
    ctx: StratifiedMapContext,
    x: str,
    y: str,
    point,
    count: int = 20,
    radius: float = 1.0,
    seed: int = 0,
) -> InstabilityReport:
    """Destabilizer pipeline at a foliated fault.

    Requires a fails-with-witness verdict at the incidence; builds the
    complement, the rank-drop base map (transverse: complement plus the
    base leaf spans), and the converging sequence of non-transverse
    maps, then tabulates per-index certificates.
    """
    verdict = check_af_at(ctx, x, y, point, seed=seed)
    if verdict.status is not Status.FAILS:
        raise PreconditionError(
            f"no fault witness: condition af is {verdict.status.value} at {list(point)}"
        )
    w = verdict.witness
    n = ctx.prestratification.ambient
    h = choose_complement_H(w.limit, w.required, np.asarray(w.vector), n)
    base = rank_drop_map(
        n, n - w.required.dim, center=np.asarray(point, dtype=float),
        radius=radius, frame=frame_for_image(h),
    )
    base_res = transverse_at(base.image_at_center(), w.required, n)
    if not base_res.transverse:
        raise PreconditionError("complement construction lost transversality to the base leaf")
    seq = destabilizing_sequence(base, w, radius=radius, count=count, seed=seed)
    rows = tuple(
        {
            "index": e.index,
            "c1_distance": e.c1_distance,
            "defect": e.transversality.defect,
            "distance_to_point": float(np.linalg.norm(e.point - np.asarray(point))),
        }
        for e in seq.entries
    )
    return InstabilityReport(
        count=count,
        seed=seed,
        base_transverse_margin=base_res.margin,
        rows=rows,
        sequence=seq,
    )


# ---------------------------------------------------------------------------
# Non-genericity scenes


@dataclass(frozen=True)
class NongenericityReport:
    eps: float
    trials: int
    seed: int
    witnesses: tuple[dict, ...]  # one per trial that stayed non-transverse
    transverse_fraction: float

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "trials": self.trials,
            "seed": self.seed,
            "transverse_fraction": self.transverse_fraction,
            "witnesses": list(self.witnesses),
        }

    def csv_rows(self) -> list[tuple]:
        found = {w["trial"] for w in self.witnesses}
        return [(t, self.eps, int(t not in found)) for t in range(self.trials)]


def _slope_zero_witness(h, box, grid: int, wrap: bool) -> dict | None:
    """Sign change of the vertical slope along a 1-D domain."""
    ts = np.linspace(box[0][0], box[0][1], grid)[:, None]
    jac = h.jacobian(ts)
    slope = jac[:, 1, 0]
    values = slope if not wrap else np.append(slope, slope[0])
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0 or a * b < 0.0:
            t = float(ts[i % len(ts), 0])
            return {"t": t, "slope": float(a)}
    return None


def _fold_on_circle_witness(h, box, grid_dims) -> dict | None:
    """Gauss-Newton solve for det Dh = 0 on the unit circle image, from
    the 8 best grid seeds; the residual's Jacobian is a central
    difference, and each step evaluates h once, on w and its four
    probes stacked."""

    def f_of(w: np.ndarray) -> np.ndarray:
        vals, jac = h.value_and_jacobian(w)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        return np.stack([det, np.sum(vals**2, axis=1) - 1.0], axis=1)

    step_h = 1e-6
    probes = step_h * np.eye(2)

    def residual(w, idx):
        e1, e2 = probes
        f0, f1p, f1m, f2p, f2m = np.split(f_of(np.concatenate([w, w + e1, w - e1, w + e2, w - e2])), 5)
        return f0, np.stack([(f1p - f1m) / (2 * step_h), (f2p - f2m) / (2 * step_h)], axis=2)

    seeds = grid_points(box, grid_dims)
    scores = np.linalg.norm(f_of(seeds), axis=1)
    w0 = seeds[np.argsort(scores)[:8]]
    w = _gauss_newton(residual, w0, -np.inf, np.inf, tol=1e-13, max_iter=60).u
    residual_norms = np.linalg.norm(f_of(w), axis=1)
    best = int(np.argmin(residual_norms))
    if residual_norms[best] < 1e-9:
        return {"w": w[best].tolist(), "residual": float(residual_norms[best])}
    return None


def nongenericity_demo(scene: Scene, eps: float | None = None, trials: int | None = None,
                       seed: int = 0) -> NongenericityReport:
    """Perturb the scene's map and hunt for the unavoidable tangency.

    Every trial that yields a witness is confirmed non-transverse; the
    reported fraction of trials made transverse by perturbation is
    expected to be zero on these scenes.
    """
    exp = scene.experiments or {}
    if exp.get("mode") != "nongeneric":
        raise PreconditionError("scene has no non-genericity experiment block")
    g = parse_map(exp["g"], exp["g_dim"])
    box = exp["k_box"]
    topology = exp.get("domain_topology", "line")
    eps = float(exp.get("eps", 0.05)) if eps is None else eps
    trials = int(exp.get("trials", 50)) if trials is None else trials
    witnesses: list[dict] = []
    sample = _c1_sample(box, seed)
    for t in range(trials):
        delta = _scaled_perturbation(
            scene.ambient, box, sample, eps, seed, t,
            bumps=int(exp.get("bumps", 3)), topology="circle" if topology == "circle" else "line",
        )
        h = PerturbedMap(g, delta)
        if topology in ("line", "circle"):
            w = _slope_zero_witness(h, box, int(exp["grid"][0]), wrap=(topology == "circle"))
        else:
            w = _fold_on_circle_witness(h, box, exp["grid"])
        if w is not None:
            w["trial"] = t
            witnesses.append(w)
    fraction = (trials - len(witnesses)) / trials if trials else 0.0
    return NongenericityReport(
        eps=eps, trials=trials, seed=seed,
        witnesses=tuple(witnesses), transverse_fraction=fraction,
    )
