"""Perturbation experiments on gallery scenes.

Two phenomena at desk scale:

* stability: over a regular foliated prestratification, a map that is
  transverse on a compact sample grid stays transverse under every
  sufficiently small C^1 perturbation; a calibrated size is found by
  bisection and certified by a seeded trial batch, the run's report;
* instability: at a foliated fault, an explicitly constructed sequence
  of maps converges to a transverse base map in sampled C^1 distance
  while every member is non-transverse at a fault sample.

The non-genericity scenes run a third kind of trial: perturbed maps are
searched for an unavoidable tangency witness (a zero of the vertical
slope, or a fold point landing on the foliated circle).  A run searches
all its trials at once: the base map is evaluated once per grid, the
slope test runs over one (trials, grid) array, and the fold search is
one Gauss-Newton solve over every trial's seeds, each step one call to
the base map and one to the stack of every trial's field (a
:class:`PerturbationField` of many fields, whose hump kernel takes one
field's parameters, or many fields' gathered per point, so each point is
evaluated under its own trial's field).

A trial map is the base map plus a seeded :class:`PerturbationField`
delta, the same type that carries the destabilizer's localized
correction, and it is known by its values and Jacobians on a grid.
:class:`_GridTrials` evaluates the base map there once per run and adds
each trial's field, evaluated at scale 1 and scaled last, so the sum is
bit for bit that of ``constructions.PerturbedMap(base, delta)``; the
stability runs and the slope scenes read it, and the fold search adds
each trial's field to the base values the same way.
Stability runs, calibration and the non-genericity scenes read their
deltas from one per-run stream, :class:`_TrialFields`, which draws each
trial's field and measures its C^1 size once and builds it at every
size asked for.

Transversality on samples is decided with an explicit margin (the
smallest singular value of the stacked differential-plus-leaf matrix).
Exact rank at finitely many sample points would almost surely call
everything transverse; the margin is the honest sampled analogue.

All trials derive their randomness from a single seed and replay
bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .constructions import (
    DestabilizerSequence,
    _pruned_c1_size,
    choose_complement_H,
    destabilizing_sequence,
    frame_for_image,
    rank_drop_map,
)
from .dsl import AffineMap, NumericMap, _bump_value_and_slope
from .regularity import PreconditionError, Status, check_af_at, transverse_at
from .scene import Scene
from .seeds import rng_for
from .strata import CLOSURE_MARGIN, ApproachPlan, StratifiedMapContext, Stratum, _gauss_newton

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
    "instability_demo",
    "nongenericity_demo",
]

MARGIN_TOL = 5e-2  # relative transversality margin threshold
PROXIMITY = 0.1  # images closer than this to a stratum are tested against it
PROBE_TRIALS = 10  # trials a calibration bisects on
ROUNDS = 6  # bisection rounds of a calibration


def grid_points(box, dims) -> np.ndarray:
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(box, dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# Maps and perturbation fields


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
    linear parts; C^1 size is controlled by a scale set when the field is
    built.  Or a stack of fields of one topology and hump count, every
    parameter with a leading field axis, evaluated under an owner only.

    On a circle domain the humps and linear parts are built from
    periodic quantities so the perturbed map stays a map of the circle.
    """

    def __init__(self, centers, radii, offsets, linears, topology: str = "line", scale=1.0):
        self.centers = np.asarray(centers, dtype=float)  # (B, m); of a stack (T, B, m)
        self.radii = np.asarray(radii, dtype=float)  # (B,) or (T, B)
        self.offsets = np.asarray(offsets, dtype=float)  # (B, n) or (T, B, n)
        self.linears = np.asarray(linears, dtype=float)  # (B, n, m) or (T, B, n, m)
        self.scale = np.asarray(scale, dtype=float)  # () or (T,)
        self.topology = topology
        self.m = self.centers.shape[-1]
        self.n = self.offsets.shape[-1]

    @classmethod
    def stack(cls, fields: list[PerturbationField], topology: str) -> PerturbationField:
        names = ("centers", "radii", "offsets", "linears", "scale")
        return cls(**{name: np.array([getattr(f, name) for f in fields]) for name in names}, topology=topology)

    def __len__(self) -> int:  # of a stack
        return len(self.scale)

    def on_batch(self, w: np.ndarray, owner=None) -> tuple[np.ndarray, np.ndarray]:
        """Values (k, n) and Jacobians (k, n, m) at the points w (k, m),
        from one pass over the humps: every point under this field, or,
        on a stack, every point under field ``owner`` if it is an int and
        point i under field ``owner[i]`` if it is an index array (k,).
        Each row has the bits of its field's own call."""
        if (owner is None) != (self.scale.ndim == 0):
            raise ValueError("a stack of fields is evaluated under an owner field, one field under none")
        at = ... if owner is None else owner
        humps = _humps(w, self.centers[at], self.radii[at], self.topology)
        return _scaled(self.scale[at], _unit_sums(humps, self.offsets[at], self.linears[at]))

    def sampled_c1_norm(self, sample: np.ndarray) -> float:
        """Sampled C^1 size of one field on the points (k, m), evaluated on
        the rows that can reach the sup (:func:`constructions._pruned_c1_size`).

        The hump profiles are computed once on every point, and the
        values and Jacobians only on the rows kept, from those profiles.
        The bounds are the triangle inequality over the humps: with
        beta_b a hump's profile, o_b its offset, L_b its linear part
        (Frobenius norm) and disp_b its displacement, |value| <= scale
        sum_b beta_b (|o_b| + |L_b| |disp_b|) and sigma_max(J) <= scale
        sum_b |dbeta_b| (|o_b| + |L_b| |disp_b|) + beta_b |L_b| |d disp_b|.
        A point that no hump reaches has zero bounds."""
        if self.scale.ndim:
            raise ValueError("the sampled C^1 size is defined on one field, not on a stack")
        humps = _humps(sample, self.centers, self.radii, self.topology)
        val, dval, disp, disp_jac = humps
        scale = abs(self.scale)
        offset_norms = scale * _row_norms(self.offsets[None])[0]
        lin_norms = scale * _row_norms(self.linears[None])[0]
        disp_norms, slopes = _row_norms(disp), _row_norms(dval)
        lin_part = val if disp_jac is None else val * _row_norms(disp_jac)
        return _pruned_c1_size(
            lambda idx: _scaled(
                self.scale,
                _unit_sums([None if h is None else h.take(idx, axis=0) for h in humps], self.offsets, self.linears),
            ),
            val @ offset_norms + (val * disp_norms) @ lin_norms,
            slopes @ offset_norms + (slopes * disp_norms + lin_part) @ lin_norms,
        )


def _humps(w: np.ndarray, centers: np.ndarray, radii: np.ndarray, topology: str):
    """Per-hump profile values and gradients at the points w (k, m), for
    hump centers (B, m) and radii (B,) that every point shares, or
    (k, B, m) and (k, B) gathered per point: one formula for one field
    and for many fields, each on its own points."""
    if topology == "circle":
        # squared chordal distance on the circle, periodic in w
        diff = w[:, None, 0] - centers[..., 0]
        cos, sin = np.cos(diff), np.sin(diff)
        d = (2.0 - 2.0 * cos) / radii**2
        grad = (2.0 * sin / radii**2)[:, :, None]
        disp = sin[:, :, None]  # periodic displacement
        disp_jac = cos[:, :, None, None]
    else:
        diff = w[:, None, :] - centers
        d = np.sum(diff**2, axis=2) / radii**2
        grad = 2.0 * diff / radii[..., None] ** 2
        disp = diff
        disp_jac = None  # the identity: d(w - c)/dw
    val, slope = _bump_value_and_slope(1.0 - d)
    dval = -slope[:, :, None] * grad  # (k, B, m)
    return val, dval, disp, disp_jac


def _unit_sums(humps, offsets: np.ndarray, linears: np.ndarray):
    """Values (k, n) and Jacobians (k, n, m) at unit scale from the hump
    profiles of :func:`_humps` at k points, for offsets (B, n) and linear
    parts (B, n, m) that every point shares, or (k, B, n) and
    (k, B, n, m) gathered per point; :func:`_scaled` applies the scale."""
    val, dval, disp, disp_jac = humps
    payload = offsets + np.einsum("...bnm,...bm->...bn", linears, disp)
    out = np.sum(val[:, :, None] * payload, axis=1)
    # d/dw [val_b * payload_b] = payload_b (x) dval_b + val_b * L_b * d(disp_b)
    term1 = np.einsum("kbn,kbm->knm", payload, dval)
    if disp_jac is None:
        term2 = np.einsum("...b,...bnm->...nm", val, linears)
    else:
        term2 = np.einsum("...b,...bnm->...nm", val, np.einsum("...bnu,...bum->...bnm", linears, disp_jac))
    return out, term1 + term2


def _scaled(scale, sums):
    """The field's values and Jacobians from its unit sums (k, n) and
    (k, n, m), for a scale that every point shares, or one per point (k,):
    the one multiplication every field evaluation ends with."""
    val, jac = sums
    scale = np.asarray(scale)
    return scale[..., None] * val, scale[..., None, None] * jac


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) norms (k, B) of the vectors or matrices in a
    (k, B, ...) array; of one entry, its absolute value."""
    flat = a.reshape(a.shape[:2] + (math.prod(a.shape[2:]),))
    if flat.shape[2] == 1:
        return np.abs(flat[:, :, 0])
    return np.sqrt(np.einsum("kbi,kbi->kb", flat, flat))


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


class _TrialFields:
    """The perturbation fields of one run's trials, one stream per run.

    Trial t's field is drawn at scale 1 from ``rng_for(seed,
    "perturbation", str(t))`` on the box, and its C^1 size is measured on
    the run's 1000 seeded points of the box, drawn once; both happen on
    the trial's first use only.  :meth:`at` builds the field of C^1 size
    eps from that draw, at scale eps over the measured size.  The scale
    multiplies last, so every field is bit for bit a fresh draw,
    whatever trials and sizes were asked for before.
    """

    def __init__(self, ambient: int, k_box, seed: int, bumps: int, topology: str = "line"):
        self.ambient, self.seed, self.bumps, self.topology = ambient, seed, bumps, topology
        self.k_box = np.asarray(k_box, dtype=float)
        lo, hi = self.k_box.T
        self.sample = rng_for(seed, "c1-sample").uniform(lo, hi, size=(1000, len(self.k_box)))
        self._unit: dict[int, tuple[PerturbationField, float]] = {}

    def unit(self, trial: int) -> tuple[PerturbationField, float]:
        """Trial ``trial``'s field at scale 1 and its measured C^1 size."""
        if trial not in self._unit:
            rng = rng_for(self.seed, "perturbation", str(trial))
            delta = make_perturbation(
                self.ambient, len(self.k_box), self.k_box, rng, bumps=self.bumps, topology=self.topology
            )
            raw = delta.sampled_c1_norm(self.sample)
            if raw <= 0.0:
                raise RuntimeError("degenerate perturbation draw")
            self._unit[trial] = delta, raw
        return self._unit[trial]

    def at(self, trial: int, eps: float) -> PerturbationField:
        """Trial ``trial``'s field at C^1 size eps."""
        unit, raw = self.unit(trial)
        return PerturbationField(unit.centers, unit.radii, unit.offsets, unit.linears, self.topology, eps / raw)

    def stack(self, count: int, eps: float) -> PerturbationField:
        """The fields of trials 0 to count - 1 at C^1 size eps, stacked."""
        return PerturbationField.stack([self.at(t, eps) for t in range(count)], self.topology)


class _GridTrials:
    """The trial maps of one run on its grid: the base map plus trial t's
    field of :class:`_TrialFields` at a size, as values and Jacobians.

    The base map is evaluated on the grid once.  A trial's field is
    evaluated there at scale 1; the sums of each trial below ``keep`` are
    kept, so every later size of that trial only scales them.  The scale
    multiplies last (:func:`_scaled`), so a trial map's values and
    Jacobians are bit for bit those of ``PerturbedMap(base, fields.at(t,
    eps))`` on the grid.
    """

    def __init__(self, base_map, fields: _TrialFields, grid: np.ndarray, keep: int):
        self.fields, self.grid, self.keep = fields, grid, keep
        self.base = base_map.value_and_jacobian(grid)
        self.units: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def at(self, trial: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Trial ``trial``'s map at C^1 size eps: values and Jacobians on the grid."""
        delta, raw = self.fields.unit(trial)
        unit = self.units.get(trial)
        if unit is None:
            unit = delta.on_batch(self.grid)
            if trial < self.keep:
                self.units[trial] = unit
        val, jac = _scaled(eps / raw, unit)
        return self.base[0] + val, self.base[1] + jac


def _require_count(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# Sampled transversality


def _margin_starts(stratum: Stratum, images: np.ndarray, seed: int) -> np.ndarray:
    """A margin's location starts (k, s, d) for the images: the inverse
    hint and the box center, or, without a hint, the center and 3 seeded
    box points per image."""
    box = np.asarray(stratum.sample_box)
    starts = [np.broadcast_to(box.mean(axis=1), (len(images), stratum.dim))]
    if stratum.inverse_hint is not None:
        return np.stack([stratum.inverse_hint(images, check_domain=False), *starts], axis=1)
    rng = rng_for(seed, "nearest", stratum.name)
    starts += [rng.uniform(box[:, 0], box[:, 1], size=(len(images), stratum.dim)) for _ in range(3)]
    return np.stack(starts, axis=1)


def transversality_margin(
    ctx: StratifiedMapContext, images: np.ndarray, jacs: np.ndarray, k_points: np.ndarray, seed: int
) -> tuple[float, np.ndarray]:
    """Smallest transversality margin over the sample grid of a map with
    values ``images`` (k, n) and Jacobians ``jacs`` (k, n, m) at
    ``k_points`` (k, m).

    For each grid point whose image passes within ``PROXIMITY`` of a
    stratum, the stacked matrix [Dh | leaf basis] must have full row
    rank; the margin is the ratio of its n-th to its largest singular
    value (scale-invariant: exact rank at finitely many sample points is
    almost surely full, so nearness to degeneracy is what gets
    measured).  Points whose images stay clear of every stratum impose
    nothing.  Each image's nearest chart point on a stratum,
    which may lie on the closure of the domain, is located by
    :meth:`Stratum._nearest`, the kernel of :meth:`Stratum.locate_many`,
    from the starts of :func:`_margin_starts`.  The leaf bases there
    come from
    :meth:`StratifiedMapContext.leaf_tangents`, which raises
    :class:`NumericalInconsistencyError` where the map has a rank above
    its certificate.
    """
    n = ctx.prestratification.ambient
    worst = np.inf
    worst_point = k_points[0]
    for stratum in ctx.prestratification.strata:
        # fewer starts and a shorter budget than locate_many's: the pinned
        # eps and margins rest on them, and with locate_many's budget most
        # nearest points on a hint-free saddle sheet move, by up to 0.02 in u
        u, d, _ = stratum._nearest(
            images, _margin_starts(stratum, images, seed), CLOSURE_MARGIN, tol=1e-12, max_iter=40
        )
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


def _finite_or_null(margin: float) -> float | None:
    """A margin for JSON: an infinite one, where no grid image comes near a
    stratum, is null."""
    return margin if np.isfinite(margin) else None


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
    csv_header: ClassVar[tuple[str, ...]] = ("trial", "epsilon", "transverse")

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "trials": self.trials,
            "seed": self.seed,
            "fraction": self.fraction,
            "outcomes": [int(o) for o in self.outcomes],
            "min_margins": [_finite_or_null(m) for m in self.min_margins],
            "k_count": self.k_count,
            "margin_tol": self.margin_tol,
            "base_margin": _finite_or_null(self.base_margin),
        }

    def csv_rows(self) -> list[tuple]:
        return [
            (i, self.eps, int(ok)) for i, ok in enumerate(self.outcomes)
        ]


def stability_trial(
    ctx: StratifiedMapContext,
    base_map,
    k_points: np.ndarray,
    eps: float | None,
    trials: int,
    seed: int = 0,
    bumps: int = 4,
) -> StabilityReport:
    """Perturb a transverse base map ``trials`` times at C^1 size eps and
    count how many stay transverse on the grid.  With eps None the size
    is calibrated first, with ``PROBE_TRIALS`` probe trials and ``ROUNDS``
    rounds, and certified on these ``trials``; the report is the
    certifying batch."""
    _require_count("trials", trials, 0)
    return _stability_run(ctx, base_map, k_points, eps, trials, seed, bumps, PROBE_TRIALS, ROUNDS)


def calibrate_epsilon(
    ctx: StratifiedMapContext,
    base_map,
    k_points: np.ndarray,
    seed: int = 0,
    probe_trials: int = PROBE_TRIALS,
    rounds: int = ROUNDS,
    bumps: int = 4,
    certify_trials: int = 0,
) -> float:
    """The perturbation size a calibrated stability run certifies on
    ``certify_trials`` trials (uncertified with none), bisected on
    ``probe_trials`` trials for ``rounds`` rounds; see :func:`_stability_run`."""
    _require_count("probe_trials", probe_trials, 1)
    _require_count("certify_trials", certify_trials, 0)
    return _stability_run(ctx, base_map, k_points, None, certify_trials, seed, bumps, probe_trials, rounds).eps


def _stability_run(ctx, base_map, k_points, eps, trials, seed, bumps, probe_trials, rounds) -> StabilityReport:
    """One stability run: the base map's margin, then ``trials`` margins
    of the base map perturbed at size eps, every field read from one
    :class:`_TrialFields` stream on the grid's bounding box.

    With eps None the size is calibrated by bisection.  It doubles upward
    until some of ``probe_trials`` trials fails (or a cap is hit), then
    bisects on that probe batch for ``rounds`` rounds, then halves until
    every one of ``trials`` trials persists, so the certificate is not an
    artifact of a lucky probe.  A batch stops at its first failing trial.
    The report holds the passing batch's margins, which by the stream's
    contract are bit for bit those of a run at the certified size.

    Every margin is one :func:`transversality_margin` call on the values
    and Jacobians of one :class:`_GridTrials`: the base map meets the grid
    once per run, and, in a calibrated run, each probe trial's field
    (t < ``probe_trials``) once per run, at scale 1, whatever sizes
    calibration asks of it.  Those sums are all the run keeps, at most
    ``probe_trials`` x grid points x n(n + 1) floats (207 KB for the 10
    probe trials on a 216-point grid in R^3), and none outlives the run.
    A base margin below MARGIN_TOL, where no perturbation size can be
    measured, and a calibration that finds no certified positive size
    raise PreconditionError.
    """
    box = np.stack([k_points.min(0), k_points.max(0)], axis=1)
    fields = _TrialFields(ctx.prestratification.ambient, box, seed, bumps)
    # only calibration asks a trial at more than one size
    on_grid = _GridTrials(base_map, fields, k_points, keep=probe_trials if eps is None else 0)
    base_margin, where = transversality_margin(ctx, *on_grid.base, k_points, seed)
    if base_margin < MARGIN_TOL:
        raise PreconditionError(
            f"base map is not transverse on the grid (margin {base_margin:.2e} "
            f"at {np.asarray(where).tolist()})"
        )

    def margins_at(size: float, count: int, stop_at_failure: bool = True) -> list[float]:
        found = []
        for t in range(count):
            found.append(transversality_margin(ctx, *on_grid.at(t, size), k_points, seed)[0])
            if stop_at_failure and found[-1] < MARGIN_TOL:
                break
        return found

    def persist(margins: list[float]) -> bool:
        return all(margin >= MARGIN_TOL for margin in margins)

    if eps is not None:
        margins = margins_at(eps, trials, stop_at_failure=False)
    else:
        if not np.isfinite(base_margin):
            raise PreconditionError(
                f"no grid image comes within {PROXIMITY} of a stratum, so no perturbation size can be calibrated"
            )
        lo, hi = 0.0, max(base_margin / 4.0, 1e-4)
        for _ in range(12):
            if not persist(margins_at(hi, probe_trials)):
                break
            lo = hi
            hi *= 2.0
            if hi > 100.0 * base_margin:
                break
        for _ in range(rounds):
            mid = 0.5 * (lo + hi)
            if persist(margins_at(mid, probe_trials)):
                lo = mid
            else:
                hi = mid
        if lo == 0.0:
            raise PreconditionError("no positive perturbation size persisted; grid too hostile")
        for _ in range(20):
            margins = margins_at(lo, trials)
            if persist(margins):
                break
            lo *= 0.5
        else:
            raise PreconditionError("calibration failed to certify a positive size")
        eps = lo
    outcomes = tuple(margin >= MARGIN_TOL for margin in margins)
    return StabilityReport(
        eps=eps,
        trials=trials,
        seed=seed,
        outcomes=outcomes,
        min_margins=tuple(margins),
        fraction=sum(outcomes) / trials if trials else None,
        k_count=len(k_points),
        margin_tol=MARGIN_TOL,
        base_margin=base_margin,
    )


# ---------------------------------------------------------------------------
# Instability


@dataclass(frozen=True)
class InstabilityReport:
    count: int
    seed: int
    base_transverse_margin: float
    rows: tuple[dict, ...]  # per i: index, c1_distance, defect, |x_i - y|
    sequence: DestabilizerSequence = field(repr=False)
    csv_header: ClassVar[tuple[str, ...]] = ("i", "c1_distance", "transverse")

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
    plan: ApproachPlan | None = None,
) -> InstabilityReport:
    """Destabilizer pipeline at a foliated fault.

    Requires a fails-with-witness af verdict at the incidence under
    ``plan`` (the default plan if None), whose arc has at least
    ``count`` samples, one per map; builds the complement, the
    rank-drop base map (transverse: complement plus the base leaf
    spans), and the converging sequence of non-transverse maps, then
    tabulates per-index certificates.
    """
    verdict = check_af_at(ctx, x, y, point, plan, seed=seed)
    if verdict.status is not Status.FAILS:
        raise PreconditionError(
            f"no fault witness: condition af is {verdict.status.value} at {list(point)}"
        )
    w = verdict.witness
    if count > len(w.arc.points):
        raise PreconditionError(
            f"the witness arc has {len(w.arc.points)} samples, fewer than the {count} maps asked for"
        )
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
    transverse_fraction: float | None  # None when no trial ran
    unresolved: tuple[int, ...] = ()  # fold trials with no witness and no converged solve
    csv_header: ClassVar[tuple[str, ...]] = ("trial", "epsilon", "transverse")

    def to_json(self) -> dict:
        out = {
            "eps": self.eps,
            "trials": self.trials,
            "seed": self.seed,
            "transverse_fraction": self.transverse_fraction,
            "witnesses": list(self.witnesses),
        }
        if self.unresolved:
            out["unresolved"] = list(self.unresolved)
        return out

    def csv_rows(self) -> list[tuple]:
        held = {w["trial"] for w in self.witnesses}.union(self.unresolved)
        return [(t, self.eps, int(t not in held)) for t in range(self.trials)]


def _slope_zero_witnesses(ts: np.ndarray, slopes: np.ndarray, wrap: bool) -> list[dict | None]:
    """First zero or sign change of each row of vertical slopes (T, k)
    along a 1-D domain sampled at ts (k,), or None for a row without one."""
    values = slopes if not wrap else np.concatenate([slopes, slopes[:, :1]], axis=1)
    a, b = values[:, :-1], values[:, 1:]
    hits = (a == 0.0) | (np.sign(a) * np.sign(b) < 0.0)  # a * b can overflow or underflow
    return [
        {"t": float(ts[i]), "slope": float(a[row, i])} if hits[row, i] else None
        for row, i in enumerate(np.argmax(hits, axis=1))
    ]


def _fold_residuals(vals: np.ndarray, jacs: np.ndarray) -> np.ndarray:
    """The fold search's residuals (k, 2): det Dh and |h|^2 - 1."""
    det = jacs[:, 0, 0] * jacs[:, 1, 1] - jacs[:, 0, 1] * jacs[:, 1, 0]
    return np.stack([det, np.sum(vals**2, axis=1) - 1.0], axis=1)


def _fold_on_circle_witnesses(base, fields: PerturbationField, box, grid_dims):
    """Gauss-Newton solves for det Dh = 0 on the unit circle image, for
    every trial map h = base + delta, delta a field of the stack, from
    each map's 8 best grid seeds.

    Each map scores the grid on its own, with the base map's grid values
    evaluated once.  Then one solve runs every map's seeds stacked.  The
    residual's Jacobian is a central difference, and each step makes one
    call to the base map and one to the stack, on the iterates and their
    four probes stacked, each row under its own map's field.  Rows are
    independent, so each map gets the iterates and the witness (or None)
    it would get alone.

    Returns the witness or None of each map, and the maps without a
    witness none of whose solves converged (unresolved: a solve that
    overflowed, say, shows no fold, but does not rule one out).
    """
    if not len(fields):
        return [], []
    grid = grid_points(box, grid_dims)
    per_map = min(8, len(grid))
    base_val, base_jac = base.value_and_jacobian(grid, check_domain=False)
    starts = []
    for trial in range(len(fields)):
        val, jac = fields.on_batch(grid, trial)
        residuals = _fold_residuals(base_val + val, base_jac + jac)
        starts.append(grid[np.argsort(np.linalg.norm(residuals, axis=1))[:per_map]])

    def residuals_at(w: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # w (c, k, 2) holds c copies of k rows; row i belongs to map owner[i]
        flat = w.reshape(-1, 2)
        base_val, base_jac = base.value_and_jacobian(flat, check_domain=False)
        val, jac = fields.on_batch(flat, np.tile(owner, len(w)))
        return _fold_residuals(base_val + val, base_jac + jac).reshape(w.shape)

    step_h = 1e-6
    e1, e2 = step_h * np.eye(2)

    def residual(w, idx):
        probes = np.stack([w, w + e1, w - e1, w + e2, w - e2])
        f0, f1p, f1m, f2p, f2m = residuals_at(probes, idx // per_map)
        return f0, np.stack([(f1p - f1m) / (2 * step_h), (f2p - f2m) / (2 * step_h)], axis=2)

    w, _, converged = _gauss_newton(residual, np.concatenate(starts), -np.inf, np.inf, tol=1e-13, max_iter=60)
    owner = np.arange(len(w)) // per_map
    residual_norms = np.linalg.norm(residuals_at(w[None], owner)[0], axis=1).reshape(len(fields), per_map)
    converged = converged.reshape(len(fields), per_map).any(axis=1)
    found: list[dict | None] = []
    for sols, norms in zip(w.reshape(len(fields), per_map, 2), residual_norms):
        best = int(np.argmin(norms))
        hit = norms[best] < 1e-9
        found.append({"w": sols[best].tolist(), "residual": float(norms[best])} if hit else None)
    return found, [t for t, (witness, ok) in enumerate(zip(found, converged)) if witness is None and not ok]


def nongenericity_demo(scene: Scene, eps: float | None = None, trials: int | None = None,
                       seed: int = 0) -> NongenericityReport:
    """Perturb the scene's map and hunt for the unavoidable tangency.

    Every trial that yields a witness is confirmed non-transverse; the
    reported fraction of trials made transverse by perturbation is
    expected to be zero on these scenes; a fold trial without a witness
    whose solves all failed is unresolved, not made transverse.  The
    trials are searched together: the scene's map is evaluated once on
    the witness grid and each trial's field added to it; a line or circle
    scene tests one (trials, grid) array of vertical slopes, read from a
    :class:`_GridTrials`, for its first zero or sign change per trial,
    and the fold scene scores each trial's grid on its own and solves
    from every trial's 8 best seeds in one stacked Gauss-Newton solve,
    one field call per step (:func:`_fold_on_circle_witnesses`).  Each
    trial gets the witness it would get alone.
    """
    exp = scene.experiments
    if exp.get("mode") != "nongeneric":
        raise PreconditionError("scene has no non-genericity experiment block")
    g, box, topology = exp["g"], exp["k_box"], exp["domain_topology"]
    eps = exp["eps"] if eps is None else eps
    trials = exp["trials"] if trials is None else trials
    _require_count("trials", trials, 0)
    fields = _TrialFields(
        scene.ambient, box, seed, exp["bumps"], topology="circle" if topology == "circle" else "line"
    )
    unresolved: list[int] = []
    if topology == "fold":
        found, unresolved = _fold_on_circle_witnesses(g, fields.stack(trials, eps), box, exp["grid"])
    else:
        ts = np.linspace(box[0][0], box[0][1], exp["grid"][0])
        on_grid = _GridTrials(g, fields, ts[:, None], keep=0)
        slopes = np.empty((trials, len(ts)))
        for t, row in enumerate(slopes):
            row[:] = on_grid.at(t, eps)[1][:, 1, 0]
        found = _slope_zero_witnesses(ts, slopes, wrap=topology == "circle")
    witnesses = [dict(w, trial=t) for t, w in enumerate(found) if w is not None]
    fraction = (trials - len(witnesses) - len(unresolved)) / trials if trials else None
    return NongenericityReport(
        eps=eps, trials=trials, seed=seed,
        witnesses=tuple(witnesses), transverse_fraction=fraction, unresolved=tuple(unresolved),
    )
