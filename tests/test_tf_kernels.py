"""The kernels under every tf verdict against their plain references.

The radial sampler, the de-duplication of intersection solutions, the
Gauss-Newton step bookkeeping and the column folds under them each take
fewer passes over the batch than the plain numpy form they replace, and
the golden corpus rests on their bits.  Each test compares a kernel
with the plain form, bit for bit, on gallery inputs and on the edge
cases where the two could part: empty batches, draws on a ball's
boundary, ±0.0 and NaN keys, rows pinned at a bound and non-finite
steps and movements.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strathom.dsl import parse_map
from strathom.gallery import gallery
from strathom.grassmann import _fold_columns
from strathom.regularity import RadialPlan, _first_of_each_row, _samples_in_balls
from strathom.seeds import rng_for
from strathom.strata import Stratum, _box_steps, _gauss_newton, _least_squares_steps, _on_closure

# ---------------------------------------------------------------------------
# De-duplication


def _unique_first(keys: np.ndarray) -> np.ndarray:
    return np.sort(np.unique(keys, axis=0, return_index=True)[1])


# 1.0000001 is within np.isclose of 1.0: a key is rounded to 7 places,
# and keys that differ in the 7th place are different solutions
_POOL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.nan, 1e-7, -1e-7, 1.0000001])


@st.composite
def _key_sets(draw):
    """Keys (radius index, chart key) as the intersection search builds
    them: a nondecreasing radius index and d <= 3 chart coordinates from
    a small pool, and every chart key again under the next radius."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(_POOL, min_size=d, max_size=d), min_size=k, max_size=k))
    chart = np.array(rows).reshape(k, d)
    # repeat some rows, so that equal keys occur beyond the pool's chance
    repeats = draw(st.lists(st.integers(0, max(k - 1, 0)), max_size=k))
    chart = np.concatenate([chart, chart[repeats]])
    which = np.sort(draw(st.lists(st.integers(0, 2), min_size=len(chart), max_size=len(chart))))
    keys = np.column_stack([which, chart])
    return np.concatenate([keys, np.column_stack([which + 1, chart])]).astype(float)


class TestFirstOfEachRow:
    @settings(max_examples=300, deadline=None)
    @given(_key_sets())
    def test_keeps_the_rows_np_unique_keeps(self, keys):
        kept = _first_of_each_row(keys)
        assert kept.dtype == np.intp
        assert np.array_equal(kept, _unique_first(keys))
        # equal chart keys under different radius indices do not merge:
        # each radius keeps the rows it would keep alone
        for r in np.unique(keys[:, 0]):
            rows = np.flatnonzero(keys[:, 0] == r)
            assert np.array_equal(kept[np.isin(kept, rows)], rows[_first_of_each_row(keys[rows])])

    def test_signed_zeros_match_and_nan_rows_do_not(self):
        keys = np.array([
            [0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [0.0, np.nan, 1.0], [0.0, np.nan, 1.0],
            [1.0, 0.0, 1.0], [0.0, 0.0, 1.0],
        ])
        assert _first_of_each_row(keys).tolist() == [0, 2, 3, 4]
        assert _first_of_each_row(np.zeros((0, 3))).tolist() == []


# ---------------------------------------------------------------------------
# Radial sampler


def _reference_samples_in_balls(stratum, u0, center, radii, count, rngs):
    """The sampler in its plain form, the oracle: three masks over the
    draws, ``which`` by ``np.repeat``, ``np.linalg.norm`` and a
    domain-checked chart evaluation."""
    radii = np.asarray(radii)
    draws = np.concatenate([
        rng.uniform(-1.5, 1.5, size=(count * 6, stratum.dim)) * r + u0
        for r, rng in zip(radii, rngs)
    ])
    which = np.repeat(np.arange(len(radii)), count * 6)
    inside = stratum.chart.in_domain(draws)
    draws, which = draws[inside], which[inside]
    if len(draws):
        pts = stratum.chart(draws)
        near = np.linalg.norm(pts - center, axis=1) <= radii[which]
        draws, which = draws[near], which[near]
    first = np.arange(len(which)) - np.searchsorted(which, which) < count
    return draws[first], which[first]


def _assert_same_samples(stratum, u0, center, radii, count, *stream):
    def streams():
        return [rng_for(*stream, str(j)) for j in range(len(radii))]

    got = _samples_in_balls(stratum, u0, center, radii, count, streams())
    want = _reference_samples_in_balls(stratum, u0, center, radii, count, streams())
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    return got


def _gallery_centers():
    """(scene, stratum, u0, center) for every stratum of every gallery
    scene: the incidence point of each incidence, and a domain point of
    the stratum drawn at each of two seeds."""
    for entry in gallery():
        prestrat = entry.scene().prestratification
        for inc in prestrat.incidences:
            center = np.asarray(inc.point, dtype=float)
            yield entry.name, prestrat.stratum(inc.x), _on_closure(prestrat, inc.x, center), center
        for stratum in prestrat.strata:
            for seed in (1, 20261017):
                rng = rng_for(seed, "sampler-center", stratum.name)
                u0 = stratum.sample_chart_points(1, rng)[0]
                yield entry.name, stratum, u0, stratum.chart(u0)


class TestSamplesInBalls:
    @pytest.mark.parametrize("seed", [1, 20261017])
    def test_every_gallery_stratum_matches_the_reference(self, seed):
        plan = RadialPlan()
        cases = list(_gallery_centers())
        assert len({(name, s.name) for name, s, _, _ in cases}) == 13
        for name, s, u0, center in cases:
            stream = (seed, "sampler-test", name, s.name)
            _, which = _assert_same_samples(s, u0, center, plan.radii(), plan.samples, *stream)
            assert len(which)

    def test_draws_on_the_sphere_land_where_the_norm_puts_them(self):
        # unit directions drawn into a ball of radius 1: each distance is 1
        # up to rounding, so the order of the sum of squares decides which
        # rows are kept
        class Sphere:
            def __init__(self, seed):
                dirs = np.random.default_rng(seed).standard_normal((6 * 300, 3))
                self.rows = dirs / np.linalg.norm(dirs, axis=1)[:, None]

            def uniform(self, low, high, size):
                assert size == self.rows.shape
                return self.rows

        space = Stratum("R3", parse_map("x1, x2, x3", 3))
        args = (space, np.zeros(3), np.zeros(3), [1.0, 1.0], 300)
        got = _samples_in_balls(*args, [Sphere(0), Sphere(1)])
        want = _reference_samples_in_balls(*args, [Sphere(0), Sphere(1)])
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert np.bincount(got[1]).tolist() == [300, 300]

    def test_a_center_with_no_draw_in_the_domain(self):
        half = Stratum("H", parse_map("x1, x2, 0", 2, domain=("x2",)))
        u0 = np.array([0.0, -5.0])
        samples, which = _assert_same_samples(half, u0, half.chart(u0, check_domain=False),
                                              [0.5, 0.25], 20, 0, "no-domain")
        assert samples.shape == (0, 2) and which.shape == (0,)

    def test_a_ball_that_keeps_fewer_than_count_rows(self):
        # the chart doubles lengths: of the draws in u0 + r [-1.5, 1.5]^2
        # about 9% land in the ball, about half of count
        stretched = Stratum("D", parse_map("2*x1, 2*x2, x1*x2", 2))
        u0 = np.array([0.1, -0.2])
        _, which = _assert_same_samples(
            stretched, u0, stretched.chart(u0), [0.4, 0.2, 0.1], 50, 0, "short"
        )
        per_radius = np.bincount(which, minlength=3)
        assert np.all((0 < per_radius) & (per_radius < 50)), per_radius

    def test_a_stratum_without_domain_predicates(self):
        paraboloid = Stratum("P", parse_map("x1, x2, x1^2 + x2^2", 2))
        assert not paraboloid.chart.domain
        u0 = np.array([0.3, 0.0])
        _, which = _assert_same_samples(
            paraboloid, u0, paraboloid.chart(u0), RadialPlan().radii(), 30, 0, "free"
        )
        assert np.bincount(which).max() == 30


# ---------------------------------------------------------------------------
# Gauss-Newton bookkeeping


def _reference_gauss_newton(residual, u0, lo, hi, tol, max_iter, steps):
    """The solver's loop with ``np.clip`` and ``np.max(..., axis=1)``."""
    u = np.clip(np.asarray(u0, dtype=float), lo, hi)
    k = len(u)
    iterations = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    active = np.arange(k)
    for _ in range(max_iter):
        if active.size == 0:
            break
        ua = u[active]
        step = steps(ua, *residual(ua, active))
        if not np.isfinite(step).all():
            keep = np.isfinite(step).all(axis=1)
            active, ua, step = active[keep], ua[keep], step[keep]
        new = np.clip(ua - step, lo, hi)
        u[active] = new
        iterations[active] += 1
        done = np.max(np.abs(new - ua), axis=1) < tol
        converged[active[done]] = True
        active = active[~done]
    return u, iterations, converged


def _cubic_rows(d: int):
    """Starts (k, d), targets (k, d) and a residual u^3 - t with its
    diagonal Jacobian, where row 3's residual is NaN (its step is not
    finite) and rows 4 and 5, which start at NaN or at an infinity, read
    a finite residual (their step is finite and their movement may not
    be)."""
    rng = rng_for(0, "gauss-newton-bookkeeping", str(d))
    starts = rng.uniform(-1.0, 1.0, size=(8, d))
    targets = rng.uniform(-0.5, 0.5, size=(8, d))
    targets[1] = 27.0  # root 3, beyond the upper bound 2: pinned at 2 where it is finite
    targets[2] = 1e-30  # root 1e-10: Newton shrinks the start by 2/3 a step
    starts[4, 0] = np.nan
    starts[5, -1] = np.inf  # clipped to hi, or kept where hi is infinite
    starts[6] = 0.0  # a zero Jacobian: the rank-deficient step, zero

    def residual(u, idx):
        res = u ** 3 - targets[idx]
        jacs = np.zeros((len(u), d, d))
        jacs[:, np.arange(d), np.arange(d)] = 3.0 * u ** 2
        res[idx == 3] = np.nan
        for row in (4, 5):
            res[idx == row] = 1.0
            jacs[idx == row] = np.eye(d)
        return res, jacs

    return starts, residual


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "bounds",
    [(-2.0, 2.0), (-np.inf, np.inf), "per-coordinate"],
    ids=["finite", "infinite", "per-coordinate"],
)
@pytest.mark.parametrize("form", ["jacobian", "r-factor"])
def test_gauss_newton_bookkeeping_matches_the_reference(d, bounds, form):
    if bounds == "per-coordinate":
        bounds = (np.array([-2.0, -np.inf, -1.5])[:d], np.array([2.0, np.inf, 3.0])[:d])
    starts, cubic = _cubic_rows(d)
    if form == "jacobian":
        residual, steps = cubic, lambda u, res, jacs: _least_squares_steps(jacs, res)
    else:
        # the tf search's form: the Jacobian in v = R u with R = diag(2)
        def residual(u, idx):
            res, jacs = cubic(u, idx)
            return res, jacs / 2.0, np.broadcast_to(2.0 * np.eye(d), (len(u), d, d))

        def steps(u, res, jacs, tri):
            return _box_steps(res, jacs, tri, u, *bounds)

    with np.errstate(invalid="ignore", over="ignore"):
        got = _gauss_newton(residual, starts, *bounds, tol=1e-13, max_iter=12)
        want = _reference_gauss_newton(residual, starts, *bounds, 1e-13, 12, steps)
    assert np.array_equal(got.u, want[0], equal_nan=True)
    assert np.array_equal(got.iterations, want[1])
    assert np.array_equal(got.converged, want[2])
    # every case the rows are there for occurs
    assert not got.converged[2] and got.iterations[2] == 12  # still moving at the cap
    assert (got.iterations[3], got.converged[3]) == (0, False)  # its step is not finite
    assert not got.converged[4] and np.isnan(got.u[4, 0])  # its movement is NaN
    if np.isfinite(bounds[1]).all():
        assert got.converged[1] and np.all(got.u[1] == bounds[1])  # pinned at the bound


# ---------------------------------------------------------------------------
# Column folds


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fold_columns_matches_the_row_reductions(n):
    rng = rng_for(0, "fold-columns", str(n))
    a = rng.standard_normal((20_000, n)) * 10.0 ** rng.integers(-3, 4, size=(20_000, n))
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    a[::7, rng.integers(0, n)] = special[rng.integers(0, 5, size=len(a[::7]))]
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.array_equal(_fold_columns(np.maximum, a), np.max(a, axis=1), equal_nan=True)
        assert np.array_equal(_fold_columns(np.logical_or, a > 0.5), np.any(a > 0.5, axis=1))
        finite = a[np.isfinite(a).all(axis=1)]
        norms = np.sqrt(_fold_columns(np.add, finite * finite))
        assert norms.tobytes() == np.linalg.norm(finite, axis=1).tobytes()
