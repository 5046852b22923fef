"""The shared per-point Gauss-Newton solver and the point location built on it."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strathom import experiments, regularity, strata
from strathom.dsl import parse_map
from strathom.experiments import (
    _margin_starts,
    grid_points,
    seeded_full_rank_map,
    transversality_margin,
)
from strathom.gallery import gallery_entry
from strathom.grassmann import span_of
from strathom.regularity import (
    AffineSurface,
    ChartSurface,
    RadialPlan,
    Status,
    _find_intersections,
    _samples_in_balls,
    check_tf_at,
    random_test_surface,
)
from strathom.seeds import derive_seed, rng_for
from strathom.strata import (
    Stratum,
    _back_substitute,
    _gauss_newton,
    _least_squares_steps,
    _thin_qr,
)


def _chart_residual(chart, targets, calls=None):
    def residual(u, idx):
        if calls is not None:
            calls.append(idx.copy())
        vals, jacs = chart.value_and_jacobian(u, check_domain=False)
        return vals - targets[idx], jacs

    return residual


def _margin_location(stratum, points, seed):
    """The location a transversality margin runs for the points."""
    return stratum._nearest(
        points, _margin_starts(stratum, points, seed), strata.CLOSURE_MARGIN, tol=1e-12, max_iter=40
    )


class TestClippedExit:
    def test_box_edge_targets_converge_within_three_steps(self, gallery_ctx):
        # targets below the half-plane y >= 0: the nearest chart point sits
        # on the box edge y = 0, where the clipped iterate stops moving
        # while the unclipped step stays as long as the distance
        _, _, ctx = gallery_ctx("parallel-planes")
        halfplane = ctx.stratum("S1")
        box = np.asarray(halfplane.sample_box)
        lo, hi = box[:, 0] + 1e-12, box[:, 1] - 1e-12
        rng = rng_for(0, "solver-test")
        targets = np.column_stack([
            rng.uniform(-0.9, 0.9, 20), rng.uniform(-1.0, -0.1, 20), rng.uniform(-1.0, 1.0, 20),
        ])
        u0 = np.tile(box.mean(axis=1), (len(targets), 1))
        u, iterations, converged = _gauss_newton(
            _chart_residual(halfplane.chart, targets), u0, lo, hi, tol=1e-12, max_iter=40
        )
        assert np.all(converged)
        assert np.all(iterations <= 3)
        np.testing.assert_allclose(u[:, 0], targets[:, 0], atol=1e-12)
        assert np.all(u[:, 1] == lo[1])
        # the unclipped step never shrinks, so a batch-wide step test runs
        # all 40 iterations
        vals, jacs = halfplane.chart.value_and_jacobian(u, check_domain=False)
        step = np.linalg.pinv(jacs) @ (targets - vals)[:, :, None]
        assert np.min(np.max(np.abs(step), axis=1)) > 0.09

    def test_frozen_points_are_not_evaluated_again(self):
        chart = parse_map("x1, x1^2", 1)
        targets = np.array([[0.0, 0.0], [1.0, 0.5]])
        calls: list[np.ndarray] = []
        _, iterations, converged = _gauss_newton(
            _chart_residual(chart, targets, calls), np.zeros((2, 1)), -2.0, 2.0,
            tol=1e-13, max_iter=50,
        )
        assert np.all(converged)
        assert iterations[0] == 1 and iterations[1] > 1
        assert calls[0].tolist() == [0, 1]
        assert all(c.tolist() == [1] for c in calls[1:])
        assert len(calls) == iterations[1]


class TestNonConvergence:
    def test_moving_points_report_not_converged(self):
        chart = parse_map("x1, x1^2", 1)
        targets = np.array([[1.0, 0.0], [0.0, 0.0], [-0.5, 1.0]])
        residual = _chart_residual(chart, targets)
        _, iterations, converged = _gauss_newton(
            residual, np.zeros((3, 1)), -2.0, 2.0, tol=1e-13, max_iter=1
        )
        assert converged.tolist() == [False, True, False]
        assert iterations.tolist() == [1, 1, 1]
        _, _, converged = _gauss_newton(residual, np.zeros((3, 1)), -2.0, 2.0, tol=1e-13, max_iter=50)
        assert np.all(converged)

    def test_non_finite_row_stops_unconverged_alone(self):
        # a NaN row has rank 0 under the _ranks cutoff, where pinv's SVD
        # would raise LinAlgError; it stops at its start instead, and every
        # other row takes the steps it takes without it
        chart = parse_map("x1, x1^2", 1)
        targets = np.array([[1.0, 0.0], [0.5, 0.5], [-0.5, 1.0]])
        u0 = np.full((3, 1), 0.3)

        def residual(u, idx):
            res, jacs = _chart_residual(chart, targets)(u, idx)
            res[idx == 1] = np.nan
            jacs[idx == 1] = np.nan
            return res, jacs

        u, iterations, converged = _gauss_newton(residual, u0, -2.0, 2.0, tol=1e-13, max_iter=50)
        alone = _gauss_newton(_chart_residual(chart, targets[[0, 2]]), u0[[0, 2]], -2.0, 2.0,
                              tol=1e-13, max_iter=50)
        assert (u[1, 0], iterations[1], converged[1]) == (0.3, 0, False)
        assert np.array_equal(u[[0, 2]], alone.u)
        assert np.array_equal(iterations[[0, 2]], alone.iterations)
        assert np.array_equal(converged[[0, 2]], alone.converged)

    def test_callers_count_points_still_moving(self, monkeypatch):
        # point location (9 starts), a margin's location (4 starts for each
        # of 60 queries) and chart-surface preimages (60): with their own
        # step budgets, and with one step, where every point is still
        # moving.  75 batched starts creep along the edge of the sample box
        # for all 40 steps.
        surface = Stratum("P", parse_map("x1, x1^2 + x2^2, x2", 2))
        sheet = Stratum(
            "S",
            parse_map("x1, x2, x1^2 - x2^2", 2, domain=("x2",)),
            sample_box=((-1.0, 1.0), (-1.0, 1.0)),
        )
        rng = rng_for(0, "nearest-test")
        points = np.column_stack([
            rng.uniform(-1.2, 1.2, 60), rng.uniform(-0.6, 1.2, 60), rng.uniform(-1.5, 1.5, 60),
        ])

        def counts():
            return [
                surface.locate([0.3, 0.25, 0.4]).unconverged,
                int(_margin_location(sheet, points, seed=3)[2].sum()),
                PARABOLIC_SHEET._preimages(points)[1],
            ]

        assert counts() == [0, 75, 1]

        def one_step(*args, **kwargs):
            return _gauss_newton(*args, **{**kwargs, "max_iter": 1})

        for module in (strata, experiments):
            monkeypatch.setattr(module, "_gauss_newton", one_step)
        assert counts() == [9, 240, 60]


@st.composite
def _least_squares_problems(draw):
    """Jacobians (k, m, d), m, d <= 4 (tall, square or wide), residuals
    (k, m) and a mask of the rank-deficient rows.  Each row is U S V^T
    with random orthogonal U, V and p = min(m, d) singular values spaced
    geometrically from 1 down to 1/cond, cond up to 1e6; a masked row has
    its smallest singular value set to 0."""
    k, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    low = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    exponents = draw(arrays(np.float64, (k, 1), elements=st.floats(0.0, 6.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = min(m, d)
    sv = 10.0 ** (-exponents * np.linspace(0.0, 1.0, p))
    sv[low, -1] = 0.0
    left = np.linalg.qr(rng.standard_normal((k, m, m)))[0][:, :, :p]
    right = np.linalg.qr(rng.standard_normal((k, d, d)))[0][:, :, :p]
    jacs = (left * sv[:, None, :]) @ np.swapaxes(right, 1, 2)
    return jacs, rng.standard_normal((k, m)), low


class TestLeastSquaresSteps:
    @pytest.mark.parametrize("shape", [(200, 3, 2), (200, 2, 2), (200, 5, 3), (200, 3, 1)])
    def test_full_rank_rows_match_the_pinv_step(self, shape):
        rng = rng_for(0, "lsq-test", str(shape))
        jacs = rng.standard_normal(shape) + 3.0 * np.eye(*shape[1:])
        res = rng.standard_normal(shape[:2])
        expected = (np.linalg.pinv(jacs) @ res[:, :, None])[:, :, 0]
        steps = _least_squares_steps(jacs, res)
        np.testing.assert_allclose(steps, expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected)))

    def test_singular_row_takes_the_minimum_norm_step(self):
        # [[1, 1], [1, 1]] s = (2, 0) has the least-squares solutions
        # s1 + s2 = 1; the shortest is (1/2, 1/2)
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        regular = np.array([[2.0, 1.0], [0.0, 3.0]])
        res = np.array([[2.0, 0.0], [1.0, 3.0], [2.0, 0.0]])
        jacs = np.stack([singular, regular, singular])
        steps = _least_squares_steps(jacs, res)
        np.testing.assert_allclose(steps[0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(steps[2], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(steps[1], np.linalg.solve(regular, res[1]), atol=1e-15)
        np.testing.assert_array_equal(_least_squares_steps(jacs[:1], res[:1]), steps[:1])

    def test_wide_jacobians_take_the_minimum_norm_step(self):
        # J^T (J J^T)^-1 r, formed apart from the QR kernel; in each shape
        # row 7 has a zero row and row 0 a repeated row (or, with one row,
        # a norm under the 1e-12 floor), and those rows, of lower rank,
        # take the pinv step
        for shape in [(20, 2, 3), (20, 1, 2), (20, 1, 3)]:
            rng = rng_for(0, "lsq-wide", str(shape))
            jacs, res = rng.standard_normal(shape), rng.standard_normal(shape[:2])
            if shape[1] > 1:
                jacs[0, -1] = jacs[0, 0]
            else:
                jacs[0] *= 1e-13
            jacs[7, -1] = 0.0
            low = np.zeros(len(jacs), dtype=bool)
            low[[0, 7]] = True
            steps = _least_squares_steps(jacs, res)
            full = jacs[~low]
            gram = full @ np.swapaxes(full, 1, 2)
            expected = np.einsum("kji,kj->ki", full, np.linalg.solve(gram, res[~low][:, :, None])[:, :, 0])
            np.testing.assert_allclose(
                steps[~low], expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected))
            )
            np.testing.assert_array_equal(
                steps[low], (np.linalg.pinv(jacs[low]) @ res[low][:, :, None])[:, :, 0]
            )

    def test_r_factor_form_keeps_the_pinv_step(self):
        # residuals in the coordinates v = R u with fewer rows than chart
        # coordinates, as in the tf intersection search, every third row
        # of rank 1 (a repeated row); the box is never reached, so each
        # step is the minimum-norm step in v pulled back to u, by QR on
        # the rows of full rank and by pinv on the others
        rng = rng_for(0, "lsq-r-factor")
        mats = rng.standard_normal((30, 2, 3))
        mats[::3, 1] = mats[::3, 0]
        targets = rng.standard_normal((30, 2))
        tri = np.tile(np.array([[2.0, 0.5, 0.1], [0.0, 1.5, 0.3], [0.0, 0.0, 1.2]]), (30, 1, 1))

        def residual(u, idx):
            jacs = mats[idx] + 0.1 * np.sin(u)[:, None, :]
            return np.einsum("kij,kj->ki", jacs, u) - targets[idx], jacs, tri[idx]

        def back_substitute(r, b):  # R x = b, last coordinate first
            x = np.zeros_like(b)
            for i in (2, 1, 0):
                x[:, i] = (b[:, i] - (r[:, i, i + 1 :] * x[:, i + 1 :]).sum(axis=1)) / r[:, i, i]
            return x

        u0 = np.zeros((30, 3))
        u = _gauss_newton(residual, u0, -1e3, 1e3, tol=0.0, max_iter=5).u
        ref = u0.copy()
        for _ in range(5):  # the minimum-norm step in v, applied to every row
            res, jacs, r = residual(ref, np.arange(30))
            ref = ref - back_substitute(r, (np.linalg.pinv(jacs) @ res[:, :, None])[:, :, 0])
        assert np.max(np.abs(ref)) < 1e3
        low = np.arange(30) % 3 == 0
        np.testing.assert_array_equal(u[low], ref[low])
        np.testing.assert_allclose(u[~low], ref[~low], rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))

    @settings(max_examples=200, deadline=None)
    @given(_least_squares_problems())
    def test_steps_match_lstsq_pinv_and_their_own_rows(self, problem):
        jacs, res, low = problem
        steps = _least_squares_steps(jacs, res)
        eps = np.finfo(float).eps
        for i in np.flatnonzero(~low):
            # the perturbation bound of a least-squares solution (Wedin),
            # eps (cond / cos + cond^2 tan) for the angle theta between r
            # and the range of J: eps cond where r lies in the range
            x = np.linalg.lstsq(jacs[i], res[i], rcond=None)[0]
            cond = float(np.linalg.cond(jacs[i]))
            r_norm = float(np.linalg.norm(res[i]))
            sin = float(np.linalg.norm(res[i] - jacs[i] @ x)) / r_norm
            cos = float(np.linalg.norm(jacs[i] @ x)) / r_norm
            bound = 200.0 * eps * cond * (1.0 + cond * sin) / cos
            assert np.linalg.norm(steps[i] - x) <= bound * np.linalg.norm(x)
        if low.any():
            np.testing.assert_array_equal(
                steps[low], (np.linalg.pinv(jacs[low]) @ res[low][:, :, None])[:, :, 0]
            )
        for i in range(len(jacs)):
            np.testing.assert_array_equal(_least_squares_steps(jacs[i : i + 1], res[i : i + 1])[0], steps[i])


@st.composite
def _column_scaled_stacks(draw):
    """Stacks A (k, m, d), d <= m <= 4, of matrices B D: B of condition
    below 100 with largest entry 1, and D a diagonal column scaling
    spanning up to 1e6.  (Matrices far below the package's absolute
    rank floor, 1e-12, are rank-deficient to every rank decision in it.)"""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, m))
    base = draw(arrays(np.float64, (k, m, d), elements=st.floats(-1.0, 1.0)))
    peak = np.max(np.abs(base), axis=(1, 2))
    assume(np.all(peak > 0.0))
    base = base / peak[:, None, None]
    assume(np.all(np.linalg.cond(base) < 100.0))
    exponents = draw(arrays(np.float64, (d,), elements=st.floats(0.0, 6.0)))
    return base * 10.0 ** exponents


class TestThinQR:
    @settings(max_examples=200, deadline=None)
    @given(_column_scaled_stacks())
    def test_factors_match_lapack(self, a):
        q, r = _thin_qr(a)
        k, m, d = a.shape
        assert q.shape == (k, m, d) and r.shape == (k, d, d)
        np.testing.assert_allclose(np.swapaxes(q, 1, 2) @ q, np.broadcast_to(np.eye(d), (k, d, d)),
                                   rtol=0.0, atol=1e-13)
        scale = np.max(np.abs(a), axis=(1, 2))[:, None, None]
        assert np.all(np.abs(q @ r - a) <= 1e-13 * scale)
        rows, cols = np.tril_indices(d, -1)
        assert np.all(r[:, rows, cols] == 0.0)
        diag = np.abs(r.diagonal(0, 1, 2))
        lapack = np.abs(np.linalg.qr(a)[1].diagonal(0, 1, 2))
        np.testing.assert_allclose(diag, lapack, rtol=1e-12, atol=0.0)

    def test_zero_column_keeps_qr_equal_to_a(self):
        # nothing is left of a zero column: its column of Q and its
        # diagonal entry of R are zero, and no division warns
        a = np.array([[[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [2.0, 0.0, 0.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, r = _thin_qr(a)
        assert np.all(q[0, :, 1] == 0.0) and r[0, 1, 1] == 0.0
        np.testing.assert_allclose(q @ r, a, rtol=0.0, atol=1e-15)
        kept = q[0][:, [0, 2]]
        np.testing.assert_allclose(kept.T @ kept, np.eye(2), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_back_substitution_matches_solve(self, d):
        rng = rng_for(0, "back-substitution", str(d))
        tri = np.triu(rng.standard_normal((50, d, d))) + 2.0 * np.eye(d)
        rhs = rng.standard_normal((50, d))
        expected = np.linalg.solve(tri, rhs[:, :, None])[:, :, 0]
        np.testing.assert_allclose(
            _back_substitute(tri, rhs), expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected))
        )

    def test_zero_pivot_leaves_its_coordinate_at_zero(self):
        # a zero row of R, as a zero column of the factored matrix leaves
        # it: that coordinate is 0, and the others solve their own rows
        tri = np.array([[[2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 4.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _back_substitute(tri, np.array([[3.0, 0.0, 4.0]]))
        assert x.tolist() == [[1.0, 0.0, 1.0]]


class TestReferenceValues:
    def test_base_map_margin_is_unchanged(self, gallery_ctx):
        # the base map `strathom experiment --stability` draws at seed 0;
        # the value is the one the batch-wide-exit loop computed, under the
        # BLAS kernels tests/conftest.py pins
        _, scene, ctx = gallery_ctx("parallel-planes")
        exp = scene.experiments
        base = seeded_full_rank_map(scene.ambient, seed=derive_seed(0, "base"))
        k_points = grid_points(exp["k_box"], exp["grid"])
        margin, _ = transversality_margin(ctx, *base.value_and_jacobian(k_points), k_points, seed=0)
        assert margin.hex() == "0x1.07f1f5cca8fe5p-1"

    def test_chart_surface_intersections_are_unchanged(self, gallery_ctx):
        # chart points the 60-step alternating projection without an exit
        # returned for the first ten seeds at radius 0.5
        expected = np.array([
            (0.019332458441307095, 0.278082422611046),
            (0.0013099009370631147, 0.0723851072269183),
            (0.0216853465647968, 0.2945189064545555),
            (0.006384688263813732, 0.15980848868334538),
            (0.0015489579140467108, 0.07871360528007114),
            (0.01923423398904901, 0.27737508171462705),
            (0.012258780508797647, 0.2214387545918523),
            (0.008555495287437008, 0.18499184076533762),
            (0.020777748513325162, 0.2882897744515068),
            (2.9832094226708913e-05, 0.010923752876499708),
        ])
        _, _, ctx = gallery_ctx("parallel-planes")
        halfplane = ctx.stratum("S1")
        surface = ChartSurface(
            chart=parse_map("(x1^2 + x2^2)/4, x1, x2", 2),
            center_preimage=np.zeros(2),
            box=((-2.0, 2.0), (-2.0, 2.0)),
        )
        center = np.zeros(3)
        u0 = halfplane.locate(center, closure=True).u
        seeds_u, _ = _samples_in_balls(
            halfplane, u0, center, [0.5], 200, [rng_for(0, "tf", "S1", "S2", "0")]
        )
        seeds_u = seeds_u[:10]
        u, points, tangents, _, _ = _one_ball(halfplane, surface, center, 0.5, seeds_u)
        assert np.max(np.abs(u - expected)) < 1e-12
        assert np.max(np.abs(points[:, :2] - expected)) < 1e-12
        assert np.all(points[:, 2] == 0.0)
        # every hit has a two-dimensional tangent: two orthonormal columns
        assert tangents.shape == (len(u), 3, 2)
        for t in tangents:
            np.testing.assert_allclose(t.T @ t, np.eye(2), atol=1e-15)


def _by_radius(hits, count):
    """The flat intersection batch split into one result per radius,
    each with its own ``stalled`` count."""
    out = []
    for j in range(count):
        own = hits.which == j
        out.append(regularity._Intersections(
            hits.u[own], hits.points[own], hits.tangents[own], hits.which[own], hits.stalled[j]
        ))
    return out


def _one_ball(stratum, surface, center, radius, seeds_u):
    """Intersections from seeds that all belong to one ball."""
    which = np.zeros(len(seeds_u), dtype=int)
    (hits,) = _by_radius(_find_intersections(stratum, surface, center, [radius], seeds_u, which), 1)
    return hits


PARABOLIC_SHEET = ChartSurface(
    chart=parse_map("(x1^2 + x2^2)/4, x1, x2", 2),
    center_preimage=np.zeros(2),
    box=((-2.0, 2.0), (-2.0, 2.0)),
)


class TestIntersectionSearch:
    def test_one_degree_surface_converges_within_two_steps(self, monkeypatch):
        # alternating projection contracts by cos(1 deg)^2 per step here;
        # the Newton step lands on the intersection line at once
        solves = []

        def recording(*args, **kwargs):
            solves.append(_gauss_newton(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(regularity, "_gauss_newton", recording)
        plane = Stratum("P", parse_map("x1, x2, 0", 2), sample_box=((-1.0, 1.0), (-1.0, 1.0)))
        angle = np.deg2rad(1.0)
        surface = AffineSurface(
            base=np.zeros(3), space=span_of([[1, 0, 0], [0, np.cos(angle), np.sin(angle)]], n=3)
        )
        seeds_u = rng_for(0, "one-degree").uniform(-0.9, 0.9, size=(50, 2))
        hits = _one_ball(plane, surface, np.zeros(3), 2.0, seeds_u)
        (solved,) = solves
        assert np.all(solved.converged)
        assert np.all(solved.iterations <= 2)
        assert hits.stalled == 0
        assert len(hits.u) == 50
        assert np.max(np.abs(hits.points[:, 1:])) < 1e-12

    def test_hits_do_not_depend_on_the_chart(self):
        # the same plane through psi'(y) = psi(A y), A = [[10, 0], [1, 1]];
        # the boxes are wide enough that no iterate is clipped
        box = ((-5.0, 5.0), (-5.0, 5.0))
        plane = Stratum("P", parse_map("x1, x2, 0", 2), sample_box=box)
        stretched = Stratum("P", parse_map("10*x1, x1 + x2, 0", 2), sample_box=box)
        seeds_u = rng_for(0, "chart-invariance").uniform(-1.0, 1.0, size=(40, 2))
        seeds_y = np.column_stack([seeds_u[:, 0] / 10, seeds_u[:, 1] - seeds_u[:, 0] / 10])
        center = np.array([0.0, 0.0, 1.0])
        hits = _one_ball(plane, PARABOLIC_SHEET, center, 3.0, seeds_u)
        hits_y = _one_ball(stretched, PARABOLIC_SHEET, center, 3.0, seeds_y)
        assert len(hits.u) == len(hits_y.u) == 40
        assert hits.stalled == hits_y.stalled == 0
        assert np.max(np.abs(hits.points - hits_y.points)) < 1e-12
        # the hits lie on the parabola x = y^2 / 4 in the plane z = 0
        assert np.max(np.abs(hits.points[:, 0] - hits.points[:, 1] ** 2 / 4)) < 1e-12

    def test_chart_surface_frames_drop_lost_rank(self):
        # x1, x2^3, x2^2 loses rank along x2 = 0: the tangent there is the
        # x1 axis, at the hit as at the center, and the normal is the
        # plane of the other two axes
        cusp = ChartSurface(
            chart=parse_map("x1, x2^3, x2^2", 2),
            center_preimage=np.zeros(2),
            box=((-1.0, 1.0), (-1.0, 1.0)),
        )
        point = np.array([[0.3, 0.0, -1.0]])
        q, normals, tangents = cusp.project(point)
        assert np.array_equal(q, [[0.3, 0.0, 0.0]])
        assert normals.shape == (1, 3, 2)
        np.testing.assert_allclose(normals[0] @ normals[0].T, np.diag([0.0, 1.0, 1.0]), atol=1e-15)
        # the tangent frame keeps one column, the x1 axis, and zeroes the
        # column beyond the rank
        assert tangents.shape == (1, 3, 2)
        assert cusp.tangent_at_center().dim == 1
        assert np.array_equal(np.abs(tangents[0]), [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])

        # x1, x1 x2, x2^2 loses rank at the origin only; in a batch with a
        # point of full rank, that point's column that is tangent at the
        # origin is zero and its other column is its unit normal
        pinch = ChartSurface(
            chart=parse_map("x1, x1*x2, x2^2", 2),
            center_preimage=np.zeros(2),
            box=((-1.0, 1.0), (-1.0, 1.0)),
        )
        q, both, tangents = pinch.project(np.array([[0.0, 0.0, -1.0], [0.3, 0.06, 0.04]]))
        np.testing.assert_allclose(q, [[0.0, 0.0, 0.0], [0.3, 0.06, 0.04]], atol=1e-15)
        np.testing.assert_allclose(both[0] @ both[0].T, np.diag([0.0, 1.0, 1.0]), atol=1e-15)
        assert np.array_equal(both[1, :, 0], np.zeros(3))
        normal = both[1, :, 1]
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-15
        assert np.max(np.abs(normal @ pinch.chart.jacobian(np.array([0.3, 0.2])))) < 1e-15
        # the origin's tangent is the x1 axis, its second column zero; the
        # point of full rank keeps both columns, orthonormal to its normal
        assert np.array_equal(np.abs(tangents[0]), [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        frame = np.hstack([tangents[1], normal[:, None]])
        np.testing.assert_allclose(frame.T @ frame, np.eye(3), atol=1e-15)

    def test_affine_surface_normals_complete_the_tangent(self):
        surface = AffineSurface(
            base=np.array([0.5, 0.0, 0.0]), space=span_of([[1, 2, 0], [0, 1, 1]], n=3)
        )
        q, normals, tangents = surface.project(rng_for(0, "affine-normals").standard_normal((7, 3)))
        assert normals.shape == (7, 3, 1) and tangents.shape == (7, 3, 2)
        frame = np.hstack([tangents[0], normals[0]])
        np.testing.assert_allclose(frame.T @ frame, np.eye(3), atol=1e-15)
        assert np.array_equal(tangents[0], surface.space.basis)
        assert all(np.array_equal(normals[i], normals[0]) for i in range(7))
        assert all(np.array_equal(tangents[i], tangents[0]) for i in range(7))
        np.testing.assert_allclose((q - surface.base) @ normals[0], 0.0, atol=1e-15)

    def test_box_edge_intersection_converges_within_three_steps(self, monkeypatch):
        # the plane x1 + 0.1 x2 = 1.05 meets P along a line that leaves the
        # box through the edge x1 = 1 at x2 = 0.5; a seed whose nearest
        # point of the line lies beyond that edge is held on it, and the
        # step along the edge lands on the line at once.  Clipped steps
        # alone would creep along the edge by a factor 1 - 1/101 a step.
        solves = []

        def recording(*args, **kwargs):
            solves.append(_gauss_newton(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(regularity, "_gauss_newton", recording)
        plane = Stratum("P", parse_map("x1, x2, 0", 2), sample_box=((-1.0, 1.0), (-1.0, 1.0)))
        surface = AffineSurface(
            base=np.array([1.05, 0.0, 0.0]), space=span_of([[-0.1, 1, 0], [0, 0, 1]], n=3)
        )
        seeds_u = rng_for(0, "box-edge").uniform(-0.9, 0.9, size=(50, 2))
        hits = _one_ball(plane, surface, np.zeros(3), 5.0, seeds_u)
        (solved,) = solves
        edge = solved.u[:, 0] > 1.0 - 1e-11
        assert np.count_nonzero(edge) >= 10
        assert np.all(solved.converged) and hits.stalled == 0
        assert np.all(solved.iterations <= 3)
        np.testing.assert_allclose(solved.u[edge, 1], 0.5, rtol=0.0, atol=1e-10)
        # the seeds held on the edge end on one point, kept once
        assert len(hits.u) == 50 - np.count_nonzero(edge) + 1
        np.testing.assert_allclose(hits.points @ [1.0, 0.1, 0.0], 1.05, rtol=0.0, atol=1e-12)

    def test_rank_deficient_chart_jacobian_stays_put(self, monkeypatch):
        # x1, x2^2, x2^3 has the Jacobian columns e1 and 0 along x2 = 0: the
        # seed there has R with a zero diagonal entry and a residual whose
        # Jacobian N^T Q is zero, so its step is zero and it stops at once,
        # off the surface x2 = 1/4 and not counted; the others reach it.
        # (The LAPACK step raised LinAlgError "Singular matrix" here and
        # took the whole tf verdict down.)
        solves = []

        def recording(*args, **kwargs):
            solves.append(_gauss_newton(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(regularity, "_gauss_newton", recording)
        cusp = Stratum("C", parse_map("x1, x2^2, x2^3", 2), sample_box=((-1.0, 1.0), (-1.0, 1.0)))
        surface = AffineSurface(
            base=np.array([0.0, 0.25, 0.0]), space=span_of([[1, 0, 0], [0, 0, 1]], n=3)
        )
        seeds_u = np.array([[0.3, 0.0], [0.2, 0.4], [-0.5, -0.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = _one_ball(cusp, surface, np.zeros(3), 2.0, seeds_u)
        (solved,) = solves
        assert np.all(np.isfinite(solved.u))
        assert np.array_equal(solved.u[0], seeds_u[0]) and solved.iterations[0] == 1
        assert np.all(solved.converged) and hits.stalled == 0
        np.testing.assert_allclose(hits.u, [[0.2, 0.5], [-0.5, -0.5]], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(hits.points[:, 1], 0.25, rtol=0.0, atol=1e-12)

    def test_blowup_cli_surface_fails_at_every_radius(self):
        # `strathom check --condition all --seed 20261017` on blowup: the
        # alternating projection found no intersection with test surface
        # 1 at any radius, and the step through pinv of the projected
        # Jacobian, which inverted rounding noise, stalled surface 0's
        # seeds on the box edge and left five radii empty, so tf held
        # where af fails
        from strathom.gallery import gallery_entry

        seed = 20261017
        scene = gallery_entry("blowup").scene()
        ctx = scene.build_context(seed=derive_seed(seed, "context"))
        (inc,) = scene.prestratification.incidences
        for k in (0, 1):
            surface_seed = derive_seed(derive_seed(seed, "check", "tf", inc.x, inc.y), str(k))
            surface = random_test_surface(ctx, inc.y, inc.point, seed=surface_seed)
            verdict = check_tf_at(ctx, inc.x, inc.y, inc.point, surface, seed=surface_seed)
            rows = verdict.detail["radii"]
            assert all(r["intersections"] > 0 for r in rows), rows
            assert all(r["nontransverse"] for r in rows)
            assert not any(r.get("empty") and r["stalled"] for r in rows)
            assert verdict.status is Status.FAILS


def _cli_tf_case(name: str, seed: int, k: int):
    """Context, incidence, k-th test surface and its seed, as
    `strathom check --condition tf --seed <seed>` draws them."""
    scene = gallery_entry(name).scene()
    ctx = scene.build_context(seed=derive_seed(seed, "context"))
    inc = scene.prestratification.incidences[0]
    surface_seed = derive_seed(derive_seed(seed, "check", "tf", inc.x, inc.y), str(k))
    return ctx, inc, random_test_surface(ctx, inc.y, inc.point, seed=surface_seed), surface_seed


class TestStackedRadii:
    @pytest.mark.parametrize(
        "name, seed, k",
        # blowup: 58-78 hits per radius, 230 of 1046 seeds held on the box
        # edge; parallel-planes: 131-147 hits per radius, 487 of 1981
        # seeds on the box edge
        [("blowup", 20261017, 1), ("parallel-planes", 1, 4)],
    )
    def test_one_solve_matches_one_solve_per_radius(self, name, seed, k, monkeypatch):
        solves = []

        def recording(*args, **kwargs):
            solves.append(_gauss_newton(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(regularity, "_gauss_newton", recording)
        ctx, inc, surface, surface_seed = _cli_tf_case(name, seed, k)
        sx = ctx.stratum(inc.x)
        center = np.asarray(inc.point, dtype=float)
        u0 = sx.locate(center, closure=True).u
        radii = [float(r) for r in RadialPlan().radii()]
        streams = [rng_for(surface_seed, "tf", inc.x, inc.y, str(j)) for j in range(len(radii))]
        seeds = [_samples_in_balls(sx, u0, center, [r], 200, [rng])[0] for r, rng in zip(radii, streams)]
        which = np.repeat(np.arange(len(radii)), [len(u) for u in seeds])
        found = _find_intersections(sx, surface, center, radii, np.concatenate(seeds), which)
        assert np.all(np.diff(found.which) >= 0)
        stacked = _by_radius(found, len(radii))
        assert len(stacked) == len(radii)
        assert sum(len(h.u) for h in stacked) > 0
        # seeds held on the box edge by the active set are in the batch
        box = np.asarray(sx.sample_box)
        (solved,) = solves
        assert np.any((solved.u == box[:, 0] + 1e-12) | (solved.u == box[:, 1] - 1e-12))
        for r, seeds_u, hits in zip(radii, seeds, stacked):
            alone = _one_ball(sx, surface, center, r, seeds_u)
            assert np.array_equal(hits.u, alone.u)
            assert np.array_equal(hits.points, alone.points)
            assert hits.stalled == alone.stalled

    @pytest.mark.parametrize(
        "name, seed, condition", [("blowup", 20261017, "tf"), ("parabola-shelf", 1, "afs")]
    )
    def test_one_sampling_batch_matches_one_draw_per_radius(self, name, seed, condition):
        # both scenes have domain predicates that reject some draws; each
        # radius's rows are those its own stream gives drawn alone
        ctx, inc, _, surface_seed = _cli_tf_case(name, seed, 0)
        sx = ctx.stratum(inc.x)
        center = np.asarray(inc.point, dtype=float)
        u0 = sx.locate(center, closure=True).u
        radii = [float(r) for r in RadialPlan().radii()]

        def streams():
            return [rng_for(surface_seed, condition, inc.x, inc.y, str(j)) for j in range(len(radii))]

        u, which = _samples_in_balls(sx, u0, center, radii, 200, streams())
        assert np.all(np.diff(which) >= 0)
        batch = [u[which == j] for j in range(len(radii))]
        assert len(batch) == len(radii) and all(0 < len(u) <= 200 for u in batch)
        for r, rng, rows in zip(radii, streams(), batch):
            draws = rng.uniform(-1.5, 1.5, size=(1200, sx.dim)) * r + u0
            draws = draws[sx.chart.in_domain(draws)]
            alone = draws[np.linalg.norm(sx.chart(draws) - center, axis=1) <= r][:200]
            assert rows.tobytes() == alone.tobytes()
        for j, (r, rng) in enumerate(zip(radii, streams())):
            one, _ = _samples_in_balls(sx, u0, center, [r], 200, [rng])
            assert one.tobytes() == batch[j].tobytes()

    def test_a_radius_without_seeds_keeps_its_row(self):
        plane = Stratum("P", parse_map("x1, x2, 0", 2), sample_box=((-1.0, 1.0), (-1.0, 1.0)))
        surface = AffineSurface(base=np.zeros(3), space=span_of([[1, 0, 0], [0, 0, 1]], n=3))
        # the plane meets the surface along the x1 axis
        seeds_u = rng_for(0, "empty-radius").uniform(-0.9, 0.9, size=(20, 2))
        found = _find_intersections(
            plane, surface, np.zeros(3), [2.0, 1.0, 2.0], seeds_u, np.repeat([0, 2], [12, 8]),
        )
        first, empty, last = _by_radius(found, 3)
        assert empty.u.shape == (0, 2) and len(empty.points) == 0
        assert empty.tangents.shape == (0, 3, 2) and empty.stalled == 0
        for hits, own in ((first, seeds_u[:12]), (last, seeds_u[12:])):
            assert len(hits.u) == len(own) and hits.stalled == 0
            assert np.max(np.abs(hits.u - np.column_stack([own[:, 0], np.zeros(len(own))]))) < 1e-12

    def test_check_tf_at_runs_one_solve(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return _gauss_newton(*args, **kwargs)

        monkeypatch.setattr(regularity, "_gauss_newton", counting)
        ctx, inc, surface, surface_seed = _cli_tf_case("blowup", 20261017, 1)
        verdict = check_tf_at(ctx, inc.x, inc.y, inc.point, surface, seed=surface_seed)
        rows = verdict.detail["radii"]
        assert len(rows) == 10
        assert calls == [sum(r["samples"] for r in rows)]


class TestNearestChartPoints:
    def test_margin_locates_from_its_own_starts_and_budget(self, gallery_ctx, monkeypatch):
        # the calibrated eps and the pinned margins rest on this start set
        # and step budget; with the planes' exact inverse hints no pin
        # sees a change to either, so the hints are dropped here
        _, scene, ctx = gallery_ctx("parallel-planes")
        hint_free = tuple(dataclasses.replace(s, inverse_hint=None) for s in ctx.prestratification.strata)
        ctx = dataclasses.replace(
            ctx, prestratification=dataclasses.replace(ctx.prestratification, strata=hint_free)
        )
        calls = []
        nearest = Stratum._nearest

        def recording(self, points, starts, floor, **budget):
            calls.append((self, points, starts, floor, budget))
            return nearest(self, points, starts, floor, **budget)

        monkeypatch.setattr(Stratum, "_nearest", recording)
        k_points = grid_points(scene.experiments["k_box"], scene.experiments["grid"])
        transversality_margin(ctx, *seeded_full_rank_map(3, seed=0).value_and_jacobian(k_points), k_points, 7)
        assert [c[0].name for c in calls] == ["S1", "S2"]
        for stratum, images, starts, floor, budget in calls:
            assert starts.shape == (len(k_points), 4, stratum.dim)
            assert np.array_equal(starts, _margin_starts(stratum, images, 7))
            assert (floor, budget) == (strata.CLOSURE_MARGIN, {"tol": 1e-12, "max_iter": 40})

    def test_one_solve_matches_the_per_start_fold(self, monkeypatch):
        # no inverse hint: the box center and three seeded starts; the
        # domain x2 > 0 makes starts that end on its edge inadmissible
        sheet = Stratum(
            "S",
            parse_map("x1, x2, x1^2 - x2^2", 2, domain=("x2",)),
            sample_box=((-1.0, 1.0), (-1.0, 1.0)),
        )
        rng = rng_for(0, "nearest-test")
        points = np.column_stack([
            rng.uniform(-1.2, 1.2, 60), rng.uniform(-0.6, 1.2, 60), rng.uniform(-1.5, 1.5, 60),
        ])
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return _gauss_newton(*args, **kwargs)

        monkeypatch.setattr(strata, "_gauss_newton", counting)
        u, d, _ = _margin_location(sheet, points, seed=3)
        assert calls == [4 * len(points)]

        box = np.asarray(sheet.sample_box)
        start_rng = rng_for(3, "nearest", "S")
        starts = [np.tile(box.mean(axis=1), (len(points), 1))]
        starts += [start_rng.uniform(box[:, 0], box[:, 1], size=(len(points), 2)) for _ in range(3)]
        best_u, best_d = None, None
        took_later = np.zeros(len(points), dtype=bool)
        for u0 in starts:
            u_s = _gauss_newton(
                _chart_residual(sheet.chart, points), u0, box[:, 0] + 1e-12, box[:, 1] - 1e-12,
                tol=1e-12, max_iter=40,
            ).u
            admissible = np.all(sheet.domain_margins(u_s) >= -1e-8, axis=1)
            dist = np.linalg.norm(sheet.chart(u_s, check_domain=False) - points, axis=1)
            d_s = np.where(admissible, dist, np.inf)
            if best_u is None:
                best_u, best_d = u_s, d_s
            else:
                better = d_s < best_d
                best_u[better] = u_s[better]
                best_d[better] = d_s[better]
                took_later |= better
        assert np.array_equal(u, best_u)
        assert np.array_equal(d, best_d)
        # the fold is exercised: later starts win somewhere, and some
        # queries have no admissible start at all
        assert np.any(took_later)
        assert np.any(np.isinf(d))
