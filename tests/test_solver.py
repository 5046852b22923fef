"""The shared per-point Gauss-Newton solver and the point location built on it."""

import numpy as np

from strathom.dsl import parse_map
from strathom.experiments import grid_points, seeded_full_rank_map, transversality_margin
from strathom.regularity import ChartSurface, _find_intersections, _samples_in_ball
from strathom.seeds import derive_seed, rng_for
from strathom.strata import _gauss_newton


def _chart_residual(chart, targets, calls=None):
    def residual(u, idx):
        if calls is not None:
            calls.append(idx.copy())
        vals, jacs = chart.value_and_jacobian(u, check_domain=False)
        return vals - targets[idx], jacs

    return residual


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


class TestReferenceValues:
    def test_base_map_margin_is_unchanged(self, gallery_ctx):
        # the base map `strathom experiment --stability` draws at seed 0;
        # the value is the one the batch-wide-exit loop computed
        _, scene, ctx = gallery_ctx("parallel-planes")
        exp = scene.experiments
        base = seeded_full_rank_map(scene.ambient, seed=derive_seed(0, "base"))
        margin, _ = transversality_margin(ctx, base, grid_points(exp["k_box"], exp["grid"]), seed=0)
        assert margin.hex() == "0x1.07f1f5cca8fe6p-1"

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
        u0, _ = halfplane.locate(center, closure=True, seed=0)
        seeds_u = _samples_in_ball(
            halfplane, u0, center, 0.5, 200, rng_for(0, "tf", "S1", "S2", "0")
        )[:10]
        u, points, tangents = _find_intersections(halfplane, surface, center, 0.5, seeds_u)
        assert np.max(np.abs(u - expected)) < 1e-12
        assert np.max(np.abs(points[:, :2] - expected)) < 1e-12
        assert np.all(points[:, 2] == 0.0)
        assert all(t.dim == 2 for t in tangents)
