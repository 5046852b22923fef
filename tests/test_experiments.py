import dataclasses

import numpy as np
import pytest

import strathom.experiments as experiments
from strathom.constructions import PerturbedMap
from strathom.dsl import DomainError, parse_map
from strathom.experiments import (
    _c1_sample,
    _fold_on_circle_witness,
    _scaled_perturbation,
    calibrate_epsilon,
    grid_points,
    instability_demo,
    make_perturbation,
    nongenericity_demo,
    seeded_full_rank_map,
    stability_sweep,
    stability_trial,
    sweep_csv_rows,
    transversality_margin,
)
from strathom.gallery import gallery_entry
from strathom.regularity import PreconditionError
from strathom.seeds import derive_seed, rng_for
from strathom.strata import NumericalInconsistencyError

CUBE = [[-1, 1]] * 3
CIRCLE = [[-np.pi, np.pi]]


@pytest.fixture(scope="module")
def planes_setup(gallery_ctx):
    entry, scene, ctx = gallery_ctx("parallel-planes")
    exp = scene.experiments
    k_points = grid_points(exp["k_box"], exp["grid"])
    base = seeded_full_rank_map(3, seed=0)
    return ctx, k_points, base


class TestGrid:
    def test_grid_covers_the_box(self):
        pts = grid_points([[-1, 1], [0, 2]], [3, 5])
        assert pts.shape == (15, 2)
        assert pts.min(0) == pytest.approx([-1, 0])
        assert pts.max(0) == pytest.approx([1, 2])


@pytest.fixture(scope="module")
def shelf_destabilizer(gallery_ctx):
    """The first destabilizer map g_1 at the parabola-shelf fault."""
    _, scene, ctx = gallery_ctx("parabola-shelf")
    inc = scene.prestratification.incidences[0]
    return instability_demo(ctx, inc.x, inc.y, inc.point, count=2, seed=0).sequence.entries[0].map


class TestPerturbationField:
    def test_jacobian_matches_finite_differences(self):
        rng = rng_for(0, "fd-test")
        delta = make_perturbation(3, 3, [[-1, 1]] * 3, rng, bumps=5)
        w = np.array([0.2, -0.3, 0.5])
        jac = delta.jacobian(w)
        fd = np.stack(
            [(delta(w + 1e-6 * e) - delta(w - 1e-6 * e)) / 2e-6 for e in np.eye(3)],
            axis=1,
        )
        assert np.max(np.abs(jac - fd)) < 1e-8

    def test_line_jacobian_equals_identity_product(self):
        # the line topology's displacement Jacobian is the identity; the
        # direct contraction must agree bit for bit with the explicit
        # product through a broadcast identity
        delta = _scaled_perturbation(3, CUBE, _c1_sample(CUBE, 0), 0.25, 0, 0, 4)
        w = grid_points([[-1.0, 1.0]] * 3, [6, 6, 6])
        val, dval, disp, _ = delta._humps(w)
        payload = delta.offsets[None, :, :] + np.einsum("bnm,kbm->kbn", delta.linears, disp)
        eye = np.broadcast_to(np.eye(3), (len(w), len(delta.radii), 3, 3))
        term2 = np.einsum("kb,kbnm->knm", val, np.einsum("bnu,kbum->kbnm", delta.linears, eye))
        expected = delta.scale * (np.einsum("kbn,kbm->knm", payload, dval) + term2)
        assert np.array_equal(delta.jacobian(w), expected)

    @pytest.mark.parametrize(
        "topology, base, box",
        [
            ("line", seeded_full_rank_map(3, seed=4), [[-1, 1]] * 3),
            ("circle", parse_map("cos(x1), sin(x1)", 1), [[-np.pi, np.pi]]),
        ],
    )
    def test_value_and_jacobian_equal_separate_calls(self, topology, base, box, shelf_destabilizer):
        delta = _scaled_perturbation(base.m, box, _c1_sample(box, 3), 0.2, 3, 1, 4, topology=topology)
        lo, hi = np.asarray(box, dtype=float).T
        w = rng_for(3, "vj-test").uniform(lo, hi, size=(40, len(box)))
        maps = [delta, PerturbedMap(base, delta)]
        if topology == "line":
            # the affine base, a destabilizer map g_i and its localized
            # correction, on a cube around the fault point at the origin
            maps += [base, shelf_destabilizer, shelf_destabilizer.delta]
        for fn in maps:
            for pts in (w, w[0]):
                val, jac = fn.value_and_jacobian(pts)
                assert np.array_equal(val, fn(pts))
                assert np.array_equal(jac, fn.jacobian(pts))

    def test_circle_field_is_periodic(self):
        delta = _scaled_perturbation(2, CIRCLE, _c1_sample(CIRCLE, 0), 0.1, 0, 0, 3, topology="circle")
        left = delta(np.array([-np.pi]))
        right = delta(np.array([np.pi]))
        assert np.max(np.abs(left - right)) < 1e-12

    def test_scaling_hits_the_requested_size(self):
        delta = _scaled_perturbation(3, CUBE, _c1_sample(CUBE, 0), 0.25, 0, 0, 4)
        sample = rng_for(0, "c1-sample").uniform(-1, 1, size=(1000, 3))
        assert delta.sampled_c1_norm(sample) == pytest.approx(0.25, rel=1e-9)

    def test_replayable_from_seed(self):
        a = _scaled_perturbation(3, CUBE, _c1_sample(CUBE, 7), 0.25, 7, 3, 4)
        b = _scaled_perturbation(3, CUBE, _c1_sample(CUBE, 7), 0.25, 7, 3, 4)
        pts = rng_for(1, "probe").uniform(-1, 1, size=(8, 3))
        assert a(pts).tobytes() == b(pts).tobytes()


class TestStability:
    def test_full_rank_base_is_transverse(self, planes_setup):
        ctx, k_points, base = planes_setup
        margin, _ = transversality_margin(ctx, base, k_points, 0)
        assert margin > 0.2

    def test_small_perturbations_all_persist(self, planes_setup):
        ctx, k_points, base = planes_setup
        report = stability_trial(ctx, base, k_points, 0.05, trials=20, seed=0)
        assert report.fraction == 1.0
        assert min(report.min_margins) > report.margin_tol

    def test_zero_trials_flagged(self, planes_setup):
        ctx, k_points, base = planes_setup
        report = stability_trial(ctx, base, k_points, 0.05, trials=0, seed=0)
        assert report.fraction is None
        assert report.outcomes == ()

    def test_huge_perturbations_degrade(self, planes_setup):
        ctx, k_points, base = planes_setup
        report = stability_trial(ctx, base, k_points, 10.0, trials=25, seed=0)
        assert report.fraction < 1.0

    def test_non_transverse_base_rejected(self, planes_setup):
        ctx, k_points, _ = planes_setup
        from strathom.experiments import AffineMap

        flat = AffineMap(np.diag([1.0, 1.0, 0.0]), np.zeros(3))  # rank 2
        with pytest.raises(PreconditionError):
            stability_trial(ctx, flat, k_points, 0.05, trials=5, seed=0)

    def test_sweep_fraction_non_increasing(self, planes_setup):
        ctx, k_points, base = planes_setup
        reports = stability_sweep(ctx, base, k_points, [0.9, 2.7, 8.1, 24.3], trials=16, seed=0)
        fractions = [r.fraction for r in reports]
        assert all(b <= a for a, b in zip(fractions, fractions[1:])), fractions
        rows = sweep_csv_rows(reports)
        assert len(rows) == 4 * 16
        assert {r[1] for r in rows} == {0.9, 2.7, 8.1, 24.3}

    def test_calibration_returns_positive_certified_size(self, planes_setup):
        ctx, k_points, base = planes_setup
        eps = calibrate_epsilon(ctx, base, k_points, seed=0, probe_trials=5, rounds=4,
                                certify_trials=20)
        assert eps > 0
        report = stability_trial(ctx, base, k_points, eps, trials=20, seed=0)
        assert report.fraction == 1.0

    @pytest.mark.parametrize(
        "seed, eps_hex",
        [
            (1, "0x1.ace92f6c929d6p+0"),
            (2, "0x1.24d06caf0b7a4p-1"),
            (3, "0x1.18711529738e4p+1"),
            (20261017, "0x1.4e0e3b1705e20p+0"),
        ],
        ids=["1", "2", "3", "20261017"],
    )
    def test_calibration_draws_each_trial_field_once(self, seed, eps_hex, monkeypatch):
        # the benchmark's stability-planes calibration at its seeds; the
        # eps is pinned so that any change to it is seen
        entry_scene = gallery_entry("parallel-planes").scene()
        exp = entry_scene.experiments
        ctx = entry_scene.build_context(seed=derive_seed(seed, "context"))
        k_points = grid_points(exp["k_box"], exp["grid"])
        base = seeded_full_rank_map(entry_scene.ambient, seed=derive_seed(0, "base"))
        draws, margins = [], []
        draw, margin = experiments.make_perturbation, experiments.transversality_margin

        def counting_draw(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        def counting_margin(*args, **kwargs):
            margins.append(args)
            return margin(*args, **kwargs)

        monkeypatch.setattr(experiments, "make_perturbation", counting_draw)
        monkeypatch.setattr(experiments, "transversality_margin", counting_margin)
        eps = calibrate_epsilon(ctx, base, k_points, seed=derive_seed(seed, "stability"),
                                probe_trials=10, rounds=6, certify_trials=50)
        assert eps.hex() == eps_hex
        assert len(draws) == 50  # one per distinct trial index
        assert len(margins) > 1 + 50  # while every probed eps measures its trials

    def test_margin_cross_checks_the_leaf_tangents(self, planes_setup):
        # a map that contradicts the rank certificate of S1: the leaf
        # kernel checks the rank of d(f o psi) and refuses it
        ctx, k_points, base = planes_setup
        bad_ctx = dataclasses.replace(ctx, f=parse_map("x2 + x3, x1^3", 3))
        with pytest.raises(NumericalInconsistencyError, match="above the certified rank"):
            transversality_margin(bad_ctx, base, k_points, 0)

    def test_margin_at_a_closure_point(self, planes_setup):
        # S1's sample box crosses its domain boundary x2 = 0, and the
        # grid image lies nearest to a chart point just outside it
        ctx, _, base = planes_setup
        strata = ctx.prestratification.strata
        s1 = dataclasses.replace(strata[0], sample_box=((-1.0, 1.0), (-1.0, 1.0)))
        wide = dataclasses.replace(
            ctx, prestratification=dataclasses.replace(ctx.prestratification, strata=(s1, *strata[1:]))
        )
        image = np.array([0.3, -5e-9, 0.02])
        k_points = np.linalg.solve(base.matrix, image - base.offset)[None]
        u, d, _ = experiments._nearest_chart_points(s1, base(k_points), 0)
        assert s1.domain_margins(u)[0, 0] == pytest.approx(-5e-9, rel=1e-6)
        assert d[0] == pytest.approx(0.02)
        margin, _ = transversality_margin(wide, base, k_points, 0)
        assert margin == pytest.approx(0.4023252006707616, rel=1e-12)
        with pytest.raises(DomainError, match=r"\[0\.3, -1e-06\]"):
            wide.leaf_tangents(s1, np.array([[0.3, -5e-9], [0.3, -1e-6]]))

    def test_calibration_stops_at_the_first_failed_trial(self, planes_setup, monkeypatch):
        ctx, k_points, base = planes_setup
        calls = []

        def margin(ctx, h, k_points, seed):  # the base map passes, every trial fails
            calls.append(h)
            return (1.0 if h is base else 0.0), None

        monkeypatch.setattr(experiments, "transversality_margin", margin)
        with pytest.raises(RuntimeError, match="no positive perturbation size"):
            calibrate_epsilon(ctx, base, k_points, probe_trials=10, rounds=3)
        assert len(calls) == 1 + 1 + 3  # the base map, then one trial per probe batch

    def test_report_replays_bit_identically(self, planes_setup):
        ctx, k_points, base = planes_setup
        a = stability_trial(ctx, base, k_points, 0.3, trials=10, seed=5)
        b = stability_trial(ctx, base, k_points, 0.3, trials=10, seed=5)
        assert a.to_json() == b.to_json()
        assert a.csv_rows() == b.csv_rows()


class TestInstability:
    def test_demo_produces_certified_rows(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parabola-shelf")
        inc = scene.prestratification.incidences[0]
        rep = instability_demo(ctx, inc.x, inc.y, inc.point, count=12, seed=0)
        assert len(rep.rows) == 12
        assert rep.base_transverse_margin > 0.5
        ds = [r["c1_distance"] for r in rep.rows]
        assert all(b < a for a, b in zip(ds, ds[1:]))
        assert all(r["defect"] >= 1 for r in rep.rows)
        assert rep.rows[-1]["distance_to_point"] < rep.rows[0]["distance_to_point"]

    def test_regular_scene_has_no_fault_to_exploit(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parallel-planes")
        inc = scene.prestratification.incidences[0]
        with pytest.raises(PreconditionError, match="no fault"):
            instability_demo(ctx, inc.x, inc.y, inc.point, count=5, seed=0)

    def test_single_term_demo_still_certifies(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parabola-shelf")
        inc = scene.prestratification.incidences[0]
        rep = instability_demo(ctx, inc.x, inc.y, inc.point, count=1, seed=0)
        assert len(rep.rows) == 1
        assert rep.rows[0]["defect"] >= 1


class TestNongenericity:
    @pytest.mark.parametrize("name", ["circle-into-plane", "cubic-graph", "sphere-disc"])
    def test_perturbations_never_become_transverse(self, name, gallery_ctx):
        entry, scene, _ = gallery_ctx(name)
        rep = nongenericity_demo(scene, trials=12, seed=0)
        assert rep.transverse_fraction == entry.expected_transverse_fraction == 0.0
        assert len(rep.witnesses) == 12

    def test_fold_search_survives_a_singular_seed(self):
        # h = (x1, x2^2): det Dh = 2 x2 and |h|^2 - 1 vanish together at
        # (+-1, 0); the seeds on x1 = 0, among the 8 best of the grid, have
        # a singular residual Jacobian, which must not sink the others
        h = parse_map("x1, x2^2", 2)
        w = _fold_on_circle_witness(h, [[-2.0, 2.0], [-2.0, 2.0]], [5, 5])
        assert w is not None and w["residual"] < 1e-9
        assert abs(abs(w["w"][0]) - 1.0) < 1e-9 and abs(w["w"][1]) < 1e-9

    def test_regular_scene_lacks_the_block(self, gallery_ctx):
        _, scene, _ = gallery_ctx("parallel-planes")
        with pytest.raises(PreconditionError):
            nongenericity_demo(scene, trials=2, seed=0)
