import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strathom.experiments as experiments
from strathom.constructions import PerturbedMap
from strathom.dsl import DomainError, parse_map
from strathom.experiments import (
    AffineMap,
    PerturbationField,
    _fold_on_circle_witnesses,
    _GridTrials,
    _slope_zero_witnesses,
    _TrialFields,
    calibrate_epsilon,
    grid_points,
    instability_demo,
    make_perturbation,
    nongenericity_demo,
    seeded_full_rank_map,
    stability_trial,
    transversality_margin,
)
from strathom.gallery import gallery_entry
from strathom.regularity import PreconditionError
from strathom.seeds import derive_seed, rng_for
from strathom.strata import CLOSURE_MARGIN, NumericalInconsistencyError

CUBE = [[-1, 1]] * 3
CIRCLE = [[-np.pi, np.pi]]
# the zero map of the plane: a base map that leaves each delta as it is
ZERO_PLANE_MAP = AffineMap(np.zeros((2, 2)), np.zeros(2))


class _MapStack:
    """Maps of the plane behind the interface of a field stack, for the
    fold search: ``len`` and ``on_batch(w, owner)``, with one call of
    each map on the rows it owns."""

    def __init__(self, maps):
        self.maps = maps

    def __len__(self):
        return len(self.maps)

    def on_batch(self, w, owner):
        if np.ndim(owner) == 0:
            return self.maps[owner].value_and_jacobian(w)
        val, jac = np.empty((len(w), 2)), np.empty((len(w), 2, 2))
        for t in np.unique(owner):
            rows = owner == t
            val[rows], jac[rows] = self.maps[t].value_and_jacobian(w[rows])
        return val, jac


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
        delta = _TrialFields(3, CUBE, 0, 4).at(0, 0.25)
        w = grid_points([[-1.0, 1.0]] * 3, [6, 6, 6])
        val, dval, disp, _ = experiments._humps(w, delta.centers, delta.radii, delta.topology)
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
        delta = _TrialFields(base.m, box, 3, 4, topology=topology).at(1, 0.2)
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

    def test_one_point_is_a_batch_of_one(self, shelf_destabilizer):
        # every numeric map evaluates a point (n,) as the batch of one
        base = seeded_full_rank_map(3, seed=4)
        delta = _TrialFields(3, CUBE, 3, 4).at(1, 0.2)
        w = rng_for(3, "one-point").uniform(-1.0, 1.0, size=(1, 3))
        maps = [base, delta, PerturbedMap(base, delta), shelf_destabilizer, shelf_destabilizer.delta,
                shelf_destabilizer.base]
        for fn in maps:
            for one, batch in zip(fn.value_and_jacobian(w[0]), fn.on_batch(w)):
                assert one.tobytes() == batch[0].tobytes()

    def test_a_stack_is_not_one_map(self):
        # a stack evaluates only under an owner and is never sized; one
        # field takes no owner
        fields = _TrialFields(3, CUBE, 0, 4)
        stack, w = fields.stack(2, 0.25), np.zeros((4, 3))
        assert len(stack) == 2
        with pytest.raises(ValueError, match="owner"):
            stack(w)
        with pytest.raises(ValueError, match="one field, not on a stack"):
            stack.sampled_c1_norm(w)
        with pytest.raises(ValueError, match="owner"):
            fields.at(0, 0.25).on_batch(w, 0)

    def test_circle_field_is_periodic(self):
        delta = _TrialFields(2, CIRCLE, 0, 3, topology="circle").at(0, 0.1)
        left = delta(np.array([-np.pi]))
        right = delta(np.array([np.pi]))
        assert np.max(np.abs(left - right)) < 1e-12

    def test_scaling_hits_the_requested_size(self):
        delta = _TrialFields(3, CUBE, 0, 4).at(0, 0.25)
        sample = rng_for(0, "c1-sample").uniform(-1, 1, size=(1000, 3))
        assert delta.sampled_c1_norm(sample) == pytest.approx(0.25, rel=1e-9)

    @pytest.mark.parametrize("topology, box", [("line", CUBE), ("circle", CIRCLE)])
    def test_no_sample_points_size_to_zero(self, topology, box):
        delta = _TrialFields(3, box, 0, 4, topology=topology).at(0, 0.25)
        assert delta.sampled_c1_norm(np.zeros((0, len(box)))) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_stacked_fields_equal_one_field_calls(self, data):
        # one stacked call gives each point the bits, sign bits included,
        # of its own field's call: owners in any order and repeated, and
        # one field that owns no point
        fields, w, owner = data.draw(_field_stacks())
        stack = PerturbationField.stack(fields, fields[0].topology)
        got = stack.on_batch(w, owner)
        for t, delta in enumerate(fields):
            rows = owner == t
            for a, b in zip(got, delta.value_and_jacobian(w[rows])):
                assert a[rows].tobytes() == b.tobytes()
            for a, b in zip(stack.on_batch(w, t), delta.value_and_jacobian(w)):
                assert a.tobytes() == b.tobytes()

    def test_a_field_that_no_sample_point_reaches_is_a_degenerate_draw(self, monkeypatch):
        # its bounds are zero on every row; it still sizes to 0 and is refused
        def far_away(*args, **kwargs):
            delta = make_perturbation(*args, **kwargs)
            delta.centers += 10.0
            return delta

        monkeypatch.setattr(experiments, "make_perturbation", far_away)
        fields = _TrialFields(3, CUBE, 0, 4)
        with pytest.raises(RuntimeError, match="degenerate perturbation draw"):
            fields.at(0, 0.25)

    def test_replayable_from_seed(self):
        a = _TrialFields(3, CUBE, 7, 4).at(3, 0.25)
        b = _TrialFields(3, CUBE, 7, 4).at(3, 0.25)
        pts = rng_for(1, "probe").uniform(-1, 1, size=(8, 3))
        assert a(pts).tobytes() == b(pts).tobytes()

    def test_stream_fields_do_not_depend_on_earlier_requests(self):
        # trial 3's field at 0.2 equals the fresh stream's, bit for bit,
        # after other trials and sizes were drawn and rescaled first
        pts = rng_for(2, "probe").uniform(-1, 1, size=(16, 3))
        fresh = _TrialFields(3, CUBE, 5, 4).at(3, 0.2)
        stream = _TrialFields(3, CUBE, 5, 4)
        for trial, eps in [(3, 7.5), (0, 0.2), (5, 1e-3), (3, 0.9), (1, 0.2)]:
            stream.at(trial, eps)
        again = stream.at(3, 0.2)
        assert again.scale == fresh.scale
        for a, b in zip(again.value_and_jacobian(pts), fresh.value_and_jacobian(pts)):
            assert a.tobytes() == b.tobytes()


@st.composite
def _field_stacks(draw):
    """(fields, w, owner): 2-5 perturbation fields of one topology (a
    line domain of dimension 1-3, or the circle), target dimension 2-3
    and 1-5 bumps, each at its own scale; 0-40 points of the box; and an
    owner field for each point, drawn in any order from every field but
    one."""
    topology = draw(st.sampled_from(["line", "circle"]))
    m = 1 if topology == "circle" else draw(st.integers(1, 3))
    box = CIRCLE if topology == "circle" else [[-1.0, 1.0]] * m
    n, bumps, count = draw(st.integers(2, 3)), draw(st.integers(1, 5)), draw(st.integers(2, 5))
    rng = rng_for(draw(st.integers(0, 2**16)), "field-stack")
    fields = []
    for _ in range(count):
        unit = make_perturbation(n, m, box, rng, bumps=bumps, topology=topology)
        scale = draw(st.sampled_from([1.0, 0.37, 2.5e-3]))
        fields.append(PerturbationField(unit.centers, unit.radii, unit.offsets, unit.linears, topology, scale))
    idle = draw(st.integers(0, count - 1))
    owner = np.array(draw(st.lists(st.sampled_from([t for t in range(count) if t != idle]), max_size=40)), dtype=int)
    lo, hi = np.asarray(box, dtype=float).T
    return fields, rng.uniform(lo, hi, size=(len(owner), m)), owner


class TestCountsOutOfRange:
    def test_negative_stability_trials(self, planes_setup):
        ctx, k_points, base = planes_setup
        with pytest.raises(ValueError, match="trials must be at least 0, got -3"):
            stability_trial(ctx, base, k_points, 0.05, trials=-3, seed=0)

    def test_calibration_without_probe_trials(self, planes_setup):
        ctx, k_points, base = planes_setup
        with pytest.raises(ValueError, match="probe_trials must be at least 1, got 0"):
            calibrate_epsilon(ctx, base, k_points, seed=0, probe_trials=0)

    def test_negative_certify_trials(self, planes_setup):
        ctx, k_points, base = planes_setup
        with pytest.raises(ValueError, match="certify_trials must be at least 0, got -4"):
            calibrate_epsilon(ctx, base, k_points, seed=0, probe_trials=5, certify_trials=-4)

    def test_negative_nongenericity_trials(self, gallery_ctx):
        _, scene, _ = gallery_ctx("circle-into-plane")
        with pytest.raises(ValueError, match="trials must be at least 0, got -1"):
            nongenericity_demo(scene, trials=-1, seed=0)


class TestStability:
    def test_full_rank_base_is_transverse(self, planes_setup):
        ctx, k_points, base = planes_setup
        margin, _ = transversality_margin(ctx, *base.value_and_jacobian(k_points), k_points, 0)
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

    def test_calibration_rejects_a_non_transverse_base(self, planes_setup, monkeypatch):
        ctx, k_points, _ = planes_setup
        from strathom.experiments import AffineMap

        flat = AffineMap(np.diag([1.0, 1.0, 0.0]), np.zeros(3))  # rank 2
        calls = []

        def margin(*args):
            calls.append(args[1])
            return transversality_margin(*args)

        monkeypatch.setattr(experiments, "transversality_margin", margin)
        with pytest.raises(PreconditionError, match="base map is not transverse on the grid"):
            calibrate_epsilon(ctx, flat, k_points, probe_trials=5, rounds=3)
        (images,) = calls  # the base map's one margin, no trial
        assert np.array_equal(images, flat(k_points))

    @pytest.mark.parametrize("eps", [None, 0.05], ids=["calibrated", "fixed"])
    def test_one_base_map_evaluation_per_run(self, planes_setup, eps):
        # the base margin and every trial map read the base map's values on
        # the grid, evaluated once per run
        ctx, k_points, base = planes_setup
        evaluations = []

        class Counted(AffineMap):
            def on_batch(self, w):
                evaluations.append(w)
                return super().on_batch(w)

        counted = stability_trial(ctx, Counted(base.matrix, base.offset), k_points, eps, trials=5, seed=0)
        assert len(evaluations) == 1 and evaluations[0] is k_points
        assert counted.to_json() == stability_trial(ctx, base, k_points, eps, trials=5, seed=0).to_json()

    def test_sweep_fraction_non_increasing(self, planes_setup):
        ctx, k_points, base = planes_setup
        reports = [
            stability_trial(ctx, base, k_points, eps, trials=16, seed=0)
            for eps in [0.9, 2.7, 8.1, 24.3]
        ]
        fractions = [r.fraction for r in reports]
        assert all(b <= a for a, b in zip(fractions, fractions[1:])), fractions
        rows = [row for r in reports for row in r.csv_rows()]
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
            (1, "0x1.ace92f6c929d4p+0"),
            (2, "0x1.24d06caf0b7a2p-1"),
            (3, "0x1.18711529738e4p+1"),
            (20261017, "0x1.4e0e3b1705e1ep+0"),
        ],
        ids=["1", "2", "3", "20261017"],
    )
    def test_calibration_draws_each_trial_field_once(self, seed, eps_hex, monkeypatch):
        # the benchmark's stability-planes calibration at its seeds; the
        # eps is pinned, under the BLAS kernels tests/conftest.py pins, so
        # that any change to it is seen
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

    @pytest.mark.parametrize("seed", [1, 20261017])
    def test_calibration_evaluates_each_probe_field_on_the_grid_once(self, seed, monkeypatch):
        # the benchmark's stability-planes calibration: each probe trial is
        # asked at many sizes, but its field meets the grid once, and its
        # kept unit sums give the bits of the trial's PerturbedMap
        entry_scene = gallery_entry("parallel-planes").scene()
        exp = entry_scene.experiments
        ctx = entry_scene.build_context(seed=derive_seed(seed, "context"))
        k_points = grid_points(exp["k_box"], exp["grid"])
        base = seeded_full_rank_map(entry_scene.ambient, seed=derive_seed(0, "base"))
        on_batch, runs, evaluations = PerturbationField.on_batch, [], Counter()

        def counting_on_batch(field, w, owner=None):
            if w is k_points and owner is None:
                evaluations[field.centers.tobytes()] += 1
            return on_batch(field, w, owner)

        class Recorded(experiments._GridTrials):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)
                self.asked = {}

            def at(self, trial, eps):
                self.asked.setdefault(trial, set()).add(eps)
                return super().at(trial, eps)

        monkeypatch.setattr(PerturbationField, "on_batch", counting_on_batch)
        monkeypatch.setattr(experiments, "_GridTrials", Recorded)
        calibrate_epsilon(ctx, base, k_points, seed=derive_seed(seed, "stability"),
                          probe_trials=10, rounds=6, certify_trials=50)
        (run,) = runs
        assert sorted(run.units) == list(range(10))  # held for the probe trials only
        for t, asked in run.asked.items():
            # one grid evaluation per probe trial; a later trial's per size
            # asked, since the certify batch may halve its size
            expected = 1 if t < 10 else len(asked)
            assert evaluations[run.fields.at(t, 1.0).centers.tobytes()] == expected, t
        for t in run.units:
            asked = sorted(run.asked[t])
            assert len(asked) > 5, t  # calibration asked for many sizes
            for eps in (asked[0], asked[-1]):
                cached = run.at(t, eps)
                fresh = PerturbedMap(base, run.fields.at(t, eps)).value_and_jacobian(k_points)
                for a, b in zip(cached, fresh):
                    assert np.array_equal(a, b), (t, eps)

    def test_margin_cross_checks_the_leaf_tangents(self, planes_setup):
        # a map that contradicts the rank certificate of S1: the leaf
        # kernel checks the rank of d(f o psi) and refuses it
        ctx, k_points, base = planes_setup
        bad_ctx = dataclasses.replace(ctx, f=parse_map("x2 + x3, x1^3", 3))
        with pytest.raises(NumericalInconsistencyError, match="above the certified rank"):
            transversality_margin(bad_ctx, *base.value_and_jacobian(k_points), k_points, 0)

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
        images = base(k_points)
        u, d, _ = s1._nearest(
            images, experiments._margin_starts(s1, images, 0), CLOSURE_MARGIN, tol=1e-12, max_iter=40
        )
        assert s1.domain_margins(u)[0, 0] == pytest.approx(-5e-9, rel=1e-6)
        assert d[0] == pytest.approx(0.02)
        margin, _ = transversality_margin(wide, *base.value_and_jacobian(k_points), k_points, 0)
        assert margin == pytest.approx(0.4023252006707616, rel=1e-12)
        with pytest.raises(DomainError, match=r"\[0\.3, -1e-06\]"):
            wide.leaf_tangents(s1, np.array([[0.3, -5e-9], [0.3, -1e-6]]))

    def test_calibration_stops_at_the_first_failed_trial(self, planes_setup, monkeypatch):
        ctx, k_points, base = planes_setup
        calls, base_images = [], base(k_points)

        def margin(ctx, images, jacs, k_points, seed):  # the base map passes, every trial fails
            calls.append(images)
            return (1.0 if np.array_equal(images, base_images) else 0.0), None

        monkeypatch.setattr(experiments, "transversality_margin", margin)
        with pytest.raises(PreconditionError, match="no positive perturbation size"):
            calibrate_epsilon(ctx, base, k_points, probe_trials=10, rounds=3)
        assert len(calls) == 1 + 1 + 3  # the base map, then one trial per probe batch

    @pytest.mark.parametrize("trials", [0, 3, 50])
    def test_calibrated_run_reports_the_certifying_batch(self, planes_setup, trials):
        # eps None calibrates as the CLI did before running its trials at
        # the calibrated eps; the report is that run's, bit for bit
        ctx, k_points, base = planes_setup
        eps = calibrate_epsilon(ctx, base, k_points, seed=1, probe_trials=10, rounds=6, bumps=3,
                                certify_trials=trials)
        separate = stability_trial(ctx, base, k_points, eps, trials, seed=1, bumps=3).to_json()
        calibrated = stability_trial(ctx, base, k_points, None, trials, seed=1, bumps=3).to_json()
        for report in (separate, calibrated):
            report["min_margins"] = [m.hex() for m in report["min_margins"]]
            report["eps"] = report["eps"].hex()
        assert calibrated == separate

    def test_calibration_needs_a_grid_image_near_a_stratum(self, planes_setup):
        ctx, k_points, _ = planes_setup
        far = AffineMap(np.eye(3), np.array([0.0, 0.0, 100.0]))
        assert transversality_margin(ctx, *far.value_and_jacobian(k_points), k_points, 0)[0] == np.inf
        with pytest.raises(PreconditionError, match="no grid image comes within 0.1 of a stratum"):
            stability_trial(ctx, far, k_points, None, trials=5, seed=0)
        assert stability_trial(ctx, far, k_points, 0.5, trials=5, seed=0).fraction == 1.0

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

    def test_fold_trials_whose_solves_all_fail_are_unresolved(self, gallery_ctx):
        # at eps 1e200 every fold residual overflows, so no solve
        # converges: such a trial shows no witness but was not made
        # transverse, where it was counted transverse (fraction 1.0)
        _, scene, _ = gallery_ctx("sphere-disc")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = nongenericity_demo(scene, eps=1e200, trials=3, seed=1)
        assert rep.witnesses == ()
        assert rep.transverse_fraction == 0.0
        assert rep.unresolved == (0, 1, 2)
        assert rep.to_json()["unresolved"] == [0, 1, 2]
        assert [transverse for _, _, transverse in rep.csv_rows()] == [0, 0, 0]
        assert "unresolved" not in nongenericity_demo(scene, trials=3, seed=1).to_json()

    def test_one_draw_per_trial(self, gallery_ctx, monkeypatch):
        _, scene, _ = gallery_ctx("circle-into-plane")
        draws = []
        draw = experiments.make_perturbation

        def counting_draw(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(experiments, "make_perturbation", counting_draw)
        assert len(nongenericity_demo(scene, trials=5, seed=0).witnesses) == 5
        assert len(draws) == 5

    @pytest.mark.parametrize("name", ["circle-into-plane", "cubic-graph", "sphere-disc"])
    def test_trials_are_independent(self, name, gallery_ctx):
        # the batched run gives each trial the witness it gets in a
        # shorter run: a trial's result does not depend on the others
        _, scene, _ = gallery_ctx(name)
        full = nongenericity_demo(scene, trials=50, seed=1).witnesses
        for k in (1, 7):
            rep = nongenericity_demo(scene, trials=k, seed=1)
            assert list(rep.witnesses) == [w for w in full if w["trial"] < k]

    @pytest.mark.parametrize("name", ["circle-into-plane", "cubic-graph", "sphere-disc"])
    def test_zero_trials(self, name, gallery_ctx):
        _, scene, _ = gallery_ctx(name)
        rep = nongenericity_demo(scene, trials=0, seed=1)
        assert rep.transverse_fraction is None and rep.witnesses == ()

    @pytest.mark.parametrize("name", ["circle-into-plane", "sphere-disc"])
    def test_grid_trials_sum_as_perturbed_map(self, name, gallery_ctx):
        # a slope grid (the circle's) and a fold grid: every trial map, from
        # a fresh evaluation and from kept sums, at sizes asked in any order
        _, scene, _ = gallery_ctx(name)
        exp = scene.experiments
        g = exp["g"]  # parsed at load
        topology = "circle" if exp["domain_topology"] == "circle" else "line"
        fields = _TrialFields(2, exp["k_box"], 1, 3, topology=topology)
        w = grid_points(exp["k_box"], exp["grid"] if topology == "circle" else [7, 5])
        on_grid = _GridTrials(g, fields, w, keep=2)
        for t in range(3):
            for eps in (0.02, 0.3, 0.02):
                want = PerturbedMap(g, fields.at(t, eps)).value_and_jacobian(w)
                assert all(np.array_equal(a, b) for a, b in zip(on_grid.at(t, eps), want)), (t, eps)
        assert sorted(on_grid.units) == [0, 1]

    @pytest.mark.parametrize("wrap", [False, True])
    def test_slope_witness_equals_the_scan(self, wrap):
        # the first zero or sign change, as the reference loop finds it,
        # over slope rows with zeros, NaNs and no sign change at all, also
        # at slopes whose products overflow (1e200) or underflow (1e-200)
        ts = np.linspace(-1.0, 2.0, 9)
        slope = np.empty(9)

        def scan():
            values = slope if not wrap else np.append(slope, slope[0])
            for i in range(len(values) - 1):
                a, b = values[i], values[i + 1]
                if a == 0.0 or (a < 0.0 < b) or (b < 0.0 < a):
                    return {"t": float(ts[i]), "slope": float(a)}
            return None

        rng = rng_for(0, "slope-scan")
        found = 0
        for _ in range(300):
            drawn = rng.choice([-1.5, 0.0, 0.5, 2.0, np.nan], p=[0.1, 0.05, 0.4, 0.4, 0.05], size=9)
            for magnitude in (1.0, 1e200, 1e-200):
                slope[:] = magnitude * drawn
                expected = scan()
                found += expected is not None
                with np.errstate(over="raise", under="raise"):
                    assert _slope_zero_witnesses(ts, slope[None], wrap) == [expected]
        assert 0 < found < 900

    def test_fold_search_survives_a_singular_seed(self):
        # h = (x1, x2^2): det Dh = 2 x2 and |h|^2 - 1 vanish together at
        # (+-1, 0); the seeds on x1 = 0, among the 8 best of the grid, have
        # a singular residual Jacobian, which must not sink the others
        h = parse_map("x1, x2^2", 2)
        [w], unresolved = _fold_on_circle_witnesses(ZERO_PLANE_MAP, _MapStack([h]), [[-2.0, 2.0], [-2.0, 2.0]], [5, 5])
        assert unresolved == []
        assert w is not None and w["residual"] < 1e-9
        assert abs(abs(w["w"][0]) - 1.0) < 1e-9 and abs(w["w"][1]) < 1e-9

    def test_stacked_fold_search_equals_one_map_searches(self):
        # the singular-seed map, a sphere projection whose fold crosses
        # the circle at regular residual Jacobians, and a map without a
        # fold, stacked: every map gets its one-map result
        maps = [
            parse_map("x1, x2^2", 2),
            parse_map("0.6*cos(x1)*cos(x2) + 0.6, 0.6*sin(x1)*cos(x2)", 2),
            parse_map("x1 + 3, x2", 2),
        ]
        box, grid = [[-2.0, 2.0], [-2.0, 2.0]], [5, 5]
        alone = [_fold_on_circle_witnesses(ZERO_PLANE_MAP, _MapStack([h]), box, grid) for h in maps]
        assert [unresolved for _, unresolved in alone] == [[], [], []]
        witnesses = [found[0] for found, _ in alone]
        assert witnesses[0] is not None and witnesses[1] is not None and witnesses[2] is None
        stacked = _MapStack(maps + maps[:1])
        assert _fold_on_circle_witnesses(ZERO_PLANE_MAP, stacked, box, grid) == (witnesses + witnesses[:1], [])
        assert _fold_on_circle_witnesses(ZERO_PLANE_MAP, _MapStack([]), box, grid) == ([], [])

    def test_one_field_call_per_fold_search_step(self, gallery_ctx, monkeypatch):
        # each trial's field scores the grid once; then every step of the
        # stacked Gauss-Newton solve, and the final residuals, evaluate
        # all trials' rows in one call, not one call per trial
        _, scene, _ = gallery_ctx("sphere-disc")
        owners, steps = [], []
        evaluate, solve = PerturbationField.on_batch, experiments._gauss_newton

        def counting_evaluate(self, w, owner):
            owners.append(owner)
            return evaluate(self, w, owner)

        def counting_solve(residual, *args, **kwargs):
            def counted(u, idx):
                steps.append(len(idx))
                return residual(u, idx)

            return solve(counted, *args, **kwargs)

        monkeypatch.setattr(PerturbationField, "on_batch", counting_evaluate)
        monkeypatch.setattr(experiments, "_gauss_newton", counting_solve)
        assert len(nongenericity_demo(scene, trials=50, seed=1).witnesses) == 50
        assert [t for t in owners if np.ndim(t) == 0] == list(range(50))
        stacked = [t for t in owners if np.ndim(t) == 1]
        assert len(stacked) == len(steps) + 1 < 50
        assert steps[0] == 50 * 8 and len(stacked[0]) == 5 * 50 * 8

    def test_regular_scene_lacks_the_block(self, gallery_ctx):
        _, scene, _ = gallery_ctx("parallel-planes")
        with pytest.raises(PreconditionError):
            nongenericity_demo(scene, trials=2, seed=0)
