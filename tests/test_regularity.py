import json

import numpy as np
import pytest

from strathom import grassmann, regularity, strata
from strathom.cli import _check
from strathom.dsl import parse_map
from strathom.gallery import gallery_entry
from strathom.grassmann import Subspace, span_of
from strathom.regularity import (
    AffineSurface,
    PreconditionError,
    RadialPlan,
    Status,
    _radial_verdict,
    check_af_at,
    check_afs_at,
    check_tf_at,
    check_whitney_a_at,
    random_test_surface,
    transverse_at,
)
from strathom.report import verdict_to_json
from strathom.strata import (
    ApproachPlan,
    ImmersionError,
    Incidence,
    IncidenceError,
    NumericalInconsistencyError,
    Prestratification,
    StratifiedMapContext,
    Stratum,
    approach_sequence,
)

ORIGIN = (0.0, 0.0, 0.0)


def span3(*vectors):
    return span_of(list(vectors), n=3)


class TestTransverseAt:
    def test_full_image_always_transverse(self):
        res = transverse_at(Subspace.full(3), span3([1, 0, 0]), 3)
        assert res.transverse and res.defect == 0

    def test_coincident_lines_in_plane(self):
        res = transverse_at(span_of([[1, 0]]), span_of([[1, 0]]), 2)
        assert not res.transverse
        assert res.defect == 1

    def test_complementary_spaces(self):
        res = transverse_at(span3([0, 1, 0], [0, 0, 1]), span3([1, 0, 0]), 3)
        assert res.transverse and res.defect == 0

    def test_zero_leaf_needs_full_image(self):
        res = transverse_at(span3([1, 0, 0]), Subspace.zero(3), 3)
        assert not res.transverse and res.defect == 2


class TestFoliatedCondition:
    def test_holds_when_leaves_align(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parallel-planes")
        v = check_af_at(ctx, "S1", "S2", ORIGIN, seed=0)
        assert v.status is Status.HOLDS
        assert all(arc.converged for arc in v.arcs)
        for arc in v.arcs:
            assert arc.worst_angle < 1e-9

    def test_fault_with_right_angle_witness(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parabola-shelf")
        v = check_af_at(ctx, "S1", "S2", ORIGIN, seed=0)
        assert v.status is Status.FAILS
        w = v.witness
        assert w.angle == pytest.approx(np.pi / 2, abs=1e-9)
        assert abs(w.vector[2]) == pytest.approx(1.0, abs=1e-9)
        # limit is the first-axis line, required the full plane tangent
        assert w.limit.dim == 1 and w.required.dim == 2

    def test_point_leaves_over_circle_fault(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("blowup")
        v = check_af_at(ctx, "Y", "X", (-1.0, 0.0, 0.0), seed=0)
        assert v.status is Status.FAILS
        assert v.witness.limit.dim == 0
        assert v.witness.required.dim == 1
        assert v.witness.angle == pytest.approx(np.pi / 2)

    def test_fault_persists_across_ratios(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parabola-shelf")
        for ratio in (0.5, 0.7, 0.9):
            plan = ApproachPlan(ratio=ratio, terms=170 if ratio == 0.9 else 60)
            v = check_af_at(ctx, "S1", "S2", ORIGIN, plan, seed=0)
            assert v.status is Status.FAILS, f"fault vanished at ratio {ratio}"

    def test_vacuous_when_leaves_are_points(self, lines_in_r3_ctx):
        v = check_af_at(lines_in_r3_ctx, "X", "Y", ORIGIN, seed=0)
        assert v.status is Status.HOLDS
        assert v.required.dim == 0


class TestWhitneyCondition:
    def test_halfplane_fails_over_plane(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parallel-planes")
        v = check_whitney_a_at(ctx, "S1", "S2", ORIGIN, seed=0)
        assert v.status is Status.FAILS
        assert v.witness.angle == pytest.approx(np.pi / 2)

    def test_shelf_flattens_onto_plane(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parabola-shelf")
        v = check_whitney_a_at(ctx, "S1", "S2", ORIGIN, seed=0)
        assert v.status is Status.HOLDS

    def test_constant_map_makes_conditions_coincide(self, gallery_ctx):
        for name in ("parallel-planes-constant", "parabola-shelf-constant"):
            _, scene, ctx = gallery_ctx(name)
            va = check_whitney_a_at(ctx, "S1", "S2", ORIGIN, seed=0)
            vf = check_af_at(ctx, "S1", "S2", ORIGIN, seed=0)
            assert va.status == vf.status, name


class TestOscillatingTangents:
    def test_oscillation_admits_a_bad_convergent_subsequence(self):
        # surface whose slope oscillates like sin(log v) toward the axis:
        # tangents have no limit along radial arcs, but frozen-phase arcs
        # converge to tilted planes missing the floor tangent, so the
        # checker certifies a fault rather than giving up
        from strathom.dsl import parse_map
        from strathom.strata import Incidence, Prestratification, StratifiedMapContext, Stratum

        wiggle = Stratum(
            name="X",
            chart=parse_map("x1, x2, x2*(sin(log(x2)) - cos(log(x2)))/2", 2, domain=("x2",)),
            sample_box=((-1.0, 1.0), (0.0, 1.0)),
        )
        floor = Stratum(
            name="Y",
            chart=parse_map("x1, 0, x2", 2),
            inverse_hint=parse_map("x1, x3", 3),
        )
        prestrat = Prestratification(
            ambient=3, strata=(wiggle, floor),
            incidences=(Incidence("X", "Y", ORIGIN),),
        )
        ctx = StratifiedMapContext.build(parse_map("0", 3), prestrat, seed=0)
        v = check_whitney_a_at(ctx, "X", "Y", ORIGIN, seed=0)
        assert v.status is Status.FAILS
        # and at least one radial arc honestly reports non-convergence
        assert any(not a.converged for a in v.arcs)

    def test_all_arcs_oscillating_is_inconclusive(self, gallery_ctx):
        # aggregation order: a fault beats non-convergence, but pure
        # oscillation must come back inconclusive, never silent
        from strathom import regularity as R

        _, scene, ctx = gallery_ctx("parallel-planes")
        e1 = span3([1, 0, 0])
        e2 = span3([0, 1, 0])
        state = {"n": 0}

        def oscillating_tangent(u):
            state["n"] += 1
            return e1 if state["n"] % 2 else e2

        v = R._limit_verdict(
            ctx, "S1", "S2", ORIGIN, ApproachPlan(), "af",
            lambda U: np.stack([oscillating_tangent(u).basis for u in U]), span3([1, 0, 0]),
        )
        assert v.status is Status.INCONCLUSIVE
        assert all(not a.converged for a in v.arcs)
        assert all(a.limit is None for a in v.arcs)


def folded_half_plane_ctx():
    """A half-plane over a line whose chart (u, v) -> (u, p(v), 0),
    p(v) = ((v - 0.49)^3 + 0.49^3) / 3, loses rank where v = 0.49: on the
    second term of the arc in direction +e2, and on no term of the first
    arc (+e1).  The map is constant, so every leaf is a whole tangent
    plane."""
    x = Stratum(
        name="X",
        chart=parse_map("x1, ((x2 - 0.49)^3 + 0.49^3)/3, 0", 2, domain=("x1",)),
        inverse_hint=parse_map("x1, x2/0.2401", 3),
        sample_box=((0.0, 1.0), (-1.0, 1.0)),
    )
    y = Stratum(
        name="Y",
        chart=parse_map("0, x1, 0", 1),
        inverse_hint=parse_map("x2", 3),
        sample_box=((-1.0, 1.0),),
    )
    prestrat = Prestratification(ambient=3, strata=(x, y), incidences=(Incidence("X", "Y", ORIGIN),))
    return StratifiedMapContext.build(parse_map("0", 3), prestrat, seed=0)


class TestBatchedLimitVerdict:
    """One tangents call, one Grassmann-limit call and one containment
    kernel call per a/af verdict, with errors still in arc order."""

    def test_one_tangents_call_and_one_angles_call(self, gallery_ctx, monkeypatch):
        _, _, ctx = gallery_ctx("parabola-shelf")
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(regularity, "grassmann_limits", counted("limits", regularity.grassmann_limits))
        monkeypatch.setattr(regularity, "_angles", counted("angles", grassmann._angles))
        monkeypatch.setattr(grassmann.Subspace, "contains", counted("witness", grassmann.Subspace.contains))
        monkeypatch.setattr(regularity, "_tangent_frames", counted("frames", regularity._tangent_frames))

        class Counting(StratifiedMapContext):
            def leaf_tangents(self, stratum, U):
                if getattr(stratum, "name", stratum) == "S1":
                    calls.append("leaves")
                return super().leaf_tangents(stratum, U)

        counting = Counting(f=ctx.f, prestratification=ctx.prestratification, ranks=ctx.ranks)
        statuses = []
        for check, tangents in ((check_whitney_a_at, "frames"), (check_af_at, "leaves")):
            calls.clear()
            verdict = check(counting, "S1", "S2", ORIGIN, seed=0)
            statuses.append(verdict.status)
            assert len(verdict.arcs) > 1
            # Subspace.contains runs only for the first failing arc's witness
            witness = [] if verdict.witness is None else ["witness"]
            assert sorted(calls) == sorted(["limits", "angles", tangents] + witness)
        assert statuses == [Status.HOLDS, Status.FAILS]

    def test_leaf_failure_on_a_later_arc_names_its_first_bad_point(self, gallery_ctx):
        _, _, ctx = gallery_ctx("parabola-shelf")
        arcs = approach_sequence(ctx.prestratification, "S1", ORIGIN, ApproachPlan())
        later = arcs[2].chart_points

        class Failing(StratifiedMapContext):
            def leaf_tangents(self, stratum, U):
                U = np.asarray(U, dtype=float)
                bad = (U[:, None, :] == later[None, :, :]).all(axis=2).any(axis=1)
                if getattr(stratum, "name", stratum) == "S1" and np.any(bad):
                    raise NumericalInconsistencyError(f"leaf fails at {U[np.argmax(bad)].tolist()}")
                return super().leaf_tangents(stratum, U)

        failing = Failing(f=ctx.f, prestratification=ctx.prestratification, ranks=ctx.ranks)
        with pytest.raises(NumericalInconsistencyError) as err:
            check_af_at(failing, "S1", "S2", ORIGIN, seed=0)
        assert str(err.value) == f"leaf fails at {later[0].tolist()}"

    @pytest.mark.parametrize("check", [check_whitney_a_at, check_af_at], ids=["a", "af"])
    def test_first_immersion_error_in_arc_order(self, check):
        ctx = folded_half_plane_ctx()
        sx = ctx.stratum("X")
        arcs = approach_sequence(ctx.prestratification, "X", ORIGIN, ApproachPlan())
        ranks = [np.linalg.matrix_rank(sx.chart.jacobian(arc.chart_points)) for arc in arcs]
        first = next(k for k, r in enumerate(ranks) if np.any(r < 2))
        assert first > 0 and arcs[first].direction == (0.0, 1.0)
        point = arcs[first].chart_points[int(np.argmax(ranks[first] < 2))]
        with pytest.raises(ImmersionError) as err:
            check(ctx, "X", "Y", ORIGIN, seed=0)
        assert str(err.value) == f"chart of 'X' has rank 1 < 2 at {point.tolist()}"


class TestPairCheck:
    """check_af_at at each scene's one declared incidence."""

    def test_regular_pair(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parallel-planes")
        (inc,) = ctx.prestratification.incidences
        v = check_af_at(ctx, inc.x, inc.y, inc.point, seed=0)
        assert v.status is Status.HOLDS

    def test_faulted_pair_lists_points(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parabola-shelf")
        (inc,) = ctx.prestratification.incidences
        v = check_af_at(ctx, inc.x, inc.y, inc.point, seed=0)
        assert v.status is Status.FAILS


class TestSeedIndependence:
    """The a/af checkers read memoized locations and leaves, so their
    ``seed`` keyword does not move a verdict."""

    @pytest.mark.parametrize(
        "name, statuses",
        [
            ("parabola-shelf", {"a": Status.HOLDS, "af": Status.FAILS}),
            ("parallel-planes", {"a": Status.FAILS, "af": Status.HOLDS}),
        ],
    )
    def test_verdicts_equal_across_seeds(self, name, statuses):
        reports = []
        for seed in (0, 1, 20261017):
            # a fresh context per seed, so no location is memoized by an
            # earlier seed's run
            ctx = gallery_entry(name).scene().build_context(seed=0)
            (inc,) = ctx.prestratification.incidences
            verdicts = [check(ctx, inc.x, inc.y, inc.point, seed=seed)
                        for check in (check_whitney_a_at, check_af_at)]
            assert {v.condition: v.status for v in verdicts} == statuses
            reports.append([verdict_to_json(v) for v in verdicts])
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]


class TestTestSubmanifoldCondition:
    def test_transverse_plane_on_regular_scene(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parallel-planes")
        surf = AffineSurface(base=np.zeros(3), space=span3([0, 1, 0], [0, 0, 1]))
        v = check_tf_at(ctx, "S1", "S2", ORIGIN, surf, seed=0)
        assert v.status is Status.HOLDS
        assert v.detail["clean_radius"] == 0.5

    def test_whole_space_trivially_transverse(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parallel-planes")
        surf = AffineSurface(base=np.zeros(3), space=Subspace.full(3))
        v = check_tf_at(ctx, "S1", "S2", ORIGIN, surf, seed=0)
        assert v.status is Status.HOLDS

    def test_leaf_containing_surface_violates_hypothesis(self, gallery_ctx):
        # the level set {y+z=0} contains the base leaf, so it is not a
        # legal test submanifold for the condition
        _, scene, ctx = gallery_ctx("parallel-planes")
        surf = AffineSurface(base=np.zeros(3), space=span3([1, 0, 0], [0, 1, -1]))
        with pytest.raises(PreconditionError):
            check_tf_at(ctx, "S1", "S2", ORIGIN, surf, seed=0)

    def test_surface_above_the_ambient_dimension_rejected(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parallel-planes")
        with pytest.raises(ValueError, match="surface dimension 4 exceeds the ambient dimension 3"):
            random_test_surface(ctx, "S2", ORIGIN, seed=0, dim=4)

    def test_seeded_surfaces_on_holding_scenes(self, gallery_ctx):
        for name in ("parallel-planes", "parabola-shelf-constant"):
            _, scene, ctx = gallery_ctx(name)
            for k in range(3):
                surf = random_test_surface(ctx, "S2", ORIGIN, seed=k)
                v = check_tf_at(ctx, "S1", "S2", ORIGIN, surf, seed=k)
                assert v.status is Status.HOLDS, (name, k)

    def test_curved_chart_surface(self, gallery_ctx):
        # a parabolic sheet through the origin, transverse to the first-axis
        # leaf there; chart-backed projection instead of a closed form
        from strathom.dsl import parse_map
        from strathom.regularity import ChartSurface

        _, scene, ctx = gallery_ctx("parallel-planes")
        surf = ChartSurface(
            chart=parse_map("(x1^2 + x2^2)/4, x1, x2", 2),
            center_preimage=np.zeros(2),
            box=((-2.0, 2.0), (-2.0, 2.0)),
        )
        t0 = surf.tangent_at_center()
        assert t0.dim == 2
        pts = np.array([[0.0, 0.5, -0.5], [0.125, 0.5, -0.5]])
        q, normals, tangents = surf.project(pts)
        assert normals.shape == (2, 3, 1) and tangents.shape == (2, 3, 2)
        for p, qq, normal, tan in zip(pts, q, normals, tangents):
            # projection lands on the sheet with the residual normal to it
            assert abs(qq[0] - (qq[1] ** 2 + qq[2] ** 2) / 4) < 1e-10
            assert np.max(np.abs(tan.T @ (p - qq))) < 1e-8
            frame = np.hstack([tan, normal])
            np.testing.assert_allclose(frame.T @ frame, np.eye(3), atol=1e-15)
        v = check_tf_at(ctx, "S1", "S2", ORIGIN, surf, seed=0)
        assert v.status is Status.HOLDS


class TestEmptyRadii:
    """The radius rules of tf and afs, on detail rows made up for the test."""

    BAD = np.array([0.1, 0.2, 0.0])

    @staticmethod
    def _short_schedule(monkeypatch, count):
        # the schedule is fixed; patched short, it gives one row per made-up one
        monkeypatch.setattr(RadialPlan, "count", count)
        monkeypatch.setattr(RadialPlan, "samples", 5)

    def _verdict(self, ctx, rows, monkeypatch):
        # each radius tests its hits at BAD, every one of them bad where
        # its row is
        hits, stalled, bad = (np.array(column) for column in zip(*rows))
        self._short_schedule(monkeypatch, len(rows))

        def probe(radii, samples, which):
            assert len(radii) == len(rows)
            tested = np.repeat(np.arange(len(rows)), hits)
            columns = {"intersections": hits, "stalled": stalled}
            return np.tile(self.BAD, (len(tested), 1)), tested, np.repeat(bad, hits), columns

        return _radial_verdict(
            ctx, "tf", "S1", "S2", ORIGIN, 0, Subspace.zero(3), probe, "nontransverse"
        )

    @staticmethod
    def _row(hits, stalled, bad=False):
        return hits, stalled, bad

    def test_empty_radius_with_stalled_seeds_is_not_clean(self, gallery_ctx, monkeypatch):
        _, _, ctx = gallery_ctx("parallel-planes")
        v = self._verdict(ctx, [self._row(0, 3), self._row(4, 0), self._row(0, 0)], monkeypatch)
        assert v.status is Status.HOLDS
        assert v.detail["clean_radius"] == 0.25
        assert "vacuous" not in v.detail

    def test_clean_radius_without_intersections_holds_vacuously(self, gallery_ctx, monkeypatch):
        _, _, ctx = gallery_ctx("parallel-planes")
        v = self._verdict(ctx, [self._row(0, 3), self._row(0, 0), self._row(4, 0)], monkeypatch)
        assert v.status is Status.HOLDS
        assert v.detail["clean_radius"] == 0.25
        assert v.detail["vacuous"] is True
        assert [r.get("empty", False) for r in v.detail["radii"]] == [True, True, False]

    def test_bad_points_beside_unresolved_radii_are_inconclusive(self, gallery_ctx, monkeypatch):
        _, _, ctx = gallery_ctx("parallel-planes")
        rows = [self._row(3, 0, bad=True), self._row(0, 2), self._row(5, 1, bad=True)]
        v = self._verdict(ctx, rows, monkeypatch)
        assert v.status is Status.INCONCLUSIVE
        assert v.witness is None and v.detail["clean_radius"] is None
        v = self._verdict(ctx, [self._row(0, 2), self._row(0, 1)], monkeypatch)
        assert v.status is Status.INCONCLUSIVE
        v = self._verdict(ctx, [self._row(3, 0, bad=True), self._row(5, 1, bad=True)], monkeypatch)
        assert v.status is Status.FAILS
        assert len(v.witness.points) == 2

    def test_rows_without_the_empty_mark_keep_the_old_rule(self, gallery_ctx, monkeypatch):
        # afs rows carry no intersection count: a clean radius is clean
        _, _, ctx = gallery_ctx("parallel-planes")

        def probe(radii, samples, which):
            return np.zeros((len(samples), 3)), which, np.zeros(len(samples), dtype=bool), {}

        self._short_schedule(monkeypatch, 2)
        v = _radial_verdict(
            ctx, "afs", "S1", "S2", ORIGIN, 0,
            Subspace.zero(3), probe, "rank_drop", required_rank=1,
        )
        assert v.status is Status.HOLDS
        assert list(v.detail) == ["radii", "clean_radius", "required_rank"]

    def test_random_lines_miss_the_shelf(self, gallery_ctx):
        # a line through the point meets the shelf y = z^2 once, mostly
        # outside the balls: every radius is empty and no seed stalls
        _, _, ctx = gallery_ctx("parabola-shelf-constant")
        surf = random_test_surface(ctx, "S2", ORIGIN, seed=1)
        v = check_tf_at(ctx, "S1", "S2", ORIGIN, surf, seed=1)
        assert v.status is Status.HOLDS
        assert v.detail["vacuous"] is True
        assert all(r["empty"] and r["stalled"] == 0 for r in v.detail["radii"])


class TestPointOffTheClosure:
    def test_every_condition_raises(self, gallery_ctx):
        # (0, 0, 0.5) lies on the plane S2 but 0.5 away from the closure
        # of the half-plane S1, so no part of S1 approaches it
        _, _, ctx = gallery_ctx("parallel-planes")
        point = (0.0, 0.0, 0.5)
        surface = random_test_surface(ctx, "S2", point, seed=0)
        message = r"not on the closure of 'S1' \(distance 5\.00e-01\)"
        with pytest.raises(IncidenceError, match=message):
            check_whitney_a_at(ctx, "S1", "S2", point, seed=0)
        with pytest.raises(IncidenceError, match=message):
            check_af_at(ctx, "S1", "S2", point, seed=0)
        with pytest.raises(IncidenceError, match=message):
            check_tf_at(ctx, "S1", "S2", point, surface, seed=0)
        with pytest.raises(IncidenceError, match=message):
            check_afs_at(ctx, "S1", "S2", point, seed=0)


def fresh_ctx(name):
    """A context of its own, so no other test has filled its memos."""
    return gallery_entry(name).scene().build_context(seed=0)


class TestIncidenceLocations:
    """Each incidence point is located once per stratum, by the
    prestratification, and its Y-leaf computed once, by the context."""

    @staticmethod
    def spy(monkeypatch):
        """Record (stratum name, closure, seed) of every locate_many call
        and the chart point of every leaf_tangent call."""
        located, leaves = [], []
        locate_many = Stratum.locate_many
        leaf_tangent = StratifiedMapContext.leaf_tangent

        def counted_locate(self, points, closure=False, seed=0):
            located.append((self.name, closure, seed))
            return locate_many(self, points, closure, seed)

        def counted_leaf(self, stratum, u):
            leaves.append(np.array(u))
            return leaf_tangent(self, stratum, u)

        monkeypatch.setattr(Stratum, "locate_many", counted_locate)
        monkeypatch.setattr(StratifiedMapContext, "leaf_tangent", counted_leaf)
        return located, leaves

    def test_every_condition_shares_two_locations(self, monkeypatch):
        ctx = fresh_ctx("parallel-planes")
        located, leaves = self.spy(monkeypatch)

        def every_condition():
            check_whitney_a_at(ctx, "S1", "S2", ORIGIN, seed=1)
            check_af_at(ctx, "S1", "S2", ORIGIN, seed=2)
            for k in range(5):
                surface = random_test_surface(ctx, "S2", ORIGIN, seed=k)
                check_tf_at(ctx, "S1", "S2", ORIGIN, surface, seed=k)
            check_afs_at(ctx, "S1", "S2", ORIGIN, seed=3)

        every_condition()
        assert located == [("S2", False, 0), ("S1", True, 0)]
        assert len(leaves) == 1
        located.clear()
        leaves.clear()
        every_condition()
        assert located == [] and leaves == []

    def test_failed_locations_raise_on_every_call(self):
        ctx = fresh_ctx("parallel-planes")
        off_y = (0.0, 0.3, 0.0)  # 0.3 from the plane S2
        off_closure = (0.0, 0.0, 0.5)  # on S2, 0.5 from the closure of S1
        surface = random_test_surface(ctx, "S2", off_closure, seed=0)
        for _ in range(2):
            with pytest.raises(PreconditionError, match=r"distance 3\.00e-01"):
                check_af_at(ctx, "S1", "S2", off_y)
            with pytest.raises(PreconditionError, match=r"distance 3\.00e-01"):
                random_test_surface(ctx, "S2", off_y, seed=0)
            with pytest.raises(IncidenceError, match=r"distance 5\.00e-01"):
                check_af_at(ctx, "S1", "S2", off_closure)
            with pytest.raises(IncidenceError, match=r"distance 5\.00e-01"):
                check_tf_at(ctx, "S1", "S2", off_closure, surface)
            with pytest.raises(IncidenceError, match=r"distance 5\.00e-01"):
                approach_sequence(ctx.prestratification, "S1", off_closure)

    def test_af_does_not_depend_on_the_task_seed(self, monkeypatch):
        _, leaves = self.spy(monkeypatch)
        first, second = (
            check_af_at(fresh_ctx("parabola-shelf"), "S1", "S2", ORIGIN, seed=seed)
            for seed in (1, 20261017)
        )
        assert len(leaves) == 2 and np.array_equal(leaves[0], leaves[1])
        assert np.array_equal(first.required.basis, second.required.basis)


class TestRetractionCondition:
    def test_projection_onto_line_leaf_holds(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parallel-planes")
        v = check_afs_at(ctx, "S1", "S2", ORIGIN, seed=0)
        assert v.status is Status.HOLDS
        assert v.detail["required_rank"] == 1

    def test_rank_drop_onto_plane_leaf(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parabola-shelf")
        v = check_afs_at(ctx, "S1", "S2", ORIGIN, seed=0)
        assert v.status is Status.FAILS
        assert v.detail["required_rank"] == 2
        assert all(r["rank_drop"] for r in v.detail["radii"])

    def test_radius_without_samples_is_empty(self, gallery_ctx, monkeypatch):
        # a ball that yields no chart points has nothing to test: its row
        # is empty, and a hold whose clean radius is empty is vacuous
        _, _, ctx = gallery_ctx("parallel-planes")
        draw = regularity._samples_in_balls

        def first_ball_empty(stratum, u0, center, radii, count, rngs):
            u, which = draw(stratum, u0, center, radii, count, rngs)
            keep = np.asarray(radii)[which] != 0.5
            return u[keep], which[keep]

        monkeypatch.setattr(regularity, "_samples_in_balls", first_ball_empty)
        v = check_afs_at(ctx, "S1", "S2", ORIGIN, seed=0)
        first, *rest = v.detail["radii"]
        assert first["samples"] == 0 and first["empty"] is True
        assert all(r["samples"] > 0 and "empty" not in r for r in rest)
        assert v.status is Status.HOLDS
        assert v.detail["clean_radius"] == 0.5 and v.detail["vacuous"] is True

    def test_vacuous_for_point_leaves(self, lines_in_r3_ctx):
        v = check_afs_at(lines_in_r3_ctx, "X", "Y", ORIGIN, seed=0)
        assert v.status is Status.HOLDS
        assert v.detail["required_rank"] == 0

    def test_agreement_with_limit_checker(self, gallery_ctx):
        names = (
            "parallel-planes",
            "parabola-shelf",
            "parallel-planes-constant",
            "parabola-shelf-constant",
            "blowup",
        )
        for name in names:
            _, scene, ctx = gallery_ctx(name)
            inc = scene.prestratification.incidences[0]
            vf = check_af_at(ctx, inc.x, inc.y, inc.point, seed=0)
            vs = check_afs_at(ctx, inc.x, inc.y, inc.point, seed=0)
            assert vf.status == vs.status, name


class TestRadialPlan:
    def test_radii_are_geometric(self):
        radii = RadialPlan().radii()
        assert radii == pytest.approx(0.5 * 0.5 ** np.arange(10))
        assert RadialPlan.samples == 200

    def test_the_schedule_takes_no_arguments(self):
        # one schedule for every tf and afs verdict
        with pytest.raises(TypeError):
            RadialPlan(count=2)


REGULARITY_SCENES = (
    "parallel-planes",
    "parabola-shelf",
    "parallel-planes-constant",
    "parabola-shelf-constant",
    "blowup",
)


def checked_at_seed_1(name, conditions=("a", "af", "tf", "afs")):
    """The verdicts of ``check --condition all --seed 1`` (five tf
    surfaces), on a context of its own."""
    scene = gallery_entry(name).scene()
    return _check(scene, conditions, scene.plan or ApproachPlan(), 5, 1)


class TestRankGate:
    """The immersion checks and the tf/afs probes decide rank through
    ``grassmann._rank_at_least``: it changes no verdict, and both of its
    paths, the Gram certificate and the SVD fallback, run in the gallery."""

    @pytest.mark.parametrize("name", REGULARITY_SCENES)
    def test_verdicts_equal_the_svd_definition(self, name, monkeypatch):
        def report(verdicts):
            return json.dumps([verdict_to_json(v) for v in verdicts], sort_keys=True)

        gated = report(checked_at_seed_1(name))

        def by_svd(mats, r):
            return grassmann._ranks(np.linalg.svd(mats, compute_uv=False)) >= r

        monkeypatch.setattr(regularity, "_rank_at_least", by_svd)
        monkeypatch.setattr(strata, "_rank_at_least", by_svd)
        assert report(checked_at_seed_1(name)) == gated

    def test_tf_rows_are_certified_and_rank_deficient_afs_rows_take_the_svd(self, monkeypatch):
        gate, svd = grassmann._rank_at_least, np.linalg.svd
        open_rows, calls = [], []  # per gate call: (rows, rows the SVD took, rows read short)

        def counted_svd(a, *args, **kwargs):
            if open_rows:
                open_rows[-1] += len(a)
            return svd(a, *args, **kwargs)

        def counted_gate(mats, r):
            open_rows.append(0)
            out = gate(mats, r)
            calls.append((len(mats), open_rows.pop(), int(np.count_nonzero(~out))))
            return out

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(regularity, "_rank_at_least", counted_gate)
        tf = checked_at_seed_1("parallel-planes", ("tf",))
        assert [v.status for v in tf] == [Status.HOLDS] * 5
        assert len(calls) == 5 and all(rows > 0 for rows, _, _ in calls)
        assert [taken for _, taken, _ in calls] == [0] * 5
        calls.clear()
        (afs,) = checked_at_seed_1("parallel-planes-constant", ("afs",))
        assert afs.status is Status.FAILS
        ((rows, taken, short),) = calls
        assert 0 < short <= taken <= rows

