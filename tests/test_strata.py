import numpy as np
import pytest

from strathom.dsl import SmoothMap, parse_map
from strathom.gallery import gallery_entry
from strathom.grassmann import grassmann_distance, span_of
from strathom.seeds import rng_for
from strathom import strata
from strathom.strata import (
    APPROACH_TOL,
    RANK_SAMPLES,
    ApproachPlan,
    ConstantRankError,
    ImmersionError,
    Incidence,
    IncidenceError,
    LocateError,
    OverlapError,
    Prestratification,
    StratifiedMapContext,
    Stratum,
    _gauss_newton,
    _on_closure,
    _walk_to_boundary,
    approach_sequence,
    tangent_space,
    validate_constant_rank,
    validate_prestratification,
)

ORIGIN = (0.0, 0.0, 0.0)


def plane_y0():
    """The {y = 0} plane in R^3, chart (u, v) -> (u, 0, v)."""
    return Stratum(
        name="S2",
        chart=parse_map("x1, 0, x2", 2),
        inverse_hint=parse_map("x1, x3", 3),
        sample_box=((-1.0, 1.0), (-1.0, 1.0)),
    )


def halfplane_z0():
    """{z = 0, y > 0}, chart (u, v) -> (u, v, 0) on v > 0."""
    return Stratum(
        name="S1",
        chart=parse_map("x1, x2, 0", 2, domain=("x2",)),
        inverse_hint=parse_map("x1, x2", 3),
        sample_box=((-1.0, 1.0), (0.0, 1.0)),
    )


def parabola_shelf():
    """{y = z^2, y > 0, z < 0}, chart (u, v) -> (u, v^2, v) on v < 0."""
    return Stratum(
        name="S1",
        chart=parse_map("x1, x2^2, x2", 2, domain=("-x2",)),
        inverse_hint=parse_map("x1, x3", 3),
        sample_box=((-1.0, 1.0), (-1.0, 0.0)),
    )


def parallel_planes():
    return Prestratification(
        ambient=3,
        strata=(halfplane_z0(), plane_y0()),
        incidences=(Incidence("S1", "S2", ORIGIN),),
    )


def shelf_over_plane():
    return Prestratification(
        ambient=3,
        strata=(parabola_shelf(), plane_y0()),
        incidences=(Incidence("S1", "S2", ORIGIN),),
    )


def span3(*vectors):
    return span_of(list(vectors), n=3)


class TestTangentSpace:
    def test_plane_tangent(self):
        s = plane_y0()
        t = tangent_space(s, [0.3, -0.8])
        assert grassmann_distance(t, span3([1, 0, 0], [0, 0, 1])) < 1e-10

    def test_halfplane_tangent(self):
        t = tangent_space(halfplane_z0(), [0.5, 0.5])
        assert grassmann_distance(t, span3([1, 0, 0], [0, 1, 0])) < 1e-10

    def test_parabola_shelf_tangent(self):
        t = tangent_space(parabola_shelf(), [0.0, -1.0])
        assert grassmann_distance(t, span3([1, 0, 0], [0, -2, 1])) < 1e-10

    def test_linear_reparametrization_invariance(self):
        s = halfplane_z0()
        doubled = Stratum(
            name="S1d",
            chart=parse_map("2*x1, 2*x2, 0", 2, domain=("x2",)),
            sample_box=((-0.5, 0.5), (0.0, 0.5)),
        )
        u = np.array([0.3, 0.4])
        assert (
            grassmann_distance(tangent_space(s, 2 * u), tangent_space(doubled, u)) < 1e-8
        )


def flat():
    """A 2-dimensional chart of rank 1 everywhere."""
    return Stratum(name="F", chart=parse_map("x1, x1, x1", 2))


class TestImmersion:
    def test_tangent_space_refuses_lost_rank(self):
        with pytest.raises(ImmersionError, match=r"'F' has rank 1 < 2 at \[0.3, -0.2\]"):
            tangent_space(flat(), [0.3, -0.2])

    def test_validate_refuses_lost_rank(self):
        with pytest.raises(ImmersionError, match="'F' has rank 1 < 2"):
            validate_prestratification(Prestratification(ambient=3, strata=(flat(),)))

    def test_leaf_tangents_name_the_first_bad_row(self):
        # x1, x2^3, x2^2 loses rank along x2 = 0
        cusp = Stratum(name="C", chart=parse_map("x1, x2^3, x2^2", 2))
        ctx = StratifiedMapContext.build(parse_map("x1", 3), Prestratification(3, (cusp,)))
        rows = np.array([[0.1, 0.5], [0.2, 0.0], [0.3, 0.0]])
        assert ctx.leaf_tangents("C", rows[:1]).shape == (1, 3, 1)
        with pytest.raises(ImmersionError, match=r"'C' has rank 1 < 2 at \[0.2, 0.0\]$"):
            ctx.leaf_tangents("C", rows)


class TestConstantRank:
    def test_planes_with_sum_map(self):
        f = parse_map("y + z", 3)
        cert = validate_constant_rank(f, halfplane_z0(), seed=1)
        assert cert.rank == 1
        assert cert.samples == len(cert.chart_points) == RANK_SAMPLES

    def test_constant_map_rank_zero(self):
        f = parse_map("y", 3)
        cert = validate_constant_rank(f, plane_y0(), seed=1)
        assert cert.rank == 0

    def test_coordinate_projection_full_rank(self):
        f = parse_map("x, y", 3)
        cert = validate_constant_rank(f, halfplane_z0(), seed=1)
        assert cert.rank == 2

    def test_varying_rank_reports_witnesses(self):
        line = Stratum(name="L", chart=parse_map("x1, 0", 1), sample_box=((-2.0, 2.0),))
        f = parse_map("bump(x1)", 2)  # slope vanishes for x1 <= 0, positive on (0,1)
        with pytest.raises(ConstantRankError, match="varies"):
            validate_constant_rank(f, line, seed=3)


class TestLeafTangent:
    def test_sum_map_on_halfplane(self):
        ctx = StratifiedMapContext.build(parse_map("y + z", 3), parallel_planes(), seed=2)
        leaf = ctx.leaf_tangent("S1", [0.2, 0.7])
        assert grassmann_distance(leaf, span3([1, 0, 0])) < 1e-9

    def test_constant_map_leaf_is_whole_stratum(self):
        ctx = StratifiedMapContext.build(parse_map("y", 3), shelf_over_plane(), seed=2)
        leaf = ctx.leaf_tangent("S2", [0.4, -0.2])
        assert grassmann_distance(leaf, span3([1, 0, 0], [0, 0, 1])) < 1e-9

    def test_height_map_on_shelf(self):
        ctx = StratifiedMapContext.build(parse_map("y", 3), shelf_over_plane(), seed=2)
        for v in (-0.9, -0.5, -0.05):
            leaf = ctx.leaf_tangent("S1", [0.1, v])
            assert grassmann_distance(leaf, span3([1, 0, 0])) < 1e-9

    def test_leaf_dimension_constant_on_samples(self):
        ctx = StratifiedMapContext.build(parse_map("y + z", 3), parallel_planes(), seed=2)
        rng = np.random.default_rng(0)
        for name in ("S1", "S2"):
            s = ctx.stratum(name)
            expected = s.dim - ctx.rank(name)
            for u in s.sample_chart_points(25, rng):
                assert ctx.leaf_tangent(name, u).dim == expected


class TestApproachSequence:
    def test_halfplane_arc_hits_axis(self):
        arcs = approach_sequence(parallel_planes(), "S1", ORIGIN)
        # one arc must be the straight march v_i = 0.7^i onto the x-axis
        straight = [a for a in arcs if np.allclose(a.direction, (0.0, 1.0))]
        assert straight
        arc = straight[0]
        ratios = np.linalg.norm(arc.points - np.zeros(3), axis=1)
        assert ratios[0] == pytest.approx(0.7)
        assert np.all(np.diff(ratios) < 0)
        assert ratios[-1] < 1e-7

    def test_shelf_arc_curves_onto_axis(self):
        arcs = approach_sequence(shelf_over_plane(), "S1", ORIGIN)
        down = [a for a in arcs if np.allclose(a.direction, (0.0, -1.0))]
        assert down
        pts = down[0].points
        # x_i = (0, rho^{2i}, -rho^i)
        assert pts[0] == pytest.approx([0.0, 0.49, -0.7])
        assert pts[3] == pytest.approx([0.0, 0.7**8, -(0.7**4)])

    def test_directions_leaving_domain_are_dropped(self):
        arcs = approach_sequence(shelf_over_plane(), "S1", ORIGIN)
        # no surviving arc may march v upward out of the half-space v < 0
        assert all(arc.direction[1] <= 0 for arc in arcs)
        assert any(arc.direction[1] < 0 for arc in arcs)

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            ApproachPlan(ratio=0.0)

    def test_point_off_closure_rejected(self):
        with pytest.raises(IncidenceError):
            approach_sequence(parallel_planes(), "S1", (0.0, 0.0, 5.0))


def per_direction_arcs(prestrat, name, y, plan):
    """The per-direction loop: a domain test and a chart evaluation of
    each direction's own.  Returns the kept arcs as (direction, chart
    points, points) and the failure messages, in direction order."""
    s = prestrat.stratum(name)
    y = np.asarray(y, dtype=float)
    u0 = _on_closure(prestrat, name, y)
    powers = plan.ratio ** np.arange(1, plan.terms + 1)
    arcs, failures = [], []
    for dvec in plan.directions(s.dim):
        chart_pts = u0[None, :] + powers[:, None] * dvec[None, :]
        kept = chart_pts[s.chart.in_domain(chart_pts)]
        if len(kept) < max(plan.window, 2):
            failures.append(f"direction {np.round(dvec, 6).tolist()}: leaves the domain")
            continue
        pts = s.chart(kept)
        dists = np.linalg.norm(pts - y, axis=1)
        if not (np.all(np.diff(dists) < 0.0) and dists[-1] < APPROACH_TOL):
            failures.append(
                f"direction {np.round(dvec, 6).tolist()}: does not approach y "
                f"(final distance {dists[-1]:.2e})"
            )
            continue
        arcs.append((tuple(dvec), kept, pts))
    return arcs, failures


# case -> (y, plan, number of directions dropped for leaving the domain)
SHELF_CASES = {
    "default": ((0.0, 0.0, 0.0), ApproachPlan(), 3),
    # every direction is dropped: the error lists them all, in order
    "more-directions": ((0.0, 0.0, 0.0), ApproachPlan(total_directions=13, terms=45), 5),
    "too-short": ((0.0, 0.0, 0.0), ApproachPlan(terms=10), 3),
    # the base chart point sits 1e-12 inside the domain, so the arcs
    # pointing out of it keep their last terms
    "off-center": ((0.3, 0.0, 0.0), ApproachPlan(ratio=0.6, window=3), 0),
}


class TestBatchedApproachSequence:
    """approach_sequence on parabola-shelf, whose chart domain is the
    half-plane x2 < 0, against the per-direction loop."""

    @pytest.mark.parametrize("case", sorted(SHELF_CASES))
    def test_matches_per_direction_loop(self, case):
        y, plan, leaving = SHELF_CASES[case]
        prestrat = gallery_entry("parabola-shelf").scene().prestratification
        want, failures = per_direction_arcs(prestrat, "S1", y, plan)
        assert sum("leaves the domain" in f for f in failures) == leaving
        if not want:
            with pytest.raises(IncidenceError) as err:
                approach_sequence(prestrat, "S1", y, plan)
            assert str(err.value) == (
                f"no approach arc toward {list(y)} on 'S1': " + "; ".join(failures)
            )
            return
        assert failures
        got = approach_sequence(prestrat, "S1", y, plan)
        assert [a.direction for a in got] == [w[0] for w in want]
        for arc, (_, kept, pts) in zip(got, want):
            assert np.array_equal(arc.chart_points, kept)
            assert np.array_equal(arc.points, pts)

    def test_one_domain_test_and_one_chart_call(self, monkeypatch):
        prestrat = gallery_entry("parabola-shelf").scene().prestratification
        calls = []
        for attr in ("__call__", "in_domain", "jacobian", "value_and_jacobian"):
            original = getattr(SmoothMap, attr)

            def counted(self, *args, _attr=attr, _original=original, **kwargs):
                calls.append(_attr)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SmoothMap, attr, counted)
        located = strata._on_closure

        def locate_then_count(*args):
            u0 = located(*args)
            calls.clear()  # count only the calls after the base point is found
            return u0

        monkeypatch.setattr(strata, "_on_closure", locate_then_count)
        arcs = approach_sequence(prestrat, "S1", ORIGIN, ApproachPlan(total_directions=12))
        assert len(arcs) > 1
        assert sorted(calls) == ["__call__", "in_domain"]


class TestValidatePrestratification:
    def test_parallel_planes_valid_frontier_satisfied(self):
        report = validate_prestratification(parallel_planes(), samples=30, seed=4)
        assert (report.samples, report.seed) == (30, 4)
        assert report.incidences_confirmed == 1
        status = {probe.stratum: probe.status for probe in report.frontier}
        assert status["S1"] == "satisfied"
        assert status["S2"] == "undetermined"
        assert report.frontier_status == "satisfied"

    def test_overlapping_planes_rejected(self):
        twin = Stratum(
            name="S2b",
            chart=parse_map("x1 + 0.1, 0, x2", 2),
            inverse_hint=parse_map("x1 - 0.1, x3", 3),
        )
        bad = Prestratification(ambient=3, strata=(plane_y0(), twin))
        with pytest.raises(OverlapError):
            validate_prestratification(bad, samples=30, seed=4)

    def test_uncovered_frontier_reported_violated(self):
        # lone open segment: its endpoints belong to no stratum
        segment = Stratum(
            name="A",
            chart=parse_map("x1, 0", 1, domain=("x1", "1 - x1")),
            sample_box=((0.0, 1.0),),
        )
        lonely = Prestratification(ambient=2, strata=(segment,))
        report = validate_prestratification(lonely, samples=20, seed=4)  # still a prestratification
        assert (report.samples, report.incidences_confirmed) == (20, 0)
        assert report.frontier_status == "violated"

    @pytest.mark.parametrize("samples, located", [(40, 20), (5, 5)])
    def test_overlap_test_locates_at_most_twenty_points_per_stratum(self, samples, located, monkeypatch):
        # two disjoint planes without domain predicates or incidences: the
        # overlap test is validation's only point location, and it locates
        # each plane's first 20 samples (all of them, below 20) on the other
        counts = []
        locate_many = Stratum.locate_many

        def counting(self, points, *args, **kwargs):
            counts.append(len(points))
            return locate_many(self, points, *args, **kwargs)

        monkeypatch.setattr(Stratum, "locate_many", counting)
        plane_y1 = Stratum(name="S3", chart=parse_map("x1, 1, x2", 2), inverse_hint=parse_map("x1, x3", 3))
        validate_prestratification(Prestratification(ambient=3, strata=(plane_y0(), plane_y1)), samples=samples)
        assert counts == [located, located]

    @pytest.mark.parametrize("samples", [0, -4])
    def test_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="need at least one sample"):
            validate_prestratification(parallel_planes(), samples=samples, seed=4)

    def test_misdeclared_incidence_point_rejected(self):
        P = Prestratification(
            ambient=3,
            strata=(halfplane_z0(), plane_y0()),
            incidences=(Incidence("S1", "S2", (0.0, 0.5, 0.0)),),
        )
        with pytest.raises(IncidenceError):
            validate_prestratification(P, samples=20, seed=4)


class TestLocate:
    def test_hint_free_location(self):
        s = Stratum(name="P", chart=parse_map("x1, x1^2 + x2^2, x2", 2))
        u, dist, _ = s.locate([0.3, 0.25, 0.4])
        assert dist < 1e-9
        assert u == pytest.approx([0.3, 0.4], abs=1e-7)

    def test_closure_location_on_boundary(self):
        s = parabola_shelf()
        u, dist, _ = s.locate(ORIGIN, closure=True)
        assert dist < 1e-9
        assert u == pytest.approx([0.0, 0.0], abs=1e-7)

    @pytest.mark.parametrize("point", [(-1e-9, 0.5, 0.0), (0.5, -1e-9, 0.0)])
    def test_closure_admits_either_boundary_of_a_two_predicate_domain(self, point):
        # just outside x1 > 0 or just outside x2 > 0, inside the closure
        # tolerance: whichever predicate the point misses, it is admitted
        s = Stratum(name="Q", chart=parse_map("x1, x2, 0", 2, domain=("x1", "x2")),
                    sample_box=((-1.0, 1.0), (-1.0, 1.0)))
        u, dist, _ = s.locate(point, closure=True)
        assert dist < 1e-12
        assert u.tolist() == list(point[:2])


def scalar_locate(stratum, point, closure, seed):
    """One point's multistart solve on its own: hint, box centre, then
    the 8 seeded box points, as (u, distance, unconverged)."""
    p = np.asarray(point, dtype=float)
    box = np.asarray(stratum.sample_box)
    starts = [] if stratum.inverse_hint is None else [stratum.inverse_hint(p, check_domain=False)]
    starts.append(box.mean(axis=1))
    rng = rng_for(seed, "locate", stratum.name)
    starts += [rng.uniform(box[:, 0], box[:, 1]) for _ in range(8)]

    def residual(u, _idx):
        vals, jacs = stratum.chart.value_and_jacobian(u, check_domain=False)
        return vals - p, jacs

    solved = _gauss_newton(residual, np.array(starts), box[:, 0] + 1e-12, box[:, 1] - 1e-12,
                           tol=1e-13, max_iter=80)
    dists = np.linalg.norm(stratum.chart(solved.u, check_domain=False) - p, axis=1)
    if closure:
        ok = np.all(stratum.domain_margins(solved.u, -1e-8) > -1e-8, axis=1)
    else:
        ok = np.all(stratum.domain_margins(solved.u) > 1e-9, axis=1)
    dists = np.where(ok, dists, np.inf)
    best = int(np.argmin(dists))
    return solved.u[best], dists[best], np.count_nonzero(~solved.converged)


def hint_free_shelf():
    return Stratum(name="H", chart=parse_map("x1, x2^2, x2", 2, domain=("-x2",)),
                   sample_box=((-1.0, 1.0), (-1.0, 0.0)))


def saddle_sheet():
    """Hint-free, with a box reaching past the domain x2 > 0: some starts
    end outside it and some creep along the box edge unconverged."""
    return Stratum(name="W", chart=parse_map("x1, x2, x1^2 - x2^2", 2, domain=("x2",)),
                   sample_box=((-1.0, 1.0), (-1.0, 1.0)))


class TestLocateMany:
    @pytest.mark.parametrize("make", [parabola_shelf, hint_free_shelf, halfplane_z0, saddle_sheet])
    @pytest.mark.parametrize("closure", [False, True])
    def test_rows_equal_the_scalar_solve(self, make, closure):
        s = make()
        rng = np.random.default_rng(21)
        on = s.chart(s.sample_chart_points(6, rng))
        far = np.random.default_rng(21).uniform(-1.5, 1.5, (12, 3))
        points = np.concatenate([on, on + 0.2 * rng.standard_normal(on.shape), far, [ORIGIN]])
        u, dist, unconverged = s.locate_many(points, closure=closure, seed=5)
        assert u.shape == (len(points), s.dim)
        assert dist.shape == unconverged.shape == (len(points),)
        for i, p in enumerate(points):
            ref_u, ref_dist, ref_unconverged = scalar_locate(s, p, closure, seed=5)
            assert dist[i] == ref_dist
            assert unconverged[i] == ref_unconverged
            if ref_dist < np.inf:
                assert u[i].tolist() == ref_u.tolist()

    def test_saddle_sheet_has_unconverged_and_inadmissible_rows(self):
        far = np.random.default_rng(21).uniform(-1.5, 1.5, (12, 3))
        _, dist, unconverged = saddle_sheet().locate_many(far, seed=5)
        assert np.isinf(dist).any() and np.isfinite(dist).any()
        assert 0 < unconverged.max() < 10 and unconverged.min() == 0

    def test_inadmissible_row_is_inf_and_leaves_neighbours_alone(self):
        s = halfplane_z0()
        good = np.array([[0.3, 0.5, 0.0], [-0.2, 0.1, 0.4]])
        below = [0.0, -0.5, 0.0]  # nearest chart point sits on the open edge y = 0
        u, dist, _ = s.locate_many(np.insert(good, 1, below, axis=0))
        assert dist[1] == np.inf
        alone_u, alone_dist, _ = s.locate_many(good)
        assert dist[[0, 2]].tolist() == alone_dist.tolist()
        assert u[[0, 2]].tolist() == alone_u.tolist()
        with pytest.raises(LocateError, match=r"no admissible chart point found on 'S1' near \[0.0, -0.5, 0.0\]"):
            s.locate(below)

    def test_locate_is_one_row(self):
        # the row of the start set of seed 0
        s = parabola_shelf()
        p = np.array([0.2, 0.3, -0.5])
        loc = s.locate(p, closure=True)
        u, dist, unconverged = s.locate_many(p[None], closure=True, seed=0)
        assert loc.u.tolist() == u[0].tolist()
        assert (loc.distance, loc.unconverged) == (dist[0], unconverged[0])
        assert type(loc.distance) is float and type(loc.unconverged) is int


def scalar_walk(pred, u):
    """One point's walk to the predicate boundary: doubling steps along
    the negative gradient up to 8 chart units, then 60 bisections."""
    val, jac = pred.value_and_jacobian(u)
    norm = np.linalg.norm(jac[0])
    if norm < 1e-12:
        return None
    direction = -jac[0] / norm
    lo, hi = 0.0, None
    t = min(1.0, float(val[0]) / norm + 1e-3)
    while t <= 8.0:
        if pred(u + t * direction)[0] <= 0.0:
            hi = t
            break
        lo = t
        t *= 2.0
    if hi is None:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pred(u + mid * direction)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return u + lo * direction


class TestWalkToBoundary:
    @pytest.mark.parametrize("source", ["1 - x1^2 - x2^2", "x2", "x1 + 0.5*x2^3 + 0.2", "3 - x1"])
    def test_batch_equals_the_scalar_walk(self, source):
        pred = parse_map(source, 2)
        U = np.random.default_rng(2).uniform(-0.6, 0.6, (12, 2))
        U = U[pred(U)[:, 0] > 0.0]
        want = [h for h in (scalar_walk(pred, u) for u in U) if h is not None]
        got = _walk_to_boundary(pred, U)
        assert got.shape == (len(want), 2)
        assert got.tolist() == np.array(want).reshape(-1, 2).tolist()

    def test_drops_flat_and_unreachable_points(self):
        # 1 - x^2 is flat at 0; 20 - x is not crossed within 8 chart units
        bump = parse_map("1 - x1^2", 1)
        hits = _walk_to_boundary(bump, np.array([[0.0], [0.5], [-0.25]]))
        assert hits[:, 0] == pytest.approx([1.0, -1.0], abs=1e-12)
        far = parse_map("20 - x1", 1)
        assert _walk_to_boundary(far, np.array([[0.0], [13.0]]))[:, 0] == pytest.approx([20.0])
        assert _walk_to_boundary(far, np.array([[0.0]])).shape == (0, 1)
