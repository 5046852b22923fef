import numpy as np
import pytest

from strathom.dsl import parse_map
from strathom.grassmann import grassmann_distance, span_of
from strathom.strata import (
    ApproachPlan,
    ConstantRankError,
    ImmersionError,
    Incidence,
    IncidenceError,
    OverlapError,
    Prestratification,
    StratifiedMapContext,
    Stratum,
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
        cert = validate_constant_rank(f, halfplane_z0(), samples=50, seed=1)
        assert cert.rank == 1

    def test_constant_map_rank_zero(self):
        f = parse_map("y", 3)
        cert = validate_constant_rank(f, plane_y0(), samples=50, seed=1)
        assert cert.rank == 0

    def test_coordinate_projection_full_rank(self):
        f = parse_map("x, y", 3)
        cert = validate_constant_rank(f, halfplane_z0(), samples=50, seed=1)
        assert cert.rank == 2

    def test_varying_rank_reports_witnesses(self):
        line = Stratum(name="L", chart=parse_map("x1, 0", 1), sample_box=((-2.0, 2.0),))
        f = parse_map("bump(x1)", 2)  # slope vanishes for x1 <= 0, positive on (0,1)
        with pytest.raises(ConstantRankError, match="varies"):
            validate_constant_rank(f, line, samples=60, seed=3)


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
            expected = ctx.leaf_dim(name)
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


class TestValidatePrestratification:
    def test_parallel_planes_valid_frontier_satisfied(self):
        report = validate_prestratification(parallel_planes(), samples=30, seed=4)
        assert report.valid
        assert report.incidences_confirmed == 1
        assert report.frontier_for("S1") == "satisfied"
        assert report.frontier_for("S2") == "undetermined"
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
        report = validate_prestratification(lonely, samples=20, seed=4)
        assert report.valid  # still a prestratification
        assert report.frontier_status == "violated"

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
