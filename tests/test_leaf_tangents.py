"""The batched leaf-tangent kernel, its rank check against the certificate,
and the checkers built on it."""

import dataclasses

import numpy as np
import pytest

from strathom.dsl import DomainError, parse_map
from strathom.gallery import gallery_names
from strathom.grassmann import Subspace, grassmann_distance, kernel, span_of
from strathom.regularity import check_afs_at, check_tf_at, random_test_surface
from strathom.report import verdict_to_json
from strathom.seeds import rng_for
from strathom.strata import NumericalInconsistencyError


def _leaf_strata(gallery_ctx):
    for name in gallery_names():
        _, scene, ctx = gallery_ctx(name)
        for s in scene.prestratification.strata:
            if ctx.leaf_dim(s.name) > 0:
                yield name, ctx, s


def _reference_leaf(ctx, stratum, u) -> Subspace:
    """Principal vectors of the tangent space against ker df, one point."""
    point, chart_jac = stratum.chart.value_and_jacobian(u)
    tangent = span_of(list(chart_jac.T), n=stratum.ambient)
    ker = kernel(ctx.f.jacobian(point, check_domain=False))
    _, _, vt = np.linalg.svd(ker.basis.T @ tangent.basis)
    return Subspace(tangent.basis @ vt.T[:, : ctx.leaf_dim(stratum.name)])


class TestKernel:
    def test_rows_equal_scalar_route_and_reference(self, gallery_ctx):
        checked = 0
        for name, ctx, s in _leaf_strata(gallery_ctx):
            U = s.sample_chart_points(50, rng_for(0, "leaf-kernel-test", name, s.name))
            bases = ctx.leaf_tangents(s, U)
            assert bases.shape == (50, s.ambient, ctx.leaf_dim(s.name))
            for i, u in enumerate(U):
                assert np.array_equal(bases[i], ctx.leaf_tangent(s, u).basis), (name, s.name, i)
                angle = grassmann_distance(Subspace(bases[i]), _reference_leaf(ctx, s, u))
                assert angle < 1e-12, (name, s.name, i, angle)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize(
        "scene, stratum, f, U, bad, message",
        [
            # d(f o psi) has rank 2 on the shelf, whose certificate says 1
            ("parabola-shelf", "S1", "x1 + x2, x3",
             [[0.1, -0.5], [0.3, -0.2]], 0, "above the certified rank"),
            # df has full rank: no chart direction is left for a leaf
            ("parallel-planes", "S1", "x1, x2, x3",
             [[0.1, 0.5], [0.3, 0.2]], 0, "above the certified rank"),
            # d(f o psi) drops to the certified rank on x1 = 0 and only
            # there, so the first point off that line is the one named
            ("parallel-planes", "S1", "x2 + x3, x1^3",
             [[0.0, 0.5], [0.0, 0.2], [0.4, 0.3], [0.6, 0.7]], 2, "above the certified rank"),
        ],
    )
    def test_contradicted_certificate_names_first_bad_point(
        self, gallery_ctx, scene, stratum, f, U, bad, message
    ):
        _, _, ctx = gallery_ctx(scene)
        s = ctx.stratum(stratum)
        U = np.array(U)
        bad_ctx = dataclasses.replace(ctx, f=parse_map(f, 3))
        ctx.leaf_tangents(s, U)  # consistent under the certified map
        with pytest.raises(NumericalInconsistencyError, match=message) as err:
            bad_ctx.leaf_tangents(s, U)
        assert str(U[bad].tolist()) in str(err.value)
        if bad:
            bad_ctx.leaf_tangents(s, U[:bad])  # the rows before it pass

    def test_point_outside_domain_is_named(self, gallery_ctx):
        _, _, ctx = gallery_ctx("parallel-planes")
        U = np.array([[0.1, 0.5], [0.2, -0.3], [0.3, 0.4]])  # S1 needs x2 > 0
        with pytest.raises(DomainError, match=r"\[0\.2, -0\.3\]"):
            ctx.leaf_tangents("S1", U)

    def test_empty_batch_and_zero_leaf_dimension(self, gallery_ctx):
        _, _, ctx = gallery_ctx("parallel-planes")
        assert ctx.leaf_tangents("S1", np.zeros((0, 2))).shape == (0, 3, 1)
        _, scene, blowup = gallery_ctx("blowup")
        y = blowup.stratum("Y")
        assert blowup.leaf_dim("Y") == 0
        U = y.sample_chart_points(4, rng_for(0, "leaf-kernel-test", "Y"))
        assert blowup.leaf_tangents(y, U).shape == (4, 3, 0)


# detail["radii"] rows (samples, intersections, stalled) and (samples,),
# seed 0, default radial plan; a faulted scene fails tf and afs at every
# radius, the other holds from the first.  No seed stalls: those that
# crept along the sample-box edge for all 60 steps stop there, or come
# back inside and, on blowup, reach intersection points that clipped
# steps did not
RECORDED = {
    "blowup": (
        True,
        [(103, 93, 0), (91, 91, 0), (119, 119, 0), (101, 100, 0), (118, 116, 0),
         (99, 97, 0), (111, 104, 0), (95, 81, 0), (134, 87, 0), (108, 72, 0)],
        [114, 106, 89, 116, 125, 94, 118, 107, 99, 105],
    ),
    "parallel-planes": (
        False,
        [(186, 96, 0), (200, 109, 0), (200, 120, 0), (200, 100, 0), (200, 107, 0),
         (200, 99, 0), (200, 116, 0), (200, 101, 0), (194, 109, 0), (200, 107, 0)],
        [200] * 10,
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_radial_details_match_recorded_values(gallery_ctx, name):
    faulted, tf_rows, afs_rows = RECORDED[name]
    _, scene, ctx = gallery_ctx(name)
    (inc,) = scene.prestratification.incidences
    surface = random_test_surface(ctx, inc.y, inc.point, seed=0)
    tf = check_tf_at(ctx, inc.x, inc.y, inc.point, surface, seed=0)
    afs = check_afs_at(ctx, inc.x, inc.y, inc.point, seed=0)
    radii = [0.5 * 0.5**j for j in range(10)]
    assert tf.detail["radii"] == [
        {"radius": r, "samples": k, "intersections": hits, "nontransverse": faulted,
         "stalled": stalled}
        for r, (k, hits, stalled) in zip(radii, tf_rows)
    ]
    assert afs.detail["radii"] == [
        {"radius": r, "samples": k, "rank_drop": faulted} for r, k in zip(radii, afs_rows)
    ]
    assert afs.detail["required_rank"] == 1
    for v in (tf, afs):
        out = verdict_to_json(v)
        if not faulted:
            assert (out["status"], out["detail"]["clean_radius"]) == ("holds-on-samples", 0.5)
            assert "witness" not in out
            continue
        assert (out["status"], out["detail"]["clean_radius"]) == ("fails-with-witness", None)
        # one bad point per radius, in radius order; the witness sits at the last
        assert len(v.witness.arc.points) == 10
        assert v.witness.point == tuple(v.witness.arc.points[-1])
        w = out["witness"]
        assert len(w["arc_points"]) == 10 and w["point"] == w["arc_points"][-1]
        # placeholders: no vector, angle or limit backs a radial fault
        assert (w["vector"], w["angle"], w["limit"]) == ([0.0, 0.0, 0.0], None, [])
