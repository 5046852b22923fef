import numpy as np
import pytest

from strathom.gallery import blowup_scene, gallery, gallery_entry, gallery_names
from strathom.grassmann import grassmann_distance, span_of
from strathom.regularity import check_af_at, check_whitney_a_at
from strathom.scene import scene_from_dict
from strathom.strata import validate_prestratification


class TestCatalog:
    def test_at_least_six_entries(self):
        assert len(gallery()) >= 6

    def test_names_are_unique(self):
        names = gallery_names()
        assert len(set(names)) == len(names)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            gallery_entry("nosuch")

    def test_every_entry_describes_itself(self):
        for e in gallery():
            assert e.description
            assert e.expected_verdicts or e.expected_transverse_fraction is not None

    def test_scene_dicts_are_loadable(self):
        for e in gallery():
            scene = scene_from_dict(e.scene_dict)
            assert scene.ambient == e.scene_dict["ambient_dim"]

    def test_every_expression_survives_print_reparse(self):
        from strathom.dsl import SmoothMap, parse_expr, parse_map

        def predicate(src, n):
            # a domain predicate may use abs, min and max, which maps may not
            return SmoothMap(n=n, components=(parse_expr(src, n),))

        def sources(d):
            yield parse_map, d["map"], d["ambient_dim"]
            for s in d["strata"]:
                yield parse_map, s["chart"], s["dim"]
                for pred in s.get("domain", ()):
                    yield predicate, pred, s["dim"]
                if "inverse" in s:
                    yield parse_map, s["inverse"], d["ambient_dim"]
            if "witness" in d:
                yield parse_map, d["witness"]["arc"], 1
            exp = d.get("experiments", {})
            if "g" in exp:
                yield parse_map, exp["g"], exp["g_dim"]

        for e in gallery():
            for parse, src, n in sources(e.scene_dict):
                m1 = parse(src, n)
                m2 = parse(m1.to_source(), n)
                assert m1.components == m2.components, src


class TestGoldenVerdicts:
    NAMES = [
        "parallel-planes",
        "parabola-shelf",
        "parallel-planes-constant",
        "parabola-shelf-constant",
        "blowup",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_checker_output_matches_expectation(self, name, gallery_ctx):
        entry, scene, ctx = gallery_ctx(name)
        for (cond, x, y), expected in entry.expected_verdicts.items():
            inc = next(
                i for i in scene.prestratification.incidences if i.x == x and i.y == y
            )
            if cond == "a":
                v = check_whitney_a_at(ctx, x, y, inc.point, seed=0)
            else:
                v = check_af_at(ctx, x, y, inc.point, seed=0)
            assert v.status.value == expected, (name, cond)


class TestEmittedScenesRevalidate:
    @pytest.mark.parametrize("name", TestGoldenVerdicts.NAMES)
    def test_revalidates(self, name):
        scene = scene_from_dict(gallery_entry(name).scene_dict)
        report = validate_prestratification(scene.prestratification, samples=25, seed=3)
        assert report.incidences_confirmed == len(scene.prestratification.incidences)
        assert [probe.stratum for probe in report.frontier] == [s.name for s in scene.prestratification.strata]

    def test_parallel_planes_frontier_satisfied(self):
        scene = scene_from_dict(gallery_entry("parallel-planes").scene_dict)
        report = validate_prestratification(scene.prestratification, samples=25, seed=3)
        assert {probe.stratum: probe.status for probe in report.frontier}["S1"] == "satisfied"


class TestBlowupInternals:
    def test_leaves_of_the_band_are_points(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("blowup")
        assert ctx.stratum("Y").dim - ctx.rank("Y") == 0
        rng = np.random.default_rng(2)
        for u in ctx.stratum("Y").sample_chart_points(10, rng):
            assert ctx.leaf_tangent("Y", u).dim == 0

    def test_circle_is_its_own_leaf(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("blowup")
        assert ctx.stratum("X").dim - ctx.rank("X") == 1
        u = np.array([np.pi / 2])
        leaf = ctx.leaf_tangent("X", u)
        tangent = span_of([[0.0, 1.0, 0.0]], n=3)
        assert grassmann_distance(leaf, tangent) < 1e-9

    def test_collapse_map_agrees_with_chart_formula(self, gallery_ctx):
        # on the band, the ambient map equals (s cos t, s sin t) in chart
        # coordinates
        _, scene, ctx = gallery_ctx("blowup")
        band = ctx.stratum("Y")
        rng = np.random.default_rng(4)
        u = band.sample_chart_points(25, rng)
        values = ctx.f(band.chart(u), check_domain=False)
        expected = np.stack([u[:, 1] * np.cos(u[:, 0]), u[:, 1] * np.sin(u[:, 0])], axis=1)
        assert np.max(np.abs(values - expected)) < 1e-12

    def test_fault_certified_by_checker(self, gallery_ctx):
        entry, scene, ctx = gallery_ctx("blowup")
        inc = scene.prestratification.incidences[0]
        v = check_af_at(ctx, inc.x, inc.y, inc.point, seed=0)
        assert v.status.value == "fails-with-witness"
        assert v.witness.required.dim == 1
        assert v.witness.limit.dim == 0

    def test_blowup_scene_helper_returns_the_entry(self):
        assert blowup_scene().name == "blowup"
