import copy
import json

import numpy as np
import pytest

from strathom.gallery import gallery, gallery_entry
from strathom.regularity import (
    check_af_at,
    check_afs_at,
    check_tf_at,
    check_whitney_a_at,
    random_test_surface,
)
from strathom.report import Report, replay_witness, verdict_to_json, write_csv
from strathom.scene import (
    _KEYWORDS,
    SCENE_SCHEMA,
    SceneError,
    _schema_violation,
    canonical_json,
    load_scene,
    scene_from_dict,
    scene_hash,
)
from strathom.strata import ApproachPlan

MINIMAL = {
    "ambient_dim": 2,
    "map": "x2",
    "strata": [{"name": "plane", "dim": 2, "chart": "x1, x2"}],
}

_DROP = object()


def edited(doc, path: tuple, value):
    """A deep copy of ``doc`` with ``value`` at ``path`` (the whole
    document for the empty path); ``_DROP`` deletes the key instead."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    return doc


def base_scene(name: str) -> dict:
    return MINIMAL if name == "minimal" else gallery_entry(name).scene_dict


# malformed scenes: (base scene, edit path, value, JSON pointer, message,
# whether jsonschema accepts the scene).  One per schema keyword, then
# the values jsonschema admits that crashed or misled a run: non-finite
# numbers (Python's json reads NaN, Infinity and 1e999) and integral
# floats in integer slots
MALFORMED = [
    pytest.param("minimal", (), [], "/", "[] is not of type 'object'", False, id="type"),
    pytest.param("minimal", ("map",), _DROP, "/", "'map' is a required property", False,
                 id="required"),
    pytest.param("minimal", ("colour",), "red", "/",
                 "Additional properties are not allowed ('colour' was unexpected)", False,
                 id="additionalProperties"),
    pytest.param("parallel-planes", ("plan",), {"terms": "40"}, "/plan/terms",
                 "'40' is not of type 'integer'", False, id="properties"),
    pytest.param("parallel-planes", ("strata", 0, "domain", 0), 1, "/strata/0/domain/0",
                 "1 is not of type 'string'", False, id="items"),
    pytest.param("minimal", ("strata",), [], "/strata", "[] should be non-empty", False,
                 id="minItems-1"),
    pytest.param("parallel-planes", ("strata", 1, "sample_box", 0), [0], "/strata/1/sample_box/0",
                 "[0] is too short", False, id="minItems-2"),
    pytest.param("parallel-planes", ("strata", 1, "sample_box", 0), [0, 1, 2],
                 "/strata/1/sample_box/0", "[0, 1, 2] is too long", False, id="maxItems"),
    pytest.param("minimal", ("ambient_dim",), 0, "/ambient_dim", "0 is less than the minimum of 1",
                 False, id="minimum"),
    pytest.param("parallel-planes", ("experiments", "mode"), "sideways", "/experiments/mode",
                 "'sideways' is not one of ['stability', 'instability', 'nongeneric']", False,
                 id="enum"),
    # of errors equally deep, best_match picks the last in path order
    pytest.param("minimal", ("strata",), [{"name": "a", "dim": 0, "chart": "x"}] * 2,
                 "/strata/1/dim", "0 is less than the minimum of 1", False, id="last-sibling"),
    # the non-genericity run reported every trial transverse
    pytest.param("cubic-graph", ("experiments", "eps"), float("nan"), "/experiments/eps",
                 "nan is not a finite number", True, id="nan-eps"),
    # the approach plan's own range check caught this one
    pytest.param("parallel-planes", ("plan",), {"angle_tol": float("nan")}, "/plan/angle_tol",
                 "nan is not a finite number", True, id="nan-angle-tol"),
    # validate raised OverflowError drawing samples
    pytest.param("parallel-planes", ("strata", 0, "sample_box", 0, 1), float("inf"),
                 "/strata/0/sample_box/0/1", "inf is not a finite number", True, id="inf-box"),
    # the rest raised TypeError
    pytest.param("parallel-planes", ("strata", 0, "dim"), 2.0, "/strata/0/dim",
                 "2.0 is not of type 'integer'", True, id="float-dim"),
    pytest.param("parallel-planes", ("experiments", "grid", 0), 6.0, "/experiments/grid/0",
                 "6.0 is not of type 'integer'", True, id="float-grid"),
    pytest.param("parallel-planes", ("plan",), {"terms": 40.0}, "/plan/terms",
                 "40.0 is not of type 'integer'", True, id="float-terms"),
]


@pytest.fixture(scope="module")
def jsonschema_violation():
    """The (pointer, message) that ``jsonschema.validate(doc,
    SCENE_SCHEMA)`` raises, or None: the same check of the schema,
    validator class and best_match, with the validator built once."""
    jsonschema = pytest.importorskip("jsonschema")
    cls = jsonschema.validators.validator_for(SCENE_SCHEMA)
    cls.check_schema(SCENE_SCHEMA)
    validator = cls(SCENE_SCHEMA)

    def violation(doc):
        error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
        if error is None:
            return None
        return "/" + "/".join(str(p) for p in error.absolute_path), error.message

    return violation


def _one_key_mutations(doc, path=()):
    """Every document that differs from ``doc`` at one location: the
    value replaced by one of a few of the wrong kind, deleted, or given
    an extra key.  No value is non-finite or an integral float, where
    the loader parts from jsonschema on purpose."""
    node = doc
    for key in path:
        node = node[key]
    if path:
        for wrong in (None, True, "x", -1, 0.5, [], {}, _DROP):
            yield edited(doc, path, wrong)
    if isinstance(node, dict):
        yield edited(doc, (*path, "extra"), 1)
        for key in node:
            yield from _one_key_mutations(doc, (*path, key))
    elif isinstance(node, list):
        for index in range(len(node)):
            yield from _one_key_mutations(doc, (*path, index))


class TestSceneSchema:
    def test_minimal_scene_loads(self):
        scene = scene_from_dict(MINIMAL)
        assert scene.ambient == 2
        assert scene.f.m == 1

    def test_plan_block_sets_only_the_keys_present(self):
        scene = scene_from_dict(dict(MINIMAL, plan={"directions": 3}))
        assert scene.plan == ApproachPlan(total_directions=3)
        assert scene_from_dict(MINIMAL).plan == ApproachPlan()

    @pytest.mark.parametrize(
        "scene, drop, resolved",
        [
            ("minimal", (), {"eps": None, "trials": 200, "bumps": 4, "count": 20, "radius": 1.0, "g_dim": 2}),
            ("cubic-graph", ("eps", "trials", "bumps", "domain_topology"),
             {"eps": 0.05, "trials": 50, "bumps": 3, "domain_topology": "line"}),
            ("parallel-planes", ("grid",), {"grid": [5, 5, 5], "trials": 200, "bumps": 4}),
        ],
        ids=["no-block", "nongeneric", "stability-without-grid"],
    )
    def test_experiment_block_resolves_every_default(self, scene, drop, resolved):
        data = copy.deepcopy(base_scene(scene))
        for key in drop:
            data["experiments"].pop(key, None)
        exp = scene_from_dict(data).experiments
        assert {key: exp[key] for key in resolved} == resolved

    def test_out_of_range_plan_is_a_scene_error(self):
        with pytest.raises(SceneError, match="approach plan: term count"):
            scene_from_dict(dict(MINIMAL, plan={"terms": 3}))

    def test_missing_required_field_pinpointed(self):
        bad = {"ambient_dim": 2, "strata": []}
        with pytest.raises(SceneError, match="schema violation"):
            scene_from_dict(bad)

    @pytest.mark.parametrize("scene, path, value, pointer, message, accepted_by_jsonschema",
                             MALFORMED)
    def test_malformed_scene_names_its_path(self, scene, path, value, pointer, message,
                                            accepted_by_jsonschema):
        with pytest.raises(SceneError) as info:
            scene_from_dict(edited(base_scene(scene), path, value))
        assert str(info.value) == f"scene schema violation at {pointer}: {message}"

    @pytest.mark.parametrize("scene, path, value, pointer, message, accepted_by_jsonschema",
                             MALFORMED)
    def test_malformed_table_against_jsonschema(self, jsonschema_violation, scene, path, value,
                                                pointer, message, accepted_by_jsonschema):
        doc = edited(base_scene(scene), path, value)
        assert jsonschema_violation(doc) == (None if accepted_by_jsonschema else (pointer, message))

    @pytest.mark.parametrize("name", [entry.name for entry in gallery()])
    def test_one_key_mutations_against_jsonschema(self, jsonschema_violation, name):
        doc = gallery_entry(name).scene_dict
        assert _schema_violation(doc) is None
        count = 0
        for mutant in _one_key_mutations(doc):
            assert _schema_violation(mutant) == jsonschema_violation(mutant), mutant
            count += 1
        assert count > 50

    def test_every_schema_keyword_is_interpreted(self):
        def keywords(schema):
            yield from schema
            for subschema in schema.get("properties", {}).values():
                yield from keywords(subschema)
            if "items" in schema:
                yield from keywords(schema["items"])

        assert set(keywords(SCENE_SCHEMA)) <= set(_KEYWORDS)

    def test_pointer_path_in_error(self):
        bad = dict(MINIMAL, strata=[{"name": "p", "dim": "two", "chart": "x1, x2"}])
        with pytest.raises(SceneError, match=r"/strata/0/dim"):
            scene_from_dict(bad)

    def test_dsl_error_reported_with_position(self):
        bad = dict(MINIMAL, map="x2 +")
        with pytest.raises(SceneError, match="line 1"):
            scene_from_dict(bad)

    def test_chart_dimension_mismatch(self):
        bad = dict(MINIMAL, strata=[{"name": "p", "dim": 2, "chart": "x1, x2, 0"}])
        with pytest.raises(SceneError, match="maps into"):
            scene_from_dict(bad)

    def test_unresolved_incidence_name(self):
        bad = dict(MINIMAL, incidences=[{"x": "p", "y": "q", "point": [0, 0]}])
        with pytest.raises(SceneError, match="no stratum"):
            scene_from_dict(bad)

    @pytest.mark.parametrize("box, message", [
        # Stratum's ValueError escaped scene loading
        ([[-1, 1]] * 3, "'plane': sample_box has 3 intervals, the chart has 2 coordinates"),
        # the first draw failed with "high - low < 0"
        ([[-1, 1], [1, 0]], r"'plane': sample_box interval \[1.0, 0.0\] has its low end above"),
    ])
    def test_bad_sample_box(self, box, message):
        bad = dict(MINIMAL, strata=[dict(MINIMAL["strata"][0], sample_box=box)])
        with pytest.raises(SceneError, match=message):
            scene_from_dict(bad)

    @pytest.mark.parametrize(
        "experiments, message",
        [
            ({"k_box": [[-1, 1]] * 2, "grid": [4, 4, 4]}, "grid has 3 entries, k_box has 2 intervals"),
            ({"k_box": [[-1, 1]] * 3}, "k_box has 3 intervals, but the input dimension of the ambient space is 2"),
            ({"g": "x1, x1", "g_dim": 1, "k_box": [[-1, 1]] * 2},
             "k_box has 2 intervals, but the input dimension of g is 1"),
            ({"g": "x1, x1", "k_box": [[-1, 1]]}, "the input dimension of g is 2"),
            ({"mode": "nongeneric", "g": "x1, x1", "g_dim": 1, "k_box": [[-1, 1]]}, "block has no grid"),
            # a non-genericity demo ran its trials at eps=0.0 and exited 0,
            # where --eps 0 is a usage error
            ({"eps": 0}, "experiment eps must be positive, got 0"),
            ({"eps": -0.05}, "experiment eps must be positive, got -0.05"),
        ],
    )
    def test_experiment_block_of_the_wrong_shape(self, experiments, message):
        with pytest.raises(SceneError, match=message):
            scene_from_dict(dict(MINIMAL, experiments=experiments))

    @pytest.mark.parametrize(
        "ambient, topology, g, g_dim, message",
        [
            # the slope search raised "expected points of dimension 2"
            (2, "line", "x1, x2", 2,
             r"'line' block needs g_dim 1 in a 2-dimensional ambient space, got g_dim 2 in R\^2"),
            (3, "circle", "cos(x1), sin(x1), 0*x1", 1, r"'circle' block needs g_dim 1 .* got g_dim 1 in R\^3"),
            # the fold search raised IndexError
            (2, "fold", "x1, x1", 1, r"'fold' block needs g_dim 2 .* got g_dim 1 in R\^2"),
            # the fold search read a 2x2 minor as the determinant and
            # reported every trial transverse
            (3, "fold", "x1, x2, 0*x1", 2, r"'fold' block needs g_dim 2 .* got g_dim 2 in R\^3"),
        ],
    )
    def test_nongeneric_block_that_does_not_fit_its_witness_search(self, ambient, topology, g, g_dim,
                                                                   message):
        chart = ", ".join(f"x{i + 1}" for i in range(ambient))
        experiments = {
            "mode": "nongeneric", "g": g, "g_dim": g_dim, "k_box": [[-1, 1]] * g_dim,
            "grid": [4] * g_dim, "domain_topology": topology,
        }
        scene = dict(MINIMAL, ambient_dim=ambient, strata=[{"name": "space", "dim": ambient, "chart": chart}])
        with pytest.raises(SceneError, match=message):
            scene_from_dict(dict(scene, experiments=experiments))

    @pytest.mark.parametrize(
        "scene, g, message",
        [
            # the slope search broadcast (241, 3) against (241, 2) and exited 1
            ("cubic-graph", "x1, x1^3 - x1, x1", r"experiment map g maps into R\^3, scene is in R\^2"),
            # one output broadcast silently and reported 3 "witnesses"
            ("cubic-graph", "x1^3 - x1", r"experiment map g maps into R\^1, scene is in R\^2"),
            ("cubic-graph", "x1^^3", "experiment map g does not parse"),
            # a stability block's g is the run's base map
            ("parallel-planes", "x, y", r"experiment map g maps into R\^2, scene is in R\^3"),
        ],
    )
    def test_experiment_map_that_does_not_map_into_the_scene(self, scene, g, message):
        from strathom.gallery import gallery_entry

        data = dict(gallery_entry(scene).scene_dict)
        data["experiments"] = {**data["experiments"], "g": g}
        with pytest.raises(SceneError, match=message):
            scene_from_dict(data)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(MINIMAL))
        assert load_scene(path).ambient == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scene(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SceneError, match="not valid JSON"):
            load_scene(path)

    @pytest.mark.parametrize("content, reason", [
        (b'{"name": "caf\xe9"}', "'utf-8' codec can't decode"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["latin-1", "nested-too-deep"])
    def test_unreadable_json_is_a_scene_error(self, tmp_path, content, reason):
        # UnicodeDecodeError and RecursionError escaped as tracebacks
        path = tmp_path / "scene.json"
        path.write_bytes(content)
        with pytest.raises(SceneError, match=f"scene.json is not valid JSON: {reason}"):
            load_scene(path)

    def test_directory_is_not_a_scene(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            load_scene(tmp_path)


class TestHashing:
    def test_hash_is_order_insensitive(self):
        a = {"x": 1, "y": [2, 3]}
        b = {"y": [2, 3], "x": 1}
        assert scene_hash(a) == scene_hash(b)

    def test_hash_detects_changes(self):
        assert scene_hash(MINIMAL) != scene_hash(dict(MINIMAL, map="x1"))

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


# a half-plane X tilted by 1e-7 rad over the floor plane Y, under the zero map
TILTED = {
    "ambient_dim": 3,
    "map": "0",
    "strata": [
        {"name": "X", "dim": 2, "chart": "x1, 1e-7*x2, x2", "domain": ["-x2"],
         "inverse": "x1, x3", "sample_box": [[-1.0, 1.0], [-1.0, 0.0]]},
        {"name": "Y", "dim": 2, "chart": "x1, 0, x2", "inverse": "x1, x3"},
    ],
    "incidences": [{"x": "X", "y": "Y", "point": [0.0, 0.0, 0.0]}],
}


@pytest.fixture(scope="module")
def fault_json(gallery_ctx):
    _, scene, ctx = gallery_ctx("parabola-shelf")
    v = check_af_at(ctx, "S1", "S2", (0.0, 0.0, 0.0), seed=0)
    return verdict_to_json(v), v


class TestWitnessReplay:
    def test_round_trip_through_json_text(self, fault_json):
        data, verdict = fault_json
        reloaded = json.loads(json.dumps(data))
        replayed = replay_witness(reloaded)
        assert replayed["status"] == verdict.status.value
        assert abs(replayed["angle"] - verdict.witness.angle) < 1e-9

    def test_whitney_fault_also_replays(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parallel-planes")
        v = check_whitney_a_at(ctx, "S1", "S2", (0.0, 0.0, 0.0), seed=0)
        data = json.loads(json.dumps(verdict_to_json(v)))
        replayed = replay_witness(data)
        assert replayed["status"] == "fails-with-witness"
        assert abs(replayed["angle"] - v.witness.angle) < 1e-9

    @pytest.mark.parametrize("check", [check_whitney_a_at, check_af_at], ids=["a", "af"])
    def test_fault_replays_at_the_tolerance_it_was_judged_at(self, check):
        # every tangent plane of X makes an angle of 1e-7 with T Y: a fault
        # at angle_tol 1e-8, though within the default CONTAIN_TOL of 1e-6
        ctx = scene_from_dict(TILTED).build_context(seed=0)
        v = check(ctx, "X", "Y", (0.0, 0.0, 0.0), ApproachPlan(angle_tol=1e-8))
        assert v.status.value == "fails-with-witness"
        assert v.witness.angle == pytest.approx(1e-7, rel=1e-6)
        data = json.loads(json.dumps(verdict_to_json(v)))
        assert data["witness"]["angle_tol"] == 1e-8
        assert replay_witness(data) == {"status": "fails-with-witness", "angle": v.witness.angle}
        # a report written without the key replays at CONTAIN_TOL
        del data["witness"]["angle_tol"]
        assert replay_witness(data)["status"] == "holds-on-samples"

    @pytest.mark.parametrize("condition", ["tf", "afs"])
    def test_radial_faults_do_not_replay(self, gallery_ctx, condition):
        # their witnesses hold only bad points, one per radius, and no
        # containment to re-test, whatever the points say
        _, scene, ctx = gallery_ctx("blowup")
        (inc,) = scene.prestratification.incidences
        if condition == "tf":
            surface = random_test_surface(ctx, inc.y, inc.point, seed=0)
            v = check_tf_at(ctx, inc.x, inc.y, inc.point, surface, seed=0)
        else:
            v = check_afs_at(ctx, inc.x, inc.y, inc.point, seed=0)
        assert v.status.value == "fails-with-witness"
        data = json.loads(json.dumps(verdict_to_json(v)))
        assert list(data["witness"]) == ["points"]
        data["witness"]["points"] = [[5.0, 5.0, 5.0]]
        with pytest.raises(ValueError, match=condition):
            replay_witness(data)

    def test_verdict_json_carries_evidence(self, fault_json):
        data, _ = fault_json
        assert data["status"] == "fails-with-witness"
        assert data["witness"]["angle"] == pytest.approx(np.pi / 2)
        assert len(data["arcs"]) >= 1
        assert all("residual" in a for a in data["arcs"])


def _replayable_json(report: Report) -> str:
    """Canonical serialization of a finished report without its timing."""
    payload = report.finish()
    payload.pop("timing")
    return canonical_json(payload)


class TestReportDeterminism:
    def test_same_inputs_same_bytes(self, gallery_ctx):
        _, scene, ctx = gallery_ctx("parabola-shelf")

        def run():
            report = Report(scene_name=scene.name, scene_data=scene.raw, seed=3)
            v = check_af_at(ctx, "S1", "S2", (0.0, 0.0, 0.0), seed=3)
            report.body["verdicts"] = [verdict_to_json(v)]
            return _replayable_json(report)

        assert run() == run()

    def test_timing_is_separate(self, gallery_ctx, tmp_path):
        _, scene, ctx = gallery_ctx("parabola-shelf")
        report = Report(scene_name=scene.name, scene_data=scene.raw, seed=3)
        report.body["note"] = "x"
        path = tmp_path / "r.json"
        report.write(path)
        data = json.loads(path.read_text())
        assert "timing" in data and "wall_s" in data["timing"]
        # wall time is only under "timing", outside the replayable part
        assert "timing" not in json.loads(_replayable_json(report))
        assert data["report"] == {"note": "x"}

    def test_written_file_is_indented_sorted_json(self, gallery_ctx, tmp_path):
        _, scene, ctx = gallery_ctx("parabola-shelf")
        report = Report(scene_name=scene.name, scene_data=scene.raw, seed=3)
        report.body["verdicts"] = [verdict_to_json(check_af_at(ctx, "S1", "S2", (0.0, 0.0, 0.0)))]
        path = tmp_path / "r.json"
        report.write(path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_fails_the_write(self, tmp_path, value):
        # Python's json would write NaN or Infinity, which is not JSON
        report = Report(scene_name="s", scene_data=MINIMAL, seed=3)
        report.body["margin"] = value
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.write(path)
        assert not path.exists()
        with pytest.raises(ValueError, match="not JSON compliant"):
            canonical_json({"margin": value})


class TestCsv:
    def test_rfc4180_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("i", "value", "flag"), [(0, 1.5, 1), (1, 2.25, 0)])
        raw = path.read_bytes()
        assert raw == b"i,value,flag\r\n0,1.5,1\r\n1,2.25,0\r\n"
