import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import strathom
from strathom.cli import (
    EXIT_FAULT,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_UNKNOWN_NAME,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)

from test_scene_report import MALFORMED, base_scene, edited


@pytest.fixture(scope="module")
def scene_path_factory(tmp_path_factory):
    from strathom.gallery import gallery_entry

    base = tmp_path_factory.mktemp("scenes")

    def write(name: str) -> str:
        path = base / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(gallery_entry(name).scene_dict))
        return str(path)

    return write


@pytest.fixture
def no_work(monkeypatch):
    """Fail a run that validates the scene or builds its context."""
    import strathom.cli as cli_mod
    from strathom.scene import Scene

    def run(*args, **kwargs):
        raise AssertionError("the run started before its outputs were checked")

    monkeypatch.setattr(Scene, "build_context", run)
    monkeypatch.setattr(cli_mod, "validate_prestratification", run)


class TestValidate:
    def test_valid_scene(self, scene_path_factory, capsys):
        rc = main(["validate", scene_path_factory("parallel-planes"), "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "valid on samples" in out
        assert "constant rank 1" in out

    def test_missing_file_is_usage_error(self, tmp_path):
        rc = main(["validate", str(tmp_path / "none.json")])
        assert rc == EXIT_USAGE

    def test_rank_violation_exits_2(self, tmp_path):
        scene = {
            "ambient_dim": 2,
            "map": "bump(x1)",  # slope dies on half the line: rank varies
            "strata": [
                {
                    "name": "L",
                    "dim": 1,
                    "chart": "x1, 0",
                    "sample_box": [[-2.0, 2.0]],
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scene))
        rc = main(["validate", str(path), "--seed", "1"])
        assert rc == EXIT_VIOLATION

    def test_validate_certifies_the_ranks_check_certifies(self, tmp_path, capsys):
        # the rank of bump(20 x1 - 19) on S1 is 1 only for x1 near 0.95-1, so
        # whether a rank certificate sees it rests on its sample points:
        # validate reports the certificate check builds, at every seed
        scene = {
            "ambient_dim": 3,
            "map": "bump(20*x1 - 19)",
            "strata": [{"name": "S1", "dim": 2, "chart": "x1, x2, 0", "sample_box": [[-1.0, 1.0]] * 2}],
        }
        path = tmp_path / "ridge.json"
        path.write_text(json.dumps(scene))
        exits = set()
        for seed in range(16):
            validated = main(["validate", str(path), "--seed", str(seed)])
            checked = main(["check", str(path), "--seed", str(seed), "--json", str(tmp_path / "r.json")])
            assert validated == checked, seed
            exits.add(validated)
        capsys.readouterr()
        assert exits == {EXIT_OK, EXIT_VIOLATION}  # the ridge is seen at some seeds, missed at others

    def test_validate_confirms_incidences_under_the_scene_plan(self, tmp_path, capsys):
        # 12 terms of ratio 0.7 end 0.7^12 ~ 0.014 from the point, far
        # above APPROACH_TOL: no arc of the scene's plan reaches it, so
        # validate stops where check does, with the same message
        path = _with_plan(tmp_path, "parabola-shelf", {"terms": 12})
        assert main(["validate", path, "--seed", "1"]) == EXIT_VIOLATION
        validated = capsys.readouterr().err
        assert main(["check", path, "--condition", "a", "--seed", "1"]) == EXIT_VIOLATION
        assert "no approach arc toward [0.0, 0.0, 0.0] on 'S1'" in validated
        assert capsys.readouterr().err == validated

    def test_schema_violation_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"ambient_dim": 2}))
        rc = main(["validate", str(path)])
        assert rc == EXIT_VIOLATION

    @pytest.mark.parametrize("scene, path, value, pointer, message, accepted_by_jsonschema",
                             MALFORMED)
    def test_malformed_scene_exits_2_naming_its_path(self, tmp_path, capsys, scene, path, value,
                                                      pointer, message, accepted_by_jsonschema):
        # json.dumps writes NaN and Infinity as Python's json reads them
        scene_path = tmp_path / "malformed.json"
        scene_path.write_text(json.dumps(edited(base_scene(scene), path, value)))
        for command in (["validate"], ["check"], ["experiment", "--stability"]):
            assert main([*command, str(scene_path), "--seed", "1"]) == EXIT_VIOLATION
            assert f"scene schema violation at {pointer}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", [
        (("strata", 0, "chart"), "x1, x2,",
         "chart of 'S1' does not parse: unexpected token '' (line 1, column 8)"),
        (("strata", 0, "inverse"), "x1 +",
         "inverse hint of 'S1' does not parse: unexpected token '' (line 1, column 5)"),
        (("strata", 0, "inverse"), "x1", "inverse hint of 'S1' has wrong output dimension"),
        (("strata", 1, "name"), "S1", "stratum names must be unique"),
        (("incidences", 0, "point"), [0.0, 0.0], "incidence point (0.0, 0.0) has wrong dimension"),
    ], ids=["chart-does-not-parse", "inverse-does-not-parse", "inverse-dimension",
            "duplicate-stratum-name", "incidence-point-length"])
    def test_scene_error_past_the_schema_exits_2(self, tmp_path, capsys, path, value, message):
        # schema-valid scenes that the loader rejects
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(edited(base_scene("parallel-planes"), path, value)))
        assert main(["validate", str(scene_path), "--seed", "1"]) == EXIT_VIOLATION
        assert capsys.readouterr().err == f"scene error: {message}\n"

    def test_directory_is_usage_error(self, tmp_path, capsys):
        # IsADirectoryError escaped as a traceback, exit 1
        assert main(["validate", str(tmp_path)]) == EXIT_USAGE
        assert "Is a directory" in capsys.readouterr().err

    def test_undecodable_scene_exits_2(self, tmp_path, capsys):
        # UnicodeDecodeError escaped as a traceback, exit 1
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        assert main(["validate", str(path)]) == EXIT_VIOLATION
        assert "is not valid JSON" in capsys.readouterr().err

    def test_cli_does_not_import_jsonschema(self):
        env = dict(os.environ, PYTHONPATH=str(Path(strathom.__file__).parents[1]))
        code = "import strathom.cli, sys; sys.exit('jsonschema' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCheck:
    @pytest.mark.parametrize("point, message", [
        # on the plane S2, at distance 0.5 from the half-plane S1
        ([0.0, 0.0, 0.5], "is not on the closure of 'S1'"),
        # on S1, off S2
        ([0.0, 0.5, 0.0], "does not lie on stratum 'S2'"),
    ])
    def test_bad_incidence_exits_2(self, tmp_path, capsys, point, message):
        # the IncidenceError and the PreconditionError escaped as
        # tracebacks, exit 1, where validate exits 2
        from strathom.gallery import gallery_entry

        data = copy.deepcopy(gallery_entry("parallel-planes").scene_dict)
        data["incidences"][0]["point"] = point
        path = tmp_path / "incidence.json"
        path.write_text(json.dumps(data))
        rc = main(["check", str(path), "--condition", "all", "--seed", "1",
                   "--json", str(tmp_path / "r.json")])
        assert rc == EXIT_VIOLATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
        assert main(["validate", str(path), "--seed", "1"]) == EXIT_VIOLATION

    def test_fault_scene_exits_3(self, scene_path_factory, capsys):
        rc = main(["check", scene_path_factory("parabola-shelf"), "--condition", "af", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_FAULT
        assert "FAULT" in out

    def test_regular_scene_exits_0(self, scene_path_factory):
        rc = main(["check", scene_path_factory("parallel-planes"), "--condition", "af", "--seed", "1"])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("scene, condition, line", [
        ("parabola-shelf", "a", "holds"),
        ("cubic-graph", "af", "no incidences declared; nothing to check"),
    ], ids=["parabola-shelf-a", "no-incidences"])
    def test_nothing_fails_exits_0(self, scene_path_factory, tmp_path, capsys, scene, condition, line):
        rc = main(["check", scene_path_factory(scene), "--condition", condition, "--seed", "1",
                   "--json", str(tmp_path / "r.json")])
        assert rc == EXIT_OK
        assert line in capsys.readouterr().out

    def test_all_conditions_in_one_matrix(self, scene_path_factory, capsys):
        rc = main(["check", scene_path_factory("parallel-planes"), "--condition", "all",
                   "--seed", "1", "--tf-surfaces", "2"])
        out = capsys.readouterr().out
        assert rc == EXIT_FAULT  # the plain tangent condition fails here
        lines = [l for l in out.splitlines() if l.strip()]
        conds = {l.split()[0] for l in lines[1:]}
        assert {"a", "af", "tf", "afs"} <= conds

    def test_report_written_and_deterministic(self, scene_path_factory, tmp_path):
        scene = scene_path_factory("parabola-shelf")
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["check", scene, "--seed", "7", "--json", str(out1)]) == EXIT_FAULT
        assert main(["check", scene, "--seed", "7", "--json", str(out2)]) == EXIT_FAULT
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_benchmark_check_loop_is_the_clis(self, monkeypatch):
        # the check-gallery workload times its own copy of the CLI's check
        # loop, one call per operation (perfbench/workloads.py::_check_ops);
        # at seed 1 it must give every regularity scene the CLI's verdicts
        import importlib.util

        from strathom.cli import _check
        from strathom.gallery import gallery_entry
        from strathom.report import verdict_to_json
        from strathom.seeds import derive_seed
        from strathom.strata import ApproachPlan

        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up there
        spec.loader.exec_module(workloads)
        conditions = ("a", "af", "tf", "afs")
        for name in workloads.REGULARITY_SCENES:
            scene = gallery_entry(name).scene()
            plan = scene.plan or ApproachPlan()
            ctx = scene.build_context(seed=derive_seed(1, "context"))
            bench = [op() for inc in scene.prestratification.incidences for cond in conditions
                     for op in workloads._check_ops(ctx, inc, cond, plan, 1)]
            cli = _check(scene, conditions, plan, 5, 1)  # 5: the --tf-surfaces default
            assert [verdict_to_json(v) for v in bench] == [verdict_to_json(v) for v in cli], name

    def test_plan_override_flags(self, scene_path_factory):
        rc = main(["check", scene_path_factory("parabola-shelf"), "--condition", "af",
                   "--seed", "1", "--ratio", "0.5", "--terms", "40"])
        assert rc == EXIT_FAULT

    def test_plan_flags_replace_only_the_fields_given(self):
        from argparse import Namespace

        from strathom.cli import _plan_from_args
        from strathom.gallery import gallery_entry
        from strathom.scene import scene_from_dict
        from strathom.strata import ApproachPlan

        scene = scene_from_dict(dict(gallery_entry("parallel-planes").scene_dict, plan={"terms": 40}))
        args = Namespace(ratio=None, terms=None, directions=3, window=None, angle_tol=None)
        assert _plan_from_args(scene, args) == ApproachPlan(terms=40, total_directions=3)

    @pytest.mark.parametrize("flag", [
        ["--terms", "3"], ["--ratio", "1.5"], ["--directions", "0"],
        ["--angle-tol", "0"], ["--angle-tol", "-1"], ["--angle-tol", "nan"],
        ["--angle-tol", "inf"], ["--angle-tol", "2"],
    ])
    def test_out_of_range_plan_flag_is_usage_error(self, scene_path_factory, flag, tmp_path, capsys):
        rc = main(["check", scene_path_factory("parallel-planes"), "--condition", "a",
                   "--json", str(tmp_path / "r.json"), *flag])
        assert rc == EXIT_USAGE
        assert "approach plan" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["check", "--tf-surfaces", "0"], "--tf-surfaces must be at least 1, got 0"),
        (["check", "--tf-surfaces", "-3"], "--tf-surfaces must be at least 1, got -3"),
        (["validate", "--samples", "0"], "--samples must be at least 1, got 0"),
        (["validate", "--samples", "-4"], "--samples must be at least 1, got -4"),
        (["experiment", "--instability", "--count", "0"], "--count must be at least 1, got 0"),
        (["experiment", "--stability", "--eps", "-1"], "--eps must be positive and finite, got -1.0"),
        (["experiment", "--stability", "--eps", "nan"], "--eps must be positive and finite, got nan"),
        (["experiment", "--stability", "--eps", "0.05", "--trials", "-1"],
         "--trials must be at least 0, got -1"),
        (["experiment", "--instability", "--eps", "0.5", "--trials", "3"],
         "--eps does not apply to --instability"),
        (["experiment", "--stability", "--count", "7"], "--count does not apply to --stability"),
        (["check", "--condition", "afs", "--terms", "40", "--angle-tol", "1e-3", "--tf-surfaces", "9"],
         "--terms does not apply to --condition afs"),
        (["check", "--condition", "afs", "--tf-surfaces", "9"],
         "--tf-surfaces does not apply to --condition afs"),
        (["check", "--condition", "afs", "--window", "3"], "--window does not apply to --condition afs"),
        (["check", "--condition", "tf", "--ratio", "0.5"], "--ratio does not apply to --condition tf"),
        (["check", "--condition", "tf", "--directions", "3"],
         "--directions does not apply to --condition tf"),
        (["check", "--condition", "tf", "--angle-tol", "1e-3"],
         "--angle-tol does not apply to --condition tf"),
        (["check", "--condition", "a", "--tf-surfaces", "9"],
         "--tf-surfaces does not apply to --condition a"),
        (["check", "--tf-surfaces", "9"], "--tf-surfaces does not apply to --condition af"),
    ])
    def test_out_of_range_count_flag_is_usage_error(self, scene_path_factory, args, message,
                                                     tmp_path, capsys):
        # each would otherwise run a vacuous task and exit 0: no tf
        # surfaces, no validation samples, no maps, or no perturbation;
        # or, for a flag the experiment mode or check condition does not
        # read, ignore it
        command, *flags = args
        rc = main([command, scene_path_factory("parallel-planes"), *flags,
                   "--json", str(tmp_path / "r.json")])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("condition, flags", [
        ("a", ["--ratio", "0.5", "--terms", "40", "--directions", "3", "--window", "4",
               "--angle-tol", "1e-3"]),
        ("af", ["--ratio", "0.5", "--terms", "40", "--directions", "3", "--window", "4",
                "--angle-tol", "1e-3"]),
        ("tf", ["--tf-surfaces", "2"]),
        ("afs", []),
        ("all", ["--ratio", "0.5", "--terms", "40", "--directions", "3", "--window", "4",
                 "--angle-tol", "1e-3", "--tf-surfaces", "2"]),
    ])
    def test_flags_each_condition_reads(self, condition, flags):
        from strathom.cli import _check_flags, build_parser

        _check_flags(build_parser().parse_args(["check", "s.json", "--condition", condition, *flags]))

    @pytest.mark.parametrize("args, output, reason", [
        (["check", "--condition", "a", "--json"], "", "Is a directory"),
        (["validate", "--json"], "missing/r.json", "No such file or directory"),
        (["experiment", "--stability", "--eps", "0.01", "--trials", "2", "--csv"], "",
         "Is a directory"),
    ], ids=["check-json-directory", "validate-json-missing-directory", "experiment-csv-directory"])
    def test_unwritable_output_is_usage_error(self, scene_path_factory, tmp_path, capsys,
                                              no_work, args, output, reason):
        # IsADirectoryError or FileNotFoundError escaped as a traceback,
        # exit 1, for check after every verdict was computed; the path is
        # now probed before any validation, context or trial
        command, *flags = args
        path = tmp_path / output
        rc = main([command, scene_path_factory("parallel-planes"), *flags, str(path), "--seed", "1"])
        assert rc == EXIT_USAGE
        assert f"error: cannot write {path}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["check", "--condition", "a", "--json", "{scene}"], "--json {scene} would overwrite the scene file"),
        (["check", "--json", "{tmp}/sub/../scene.json"],
         "--json {tmp}/sub/../scene.json would overwrite the scene file"),
        (["validate", "--json", "{tmp}/link.json"], "--json {tmp}/link.json would overwrite the scene file"),
        (["experiment", "--instability", "--csv", "{scene}"], "--csv {scene} would overwrite the scene file"),
        (["experiment", "--instability", "--json", "{tmp}/out", "--csv", "{tmp}/out"],
         "--csv {tmp}/out would overwrite the --json output"),
    ], ids=["check-json-is-scene", "check-json-spelled-otherwise", "validate-json-links-to-scene",
            "experiment-csv-is-scene", "experiment-json-is-csv"])
    def test_output_that_overwrites_an_input_or_output_is_usage_error(self, tmp_path, capsys,
                                                                       no_work, args, message):
        # the report replaced the scene (exit 3, and the next run exited 2),
        # or the JSON replaced the CSV (exit 0); both are refused before any work
        from strathom.gallery import gallery_entry

        scene = tmp_path / "scene.json"
        text = json.dumps(gallery_entry("parabola-shelf").scene_dict)
        scene.write_text(text)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(scene)
        command, *flags = [a.format(scene=scene, tmp=tmp_path) for a in args]
        assert main([command, str(scene), *flags, "--seed", "1"]) == EXIT_USAGE
        assert f"error: {message.format(scene=scene, tmp=tmp_path)}" in capsys.readouterr().err
        assert scene.read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "scene.json", "sub"]

    @pytest.mark.parametrize("args", [
        ["validate", "--json"], ["check", "--json"], ["experiment", "--instability", "--csv"],
    ], ids=["validate", "check", "experiment"])
    def test_output_probe_leaves_no_file(self, tmp_path, capsys, args):
        # the rank of the map varies, so each run fails after the probe:
        # a new output path is not left behind, an existing file is kept
        from strathom.gallery import gallery_entry

        scene = tmp_path / "rank-varies.json"
        scene.write_text(json.dumps(dict(gallery_entry("parabola-shelf").scene_dict, map="bump(x1)")))
        command, *flags = args
        new, kept = tmp_path / "new", tmp_path / "kept"
        kept.write_text("kept")
        for path in (new, kept):
            assert main([command, str(scene), *flags, str(path), "--seed", "1"]) == EXIT_VIOLATION
            assert "validation violation: rank of the map varies" in capsys.readouterr().err
        assert not new.exists()
        assert kept.read_text() == "kept"

    def test_out_of_range_scene_plan_is_scene_error(self, tmp_path, capsys):
        from strathom.gallery import gallery_entry

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(dict(gallery_entry("parallel-planes").scene_dict, plan={"terms": 3})))
        rc = main(["validate", str(path)])
        assert rc == EXIT_VIOLATION
        assert "term count must be at least the Cauchy window" in capsys.readouterr().err

    @pytest.mark.parametrize("plan, message", [
        ({"directions": 0}, "direction count must be at least 1"),
        ({"angle_tol": 0.0}, "angle tolerance must be positive"),
        ({"angle_tol": -1.0}, "angle tolerance must be positive"),
        ({"angle_tol": 2.0}, "angle tolerance must be at most pi/2, got 2.0"),
    ])
    def test_out_of_range_scene_plan_field_is_scene_error(self, plan, message):
        # no arc at all would let every check hold vacuously, no Cauchy
        # window meets a tolerance of 0 or less, and every one meets a
        # tolerance above pi/2 (a NaN tolerance is a schema violation, in
        # test_scene_report's MALFORMED table)
        from strathom.gallery import gallery_entry
        from strathom.scene import SceneError, scene_from_dict

        with pytest.raises(SceneError, match=f"approach plan: {message}"):
            scene_from_dict(dict(gallery_entry("parallel-planes").scene_dict, plan=plan))

    def test_inconclusive_exit_code(self, scene_path_factory, monkeypatch):
        import strathom.cli as cli_mod
        from strathom.regularity import RegularityVerdict, Status

        def undecided(ctx, x, y, point, plan=None, seed=0):
            return RegularityVerdict(
                condition="af", x=x, y=y, point=tuple(point),
                status=Status.INCONCLUSIVE,
            )

        monkeypatch.setattr(cli_mod, "check_af_at", undecided)
        rc = main(["check", scene_path_factory("parallel-planes"), "--condition", "af",
                   "--seed", "1"])
        assert rc == EXIT_INCONCLUSIVE


def _with_plan(tmp_path, name: str, plan: dict) -> str:
    """The gallery scene with a plan block, written to a file."""
    from strathom.gallery import gallery_entry

    path = tmp_path / f"{name}-plan.json"
    path.write_text(json.dumps({**gallery_entry(name).scene_dict, "plan": plan}))
    return str(path)


class TestExperiment:
    def test_instability_follows_the_scene_plans_witness_arc(self, tmp_path, capsys):
        # the destabilizer's maps sit at the samples of the af witness arc
        # that check reports under the scene's plan: 0.5, 0.25, 0.125, ...
        path = _with_plan(tmp_path, "parabola-shelf", {"ratio": 0.5, "terms": 30})
        checked, run = tmp_path / "check.json", tmp_path / "instability.json"
        assert main(["check", path, "--condition", "af", "--seed", "1", "--json", str(checked)]) == EXIT_FAULT
        assert main(["experiment", path, "--instability", "--count", "3", "--seed", "1",
                     "--json", str(run)]) == EXIT_OK
        capsys.readouterr()
        (verdict,) = json.loads(checked.read_text())["report"]["verdicts"]
        arc = [float(np.linalg.norm(p)) for p in verdict["witness"]["arc_points"][:3]]
        rows = json.loads(run.read_text())["report"]["instability"]["rows"]
        assert [r["distance_to_point"] for r in rows] == arc
        assert arc == pytest.approx([0.5, 0.25, 0.125], abs=1e-11)
    def test_instability_on_fault_scene(self, scene_path_factory, tmp_path, capsys):
        csv = tmp_path / "rows.csv"
        rc = main(["experiment", scene_path_factory("parabola-shelf"), "--instability",
                   "--count", "5", "--seed", "1", "--csv", str(csv)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "instability" in out
        header = csv.read_text().splitlines()[0]
        assert header == "i,c1_distance,transverse"

    def test_more_maps_than_arc_samples_is_precondition_error(self, scene_path_factory, tmp_path, capsys):
        # the default plan's witness arc has 60 samples; one map more
        # ended in a ValueError traceback (exit 1)
        rc = main(["experiment", scene_path_factory("parabola-shelf"), "--instability",
                   "--count", "61", "--seed", "1", "--csv", str(tmp_path / "rows.csv")])
        err = capsys.readouterr().err
        assert rc == EXIT_VIOLATION
        assert "the witness arc has 60 samples, fewer than the 61 maps asked for" in err
        # the message names the failed precondition; parabola-shelf has the
        # fault check reports, so a generic "run check first" is wrong here
        assert "run `strathom check` first" not in err
        assert not (tmp_path / "rows.csv").exists()

    def test_experiment_map_into_the_wrong_space_is_scene_error(self, tmp_path, capsys):
        from strathom.gallery import gallery_entry

        scene = dict(gallery_entry("cubic-graph").scene_dict)
        scene["experiments"] = {**scene["experiments"], "g": "x1, x1^3 - x1, x1"}
        path = tmp_path / "into-r3.json"
        path.write_text(json.dumps(scene))
        rc = main(["experiment", str(path), "--stability", "--trials", "2", "--csv", str(tmp_path / "s.csv")])
        assert rc == EXIT_VIOLATION
        assert "experiment map g maps into R^3, scene is in R^2" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", [-1, 0])
    def test_non_positive_radius_is_scene_error(self, tmp_path, capsys, radius):
        # the scene loaded and rank_drop_map's ValueError escaped as a
        # traceback, exit 1
        from strathom.gallery import gallery_entry

        scene = dict(gallery_entry("parabola-shelf").scene_dict)
        scene["experiments"] = {**scene.get("experiments", {}), "radius": radius}
        path = tmp_path / "radius.json"
        path.write_text(json.dumps(scene))
        rc = main(["experiment", str(path), "--instability", "--seed", "1",
                   "--csv", str(tmp_path / "rows.csv")])
        assert rc == EXIT_VIOLATION
        assert (f"scene error: experiment radius must be positive, got {radius}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scene, edit, mode, rc, message", [
        ("blowup", {}, "--instability", EXIT_OK, "instability: 20 maps"),
        ("circle-into-plane", {}, "--stability", EXIT_OK, "fraction made transverse: 0.0"),
        ("parabola-shelf", {}, "--stability", EXIT_VIOLATION,
         "scene error: scene has no stability experiment block (k_box)"),
        ("cubic-graph", {}, "--instability", EXIT_VIOLATION,
         "precondition violation: no incidences; instability needs a fault"),
        # the context's rank certificate raises ValidationError
        ("parabola-shelf", {"map": "bump(x1)"}, "--instability", EXIT_VIOLATION,
         "validation violation: rank of the map varies on stratum 'S1'"),
    ], ids=["blowup-instability", "circle-into-plane-stability", "no-k-box", "no-incidences",
            "rank-varies"])
    def test_exit_code(self, tmp_path, capsys, scene, edit, mode, rc, message):
        from strathom.gallery import gallery_entry

        path = tmp_path / "scene.json"
        path.write_text(json.dumps(dict(gallery_entry(scene).scene_dict, **edit)))
        assert main(["experiment", str(path), mode, "--seed", "1",
                     "--csv", str(tmp_path / "rows.csv")]) == rc
        out, err = capsys.readouterr()
        assert message in (out if rc == EXIT_OK else err)

    def test_instability_on_regular_scene_is_precondition_error(self, scene_path_factory, capsys):
        rc = main(["experiment", scene_path_factory("parallel-planes"), "--instability", "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == EXIT_VIOLATION
        assert "no fault" in err

    @pytest.mark.parametrize("eps", [[], ["--eps", "0.01"]], ids=["calibrated", "explicit-eps"])
    def test_non_transverse_base_map_is_precondition_error(self, tmp_path, capsys, eps):
        from strathom.gallery import gallery_entry

        scene = dict(gallery_entry("parallel-planes").scene_dict)
        scene["experiments"] = {**scene["experiments"], "g": "x, 0*y, z", "g_dim": 3}
        path = tmp_path / "flat-base.json"
        path.write_text(json.dumps(scene))
        rc = main(["experiment", str(path), "--stability", "--trials", "5", "--seed", "1", *eps,
                   "--csv", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert rc == EXIT_VIOLATION
        assert "precondition violation: base map is not transverse on the grid" in err

    def test_stability_with_explicit_eps(self, scene_path_factory, tmp_path):
        csv = tmp_path / "s.csv"
        rc = main(["experiment", scene_path_factory("parallel-planes"), "--stability",
                   "--eps", "0.05", "--trials", "5", "--seed", "1", "--csv", str(csv)])
        assert rc == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == "trial,epsilon,transverse"
        assert len(lines) == 6
        assert all(line.endswith(",1") for line in lines[1:])

    @pytest.mark.parametrize("flag, eps", [([], 0.001), (["--eps", "0.002"], 0.002)],
                             ids=["block-eps", "flag-overrides-block"])
    def test_stability_reads_the_block_eps(self, tmp_path, capsys, flag, eps):
        # the block's eps was validated and then ignored: the run
        # calibrated and reported eps 2.17195
        from strathom.gallery import gallery_entry

        scene = dict(gallery_entry("parallel-planes").scene_dict)
        scene["experiments"] = {**scene["experiments"], "eps": 0.001}
        path = tmp_path / "block-eps.json"
        path.write_text(json.dumps(scene))
        report = tmp_path / "s.json"
        rc = main(["experiment", str(path), "--stability", "--trials", "3", "--seed", "1", *flag,
                   "--json", str(report), "--csv", str(tmp_path / "s.csv")])
        assert rc == EXIT_OK
        assert f"at eps={eps:.6g} on" in capsys.readouterr().out
        assert json.loads(report.read_text())["report"]["stability"]["eps"] == eps

    def test_experiment_map_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        # the scene's validation parsed g, and the run parsed it again
        import strathom.dsl as dsl
        from strathom.gallery import gallery_entry

        g = "x1 + 0.1*x2, x2, x3"
        scene = dict(gallery_entry("parallel-planes").scene_dict)
        scene["experiments"] = {**scene["experiments"], "g": g, "g_dim": 3}
        path = tmp_path / "with-g.json"
        path.write_text(json.dumps(scene))
        parsed = []
        tokenize = dsl._tokenize

        def counting(source):
            parsed.append(source)
            return tokenize(source)

        monkeypatch.setattr(dsl, "_tokenize", counting)
        rc = main(["experiment", str(path), "--stability", "--eps", "0.01", "--trials", "2",
                   "--seed", "1", "--csv", str(tmp_path / "s.csv")])
        assert rc == EXIT_OK, capsys.readouterr().err
        assert parsed.count(g) == 1

    def test_calibration_uses_the_scene_bumps(self, tmp_path, monkeypatch, capsys):
        import strathom.experiments as experiments
        from strathom.gallery import gallery_entry

        scene = dict(gallery_entry("parallel-planes").scene_dict)
        scene["experiments"] = {**scene["experiments"], "bumps": 2}
        path = tmp_path / "two-bumps.json"
        path.write_text(json.dumps(scene))
        seen = []
        original = experiments.make_perturbation

        def draw(*args, **kwargs):
            seen.append(kwargs["bumps"])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "make_perturbation", draw)
        rc = main(["experiment", str(path), "--stability", "--trials", "3", "--seed", "1",
                   "--csv", str(tmp_path / "s.csv")])
        assert rc == EXIT_OK
        assert seen and set(seen) == {2}
        # an eps certified on 4-bump fields lets one of these 2-bump trials fail
        assert "persisted fraction: 1.0" in capsys.readouterr().out

    def test_calibrated_run_does_the_calibration_work_only(self, scene_path_factory, tmp_path, monkeypatch):
        # the certifying batch is the report: the run measures no margin and
        # draws no field beyond what calibrate_epsilon alone does
        import strathom.experiments as experiments
        from strathom.scene import load_scene
        from strathom.seeds import derive_seed

        trials, seed = 7, 1
        path = scene_path_factory("parallel-planes")
        counts = {"margin": 0, "draw": 0}
        margin, draw = experiments.transversality_margin, experiments.make_perturbation

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(experiments, "transversality_margin", counted("margin", margin))
        monkeypatch.setattr(experiments, "make_perturbation", counted("draw", draw))
        rc = main(["experiment", path, "--stability", "--trials", str(trials), "--seed", str(seed),
                   "--csv", str(tmp_path / "s.csv")])
        assert rc == EXIT_OK
        cli_counts = dict(counts)
        counts.update(margin=0, draw=0)
        scene = load_scene(path)
        exp = scene.experiments
        experiments.calibrate_epsilon(
            scene.build_context(seed=derive_seed(seed, "context")),
            experiments.seeded_full_rank_map(scene.ambient, seed=derive_seed(seed, "base")),
            experiments.grid_points(exp["k_box"], exp["grid"]),
            seed=derive_seed(seed, "stability"), probe_trials=10, rounds=6,
            bumps=int(exp.get("bumps", 4)), certify_trials=trials,
        )
        assert cli_counts == counts
        assert counts["draw"] == max(10, trials)  # one per distinct trial index

    @pytest.mark.parametrize(
        "g, message",
        [
            ("x1, x2, x3 + 100", "no grid image comes within 0.1 of a stratum"),
            ("x1, x2, 0.0707215*x3", "no positive perturbation size persisted; grid too hostile"),
        ],
        ids=["far-from-every-stratum", "hostile-grid"],
    )
    def test_calibration_failure_is_precondition_error(self, tmp_path, capsys, g, message):
        from strathom.gallery import gallery_entry

        scene = dict(gallery_entry("parallel-planes").scene_dict)
        scene["experiments"] = {**scene["experiments"], "g": g, "g_dim": 3}
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(scene))
        rc = main(["experiment", str(path), "--stability", "--seed", "1", "--csv", str(tmp_path / "s.csv")])
        assert rc == EXIT_VIOLATION
        assert f"precondition violation: {message}" in capsys.readouterr().err

    def test_infinite_margins_are_written_as_null(self, tmp_path, capsys):
        # no grid image comes within 0.1 of a stratum, so every margin is
        # infinite; the report held "Infinity", which is not JSON
        from strathom.gallery import gallery_entry

        scene = dict(gallery_entry("parallel-planes").scene_dict)
        scene["experiments"] = {**scene["experiments"], "g": "x1, x2, x3 + 100", "g_dim": 3}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(scene))
        report = tmp_path / "far.report.json"
        rc = main(["experiment", str(path), "--stability", "--eps", "0.5", "--trials", "3",
                   "--seed", "1", "--json", str(report), "--csv", str(tmp_path / "far.csv")])
        assert rc == EXIT_OK

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        run = json.loads(report.read_text(), parse_constant=reject)["report"]["stability"]
        assert run["base_margin"] is None
        assert run["min_margins"] == [None, None, None]
        assert run["fraction"] == 1.0

    def test_nongeneric_scene_under_stability_flag(self, scene_path_factory, tmp_path, capsys):
        csv = tmp_path / "n.csv"
        rc = main(["experiment", scene_path_factory("cubic-graph"), "--stability",
                   "--trials", "6", "--seed", "1", "--csv", str(csv)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "fraction made transverse: 0.0; unresolved trials: 0" in out

    def test_overflow_is_one_numerical_error_line(self, scene_path_factory, tmp_path, capsys):
        # at eps 1e200 the fields overflow: numpy printed six RuntimeWarnings
        # with source paths, and the run exited 0 with every trial counted
        # transverse
        rc = main(["experiment", scene_path_factory("sphere-disc"), "--stability", "--eps", "1e200",
                   "--trials", "3", "--seed", "1", "--csv", str(tmp_path / "n.csv")])
        assert rc == EXIT_VIOLATION
        out, err = capsys.readouterr()
        assert (out, err) == ("", "numerical error: overflow encountered in multiply\n")
        assert not (tmp_path / "n.csv").exists()

    def test_nongeneric_run_without_trials_reports_no_fraction(self, scene_path_factory, tmp_path, capsys):
        # zero trials measured nothing: the fraction was 0.0, the gallery's
        # expected result
        report = tmp_path / "n.json"
        rc = main(["experiment", scene_path_factory("sphere-disc"), "--stability", "--trials", "0",
                   "--seed", "1", "--json", str(report), "--csv", str(tmp_path / "n.csv")])
        assert rc == EXIT_OK
        assert "fraction made transverse: None" in capsys.readouterr().out
        assert json.loads(report.read_text())["report"]["nongenericity"]["transverse_fraction"] is None

    def test_default_grid_has_one_entry_per_k_box_interval(self, tmp_path, capsys):
        # g on R^4 into R^3 without a grid: the default [5] * ambient_dim
        # gave 3-dimensional grid points and a ValueError, exit 1
        from strathom.gallery import gallery_entry

        data = copy.deepcopy(gallery_entry("parallel-planes").scene_dict)
        data["experiments"] = {
            "mode": "stability", "g": "x1, x2, x3 + x4", "g_dim": 4, "k_box": [[-1.0, 1.0]] * 4,
        }
        path = tmp_path / "g4.json"
        path.write_text(json.dumps(data))
        rc = main(["experiment", str(path), "--stability", "--eps", "0.01", "--trials", "2",
                   "--seed", "1", "--csv", str(tmp_path / "s.csv")])
        assert rc == EXIT_OK
        assert "on 625 grid points" in capsys.readouterr().out

    def test_nongeneric_block_of_the_wrong_shape_exits_2(self, tmp_path, capsys):
        # the fold search on the circle-into-plane curve raised IndexError, exit 1
        from strathom.gallery import gallery_entry

        data = copy.deepcopy(gallery_entry("circle-into-plane").scene_dict)
        data["experiments"]["domain_topology"] = "fold"
        path = tmp_path / "fold-curve.json"
        path.write_text(json.dumps(data))
        rc = main(["experiment", str(path), "--stability", "--seed", "1", "--csv", str(tmp_path / "n.csv")])
        assert rc == EXIT_VIOLATION
        assert "'fold' block needs g_dim 2" in capsys.readouterr().err


class TestSeedEnvironment:
    def test_env_var_supplies_default_seed(self, scene_path_factory, tmp_path, monkeypatch):
        scene = scene_path_factory("parabola-shelf")
        out_env = tmp_path / "env.json"
        out_flag = tmp_path / "flag.json"
        monkeypatch.setenv("STRATHOM_SEED", "42")
        assert main(["check", scene, "--json", str(out_env)]) == EXIT_FAULT
        monkeypatch.delenv("STRATHOM_SEED")
        assert main(["check", scene, "--seed", "42", "--json", str(out_flag)]) == EXIT_FAULT
        a = json.loads(out_env.read_text())
        b = json.loads(out_flag.read_text())
        a.pop("timing")
        b.pop("timing")
        assert a == b

    def test_non_integer_env_var_is_usage_error(self, scene_path_factory, tmp_path, monkeypatch, capsys):
        scene = scene_path_factory("parabola-shelf")
        monkeypatch.setenv("STRATHOM_SEED", "forty-two")
        assert main(["check", scene, "--json", str(tmp_path / "r.json")]) == EXIT_USAGE
        assert "STRATHOM_SEED" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_gallery_does_not_read_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("STRATHOM_SEED", "forty-two")
        assert main(["gallery", "--list"]) == EXIT_OK
        assert main(["gallery", "--emit", "parabola-shelf"]) == EXIT_OK


class TestArgumentErrors:
    @pytest.mark.parametrize("args", [
        ["check", "SCENE", "--bogus"],
        ["check"],
        ["check", "SCENE", "--seed", "x"],
        ["experiment", "SCENE"],
        [],
        ["gallery", "--list", "--emit", "x"],
    ], ids=["unknown-flag", "no-scene", "seed-not-an-integer", "no-mode", "no-command",
            "list-and-emit"])
    def test_parser_error_is_usage_error(self, scene_path_factory, capsys, args):
        # argparse exited 2, the code of a scene or validation violation
        scene = scene_path_factory("parallel-planes")
        assert main([scene if a == "SCENE" else a for a in args]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: strathom")
        assert err.splitlines()[-1].startswith("error: ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "Exit codes" in capsys.readouterr().out


class TestGallery:
    def test_list_shows_all_entries(self, capsys):
        rc = main(["gallery", "--list"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        for name in ("parallel-planes", "parabola-shelf", "blowup", "sphere-disc"):
            assert name in out

    def test_emit_round_trips(self, capsys):
        rc = main(["gallery", "--emit", "parabola-shelf"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        data = json.loads(out)
        assert data["map"] == "y"

    def test_unknown_name_exits_65(self, capsys):
        rc = main(["gallery", "--emit", "nosuch"])
        assert rc == EXIT_UNKNOWN_NAME
