import json

import pytest

from strathom.cli import (
    EXIT_FAULT,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_UNKNOWN_NAME,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)


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

    def test_schema_violation_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"ambient_dim": 2}))
        rc = main(["validate", str(path)])
        assert rc == EXIT_VIOLATION


class TestCheck:
    def test_fault_scene_exits_3(self, scene_path_factory, capsys):
        rc = main(["check", scene_path_factory("parabola-shelf"), "--condition", "af", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_FAULT
        assert "FAULT" in out

    def test_regular_scene_exits_0(self, scene_path_factory):
        rc = main(["check", scene_path_factory("parallel-planes"), "--condition", "af", "--seed", "1"])
        assert rc == EXIT_OK

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
    ])
    def test_out_of_range_plan_flag_is_usage_error(self, scene_path_factory, flag, tmp_path, capsys):
        rc = main(["check", scene_path_factory("parallel-planes"), "--condition", "a",
                   "--json", str(tmp_path / "r.json"), *flag])
        assert rc == EXIT_USAGE
        assert "approach plan" in capsys.readouterr().err

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
        ({"angle_tol": float("nan")}, "angle tolerance must be positive"),
    ])
    def test_out_of_range_scene_plan_field_is_scene_error(self, plan, message):
        # no arc at all would let every check hold vacuously, and no
        # Cauchy window meets a tolerance of 0 or less
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


class TestExperiment:
    def test_instability_on_fault_scene(self, scene_path_factory, tmp_path, capsys):
        csv = tmp_path / "rows.csv"
        rc = main(["experiment", scene_path_factory("parabola-shelf"), "--instability",
                   "--count", "5", "--seed", "1", "--csv", str(csv)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "instability" in out
        header = csv.read_text().splitlines()[0]
        assert header == "i,c1_distance,transverse"

    def test_instability_on_regular_scene_is_precondition_error(self, scene_path_factory, capsys):
        rc = main(["experiment", scene_path_factory("parallel-planes"), "--instability", "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == EXIT_VIOLATION
        assert "no fault" in err

    def test_stability_with_explicit_eps(self, scene_path_factory, tmp_path):
        csv = tmp_path / "s.csv"
        rc = main(["experiment", scene_path_factory("parallel-planes"), "--stability",
                   "--eps", "0.05", "--trials", "5", "--seed", "1", "--csv", str(csv)])
        assert rc == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == "trial,epsilon,transverse"
        assert len(lines) == 6
        assert all(line.endswith(",1") for line in lines[1:])

    def test_calibration_uses_the_scene_bumps(self, tmp_path, monkeypatch, capsys):
        import strathom.cli as cli_mod
        from strathom.gallery import gallery_entry

        scene = dict(gallery_entry("parallel-planes").scene_dict)
        scene["experiments"] = {**scene["experiments"], "bumps": 2}
        path = tmp_path / "two-bumps.json"
        path.write_text(json.dumps(scene))
        seen = []
        original = cli_mod.calibrate_epsilon

        def calibrate(*args, **kwargs):
            seen.append(kwargs.get("bumps"))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "calibrate_epsilon", calibrate)
        rc = main(["experiment", str(path), "--stability", "--trials", "3", "--seed", "1",
                   "--csv", str(tmp_path / "s.csv")])
        assert rc == EXIT_OK
        assert seen == [2]
        # an eps certified on 4-bump fields lets one of these 2-bump trials fail
        assert "persisted fraction: 1.0" in capsys.readouterr().out

    def test_nongeneric_scene_under_stability_flag(self, scene_path_factory, tmp_path, capsys):
        csv = tmp_path / "n.csv"
        rc = main(["experiment", scene_path_factory("cubic-graph"), "--stability",
                   "--trials", "6", "--seed", "1", "--csv", str(csv)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "fraction made transverse: 0.0" in out


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
