"""Command-line front end.

    strathom validate SCENE            sampled validation of a scene
    strathom check SCENE               regularity verdicts at incidences
    strathom experiment SCENE          stability / instability runs
    strathom gallery                   built-in scenes

Exit codes: 0 success (check: all conditions hold on samples); 2 scene
error, precondition violation, validation violation or numerical error
(overflow, invalid operation or division by zero; underflow is silent);
3 check found a fault; 4 check was inconclusive somewhere; 64 usage:
arguments the parser rejects (an unknown flag, a missing scene or mode,
a value of the wrong type), a flag out of range or one the chosen
experiment mode or check condition does not read, a scene path that is
missing or not a readable file, or an output path that cannot be
written or is the scene file or the other output, which is found before
the run starts; 65 unknown gallery name.  An error is one stderr line,
"error: ..." for exits 64 and 65, "scene error: ...", "precondition
violation: ...", "validation violation: ..." or "numerical error: ..."
for exit 2.  The default seed comes from STRATHOM_SEED (0 otherwise; a
value that is not an integer is a usage error); every task derives its
own stream from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dsl import DslError
from .experiments import (
    grid_points,
    instability_demo,
    nongenericity_demo,
    seeded_full_rank_map,
    stability_trial,
)
from .gallery import gallery, gallery_entry
from .regularity import (
    PreconditionError,
    Status,
    check_af_at,
    check_afs_at,
    check_tf_at,
    check_whitney_a_at,
    random_test_surface,
)
from .report import Report, verdict_to_json, write_csv
from .scene import _PLAN_FIELDS, Scene, SceneError, _plan_from, load_scene
from .seeds import derive_seed
from .strata import ApproachPlan, ValidationError, validate_prestratification

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_FAULT = 3
EXIT_INCONCLUSIVE = 4
EXIT_USAGE = 64
EXIT_UNKNOWN_NAME = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors, exit 64, where
    argparse exits 2; it still prints its usage line first."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strathom", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a scene file")
    p_validate.add_argument("scene")
    p_validate.add_argument("--seed", type=int, default=None)
    p_validate.add_argument("--samples", type=int, default=40)
    p_validate.add_argument("--json", help="write the JSON report here")

    p_check = sub.add_parser("check", help="run regularity checkers")
    p_check.add_argument("scene")
    p_check.add_argument("--condition", choices=["a", "af", "tf", "afs", "all"], default="af")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--json", help="write the JSON report here (default: <scene>.report.json)")
    p_check.add_argument("--ratio", type=float, help="approach ratio override")
    p_check.add_argument("--terms", type=int, help="approach term count override")
    p_check.add_argument("--directions", type=int, help="arc direction budget override")
    p_check.add_argument("--window", type=int, help="Cauchy window override")
    p_check.add_argument("--angle-tol", type=float, help="angle tolerance override")
    p_check.add_argument("--tf-surfaces", type=int,
                         help="seeded test submanifolds per incidence for tf (default: 5)")

    p_exp = sub.add_parser("experiment", help="run a scene experiment")
    p_exp.add_argument("scene")
    mode = p_exp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stability", action="store_true")
    mode.add_argument("--instability", action="store_true")
    p_exp.add_argument("--eps", type=float, help="perturbation size (default: the scene's, else calibrated)")
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--count", type=int, default=None, help="destabilizer length")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--json", help="write the JSON report here")
    p_exp.add_argument("--csv", help="write plot data here (default: <scene>.csv)")

    p_gal = sub.add_parser("gallery", help="built-in scenes")
    g = p_gal.add_mutually_exclusive_group(required=True)
    g.add_argument("--list", action="store_true")
    g.add_argument("--emit", metavar="NAME")

    return parser


# the least value of each count flag: below it a run checks nothing,
# validates on no samples or draws no maps, and exits 0
_COUNT_FLOORS = {"samples": 1, "tf_surfaces": 1, "count": 1, "trials": 0}

# the flags that each experiment mode and check condition does not read;
# the approach flags are the scene plan's keys
_UNREAD_FLAGS = {
    "--stability": ("count",),
    "--instability": ("eps", "trials"),
    "--condition a": ("tf_surfaces",),
    "--condition af": ("tf_surfaces",),
    "--condition tf": tuple(_PLAN_FIELDS),
    "--condition afs": (*_PLAN_FIELDS, "tf_surfaces"),
}


def _check_flags(args) -> None:
    for name, floor in _COUNT_FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and value < floor:
            raise _UsageError(f"--{name.replace('_', '-')} must be at least {floor}, got {value}")
    eps = getattr(args, "eps", None)
    if eps is not None and not 0.0 < eps < float("inf"):
        raise _UsageError(f"--eps must be positive and finite, got {eps}")
    used = None
    if args.command == "experiment":
        used = "--stability" if args.stability else "--instability"
    if args.command == "check":
        used = f"--condition {args.condition}"
    for name in _UNREAD_FLAGS.get(used, ()):
        if getattr(args, name) is not None:
            raise _UsageError(f"--{name.replace('_', '-')} does not apply to {used}")


def _load(path: str) -> Scene:
    try:
        return load_scene(path)
    except FileNotFoundError:
        raise _UsageError(f"no such file: {path}") from None
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from None


def _write(path, write, *args) -> None:
    """``write(path, *args)``; an output path that cannot be written is a
    usage error, as an unreadable scene path is."""
    try:
        write(path, *args)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return Path(a).resolve() == Path(b).resolve()


def _probe_outputs(args) -> None:
    """Set the default output paths, then fail before the run on one that
    is the scene file or the other output, or that cannot be opened for
    appending; a file the probe creates is removed."""
    stem = str(Path(args.scene).with_suffix(""))
    if args.command == "check":
        args.json = args.json or stem + ".report.json"
    if args.command == "experiment":
        args.csv = args.csv or stem + ".csv"
    taken = {"the scene file": args.scene}
    for flag, path in (("--json", args.json), ("--csv", getattr(args, "csv", None))):
        if not path:
            continue
        for what, other in taken.items():
            if _same_file(path, other):
                raise _UsageError(f"{flag} {path} would overwrite {what}")
        taken[f"the {flag} output"] = path
        created = not os.path.lexists(path)
        _write(path, lambda p: open(p, "a").close())
        if created:
            os.remove(path)


def _plan_from_args(scene: Scene, args) -> ApproachPlan:
    try:
        return _plan_from(scene.plan, vars(args))
    except SceneError as exc:
        raise _UsageError(str(exc)) from None


def cmd_validate(args, scene: Scene, report: Report) -> int:
    pre = validate_prestratification(
        scene.prestratification,
        samples=args.samples,
        seed=derive_seed(report.seed, "validate"),
        plan=scene.plan,
    )
    # the rank certificate every other command builds
    ranks = scene.build_context(seed=derive_seed(report.seed, "context")).ranks
    report.body["validation"] = {
        "samples": pre.samples,
        "incidences_confirmed": pre.incidences_confirmed,
        "frontier_status": pre.frontier_status,
        "frontier": [
            {"stratum": f.stratum, "status": f.status, "detail": f.detail} for f in pre.frontier
        ],
        "ranks": {name: cert.rank for name, cert in ranks.items()},
    }
    print(f"scene {scene.name!r}: valid on samples")
    for name, cert in sorted(ranks.items()):
        print(f"  stratum {name}: constant rank {cert.rank} ({cert.samples} samples)")
    print(f"  frontier condition: {pre.frontier_status}")
    return EXIT_OK


_STATUS_MARK = {
    Status.HOLDS: "holds",
    Status.FAILS: "FAULT",
    Status.INCONCLUSIVE: "inconclusive",
}


def _check(scene: Scene, conditions, plan: ApproachPlan, tf_surfaces: int, seed: int) -> list:
    """The verdicts of ``strathom check`` at ``seed``: each condition at
    each incidence, in that order, tf once per seeded test surface, on
    one context built from ``derive_seed(seed, "context")``, each task
    seeded by ``derive_seed(seed, "check", condition, x, y)``."""
    ctx = scene.build_context(seed=derive_seed(seed, "context"))
    verdicts = []
    for inc in scene.prestratification.incidences:
        at = (ctx, inc.x, inc.y, inc.point)
        for cond in conditions:
            task_seed = derive_seed(seed, "check", cond, inc.x, inc.y)
            if cond == "a":
                verdicts.append(check_whitney_a_at(*at, plan, seed=task_seed))
            elif cond == "af":
                verdicts.append(check_af_at(*at, plan, seed=task_seed))
            elif cond == "afs":
                verdicts.append(check_afs_at(*at, seed=task_seed))
            else:
                for k in range(tf_surfaces):
                    surface_seed = derive_seed(task_seed, str(k))
                    surface = random_test_surface(ctx, inc.y, inc.point, seed=surface_seed)
                    verdicts.append(check_tf_at(*at, surface, seed=surface_seed))
    return verdicts


def cmd_check(args, scene: Scene, report: Report) -> int:
    plan = _plan_from_args(scene, args)
    conditions = ["a", "af", "tf", "afs"] if args.condition == "all" else [args.condition]
    tf_surfaces = 5 if args.tf_surfaces is None else args.tf_surfaces
    verdicts = _check(scene, conditions, plan, tf_surfaces, report.seed)
    rows = [
        (v.condition, v.x, v.y, json.dumps(list(v.point)), _STATUS_MARK[v.status])
        for v in verdicts
    ]
    if not rows:
        print("no incidences declared; nothing to check")
    else:
        widths = [max(len(str(r[i])) for r in rows + [("cond", "X", "Y", "point", "status")]) for i in range(5)]
        header = ("cond", "X", "Y", "point", "status")
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    report.body["verdicts"] = [verdict_to_json(v) for v in verdicts]
    statuses = {v.status for v in verdicts}
    if Status.FAILS in statuses:
        return EXIT_FAULT
    if Status.INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_experiment(args, scene: Scene, report: Report) -> int:
    # the scene's resolved experiment keys, each flag given overriding its own
    flags = {key: getattr(args, key) for key in ("eps", "trials", "count")}
    exp = {**scene.experiments, **{key: value for key, value in flags.items() if value is not None}}
    if args.stability and exp.get("mode") == "nongeneric":
        key = "nongenericity"
        run = nongenericity_demo(scene, eps=exp["eps"], trials=exp["trials"], seed=report.seed)
        print(
            f"non-genericity demo: {run.trials} trials at eps={run.eps}, "
            f"fraction made transverse: {run.transverse_fraction}; unresolved trials: {len(run.unresolved)}"
        )
    elif args.stability:
        if "k_box" not in exp:
            raise SceneError("scene has no stability experiment block (k_box)")
        ctx = scene.build_context(seed=derive_seed(report.seed, "context"))
        k_points = grid_points(exp["k_box"], exp["grid"])
        base = exp["g"] if "g" in exp else seeded_full_rank_map(scene.ambient, derive_seed(report.seed, "base"))
        key = "stability"
        run = stability_trial(
            ctx, base, k_points, exp["eps"], exp["trials"],
            seed=derive_seed(report.seed, "stability"), bumps=exp["bumps"],
        )
        print(
            f"stability: {run.trials} trials at eps={run.eps:.6g} on "
            f"{run.k_count} grid points; persisted fraction: {run.fraction}"
        )
    else:
        inc = scene.prestratification.incidences
        if not inc:
            raise PreconditionError("no incidences; instability needs a fault")
        ctx = scene.build_context(seed=derive_seed(report.seed, "context"))
        key = "instability"
        run = instability_demo(
            ctx, inc[0].x, inc[0].y, inc[0].point,
            count=exp["count"], radius=exp["radius"],
            seed=derive_seed(report.seed, "instability"), plan=scene.plan,
        )
        print(f"instability: {run.count} maps; base margin {run.base_transverse_margin:.3f}")
        for row in run.rows[:5]:
            print(f"  i={row['index']:3d} c1={row['c1_distance']:.6e} defect={row['defect']}")
        if len(run.rows) > 5:
            print(f"  ... {len(run.rows) - 5} more rows in the report")
    report.body[key] = run.to_json()
    _write(args.csv, write_csv, run.csv_header, run.csv_rows())
    return EXIT_OK


def cmd_gallery(args) -> int:
    if args.list:
        for entry in gallery():
            expected = ", ".join(
                f"{cond}({x} over {y}): {status.split('-')[0]}"
                for (cond, x, y), status in sorted(entry.expected_verdicts.items())
            )
            if entry.expected_transverse_fraction is not None:
                expected = "transversality scene; perturbations stay non-transverse"
            print(f"{entry.name}")
            print(f"    {entry.description}")
            if expected:
                print(f"    expected: {expected}")
        return EXIT_OK
    try:
        entry = gallery_entry(args.emit)
    except KeyError:
        print(f"error: unknown gallery entry {args.emit!r}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    json.dump(entry.scene_dict, sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_OK


# the commands that run on a loaded scene and fill in its report
_COMMANDS = {"validate": cmd_validate, "check": cmd_check, "experiment": cmd_experiment}

# the exit code and stderr prefix of each error, matched in order, subclasses included
_ERRORS = {
    _UsageError: (EXIT_USAGE, "error"),
    SceneError: (EXIT_VIOLATION, "scene error"),
    DslError: (EXIT_VIOLATION, "scene error"),
    PreconditionError: (EXIT_VIOLATION, "precondition violation"),
    ValidationError: (EXIT_VIOLATION, "validation violation"),
    FloatingPointError: (EXIT_VIOLATION, "numerical error"),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        if args.command == "gallery":
            return cmd_gallery(args)
        raw = args.seed if args.seed is not None else os.environ.get("STRATHOM_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise _UsageError(f"STRATHOM_SEED must be an integer, got {raw!r}") from None
        scene = _load(args.scene)
        _probe_outputs(args)
        report = Report(scene_name=scene.name, scene_data=scene.raw, seed=seed)
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # the bump's exp(-1/t) underflows
            code = _COMMANDS[args.command](args, scene, report)
        if args.json:
            _write(args.json, report.write)
        return code
    except tuple(_ERRORS) as exc:
        code, prefix = next(v for cls, v in _ERRORS.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
