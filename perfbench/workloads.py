"""The three benchmark workloads, driven through strathom's public API.

Each workload is a closed loop with one caller: every API call waits for
the previous one.  Its inputs are built-in gallery scenes, emitted to
JSON files and loaded back the way `strathom gallery --emit` followed by
`strathom check` / `strathom experiment` would.  The seed only selects
the checker and perturbation streams, through the same `derive_seed`
task paths the CLI uses.

A workload has a set-up step (emit, load, build contexts) and a pass.
Every API call of a pass is one operation, timed on its own and checked
against the known outcome for its scene; the operation kinds fall into
two stages, each reported as items (validations, verdicts, trials,
maps) per second.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import strathom.experiments as experiments
from strathom.experiments import (
    calibrate_epsilon,
    grid_points,
    instability_demo,
    nongenericity_demo,
    seeded_full_rank_map,
    stability_trial,
)
from strathom.gallery import gallery_entry
from strathom.regularity import (
    RadialPlan,
    Status,
    check_af_at,
    check_afs_at,
    check_tf_at,
    check_whitney_a_at,
    random_test_surface,
)
from strathom.report import Report, replay_witness, verdict_to_json
from strathom.scene import load_scene
from strathom.seeds import derive_seed
from strathom.strata import ApproachPlan, validate_prestratification

REGULARITY_SCENES = (
    "parallel-planes",
    "parabola-shelf",
    "parallel-planes-constant",
    "parabola-shelf-constant",
    "blowup",
)
INSTABILITY_SCENES = ("parabola-shelf", "blowup")
NONGENERIC_SCENES = ("circle-into-plane", "cubic-graph", "sphere-disc")
TF_SURFACES = 5  # `strathom check --tf-surfaces` default
STABILITY_SCENE = "parallel-planes"
# `strathom experiment --stability --trials 50`: the scene's default of
# 200 trials makes one pass take 40-75 s on the seed code, more than a
# run may take; 50 trials run the same calibration and trial code paths
STABILITY_TRIALS = 50


@dataclass
class Ledger:
    """Operations of one pass: their spans, items and failures.

    An operation fails when its call raises or when its result fails
    the output check; `check` returns the list of failed conditions.
    `items` counts the results an operation yields (verdicts, trials,
    maps), as a number or a function of its result.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    ops: list[tuple[str, float, float]] = field(default_factory=list)  # kind, start, end
    items: Counter = field(default_factory=Counter)

    def run(self, kind: str, call, check=None, items=1):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising API call is a failed operation
            self.ops.append((kind, start, time.perf_counter()))
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.ops.append((kind, start, time.perf_counter()))
        problems = check(result) if check is not None else []
        if problems:
            self.failures.append(f"{kind}: " + "; ".join(problems))
        self.items[kind] += items(result) if callable(items) else items
        return result

    def stage(self, kinds, seconds) -> tuple[int, float]:
        """Items and time of the operations of these kinds; `seconds`
        measures one operation's (start, end) span."""
        return (
            sum(self.items[k] for k in kinds),
            sum(seconds(a, b) for k, a, b in self.ops if k in kinds),
        )


def emit_scene(name: str, workdir: Path):
    """Write the gallery scene as `strathom gallery --emit` does, then load it."""
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(gallery_entry(name).scene_dict, indent=2, sort_keys=True) + "\n")
    return load_scene(path)


# ---------------------------------------------------------------------------
# check-gallery: validate, then `strathom check --condition all`


def setup_check_gallery(workdir: Path, seed: int) -> dict:
    state = {}
    for name in REGULARITY_SCENES:
        scene = emit_scene(name, workdir)
        state[name] = (scene, scene.build_context(seed=derive_seed(seed, "context")))
    return state


def _check_ops(ctx, inc, cond: str, plan: ApproachPlan, seed: int):
    """The calls `strathom check` makes for one (incidence, condition)."""
    task_seed = derive_seed(seed, "check", cond, inc.x, inc.y)
    if cond == "a":
        return [lambda: check_whitney_a_at(ctx, inc.x, inc.y, inc.point, plan, seed=task_seed)]
    if cond == "af":
        return [lambda: check_af_at(ctx, inc.x, inc.y, inc.point, plan, seed=task_seed)]
    if cond == "afs":
        return [lambda: check_afs_at(ctx, inc.x, inc.y, inc.point, plan=RadialPlan(), seed=task_seed)]

    def tf(k: int):
        surface_seed = derive_seed(task_seed, str(k))
        surface = random_test_surface(ctx, inc.y, inc.point, seed=surface_seed)
        return check_tf_at(ctx, inc.x, inc.y, inc.point, surface, seed=surface_seed)

    return [lambda k=k: tf(k) for k in range(TF_SURFACES)]


def _verdict_check(name: str, cond: str, inc, found: dict):
    """Output check of one verdict against the scene's known outcome and
    the incidence's verdicts so far (`found`, by condition)."""
    expected = gallery_entry(name).expected_verdicts

    def check(v) -> list[str]:
        where = f"{name} {cond}({inc.x} over {inc.y})"
        problems = []
        if cond in ("a", "af"):
            want = expected[(cond, inc.x, inc.y)]
            if v.status.value != want:
                problems.append(f"{where} is {v.status.value}, expected {want}")
            if name == "parabola-shelf" and cond == "af" and v.witness is not None:
                if abs(v.witness.angle - math.pi / 2) > 1e-6:
                    problems.append(f"{where} witness angle {v.witness.angle!r} is not pi/2")
        af = found.get("af")
        if cond == "afs" and af is not None and v.status is not af.status:
            problems.append(f"{where} is {v.status.value} but af is {af.status.value}")
        if cond == "tf" and af is not None and af.status is Status.HOLDS and v.status is not Status.HOLDS:
            problems.append(f"{where} is {v.status.value} although af holds")
        return problems

    return check


def _replay_check(path: Path):
    """Every stored a/af fault must replay to FAILS with its stored angle."""

    def check(_) -> list[str]:
        problems = []
        for v in json.loads(path.read_text())["report"]["verdicts"]:
            if v["condition"] not in ("a", "af") or v["status"] != Status.FAILS.value:
                continue
            again = replay_witness(v)
            stored = v["witness"]["angle"]
            if again["status"] != Status.FAILS.value or abs(again["angle"] - stored) > 1e-12:
                problems.append(
                    f"{path.name} {v['condition']} replays to {again['status']} "
                    f"at angle {again['angle']!r}, stored {stored!r}"
                )
        return problems

    return check


def pass_check_gallery(state: dict, seed: int, workdir: Path, ledger: Ledger) -> None:
    for name in REGULARITY_SCENES:
        scene, _ = state[name]
        ledger.run(
            "validate",
            lambda: validate_prestratification(
                scene.prestratification, samples=40, seed=derive_seed(seed, "validate")
            ),
        )
    for name in REGULARITY_SCENES:
        scene, ctx = state[name]
        plan = scene.plan or ApproachPlan()
        report = Report(scene_name=scene.name, scene_data=scene.raw, seed=seed)
        verdicts = []
        for inc in scene.prestratification.incidences:
            found: dict = {}
            for cond in ("a", "af", "tf", "afs"):
                check = _verdict_check(name, cond, inc, found)
                for op in _check_ops(ctx, inc, cond, plan, seed):
                    v = ledger.run(cond, op, check)
                    if v is not None:
                        found[cond] = v
                        verdicts.append(v)
        path = workdir / f"{name}.report.json"

        def write():
            report.body["verdicts"] = [verdict_to_json(v) for v in verdicts]
            report.write(path)

        ledger.run("report", write, _replay_check(path), items=0)


# ---------------------------------------------------------------------------
# stability-planes: `strathom experiment --stability --trials 50`, eps calibrated


class MarginCounter:
    """Counts transversality margin evaluations.

    Calibration runs a seed-dependent number of perturbation trials, so
    both stability stages are measured in trials per second.
    """

    def __init__(self, margin):
        self.margin = margin
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.margin(*args, **kwargs)


def setup_stability_planes(workdir: Path, seed: int) -> dict:
    scene = emit_scene(STABILITY_SCENE, workdir)
    exp = scene.experiments
    if not isinstance(experiments.transversality_margin, MarginCounter):
        experiments.transversality_margin = MarginCounter(experiments.transversality_margin)
    return {
        "ctx": scene.build_context(seed=derive_seed(seed, "context")),
        "k_points": grid_points(exp["k_box"], exp["grid"]),
        # the base map is an input, like the scene: `strathom experiment`'s
        # at its default seed 0, whatever the run's seed
        "base": seeded_full_rank_map(scene.ambient, seed=derive_seed(0, "base")),
        "trials": STABILITY_TRIALS,
        "bumps": int(exp.get("bumps", 4)),
    }


def _counted(call):
    """Run the call; return its result and the perturbation trials it ran.

    Every margin evaluation is a trial except the first, which is the
    unperturbed base map's.
    """
    counter = experiments.transversality_margin
    before = counter.calls
    result = call()
    return result, counter.calls - before - 1


def pass_stability_planes(state: dict, seed: int, workdir: Path, ledger: Ledger) -> None:
    ctx, base, k_points, trials = state["ctx"], state["base"], state["k_points"], state["trials"]
    trial_seed = derive_seed(seed, "stability")
    calibrated = ledger.run(
        "calibrate",
        lambda: _counted(lambda: calibrate_epsilon(
            ctx, base, k_points, seed=trial_seed,
            probe_trials=10, rounds=6, certify_trials=trials,
        )),
        lambda r: [] if r[0] > 0.0 and math.isfinite(r[0]) else [f"calibrated eps {r[0]!r} is not positive"],
        items=lambda r: r[1],
    )
    if calibrated is None:
        return
    eps = calibrated[0]
    ledger.run(
        "stability_trial",
        lambda: _counted(lambda: stability_trial(
            ctx, base, k_points, eps, trials, seed=trial_seed, bumps=state["bumps"],
        )),
        lambda r: [] if r[0].fraction == 1.0 else [f"persisted fraction {r[0].fraction!r} at eps {eps!r}"],
        items=lambda r: r[1],
    )


# ---------------------------------------------------------------------------
# perturb-demos: instability and non-genericity demos


def setup_perturb_demos(workdir: Path, seed: int) -> dict:
    state = {}
    for name in INSTABILITY_SCENES:
        scene = emit_scene(name, workdir)
        state[name] = (scene, scene.build_context(seed=derive_seed(seed, "context")))
    for name in NONGENERIC_SCENES:
        state[name] = (emit_scene(name, workdir), None)
    return state


def _instability_check(name: str, count: int):
    def check(rep) -> list[str]:
        problems = []
        rows = rep.rows
        if len(rows) != count:
            problems.append(f"{name}: {len(rows)} destabilizer maps, expected {count}")
        dists = [r["c1_distance"] for r in rows]
        if not all(b < a for a, b in zip(dists, dists[1:])):
            problems.append(f"{name}: C1 distances are not strictly decreasing")
        if any(r["defect"] < 1 for r in rows):
            problems.append(f"{name}: a destabilizer map is transverse")
        return problems

    return check


def _nongeneric_check(name: str):
    want = gallery_entry(name).expected_transverse_fraction

    def check(rep) -> list[str]:
        if rep.transverse_fraction != want:
            return [f"{name}: transverse fraction {rep.transverse_fraction!r}, expected {want!r}"]
        return []

    return check


def pass_perturb_demos(state: dict, seed: int, workdir: Path, ledger: Ledger) -> None:
    for name in INSTABILITY_SCENES:
        scene, ctx = state[name]
        exp = scene.experiments or {}
        inc = scene.prestratification.incidences[0]
        count = int(exp.get("count", 20))
        ledger.run(
            "instability",
            lambda: instability_demo(
                ctx, inc.x, inc.y, inc.point, count=count,
                radius=float(exp.get("radius", 1.0)), seed=derive_seed(seed, "instability"),
            ),
            _instability_check(name, count),
            items=lambda rep: len(rep.rows),
        )
    for name in NONGENERIC_SCENES:
        scene, _ = state[name]
        ledger.run(
            "nongenericity",
            lambda: nongenericity_demo(scene, seed=seed),
            _nongeneric_check(name),
            items=lambda rep: rep.trials,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run_pass: object
    # the two stages of a pass, as operation kinds
    first: tuple[str, ...]
    second: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-gallery", setup_check_gallery, pass_check_gallery,
                 ("validate", "a", "af", "afs"), ("tf", "report")),
        Workload("stability-planes", setup_stability_planes, pass_stability_planes,
                 ("calibrate",), ("stability_trial",)),
        Workload("perturb-demos", setup_perturb_demos, pass_perturb_demos,
                 ("instability",), ("nongenericity",)),
    )
}
