"""Verdicts survive a rigid motion of the ambient space.

A scene moved by y -> Q y + c (Q orthogonal with det 1) describes the
same stratified map: the charts become Q psi + c, the map and the
inverse hints become g(Q^T (y - c)), and the incidence points move with
the strata.  `strathom check --condition all` must give every verdict
the same status, and every a/af witness the same angle.
"""

import json
import math
import re

import numpy as np
import pytest

from strathom.cli import main
from strathom.dsl import parse_map, to_source
from strathom.gallery import gallery_entry
from strathom.seeds import rng_for

REGULARITY_SCENES = [
    "parallel-planes",
    "parabola-shelf",
    "parallel-planes-constant",
    "parabola-shelf-constant",
    "blowup",
]
MOTIONS = 2

# an ambient variable of the expression language: x1 .. xn or an alias
_VARIABLE = re.compile(r"\b(?:x(\d+)|([xyzw]))\b")


def _pull_back(source: str, coords: list[str]) -> str:
    """``source`` with ambient variable i replaced by ``(coords[i])``."""

    def sub(m):
        i = int(m.group(1)) - 1 if m.group(1) else "xyzw".index(m.group(2))
        return f"({coords[i]})"

    return _VARIABLE.sub(sub, source)


def _num(v) -> str:
    """Expression text of a float (a NumPy scalar's repr does not parse)."""
    return repr(float(v))


def rigid_motion(scene: dict, seed: int) -> dict:
    """The scene moved by a seeded rotation Q and translation c."""
    n = scene["ambient_dim"]
    rng = rng_for(seed, "rigid-motion", scene["name"])
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    c = rng.uniform(-1.0, 1.0, size=n)
    # (Q^T (y - c))_i in the ambient variables
    coords = [
        " + ".join(f"({_num(q[j, i])})*(x{j + 1} - ({_num(c[j])}))" for j in range(n))
        for i in range(n)
    ]
    moved = {k: v for k, v in scene.items() if k != "experiments"}
    moved["map"] = _pull_back(scene["map"], coords)
    moved["strata"] = []
    for spec in scene["strata"]:
        psi = [to_source(e) for e in parse_map(spec["chart"], spec["dim"]).components]
        spec = dict(spec)
        spec["chart"] = ", ".join(
            " + ".join(f"({_num(q[k, i])})*({psi[i]})" for i in range(n)) + f" + ({_num(c[k])})"
            for k in range(n)
        )
        if "inverse" in spec:
            spec["inverse"] = _pull_back(spec["inverse"], coords)
        moved["strata"].append(spec)
    moved["incidences"] = [
        {**inc, "point": (q @ np.array(inc["point"]) + c).tolist()}
        for inc in scene.get("incidences", ())
    ]
    return moved


def _check_all(scene: dict, tmp_path, tag: str) -> list[dict]:
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(scene))
    report = tmp_path / f"{tag}.report.json"
    main(["check", str(path), "--condition", "all", "--seed", "1", "--json", str(report)])
    return json.loads(report.read_text())["report"]["verdicts"]


def test_pull_back_substitutes_aliases_and_indexed_variables():
    assert _pull_back("x + x2*exp(z), w", ["a", "b", "c", "d"]) == "(a) + (b)*exp((c)), (d)"


@pytest.mark.parametrize("name", ["parabola-shelf", "blowup"])
def test_motion_is_isometric_and_carries_map_and_inverses(name):
    scene = gallery_entry(name).scene_dict
    moved = rigid_motion(scene, seed=0)
    assert "experiments" not in moved
    n = scene["ambient_dim"]
    f, moved_f = parse_map(scene["map"], n), parse_map(moved["map"], n)
    point, moved_point = (np.array(s["incidences"][0]["point"]) for s in (scene, moved))
    for spec, moved_spec in zip(scene["strata"], moved["strata"]):
        chart, moved_chart = (parse_map(s["chart"], spec["dim"]) for s in (spec, moved_spec))
        u = rng_for(0, "rigid-motion-test", name, spec["name"]).uniform(0.1, 0.4, (5, spec["dim"]))
        y, moved_y = chart(u), moved_chart(u)
        np.testing.assert_allclose(moved_f(moved_y), f(y), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(moved_y - moved_point, axis=1),
                                   np.linalg.norm(y - point, axis=1), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(moved_y - moved_y[0], axis=1),
                                   np.linalg.norm(y - y[0], axis=1), atol=1e-12)
        if "inverse" in spec:
            inverse, moved_inverse = (parse_map(s["inverse"], n) for s in (spec, moved_spec))
            np.testing.assert_allclose(moved_inverse(moved_y), inverse(y), atol=1e-12)


@pytest.mark.parametrize("name", REGULARITY_SCENES)
def test_check_all_is_invariant_under_rigid_motions(name, tmp_path):
    scene = gallery_entry(name).scene_dict
    base = _check_all(scene, tmp_path, "base")
    for seed in range(MOTIONS):
        moved = _check_all(rigid_motion(scene, seed), tmp_path, f"moved-{seed}")
        assert [v["status"] for v in moved] == [v["status"] for v in base], (name, seed)
        for v, w in zip(base, moved):
            if v["condition"] in ("a", "af") and "witness" in v:
                angle = w["witness"]["angle"]
                assert abs(angle - v["witness"]["angle"]) <= 1e-9, (name, seed, v["condition"])
                if (name, v["condition"]) == ("parabola-shelf", "af"):
                    assert abs(angle - math.pi / 2) <= 1e-9
