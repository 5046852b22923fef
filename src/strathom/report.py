"""Reports: serializable, replayable records of runs.

The JSON layout is versioned ("report-v1").  Everything under the
"report" key is deterministic for a fixed (scene, seed, tool version);
wall-clock timing lives in a separate top-level field excluded from the
determinism contract.  An a/af fault witness embeds its limit, required
subspace and angle tolerance, so it re-checks offline without the scene;
a tf/afs one is ``{"points": [...]}``, each radius's first bad point.
Reports are strict JSON: a non-finite number fails the write.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

from . import __version__
from .grassmann import CONTAIN_TOL, Subspace
from .regularity import RadialWitness, RegularityVerdict, Status
from .scene import scene_hash

REPORT_SCHEMA = "report-v1"

__all__ = [
    "REPORT_SCHEMA",
    "verdict_to_json",
    "replay_witness",
    "Report",
]


def _round_trip_floats(values) -> list[float]:
    return [float(v) for v in values]


def verdict_to_json(v: RegularityVerdict) -> dict:
    out = {
        "condition": v.condition,
        "x": v.x,
        "y": v.y,
        "point": _round_trip_floats(v.point),
        "status": v.status.value,
        "detail": v.detail,
    }
    if v.required is not None:
        out["required"] = v.required.to_json()
        out["ambient"] = v.required.n
    w = v.witness
    if isinstance(w, RadialWitness):
        out["witness"] = {"points": [_round_trip_floats(p) for p in w.points]}
    elif w is not None:
        out["witness"] = {
            "point": _round_trip_floats(w.point),
            "vector": _round_trip_floats(w.vector),
            "angle": w.angle,
            "angle_tol": w.angle_tol,
            "limit": w.limit.to_json(),
            "required": w.required.to_json(),
            "arc_points": [_round_trip_floats(p) for p in w.arc.points],
        }
    arcs = []
    for a in v.arcs:
        arcs.append(
            {
                "direction": _round_trip_floats(a.direction),
                "converged": a.converged,
                "residual": a.residual,
                "limit": None if a.limit is None else a.limit.to_json(),
                "worst_angle": a.worst_angle,
                "contains_required": a.contains_required,
                "terms": int(len(a.points)),
            }
        )
    if arcs:
        out["arcs"] = arcs
    return out


def replay_witness(verdict_json: dict) -> dict:
    """Re-run the containment test of a stored fault from its own data.

    Returns the recomputed status and angle; a verdict is replayable
    when these match the stored ones to tight tolerance.  Only "a" and
    "af" faults carry a limit and a required subspace to re-test, at the
    witness's stored ``angle_tol`` (``CONTAIN_TOL`` for a report written
    without one); a "tf" or "afs" witness holds only its bad points, one
    per radius, so it is refused with ValueError.
    """
    if verdict_json["condition"] not in ("a", "af"):
        raise ValueError(
            f"a {verdict_json['condition']!r} witness carries no containment "
            "evidence to replay; only 'a' and 'af' faults replay"
        )
    n = verdict_json["ambient"]
    w = verdict_json["witness"]
    limit = Subspace.from_json(w["limit"], n)
    required = Subspace.from_json(w["required"], n)
    res = limit.contains(required, w.get("angle_tol", CONTAIN_TOL))
    return {
        "status": Status.FAILS.value if not res.ok else Status.HOLDS.value,
        "angle": res.worst_angle,
    }


@dataclass
class Report:
    scene_name: str
    scene_data: dict = field(repr=False)
    seed: int
    body: dict = field(default_factory=dict)
    started: float = field(default_factory=time.time)

    def finish(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "tool": f"strathom {__version__}",
            "scene": self.scene_name,
            "scene_hash": scene_hash(self.scene_data),
            "seed": self.seed,
            "report": self.body,
            "timing": {"wall_s": time.time() - self.started},
        }

    def write(self, path) -> None:
        """Write the report as indented, key-sorted JSON in one call."""
        text = json.dumps(self.finish(), indent=2, sort_keys=True, allow_nan=False) + "\n"
        with open(path, "w") as fh:
            fh.write(text)


def write_csv(path, header: tuple[str, ...], rows) -> None:
    """RFC-4180 output; numeric cells, comma separated, CRLF endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
