"""The golden corpus: one entry per pinned `strathom` run.

    PYTHONPATH=src python tests/record_golden.py

runs every command of COMMANDS at every seed of SEEDS in process, through
`strathom.cli.main`, in a scratch directory that holds the gallery scene
as `strathom gallery --emit` writes it, and rewrites `tests/golden/`, one
file per command, keyed by seed.  It then prints a field-level diff
against the files it replaced (entry, field, old, new, |delta|, ulps);
a change that moves a pin records that diff in CHANGES.md.
`tests/test_golden.py` replays every entry and compares.  It also writes
the platform it recorded on to `tests/golden/PLATFORM` (see
:func:`platform_of`), which a failed comparison on another platform
names.

An entry holds the run's argv, its exit code, the SHA-256 of its
report's canonical JSON without `"timing"` (so any bit of the report
moving fails the comparison) and the run's pins, the output of
:func:`project`, the one place that decides what a pin is.  Floats are
stored as `float.hex`, so every pin holds bit for bit.
"""

from __future__ import annotations

import os

# the kernels the corpus was recorded under, set before numpy loads: see
# tests/conftest.py
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import contextlib
import hashlib
import io
import json
import platform
import struct
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

import strathom.cli as cli
from strathom.gallery import gallery_entry, gallery_names
from strathom.scene import canonical_json

GOLDEN = Path(__file__).parent / "golden"
PLATFORM = GOLDEN / "PLATFORM"
SEEDS = (1, 2, 3, 20261017)
REGULARITY = ("blowup", "parabola-shelf", "parabola-shelf-constant", "parallel-planes",
              "parallel-planes-constant")

# command -> (gallery scene, subcommand, flags)
COMMANDS = {
    **{f"validate.{n}": (n, "validate", []) for n in gallery_names()},
    **{f"check-all.{n}": (n, "check", ["--condition", "all"]) for n in REGULARITY},
    "stability.parallel-planes": ("parallel-planes", "experiment", ["--stability", "--trials", "50"]),
    **{f"instability.{n}": (n, "experiment", ["--instability"]) for n in ("parabola-shelf", "blowup")},
    **{f"nongenericity.{n}": (n, "experiment", ["--stability"])
       for n in ("circle-into-plane", "cubic-graph", "sphere-disc")},
}


def argv_of(command: str, seed: int) -> list[str]:
    scene, subcommand, flags = COMMANDS[command]
    outputs = ["--json", "report.json"] + (["--csv", "plot.csv"] if subcommand == "experiment" else [])
    return [subcommand, f"{scene}.json", *flags, "--seed", str(seed), *outputs]


def platform_of() -> dict:
    """What the bits of a run depend on besides the code: numpy's
    version, the name and version of the BLAS it was built with (numpy
    1.25 and later report them), the machine, and the OpenBLAS core type
    set above (the value set, not one probed from the library)."""
    out = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25: show_config takes no mode
        pass
    else:
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    out["machine"] = platform.machine()
    out["OPENBLAS_CORETYPE"] = os.environ.get("OPENBLAS_CORETYPE")
    return out


def _pin(value):
    """A JSON value as pinned: floats as `float.hex`, a list of records as
    one column per key (None where a record lacks the key), and a column
    of booleans as a string of marks, T for true and . for false."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _pin(v) for k, v in value.items()}
    if value and isinstance(value, list) and all(isinstance(v, dict) for v in value):
        keys = dict.fromkeys(k for row in value for k in row)
        return {k: _pin([row.get(k) for row in value]) for k in keys}
    if value and isinstance(value, list) and all(isinstance(v, bool) for v in value):
        return "".join("T" if v else "." for v in value)
    if isinstance(value, list):
        return [_pin(v) for v in value]
    return value


def _verdict(stored: dict, verdict) -> dict:
    """A check verdict's pins: its status and detail, an a/af witness's
    angle, and per arc, in direction order, the Cauchy-window residual,
    the largest consecutive-pair distance of its history (the one pin no
    report carries, read from the run's own verdict) and the worst angle
    of the required subspace against its limit."""
    out = {k: stored[k] for k in ("condition", "x", "y", "status")}
    out["detail"] = _pin(stored["detail"])
    if "angle" in stored.get("witness", {}):
        out["witness_angle"] = _pin(stored["witness"]["angle"])
    if "arcs" in stored:
        out["arcs"] = [
            _pin([a["residual"], max(arc.history, default=None), a["worst_angle"]])
            for a, arc in zip(stored["arcs"], verdict.arcs, strict=True)
        ]
    return out


def project(report: dict, verdicts: list) -> dict:
    """The pins of a run: the body of its report, floats hexed, but for a
    check, whose verdicts keep what :func:`_verdict` keeps, and a
    non-genericity run, which keeps its eps, its witness count and the
    SHA-256 of its block's sorted JSON (floats as their shortest
    round-trip repr, so the digest moves with any bit of any witness).
    ``verdicts`` are the check's own verdict objects, in report order."""
    body = report["report"]
    if "verdicts" in body:
        return {"verdicts": [_verdict(s, v) for s, v in zip(body["verdicts"], verdicts, strict=True)]}
    if "nongenericity" in body:
        run = body["nongenericity"]
        return {
            "eps": _pin(run["eps"]),
            "witnesses": len(run["witnesses"]),
            "digest": hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest(),
        }
    return _pin(body)


def condition_pins(entry: dict, condition: str) -> list:
    """The pins of a check entry's verdicts on one condition, in report order."""
    return [v for v in entry["pins"]["verdicts"] if v["condition"] == condition]


def record(command: str, seed: int, workdir: Path) -> dict:
    """Run one command at one seed in ``workdir`` and return its entry."""
    argv = argv_of(command, seed)
    scene = gallery_entry(COMMANDS[command][0]).scene_dict
    (workdir / argv[1]).write_text(json.dumps(scene, indent=2, sort_keys=True) + "\n")
    verdicts = []
    check = cli._check

    def recording_check(*args):
        out = check(*args)
        verdicts.extend(out)
        return out

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.object(cli, "_check", recording_check), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        report = json.loads(Path("report.json").read_text())
    finally:
        os.chdir(cwd)
    report.pop("timing")
    return {
        "argv": argv,
        "exit": code,
        "digest": hashlib.sha256(canonical_json(report).encode()).hexdigest(),
        "pins": project(report, verdicts),
    }


def _dump(value, indent="") -> str:
    """JSON with one key per line, sorted, and each list of scalars on one line."""
    inner = indent + " "
    if isinstance(value, dict) and value:
        items = (f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in sorted(value.items()))
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        return "[\n" + ",\n".join(inner + _dump(v, inner) for v in value) + "\n" + indent + "]"
    return json.dumps(value)


def load(command: str) -> dict:
    """The stored entries of a command, by seed (as a string)."""
    return json.loads((GOLDEN / f"{command}.json").read_text())


def _leaves(value, path=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


_ABSENT = "(absent)"


def diff(old: dict, new: dict) -> list[tuple[str, object, object]]:
    """(field, old, new) for every leaf of two entries that differs, in
    the order of ``new``; a leaf on one side only is paired with
    ``(absent)``."""
    a, b = dict(_leaves(old)), dict(_leaves(new))
    pairs = [(f, a.get(f, _ABSENT), b.get(f, _ABSENT)) for f in list(b) + [f for f in a if f not in b]]
    return [(f, x, y) for f, x, y in pairs if (type(x), x) != (type(y), y)]  # 1 is not True


def _number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str) and value.lstrip("-").startswith("0x"):
        return float.fromhex(value)
    return None


def _ordinal(x: float) -> int:
    """The position of x among the doubles, so that adjacent doubles differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def diff_rows(entry: str, changes) -> list[tuple[str, ...]]:
    """Table rows (entry, field, old, new, |delta|, ulps) of one entry's
    changes; a change that moves only the report digest is one row
    saying so."""
    if [f for f, _, _ in changes] == ["digest"]:
        (_, old, new), = changes
        return [(entry, "digest", old[:12], new[:12], "only the report digest moved", "")]
    rows = []
    for field, old, new in changes:
        x, y = _number(old), _number(new)
        delta = ulps = ""
        if x is not None and y is not None:
            delta = f"{abs(y - x):.3g}"
            if isinstance(x, float) and isinstance(y, float):
                ulps = str(abs(_ordinal(y) - _ordinal(x)))
        rows.append((entry, field, str(old), str(new), delta, ulps))
    return rows


def format_rows(rows) -> str:
    header = ("entry", "field", "old", "new", "|delta|", "ulps")
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in [header, *rows])


def mismatch(entry: str, old, new, shown: int = 10) -> str:
    """Empty when ``old`` and ``new`` agree, else how many fields differ
    and a table of the first ``shown``: the message of every comparison
    against the corpus.  When the corpus was recorded on another
    platform, the message starts with both."""
    changes = diff(old, new)
    if not changes:
        return ""
    recorded = json.loads(PLATFORM.read_text()) if PLATFORM.exists() else None
    here = platform_of()
    header = f"the corpus was recorded on {recorded}, this run is on {here}\n" if recorded != here else ""
    return (f"{header}{len(changes)} fields of {entry} differ from the golden corpus; the first:\n"
            + format_rows(diff_rows(entry, changes[:shown])))


def main() -> int:
    warnings.simplefilter("error")  # as the test suite does: a run that warns fails
    GOLDEN.mkdir(exist_ok=True)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            path = GOLDEN / f"{command}.json"
            old = load(command) if path.exists() else {}
            new = {}
            for seed in SEEDS:
                workdir = Path(tmp) / f"{command}-{seed}"
                workdir.mkdir()
                new[str(seed)] = entry = record(command, seed, workdir)
                if str(seed) not in old:
                    rows.append((f"{command}.{seed}", "(entry)", _ABSENT, "recorded", "", ""))
                else:
                    rows += diff_rows(f"{command}.{seed}", diff(old[str(seed)], entry))
            path.write_text(_dump(new) + "\n")
    PLATFORM.write_text(json.dumps(platform_of(), indent=1, sort_keys=True) + "\n")
    for stale in sorted(set(GOLDEN.glob("*.json")) - {GOLDEN / f"{c}.json" for c in COMMANDS}):
        stale.unlink()
        rows.append((stale.stem, "(file)", "present", "removed", "", ""))
    print(format_rows(rows) if rows else f"no pin moved: {len(COMMANDS) * len(SEEDS)} entries unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
