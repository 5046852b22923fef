"""The tf and afs verdicts of each regularity scene, one case per condition.

A view of the golden corpus (`tests/record_golden.py`), as in
`test_limit_pinned.py`: each case takes the verdicts on its condition
from its scene's `check --condition all` entry at its seed, stored and
recorded, and names the first fields that differ.  A tf verdict (one per
seeded test surface) pins its status and, per radius, the intersections
kept, the seeds drawn in the ball, the stalled seeds and whether a hit is
non-transverse; an afs verdict pins its status and, per radius, the
samples drawn and whether one drops rank.
"""

import pytest
from record_golden import REGULARITY, SEEDS, condition_pins, mismatch

TF_SURFACES = 5  # `strathom check --tf-surfaces` default
CASES = [(seed, name) for seed in SEEDS for name in REGULARITY]
IDS = [f"{s}-{n}" for s, n in CASES]


def _compare(seed: int, name: str, cond: str, count: int, golden_run) -> None:
    stored, recorded = golden_run(f"check-all.{name}", seed)
    assert len(condition_pins(stored, cond)) == count
    message = mismatch(f"check-all.{name}.{seed} {cond}", condition_pins(stored, cond),
                       condition_pins(recorded, cond))
    assert not message, message


@pytest.mark.parametrize("seed, name", CASES, ids=IDS)
def test_cli_tf_rows(seed, name, golden_run):
    _compare(seed, name, "tf", TF_SURFACES, golden_run)


@pytest.mark.parametrize("seed, name", CASES, ids=IDS)
def test_cli_afs_rows(seed, name, golden_run):
    _compare(seed, name, "afs", 1, golden_run)
