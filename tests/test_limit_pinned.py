"""The a and af verdicts of each regularity scene, one case per verdict.

A view of the golden corpus (`tests/record_golden.py`): each case takes
the verdict on its condition from its scene's `check --condition all`
entry at its seed, as stored in `tests/golden/` and as this session's
run of that command records it, and names the first fields that differ.
An a/af verdict pins its status, its arc counts, its witness angle and,
per arc in direction order, the Cauchy-window residual, the largest
consecutive-pair distance of the arc's history and the worst angle of
the required subspace against its limit, all as `float.hex`.  The a/af
checkers draw nothing from their task seed, but each seed builds its
own context, whose rank certificates sample from it.
"""

import pytest
from record_golden import REGULARITY, SEEDS, condition_pins, mismatch

CASES = [(seed, name, cond) for seed in SEEDS for name in REGULARITY for cond in ("a", "af")]


@pytest.mark.parametrize("seed, name, cond", CASES, ids=[f"{s}-{n}-{c}" for s, n, c in CASES])
def test_cli_limit_verdicts(seed, name, cond, golden_run):
    stored, recorded = golden_run(f"check-all.{name}", seed)
    assert len(condition_pins(stored, cond)) == 1
    message = mismatch(f"check-all.{name}.{seed} {cond}", condition_pins(stored, cond),
                       condition_pins(recorded, cond))
    assert not message, message
