"""Every pinned CLI run replays its golden entry bit for bit.

Each case runs one command of `record_golden.COMMANDS` at one seed, in
process through `strathom.cli.main`, and compares the entry it records
(argv, exit code, report digest and pins; see `tests/record_golden.py`)
with the one stored in `tests/golden/`.  After a change that is meant to
move a pin, re-record with `PYTHONPATH=src python tests/record_golden.py`
and paste its diff into CHANGES.md.  `test_limit_pinned.py` and
`test_tf_pinned.py` compare one condition's verdicts of the same
`check --condition all` runs, so a failure there names the condition.
"""

import pytest
from record_golden import COMMANDS, GOLDEN, SEEDS, load, mismatch

CASES = [(command, seed) for command in COMMANDS for seed in SEEDS]


def test_corpus_holds_every_run_and_no_other():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)
    for command in COMMANDS:
        assert sorted(load(command)) == sorted(str(s) for s in SEEDS)


@pytest.mark.parametrize("command, seed", CASES, ids=[f"{c}-{s}" for c, s in CASES])
def test_run_matches_golden_entry(command, seed, golden_run):
    stored, recorded = golden_run(command, seed)
    message = mismatch(f"{command}.{seed}", stored, recorded)
    assert not message, message
