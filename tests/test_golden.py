"""Every pinned CLI run replays its golden entry bit for bit.

Each case runs one command of `record_golden.COMMANDS` at one seed, in
process through `strathom.cli.main`, and compares the entry it records
(argv, exit code, report digest and pins; see `tests/record_golden.py`)
with the one stored in `tests/golden/`.  After a change that is meant to
move a pin, re-record with `PYTHONPATH=src python tests/record_golden.py`
and paste its diff into CHANGES.md.  `test_limit_pinned.py` and
`test_tf_pinned.py` compare one condition's verdicts of the same
`check --condition all` runs, so a failure there names the condition.
A failure on a platform other than the one in `tests/golden/PLATFORM`
names both.
"""

import json

import numpy as np
import pytest
import record_golden
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


def test_a_mismatch_names_both_platforms_when_they_differ(monkeypatch, tmp_path):
    here = record_golden.platform_of()
    monkeypatch.setattr(record_golden, "PLATFORM", tmp_path / "PLATFORM")
    record_golden.PLATFORM.write_text(json.dumps(here))
    assert mismatch("e", {"x": 1}, {"x": 2}).startswith("1 fields of e differ")
    elsewhere = {**here, "machine": "elsewhere"}
    record_golden.PLATFORM.write_text(json.dumps(elsewhere))
    message = mismatch("e", {"x": 1}, {"x": 2})
    assert message.startswith(f"the corpus was recorded on {elsewhere}, this run is on {here}\n")
    assert message.splitlines()[1].startswith("1 fields of e differ")
    assert mismatch("e", {"x": 1}, {"x": 1}) == ""  # a platform difference alone fails nothing


def test_the_platform_is_numpys_version_alone_without_a_build_report(monkeypatch):
    def show_config():  # numpy < 1.25 takes no mode
        pass

    monkeypatch.setattr(np, "show_config", show_config)
    assert "blas" not in record_golden.platform_of()
    assert record_golden.platform_of()["numpy"] == np.__version__
