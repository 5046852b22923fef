import os

# numpy's OpenBLAS picks its kernels by CPU, and their rounding differs in
# the last bits; the golden corpus and the in-file hex pins hold the bits
# of the Haswell kernels.  Set before numpy loads, so every machine whose
# OpenBLAS can run them (x86-64 with AVX2) computes the same bits
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import pytest
from hypothesis import settings
from record_golden import load, record

from strathom.dsl import parse_map
from strathom.gallery import gallery_entry
from strathom.strata import Incidence, Prestratification, StratifiedMapContext, Stratum

# HYPOTHESIS_PROFILE=ci (the Tier-1 CI step) derandomizes the property
# tests: each run draws the same examples, as many as each test asks for
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_CACHE: dict = {}


@pytest.fixture(scope="session")
def gallery_ctx():
    """Cached (entry, scene, context) triples for gallery scenes."""

    def get(name: str):
        if name not in _CACHE:
            entry = gallery_entry(name)
            scene = entry.scene()
            _CACHE[name] = (entry, scene, scene.build_context(seed=0))
        return _CACHE[name]

    return get


@pytest.fixture(scope="session")
def lines_in_r3_ctx():
    """Half-plane over a line, with a full-rank stratifying map: every
    leaf is a point, so leaf-based conditions hold vacuously."""
    halfplane = Stratum(
        name="X",
        chart=parse_map("x1, x2, 0", 2, domain=("x2",)),
        inverse_hint=parse_map("x1, x2", 3),
        sample_box=((-1.0, 1.0), (0.0, 1.0)),
    )
    line = Stratum(
        name="Y",
        chart=parse_map("x1, 0, 0", 1),
        inverse_hint=parse_map("x1", 3),
        sample_box=((-1.0, 1.0),),
    )
    prestrat = Prestratification(
        ambient=3,
        strata=(halfplane, line),
        incidences=(Incidence("X", "Y", (0.0, 0.0, 0.0)),),
    )
    return StratifiedMapContext.build(parse_map("x, y", 3), prestrat, seed=0)


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """(stored, recorded) entries of one golden command at one seed: the
    entry in `tests/golden/` and the one this session's run records.
    Each command runs once per seed per session, however many tests
    compare a part of its entry."""
    runs: dict = {}

    def get(command: str, seed: int):
        if (command, seed) not in runs:
            runs[command, seed] = record(command, seed, tmp_path_factory.mktemp(f"{command}-{seed}"))
        return load(command)[str(seed)], runs[command, seed]

    return get
