"""Pinned tf and afs rows: the radial checkers' per-radius output.

Each tf entry is what `strathom check --condition tf --seed SEED` computes
on a regularity scene, through the CLI's own check run (`cli._check`):
for each of its five seeded test surfaces, the verdict's status and, at
each of the ten radii, the number of intersections kept, the number of
seeds drawn in the ball, the number of stalled seeds and whether a hit
is non-transverse.  Each afs entry is
what `strathom check --condition afs --seed SEED` computes on the same
scene: the status and, per radius, the samples drawn and whether one
drops rank.  The witness-sheet entry is the criterion-5 sheet on
parabola-shelf at seed 0, per radius (intersections, nontransverse,
stalled).  The intersection counts and statuses were recorded from
commit 9bb2a8b, where the surfaces answered the solve (`nearest`) and
the tangent lookup (`project`) by separate queries; the sample, stall and
transversality rows and the afs rows from commit 8a35a43, where each
radius drew and tested its samples on its own.  A change to the surface
queries, the ball sampling or the transversality test that moved any row
or verdict shows up here.
"""


import numpy as np
import pytest

from strathom.cli import _check
from strathom.constructions import tf_witness
from strathom.dsl import parse_map
from strathom.gallery import gallery_entry
from strathom.regularity import check_af_at, check_tf_at
from strathom.strata import ApproachPlan

TF_SURFACES = 5  # `strathom check --tf-surfaces` default

# (seed, scene) -> per test surface: (status, intersections, samples,
# stalled seeds, nontransverse) per radius, T marking a non-transverse radius
PINNED = {
    (1, 'blowup'): (
        (
            'fails-with-witness',
            (106, 105, 110, 100, 104, 104, 75, 90, 79, 73),
            (109, 105, 110, 100, 105, 110, 83, 107, 115, 111),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
        (
            'fails-with-witness',
            (117, 113, 113, 112, 111, 109, 86, 85, 74, 81),
            (117, 113, 113, 114, 112, 116, 101, 110, 104, 105),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
        (
            'fails-with-witness',
            (57, 71, 58, 65, 73, 59, 71, 53, 66, 59),
            (96, 97, 98, 98, 100, 87, 108, 93, 119, 104),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
        (
            'fails-with-witness',
            (54, 82, 66, 60, 63, 56, 71, 66, 53, 70),
            (88, 121, 100, 113, 108, 97, 120, 102, 95, 101),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
        (
            'fails-with-witness',
            (93, 99, 95, 98, 101, 112, 92, 84, 86, 73),
            (99, 99, 95, 99, 101, 115, 95, 108, 113, 115),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
    ),
    (1, 'parabola-shelf'): (
        (
            'holds-on-samples',
            (0,) * 10,
            (196, 200, 200, 200, 196, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (190, 200, 200, 200, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (195, 176, 200, 200, 200, 191, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (177, 200, 200, 200, 200, 200, 200, 200, 200, 188),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (184, 200, 199, 200, 200, 194, 182, 195, 200, 200),
            (0,) * 10,
            '..........',
        ),
    ),
    (1, 'parabola-shelf-constant'): (
        (
            'holds-on-samples',
            (0,) * 10,
            (196, 200, 200, 200, 196, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (190, 200, 200, 200, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (195, 176, 200, 200, 200, 191, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (177, 200, 200, 200, 200, 200, 200, 200, 200, 188),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (184, 200, 199, 200, 200, 194, 182, 195, 200, 200),
            (0,) * 10,
            '..........',
        ),
    ),
    (1, 'parallel-planes'): (
        (
            'holds-on-samples',
            (151, 155, 147, 144, 149, 158, 152, 151, 154, 148),
            (200, 200, 200, 187, 200, 200, 200, 200, 200, 198),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (166, 157, 159, 155, 163, 167, 171, 157, 168, 166),
            (200, 200, 200, 183, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (169, 178, 179, 164, 174, 167, 182, 162, 182, 170),
            (197, 200, 200, 191, 200, 190, 200, 200, 200, 195),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (156, 157, 161, 159, 150, 160, 149, 155, 154, 158),
            (200, 197, 200, 200, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (137, 132, 131, 147, 136, 137, 133, 138, 134, 140),
            (200, 200, 189, 200, 192, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
    ),
    (1, 'parallel-planes-constant'): (
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 200, 200, 187, 200, 200, 200, 200, 200, 198),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 200, 200, 183, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (197, 200, 200, 191, 200, 190, 200, 200, 200, 195),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 197, 200, 200, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 200, 189, 200, 192, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
    ),
    (20261017, 'blowup'): (
        (
            'fails-with-witness',
            (97, 114, 102, 98, 92, 89, 104, 92, 102, 105),
            (97, 114, 103, 98, 101, 91, 104, 95, 106, 112),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
        (
            'fails-with-witness',
            (58, 61, 62, 64, 78, 62, 67, 74, 76, 74),
            (103, 89, 87, 98, 119, 108, 104, 104, 114, 120),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
        (
            'fails-with-witness',
            (116, 83, 92, 107, 91, 85, 82, 95, 93, 97),
            (117, 84, 93, 112, 102, 96, 94, 105, 110, 114),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
        (
            'fails-with-witness',
            (65, 45, 64, 47, 69, 62, 64, 57, 54, 48),
            (111, 87, 118, 100, 121, 100, 108, 101, 115, 95),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
        (
            'fails-with-witness',
            (89, 88, 119, 95, 96, 98, 93, 85, 98, 104),
            (90, 88, 121, 98, 100, 104, 106, 95, 119, 120),
            (0,) * 10,
            'TTTTTTTTTT',
        ),
    ),
    (20261017, 'parabola-shelf'): (
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 187, 200, 200, 193, 197, 200, 200, 200, 199),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (181, 200, 200, 200, 200, 200, 200, 200, 200, 195),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (194, 194, 200, 200, 200, 200, 197, 199, 200, 198),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 200, 189, 200, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (188, 200, 200, 200, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
    ),
    (20261017, 'parabola-shelf-constant'): (
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 187, 200, 200, 193, 197, 200, 200, 200, 199),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (181, 200, 200, 200, 200, 200, 200, 200, 200, 195),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (194, 194, 200, 200, 200, 200, 197, 199, 200, 198),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 200, 189, 200, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (188, 200, 200, 200, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
    ),
    (20261017, 'parallel-planes'): (
        (
            'holds-on-samples',
            (115, 106, 114, 91, 98, 96, 112, 111, 109, 113),
            (200, 200, 200, 193, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (184, 175, 184, 185, 180, 171, 166, 183, 174, 182),
            (200, 188, 200, 200, 200, 187, 185, 200, 189, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (179, 155, 154, 165, 164, 159, 153, 169, 159, 155),
            (200, 190, 195, 200, 200, 200, 197, 200, 200, 197),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (139, 145, 145, 138, 141, 142, 133, 134, 143, 124),
            (200, 200, 200, 200, 199, 200, 200, 195, 200, 187),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (104, 108, 121, 109, 106, 103, 107, 117, 110, 105),
            (200, 200, 200, 200, 198, 200, 200, 190, 200, 200),
            (0,) * 10,
            '..........',
        ),
    ),
    (20261017, 'parallel-planes-constant'): (
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 200, 200, 193, 200, 200, 200, 200, 200, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 188, 200, 200, 200, 187, 185, 200, 189, 200),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 190, 195, 200, 200, 200, 197, 200, 200, 197),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 200, 200, 200, 199, 200, 200, 195, 200, 187),
            (0,) * 10,
            '..........',
        ),
        (
            'holds-on-samples',
            (0,) * 10,
            (200, 200, 200, 200, 198, 200, 200, 190, 200, 200),
            (0,) * 10,
            '..........',
        ),
    ),
}

# (seed, scene) -> (status, samples per radius, rank drops), T marking a
# radius where a sample drops rank
AFS_PINNED = {
    (1, 'blowup'): ('fails-with-witness', (107, 97, 119, 119, 98, 98, 115, 100, 86, 104), 'TTTTTTTTTT'),
    (1, 'parabola-shelf'): ('fails-with-witness', (188, 184, 200, 200, 200, 200, 200, 194, 198, 200), 'TTTTTTTTTT'),
    (1, 'parabola-shelf-constant'): ('holds-on-samples', (188, 184, 200, 200, 200, 200, 200, 194, 198, 200), '..........'),
    (1, 'parallel-planes'): ('holds-on-samples', (200, 200, 200, 200, 200, 200, 200, 200, 200, 188), '..........'),
    (1, 'parallel-planes-constant'): ('fails-with-witness', (200, 200, 200, 200, 200, 200, 200, 200, 200, 188), 'TTTTTTTTTT'),
    (20261017, 'blowup'): ('fails-with-witness', (98, 95, 104, 107, 106, 93, 110, 101, 103, 108), 'TTTTTTTTTT'),
    (20261017, 'parabola-shelf'): ('fails-with-witness', (180, 191, 200, 200, 200, 200, 193, 200, 200, 200), 'TTTTTTTTTT'),
    (20261017, 'parabola-shelf-constant'): ('holds-on-samples', (180, 191, 200, 200, 200, 200, 193, 200, 200, 200), '..........'),
    (20261017, 'parallel-planes'): ('holds-on-samples', (200, 200, 200, 200, 193, 200, 200, 199, 200, 193), '..........'),
    (20261017, 'parallel-planes-constant'): ('fails-with-witness', (200, 200, 200, 200, 193, 200, 200, 199, 200, 193), 'TTTTTTTTTT'),
}

# (intersections, nontransverse, stalled) per radius
SHEET_ROWS = (
    (9, True, 0), (11, True, 0), (13, True, 0), (16, True, 0), (16, True, 0),
    (15, True, 0), (13, True, 0), (14, True, 0), (16, True, 0), (14, True, 0),
)


def _marks(flags) -> str:
    return "".join("T" if flag else "." for flag in flags)


def _cli_case(name: str, seed: int, cond: str) -> list:
    """The verdicts of `strathom check --condition COND --seed SEED`."""
    scene = gallery_entry(name).scene()
    return _check(scene, (cond,), scene.plan or ApproachPlan(), TF_SURFACES, seed)


@pytest.mark.parametrize("seed, name", sorted(PINNED), ids=[f"{s}-{n}" for s, n in sorted(PINNED)])
def test_cli_tf_rows(seed, name):
    got = []
    for verdict in _cli_case(name, seed, "tf"):
        rows = verdict.detail["radii"]
        got.append((
            verdict.status.value,
            tuple(r["intersections"] for r in rows),
            tuple(r["samples"] for r in rows),
            tuple(r["stalled"] for r in rows),
            _marks(r["nontransverse"] for r in rows),
        ))
    assert tuple(got) == PINNED[(seed, name)]


@pytest.mark.parametrize(
    "seed, name", sorted(AFS_PINNED), ids=[f"{s}-{n}" for s, n in sorted(AFS_PINNED)]
)
def test_cli_afs_rows(seed, name):
    (verdict,) = _cli_case(name, seed, "afs")
    rows = verdict.detail["radii"]
    got = (
        verdict.status.value,
        tuple(r["samples"] for r in rows),
        _marks(r["rank_drop"] for r in rows),
    )
    assert got == AFS_PINNED[(seed, name)]


def test_witness_sheet_rows(gallery_ctx):
    _, scene, ctx = gallery_ctx("parabola-shelf")
    origin = np.zeros(3)
    fault = check_af_at(ctx, "S1", "S2", origin, seed=0)
    wit = scene.raw["witness"]
    sheet = tf_witness(
        ctx, "S1", "S2", origin, parse_map(wit["arc"], 1), np.array(fault.witness.vector),
        t0=wit["t0"], ratio=wit["ratio"], count=wit["count"],
    )
    verdict = check_tf_at(ctx, "S1", "S2", origin, sheet, seed=0)
    rows = tuple((r["intersections"], r["nontransverse"], r["stalled"]) for r in verdict.detail["radii"])
    assert rows == SHEET_ROWS
