"""Pinned tf rows: the intersection search's per-radius output.

Each CLI entry is what `strathom check --condition tf --seed SEED` computes
on a regularity scene: for each of its five seeded test surfaces, the
verdict's status and the number of intersections kept at each of the ten
radii.  The witness-sheet entry is the criterion-5 sheet on parabola-shelf
at seed 0, per radius (intersections, nontransverse, stalled).  The values
were recorded from commit 9bb2a8b, where the surfaces answered the solve
(`nearest`) and the tangent lookup (`project`) by separate queries, so a
change to the surface queries that moved any intersection or verdict shows
up here.
"""

import numpy as np
import pytest

from strathom.constructions import tf_witness
from strathom.dsl import parse_map
from strathom.gallery import gallery_entry
from strathom.regularity import check_af_at, check_tf_at, random_test_surface
from strathom.seeds import derive_seed

TF_SURFACES = 5  # `strathom check --tf-surfaces` default

# (seed, scene) -> ((status, intersections per radius), ...) per test surface
PINNED = {
    (1, 'parallel-planes'): (
        ('holds-on-samples', (151, 155, 147, 144, 149, 158, 152, 151, 154, 148)),
        ('holds-on-samples', (166, 157, 159, 155, 163, 167, 171, 157, 168, 166)),
        ('holds-on-samples', (169, 178, 179, 164, 174, 167, 182, 162, 182, 170)),
        ('holds-on-samples', (156, 157, 161, 159, 150, 160, 149, 155, 154, 158)),
        ('holds-on-samples', (137, 132, 131, 147, 136, 137, 133, 138, 134, 140)),
    ),
    (1, 'parabola-shelf'): (
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (1, 'parallel-planes-constant'): (
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (1, 'parabola-shelf-constant'): (
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (1, 'blowup'): (
        ('fails-with-witness', (106, 105, 110, 100, 104, 104, 75, 90, 79, 73)),
        ('fails-with-witness', (117, 113, 113, 112, 111, 109, 86, 85, 74, 81)),
        ('fails-with-witness', (57, 71, 58, 65, 73, 59, 71, 53, 66, 59)),
        ('fails-with-witness', (54, 82, 66, 60, 63, 56, 71, 66, 53, 70)),
        ('fails-with-witness', (93, 99, 95, 98, 101, 112, 92, 84, 86, 73)),
    ),
    (20261017, 'parallel-planes'): (
        ('holds-on-samples', (115, 106, 114, 91, 98, 96, 112, 111, 109, 113)),
        ('holds-on-samples', (184, 175, 184, 185, 180, 171, 166, 183, 174, 182)),
        ('holds-on-samples', (179, 155, 154, 165, 164, 159, 153, 169, 159, 155)),
        ('holds-on-samples', (139, 145, 145, 138, 141, 142, 133, 134, 143, 124)),
        ('holds-on-samples', (104, 108, 121, 109, 106, 103, 107, 117, 110, 105)),
    ),
    (20261017, 'parabola-shelf'): (
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (20261017, 'parallel-planes-constant'): (
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (20261017, 'parabola-shelf-constant'): (
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        ('holds-on-samples', (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ),
    (20261017, 'blowup'): (
        ('fails-with-witness', (97, 114, 102, 98, 92, 89, 104, 92, 102, 105)),
        ('fails-with-witness', (58, 61, 62, 64, 78, 62, 67, 74, 76, 74)),
        ('fails-with-witness', (116, 83, 92, 107, 91, 85, 82, 95, 93, 97)),
        ('fails-with-witness', (65, 45, 64, 47, 69, 62, 64, 57, 54, 48)),
        ('fails-with-witness', (89, 88, 119, 95, 96, 98, 93, 85, 98, 104)),
    ),
}

# (intersections, nontransverse, stalled) per radius
SHEET_ROWS = (
    (9, True, 0), (11, True, 0), (13, True, 0), (16, True, 0), (16, True, 0),
    (15, True, 0), (13, True, 0), (14, True, 0), (16, True, 0), (14, True, 0),
)


@pytest.mark.parametrize("seed, name", sorted(PINNED), ids=[f"{s}-{n}" for s, n in sorted(PINNED)])
def test_cli_tf_rows(seed, name):
    scene = gallery_entry(name).scene()
    ctx = scene.build_context(seed=derive_seed(seed, "context"))
    (inc,) = scene.prestratification.incidences
    task_seed = derive_seed(seed, "check", "tf", inc.x, inc.y)
    got = []
    for k in range(TF_SURFACES):
        surface_seed = derive_seed(task_seed, str(k))
        surface = random_test_surface(ctx, inc.y, inc.point, seed=surface_seed)
        verdict = check_tf_at(ctx, inc.x, inc.y, inc.point, surface, seed=surface_seed)
        counts = tuple(r["intersections"] for r in verdict.detail["radii"])
        got.append((verdict.status.value, counts))
    assert tuple(got) == PINNED[(seed, name)]


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
