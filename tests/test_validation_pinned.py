"""Pinned output of prestratification validation on the gallery.

Each entry is what `strathom validate --seed SEED` computes for the scene
(40 samples, the seed's "validate" stream): the number of confirmed
incidences and the frontier probe of every stratum, status and detail.
The values were recorded from the one-point-at-a-time point location and
boundary walk (commit 35106cc), so a batched solve that moved any frontier
point, claimant or verdict shows up here.
"""

import pytest

from strathom.gallery import gallery_entry, gallery_names
from strathom.seeds import derive_seed
from strathom.strata import validate_prestratification

SEEDS = (1, 2, 3, 20261017)

# (seed, scene) -> (incidences confirmed, ((stratum, status, detail), ...))
PINNED = {
    (1, 'blowup'): (1, (
        ('X', 'violated', 'frontier point [1.0, 0.0, 0.0] lies on no other stratum'),
        ('Y', 'violated', 'frontier point [1.251602597, 0.0, 0.0] lies on no other stratum'),
    )),
    (1, 'circle-into-plane'): (0, (
        ('plane', 'undetermined', 'no domain predicates to probe'),
    )),
    (1, 'cubic-graph'): (0, (
        ('plane', 'undetermined', 'no domain predicates to probe'),
    )),
    (1, 'parabola-shelf'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (1, 'parabola-shelf-constant'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (1, 'parallel-planes'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (1, 'parallel-planes-constant'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (1, 'sphere-disc'): (0, (
        ('circle', 'violated', 'frontier point [1.0, 0.0] lies on no other stratum'),
    )),
    (2, 'blowup'): (1, (
        ('X', 'violated', 'frontier point [1.0, 0.0, 0.0] lies on no other stratum'),
        ('Y', 'violated', 'frontier point [1.329948991, 0.0, 0.0] lies on no other stratum'),
    )),
    (2, 'circle-into-plane'): (0, (
        ('plane', 'undetermined', 'no domain predicates to probe'),
    )),
    (2, 'cubic-graph'): (0, (
        ('plane', 'undetermined', 'no domain predicates to probe'),
    )),
    (2, 'parabola-shelf'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (2, 'parabola-shelf-constant'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (2, 'parallel-planes'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (2, 'parallel-planes-constant'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (2, 'sphere-disc'): (0, (
        ('circle', 'violated', 'frontier point [1.0, 0.0] lies on no other stratum'),
    )),
    (3, 'blowup'): (1, (
        ('X', 'violated', 'frontier point [1.0, 0.0, 0.0] lies on no other stratum'),
        ('Y', 'violated', 'frontier point [1.078284867, 0.0, 0.0] lies on no other stratum'),
    )),
    (3, 'circle-into-plane'): (0, (
        ('plane', 'undetermined', 'no domain predicates to probe'),
    )),
    (3, 'cubic-graph'): (0, (
        ('plane', 'undetermined', 'no domain predicates to probe'),
    )),
    (3, 'parabola-shelf'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (3, 'parabola-shelf-constant'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (3, 'parallel-planes'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (3, 'parallel-planes-constant'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (3, 'sphere-disc'): (0, (
        ('circle', 'violated', 'frontier point [1.0, 0.0] lies on no other stratum'),
    )),
    (20261017, 'blowup'): (1, (
        ('X', 'violated', 'frontier point [1.0, 0.0, 0.0] lies on no other stratum'),
        ('Y', 'violated', 'frontier point [1.225671705, 0.0, 0.0] lies on no other stratum'),
    )),
    (20261017, 'circle-into-plane'): (0, (
        ('plane', 'undetermined', 'no domain predicates to probe'),
    )),
    (20261017, 'cubic-graph'): (0, (
        ('plane', 'undetermined', 'no domain predicates to probe'),
    )),
    (20261017, 'parabola-shelf'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (20261017, 'parabola-shelf-constant'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (20261017, 'parallel-planes'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (20261017, 'parallel-planes-constant'): (1, (
        ('S1', 'satisfied', "frontier samples matched by ['S2']"),
        ('S2', 'undetermined', 'no domain predicates to probe'),
    )),
    (20261017, 'sphere-disc'): (0, (
        ('circle', 'violated', 'frontier point [1.0, 0.0] lies on no other stratum'),
    )),
}


def test_pin_covers_the_gallery():
    assert set(PINNED) == {(seed, name) for seed in SEEDS for name in gallery_names()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", gallery_names())
def test_validation_report_is_pinned(name, seed):
    scene = gallery_entry(name).scene()
    report = validate_prestratification(
        scene.prestratification, samples=40, seed=derive_seed(seed, "validate")
    )
    confirmed, frontier = PINNED[(seed, name)]
    assert report.incidences_confirmed == confirmed
    assert tuple((p.stratum, p.status, p.detail) for p in report.frontier) == frontier
