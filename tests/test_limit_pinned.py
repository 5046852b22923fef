"""Pinned a and af verdicts: the limit checkers' per-arc output.

Each entry is what `strathom check --condition a` or `--condition af
--seed SEED` computes on a regularity scene, through the CLI's own check
run (`cli._check`, with its context and task seeds) and the scene's
approach plan: the status, `arcs_total`, `arcs_converged` and the
witness angle, then for each kept arc, in
direction order, its Cauchy-window residual, the largest of its
consecutive-pair distances and the worst angle of the required subspace
against its limit (None for an arc that did not converge).  Floats are
pinned as `float.hex()`, so these are bit-for-bit pins.  They were
recorded from commit 4c07ad4, where every arc made its own tangent call
and its own Grassmann-limit call; batching the arcs of a verdict must not
move a bit.

One entry serves every seed in SEEDS.  The a/af checkers draw nothing
from their task seed: their arcs follow the approach plan's directions
from the incidence's located point (TestSeedIndependence in
test_regularity.py), so the four copies recorded per seed were
identical.  Each case still builds its context from its own seed, whose
rank certificates draw their samples from it, so a change to those
samples that moved a verdict at one seed fails that seed's case.
"""

import pytest

from strathom.cli import _check
from strathom.gallery import gallery_entry
from strathom.strata import ApproachPlan

SEEDS = (1, 2, 3, 20261017)

# (scene, condition) -> (status, arcs_total, arcs_converged,
# witness angle, ((residual, max history, worst angle) per arc))
PINNED = {
    ('blowup', 'a'): (
        'holds-on-samples', 5, 5, None,
        (
            ('0x1.ee215ec5a86d7p-29', '0x1.9dffe2a57fa67p-2', '0x1.176ce80000000p-30'),
            ('0x1.ee215ec5a800dp-29', '0x1.9dffe2a57f1c6p-2', '0x1.1726880000000p-30'),
            ('0x1.b9f6b00000000p-31', '0x1.2070503155d1ep-4', '0x1.17d6800000000p-32'),
            ('0x1.6c0a48e60a29ep-30', '0x1.00a633fc231e3p-3', '0x1.6075d00000000p-32'),
            ('0x1.eb48beee20ff5p-29', '0x1.c7d5b2cdde740p-2', '0x1.1b57780000000p-30'),
        ),
    ),
    ('blowup', 'af'): (
        'fails-with-witness', 5, 5, '0x1.921fb54442d18p+0',
        (
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
        ),
    ),
    ('parabola-shelf', 'a'): (
        'holds-on-samples', 5, 5, None,
        (
            ('0x0.0p+0', '0x0.0p+0', '0x1.1978000000000p-39'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.1978000000000p-39'),
            ('0x1.b9f6b00000000p-29', '0x1.66e920c8fd726p-3', '0x1.17d6740000000p-30'),
            ('0x1.476cc00000000p-33', '0x1.3da58a904fd10p-6', '0x1.af68800000000p-35'),
            ('0x1.b3d41a0000000p-29', '0x1.67a60dbc1dd06p-3', '0x1.13f5f80000000p-30'),
        ),
    ),
    ('parabola-shelf', 'af'): (
        'fails-with-witness', 5, 5, '0x1.921fb54442d18p+0',
        (
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x1.b87065d24eb86p-52', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x1.0000019f16c3ap-52', '0x1.921fb54442d18p+0'),
            ('0x1.0000000000001p-52', '0x1.0001685d0bee8p-52', '0x1.921fb54442d18p+0'),
        ),
    ),
    ('parabola-shelf-constant', 'a'): (
        'holds-on-samples', 5, 5, None,
        (
            ('0x0.0p+0', '0x0.0p+0', '0x1.1978000000000p-39'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.1978000000000p-39'),
            ('0x1.b9f6b00000000p-29', '0x1.66e920c8fd726p-3', '0x1.17d6740000000p-30'),
            ('0x1.476cc00000000p-33', '0x1.3da58a904fd10p-6', '0x1.af68800000000p-35'),
            ('0x1.b3d41a0000000p-29', '0x1.67a60dbc1dd06p-3', '0x1.13f5f80000000p-30'),
        ),
    ),
    ('parabola-shelf-constant', 'af'): (
        'holds-on-samples', 5, 5, None,
        (
            ('0x0.0p+0', '0x0.0p+0', '0x1.1978000000000p-39'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.1978000000000p-39'),
            ('0x1.b9f6b00000000p-29', '0x1.66e920c8fd726p-3', '0x1.17d6740000000p-30'),
            ('0x1.476cc00000000p-33', '0x1.3da58a904fd10p-6', '0x1.af68800000000p-35'),
            ('0x1.b3d41a0000000p-29', '0x1.67a60dbc1dd06p-3', '0x1.13f5f80000000p-30'),
        ),
    ),
    ('parallel-planes', 'a'): (
        'fails-with-witness', 5, 5, '0x1.921fb54442d18p+0',
        (
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
        ),
    ),
    ('parallel-planes', 'af'): (
        'holds-on-samples', 5, 5, None,
        (
            ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ),
    ),
    ('parallel-planes-constant', 'a'): (
        'fails-with-witness', 5, 5, '0x1.921fb54442d18p+0',
        (
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
        ),
    ),
    ('parallel-planes-constant', 'af'): (
        'fails-with-witness', 5, 5, '0x1.921fb54442d18p+0',
        (
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
            ('0x0.0p+0', '0x0.0p+0', '0x1.921fb54442d18p+0'),
        ),
    ),
}

def _hex(value):
    return None if value is None else float(value).hex()


CASES = [(seed, name, cond) for seed in SEEDS for name, cond in sorted(PINNED)]


@pytest.mark.parametrize("seed, name, cond", CASES, ids=[f"{s}-{n}-{c}" for s, n, c in CASES])
def test_cli_limit_verdicts(seed, name, cond):
    scene = gallery_entry(name).scene()
    (verdict,) = _check(scene, (cond,), scene.plan or ApproachPlan(), 5, seed)
    got = (
        verdict.status.value,
        verdict.detail["arcs_total"],
        verdict.detail["arcs_converged"],
        None if verdict.witness is None else _hex(verdict.witness.angle),
        tuple((_hex(a.residual), _hex(max(a.history)), _hex(a.worst_angle)) for a in verdict.arcs),
    )
    assert got == PINNED[(name, cond)]
