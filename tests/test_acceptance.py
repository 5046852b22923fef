"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json

import numpy as np
import pytest

from strathom.cli import main
from strathom.constructions import (
    choose_complement_H,
    destabilizing_sequence,
    frame_for_image,
    rank_drop_map,
    tf_witness,
)
from strathom.dsl import parse_map
from strathom.experiments import (
    grid_points,
    seeded_full_rank_map,
    stability_trial,
)
from strathom.gallery import gallery, gallery_entry
from strathom.grassmann import kernel, span_of, subspace_sum
from strathom.regularity import (
    Status,
    check_af_at,
    check_afs_at,
    check_tf_at,
    random_test_surface,
    transverse_at,
)

ORIGIN = (0.0, 0.0, 0.0)
REGULARITY_SCENES = (
    "parallel-planes",
    "parabola-shelf",
    "parallel-planes-constant",
    "parabola-shelf-constant",
    "blowup",
)


def intersection(a, b):
    """a ∩ b as the kernel of the stacked residual projectors I - P_A and
    I - P_B: a vector lies in both iff both residuals vanish."""
    eye = np.eye(a.n)
    return kernel(np.vstack([eye - a.basis @ a.basis.T, eye - b.basis @ b.basis.T]))


def _report(criterion: str, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


def _run_check(tmp_path, name: str, condition: str):
    scene_path = tmp_path / f"{name}.json"
    if not scene_path.exists():
        scene_path.write_text(json.dumps(gallery_entry(name).scene_dict))
    out = tmp_path / f"{name}-{condition}.json"
    rc = main(["check", str(scene_path), "--condition", condition, "--seed", "0",
               "--json", str(out)])
    verdicts = json.loads(out.read_text())["report"]["verdicts"]
    return rc, verdicts


def test_criterion_1_golden_verdict_matrix(tmp_path):
    rc, vs = _run_check(tmp_path, "parallel-planes", "a")
    assert rc == 3 and vs[0]["status"] == "fails-with-witness"
    rc, vs = _run_check(tmp_path, "parallel-planes", "af")
    assert rc == 0 and vs[0]["status"] == "holds-on-samples"

    rc, vs = _run_check(tmp_path, "parabola-shelf", "a")
    assert rc == 0 and vs[0]["status"] == "holds-on-samples"
    rc, vs = _run_check(tmp_path, "parabola-shelf", "af")
    assert rc == 3 and vs[0]["status"] == "fails-with-witness"
    assert abs(vs[0]["witness"]["angle"] - np.pi / 2) <= 1e-6

    rc, vs = _run_check(tmp_path, "blowup", "af")
    assert rc == 3 and vs[0]["status"] == "fails-with-witness"
    _report(
        "1 golden-verdict-matrix",
        "planes: a fails / af holds; shelf: a holds / af fails at angle pi/2; "
        "blowup: af fails",
    )


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (5, 3)])
def test_criterion_2_rank_drop_suite(n, r):
    m = rank_drop_map(n, r)

    sv = np.linalg.svd(m.jacobian(np.zeros(n)), compute_uv=False)
    assert np.all(sv[r:] * 1e6 <= sv[r - 1]), "singular value gap below 1e6x"

    # full rank at seeded points away from the center (outside the radius
    # where the strictly positive step factor underflows double precision)
    rng = np.random.default_rng(1000 + 10 * n + r)
    dirs = rng.standard_normal((100, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.25, 1.2, size=(100, 1))
    pts = dirs * radii
    svs = np.linalg.svd(m.jacobian(pts), compute_uv=False)
    assert np.all(svs[:, -1] > 1e-12), "rank drop away from the center"

    outside = dirs * rng.uniform(1.0 + 1e-9, 3.0, size=(100, 1))
    assert np.max(np.abs(m(outside) - outside)) <= 1e-12, "not the identity outside"

    p = rng.uniform(-1.2, 1.2, size=(100_000, n))
    q = rng.uniform(-1.2, 1.2, size=(100_000, n))
    apart = np.linalg.norm(p - q, axis=1) > 1e-6
    collisions = np.linalg.norm(m(p) - m(q), axis=1) <= 1e-9
    assert not np.any(collisions & apart), "injectivity collision"
    _report(f"2 rank-drop-map (n={n}, r={r})", "gap, off-center rank, identity, injectivity")


def test_criterion_3_retraction_agreement(gallery_ctx):
    disagreements = []
    checked = 0
    for name in REGULARITY_SCENES:
        _, scene, ctx = gallery_ctx(name)
        for inc in scene.prestratification.incidences:
            af = check_af_at(ctx, inc.x, inc.y, inc.point, seed=0)
            afs = check_afs_at(ctx, inc.x, inc.y, inc.point, seed=0)
            checked += 1
            if af.status != afs.status:
                disagreements.append((name, inc.x, inc.y, af.status, afs.status))
    assert not disagreements, disagreements
    _report("3 retraction-agreement", f"{checked} incidences, 0 disagreements")


def test_criterion_4_limit_condition_implies_surface_condition(gallery_ctx):
    counterexamples = []
    total = 0
    for name in REGULARITY_SCENES:
        _, scene, ctx = gallery_ctx(name)
        for inc in scene.prestratification.incidences:
            if check_af_at(ctx, inc.x, inc.y, inc.point, seed=0).status is not Status.HOLDS:
                continue
            n = scene.ambient
            uy = ctx.stratum(inc.y).locate(np.asarray(inc.point)).u
            s_y = ctx.leaf_tangent(inc.y, uy).dim
            for k in range(20):
                dim = (n - s_y) + (k % max(1, s_y))
                surf = random_test_surface(ctx, inc.y, inc.point, seed=k, dim=min(dim, n - 1))
                verdict = check_tf_at(ctx, inc.x, inc.y, inc.point, surf, seed=k)
                total += 1
                if verdict.status is not Status.HOLDS:
                    counterexamples.append((name, k))
    assert total >= 40  # at least two holding incidences, 20 surfaces each
    assert not counterexamples, counterexamples
    _report("4 surface-condition-implication", f"{total} surfaces, 0 counterexamples")


def test_criterion_5_witness_sheet(gallery_ctx):
    _, scene, ctx = gallery_ctx("parabola-shelf")
    fault = check_af_at(ctx, "S1", "S2", ORIGIN, seed=0)
    wit = scene.raw["witness"]
    arc = parse_map(wit["arc"], 1)
    sheet = tf_witness(
        ctx, "S1", "S2", ORIGIN, arc, np.array(fault.witness.vector),
        t0=wit["t0"], ratio=wit["ratio"], count=wit["count"],
    )
    uy = ctx.stratum("S2").locate(np.zeros(3)).u
    leaf_y = ctx.leaf_tangent("S2", uy)
    pre = transverse_at(sheet.tangent_at_center(), leaf_y, 3)
    assert pre.transverse, "sheet not transverse to the base leaf at the point"
    worst = float(np.max(sheet.containment_angles))
    assert worst < 1e-6, f"leaf containment angle {worst:.2e}"
    verdict = check_tf_at(ctx, "S1", "S2", ORIGIN, sheet, seed=0)
    assert verdict.status is Status.FAILS
    assert all(r["nontransverse"] for r in verdict.detail["radii"])
    _report(
        "5 witness-sheet",
        f"transverse at the point (margin {pre.margin:.2f}), containment "
        f"{worst:.1e}, non-transverse at all {len(verdict.detail['radii'])} radii",
    )


# (intersections, nontransverse, stalled) per radius
SHEET_ROWS = (
    (9, True, 0), (11, True, 0), (13, True, 0), (16, True, 0), (16, True, 0),
    (15, True, 0), (13, True, 0), (14, True, 0), (16, True, 0), (14, True, 0),
)


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


def test_criterion_6_stability(gallery_ctx):
    entry, scene, ctx = gallery_ctx("parallel-planes")
    exp = scene.experiments
    k_points = grid_points(exp["k_box"], exp["grid"])
    base = seeded_full_rank_map(3, seed=0)
    # calibrated with 10 probe trials and 6 rounds, certified on the 200
    report = stability_trial(ctx, base, k_points, None, trials=200, seed=0)
    assert report.eps > 0.0
    assert report.fraction == 1.0, f"only {report.fraction:.3f} persisted"
    _report("6 stability", f"calibrated eps {report.eps:.4f}, 200/200 trials transverse")


def test_criterion_7_instability(gallery_ctx):
    _, scene, ctx = gallery_ctx("parabola-shelf")
    fault = check_af_at(ctx, "S1", "S2", ORIGIN, seed=0)
    w = fault.witness
    h = choose_complement_H(w.limit, w.required, np.asarray(w.vector), 3)
    base = rank_drop_map(3, 1, center=np.zeros(3), frame=frame_for_image(h))
    base_res = transverse_at(base.image_at_center(), w.required, 3)
    assert base_res.transverse  # the base map is transverse at the point
    seq = destabilizing_sequence(base, w, radius=1.0, count=20, seed=0)
    assert len(seq.entries) >= 20
    for e in seq.entries:
        # center image equals the rotated complement and fails to span
        # with the leaf at the fault sample
        img = span_of(list(e.map.jacobian(np.zeros(3)).T), n=3)
        from strathom.grassmann import grassmann_distance

        assert grassmann_distance(img, e.h_i) <= 1e-8
        res = transverse_at(e.h_i, e.leaf, 3)
        assert not res.transverse and res.defect >= 1
        assert np.linalg.norm(e.map(np.zeros(3)) - e.point) <= 1e-10
    dists = [e.c1_distance for e in seq.entries]
    assert all(b < a for a, b in zip(dists, dists[1:])), "C1 distances not strictly decreasing"
    _report(
        "7 instability",
        f"{len(seq.entries)} maps, defect >= 1 at every sample, C1 distance "
        f"{dists[0]:.2e} -> {dists[-1]:.2e}",
    )


def test_criterion_8_numerical_substrate(gallery_ctx, tmp_path):
    # Grassmann dimension formula, exact, 1000 random pairs in R^n, n <= 8
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        ka = int(rng.integers(0, n + 1))
        kb = int(rng.integers(0, n + 1))
        a = span_of(list(rng.standard_normal((ka, n))), n=n)
        b = span_of(list(rng.standard_normal((kb, n))), n=n)
        assert subspace_sum(a, b).dim + intersection(a, b).dim == a.dim + b.dim

    # dual-number Jacobians vs central differences over the gallery corpus
    h0 = float(np.finfo(float).eps) ** (1.0 / 3.0)
    worst = 0.0
    for entry in gallery():
        scene = entry.scene()
        maps = [(scene.f, None)] + [(s.chart, s) for s in scene.prestratification.strata]
        for smap, stratum in maps:
            rng2 = np.random.default_rng(99)
            if stratum is not None:
                pts = stratum.sample_chart_points(100, rng2)
            else:
                pts = rng2.uniform(0.4, 1.2, size=(100, smap.n))
            exact = smap.jacobian(pts, check_domain=False)
            for i in range(smap.n):
                step = h0 * np.maximum(1.0, np.abs(pts[:, i]))
                up = pts.copy()
                dn = pts.copy()
                up[:, i] += step
                dn[:, i] -= step
                fd = (smap(up, check_domain=False) - smap(dn, check_domain=False)) / (
                    2 * step[:, None]
                )
                scale = np.maximum(1.0, np.max(np.abs(exact[:, :, i])))
                worst = max(worst, float(np.max(np.abs(exact[:, :, i] - fd)) / scale))
    assert worst < 1e-6, f"AD-vs-FD relative error {worst:.2e}"

    # verdict replay: same scene + seed reproduces statuses bit-identically
    scene_path = tmp_path / "shelf.json"
    scene_path.write_text(json.dumps(gallery_entry("parabola-shelf").scene_dict))
    outs = []
    for run in range(2):
        out = tmp_path / f"r{run}.json"
        rc = main(["check", str(scene_path), "--condition", "all", "--seed", "11",
                   "--tf-surfaces", "2", "--json", str(out)])
        assert rc == 3  # the foliated fault is present
        data = json.loads(out.read_text())
        data.pop("timing")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1], "replay is not bit-identical"
    statuses = [v["status"] for v in json.loads(outs[0])["report"]["verdicts"]]
    assert "fails-with-witness" in statuses
    _report(
        "8 numerical-substrate",
        f"dimension formula 1000/1000, AD-vs-FD {worst:.1e}, replay bit-identical",
    )
