import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import strathom.constructions as constructions
from strathom.constructions import (
    ConstructionError,
    LocalizedCorrection,
    RankDropMap,
    SampledSheet,
    _Cutoff,
    _pruned_c1_size,
    _sampled_c1_size,
    choose_complement_H,
    destabilizing_sequence,
    frame_for_image,
    least_rotation,
    rank_drop_map,
    tf_witness,
)
from strathom.dsl import _bump_value_and_slope, parse_map
from strathom.experiments import make_perturbation
from strathom.grassmann import Subspace, grassmann_distance, span_of, subspace_sum
from strathom.regularity import PreconditionError, Status, check_af_at, transverse_at
from strathom.seeds import rng_for
from strathom.strata import NumericalInconsistencyError, StratifiedMapContext

ORIGIN = (0.0, 0.0, 0.0)


def span3(*vectors):
    return span_of(list(vectors), n=3)


@pytest.fixture(scope="module")
def shelf_fault(gallery_ctx):
    _, scene, ctx = gallery_ctx("parabola-shelf")
    verdict = check_af_at(ctx, "S1", "S2", ORIGIN, seed=0)
    assert verdict.status is Status.FAILS
    return scene, ctx, verdict.witness


def step_value(a: float) -> float:
    """The value column of the bump kernel at one point."""
    return float(_bump_value_and_slope(np.array([a]))[0][0])


def step_slope(a: float) -> float:
    """The slope column of the bump kernel at one point."""
    return float(_bump_value_and_slope(np.array([a]))[1][0])


class TestBump:
    def test_saturation(self):
        assert step_value(-1.0) == 0.0
        assert step_value(2.0) == 1.0
        assert step_value(0.0) == 0.0
        assert step_value(1.0) == 1.0

    def test_midpoint(self):
        assert step_value(0.5) == pytest.approx(0.5)

    def test_positive_slope_inside(self):
        assert step_slope(0.5) > 0
        # finite-difference oracle
        h = 1e-7
        fd = (step_value(0.5 + h) - step_value(0.5 - h)) / (2 * h)
        assert step_slope(0.5) == pytest.approx(fd, rel=1e-6)

    def test_slope_vanishes_outside(self):
        assert step_slope(-0.3) == 0.0
        assert step_slope(1.7) == 0.0

    def test_monotone_on_a_grid(self):
        xs = np.linspace(-0.5, 1.5, 101)
        vals = _bump_value_and_slope(xs)[0]
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))


class TestRankDropMap:
    def test_two_dimensional_normal_form(self):
        m = rank_drop_map(2, 1)
        assert m.jacobian(np.zeros(2)) == pytest.approx(np.diag([1.0, 0.0]))
        # identity outside the unit ball
        assert m([0.8, 0.8]) == pytest.approx([0.8, 0.8])
        assert m([2.0, -1.0]) == pytest.approx([2.0, -1.0])

    def test_rank_recovers_away_from_center(self):
        m = rank_drop_map(2, 1)
        sv = np.linalg.svd(m.jacobian([0.4, 0.35]), compute_uv=False)
        assert sv[-1] > 1e-12  # both directions survive

    @pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (5, 3)])
    def test_center_rank_with_clean_gap(self, n, r):
        m = rank_drop_map(n, r)
        sv = np.linalg.svd(m.jacobian(np.zeros(n)), compute_uv=False)
        assert np.all(sv[:r] > 0.9)
        assert np.all(sv[r:] < 1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            rank_drop_map(1, 1)
        with pytest.raises(ValueError):
            rank_drop_map(3, 3)
        with pytest.raises(ValueError):
            rank_drop_map(3, 0)

    def test_frame_steers_center_image(self):
        h = span3([0, 1, 0])
        m = rank_drop_map(3, 1, frame=frame_for_image(h))
        img = span_of(list(m.jacobian(np.zeros(3)).T), n=3)
        assert grassmann_distance(img, h) < 1e-12

    def test_off_center_and_scaled(self):
        c = np.array([1.0, -2.0])
        m = rank_drop_map(2, 1, center=c, radius=0.5)
        assert m.jacobian(c) == pytest.approx(np.diag([1.0, 0.0]))
        far = c + np.array([0.51, 0.0])
        assert m(far) == pytest.approx(far)

    def test_exports_to_expression_text(self):
        m = rank_drop_map(3, 2, center=[0.1, 0.0, -0.2], radius=0.7)
        reparsed = parse_map(m.map.to_source(), 3)
        pts = np.array([[0.15, 0.1, -0.1], [0.9, 0.9, 0.9], [0.1, 0.0, -0.2]])
        assert np.allclose(reparsed(pts), m(pts), atol=1e-14)
        assert np.allclose(reparsed.jacobian(pts), m.jacobian(pts), atol=1e-12)

    def test_injectivity_on_seeded_pairs(self):
        m = rank_drop_map(2, 1)
        rng = np.random.default_rng(11)
        p = rng.uniform(-1.2, 1.2, size=(20_000, 2))
        q = rng.uniform(-1.2, 1.2, size=(20_000, 2))
        separated = np.linalg.norm(p - q, axis=1) > 1e-6
        images_apart = np.linalg.norm(m(p) - m(q), axis=1) > 1e-9
        assert np.all(images_apart[separated])

    def test_surjectivity_by_root_finding(self):
        m = rank_drop_map(2, 1)
        rng = np.random.default_rng(13)
        targets = rng.uniform(-0.9, 0.9, size=(50, 2))
        z = targets.copy()
        for _ in range(200):
            vals, jacs = m.value_and_jacobian(z)
            step = np.linalg.solve(jacs + 1e-12 * np.eye(2), (vals - targets)[:, :, None])
            z = z - np.clip(step[:, :, 0], -0.2, 0.2)
        assert np.max(np.linalg.norm(m(z) - targets, axis=1)) < 1e-9


class TestChooseComplement:
    def test_shelf_fault_configuration(self):
        leaf_y = span3([1, 0, 0], [0, 0, 1])
        tau = span3([1, 0, 0])
        h = choose_complement_H(tau, leaf_y, np.array([0.0, 0.0, 1.0]), 3)
        assert h.dim == 1
        assert subspace_sum(h, leaf_y).dim == 3
        assert subspace_sum(h, tau).dim == 2

    def test_plane_with_trivial_limit(self):
        leaf_y = span_of([[1, 0]], n=2)
        tau = Subspace.zero(2)
        h = choose_complement_H(tau, leaf_y, np.array([1.0, 0.0]), 2)
        assert h.dim == 1
        assert subspace_sum(h, leaf_y).dim == 2
        assert subspace_sum(h, tau).dim == 1  # falls short of the plane

    def test_no_fault_no_complement(self):
        leaf_y = span3([1, 0, 0])
        tau = span3([1, 0, 0], [0, 1, 0])  # contains the leaf
        with pytest.raises(ValueError, match="no fault"):
            choose_complement_H(tau, leaf_y, np.array([1.0, 0.0, 0.0]), 3)

    def test_witness_vector_must_be_in_leaf(self):
        with pytest.raises(ValueError, match="leaf"):
            choose_complement_H(span3([1, 0, 0]), span3([0, 1, 0]), np.array([0.0, 0.0, 1.0]), 3)

    def test_random_configurations_verify(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            s = int(rng.integers(1, n))
            leaf = span_of(list(rng.standard_normal((s, n))), n=n)
            v = leaf.basis @ rng.standard_normal(s)
            v /= np.linalg.norm(v)
            kt = int(rng.integers(0, n - 1))
            tau = span_of(list(rng.standard_normal((kt, n))), n=n) if kt else Subspace.zero(n)
            if np.linalg.norm(v - tau.project(v)) < 1e-3:
                continue
            h = choose_complement_H(tau, leaf, v, n)
            assert h.dim == n - s
            assert subspace_sum(h, leaf).dim == n
            assert subspace_sum(h, tau).dim < n


class TestLeastRotation:
    def test_carries_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            rot = least_rotation(a, b)
            assert rot @ a == pytest.approx(b, abs=1e-12)
            assert rot.T @ rot == pytest.approx(np.eye(4), abs=1e-12)

    def test_identity_when_aligned(self):
        a = np.array([1.0, 0.0])
        assert least_rotation(a, a) == pytest.approx(np.eye(2))


class TestDestabilizer:
    def test_entries_certify_the_construction(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        h = choose_complement_H(witness.limit, witness.required, np.array(witness.vector), 3)
        base = rank_drop_map(3, 1, center=np.array(witness.point), frame=frame_for_image(h))
        seq = destabilizing_sequence(base, witness, radius=1.0, count=10, seed=0, c1_samples=2000)
        assert len(seq.entries) == 10
        for e in seq.entries:
            # center hits the fault sample and the rotated complement
            assert np.linalg.norm(e.map(np.array(witness.point)) - e.point) < 1e-10
            img = span_of(list(e.map.jacobian(np.array(witness.point)).T), n=3)
            assert grassmann_distance(img, e.h_i) < 1e-8
            # the non-spanning certificate
            assert not e.transversality.transverse
            assert e.transversality.defect >= 1
        dists = [e.c1_distance for e in seq.entries]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_base_is_transverse_where_sequence_is_not(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        h = choose_complement_H(witness.limit, witness.required, np.array(witness.vector), 3)
        base = rank_drop_map(3, 1, center=np.array(witness.point), frame=frame_for_image(h))
        assert transverse_at(base.image_at_center(), witness.required, 3).transverse
        seq = destabilizing_sequence(base, witness, radius=1.0, count=5, seed=0, c1_samples=1000)
        for e in seq.entries:
            assert not transverse_at(
                span_of(list(e.map.jacobian(np.array(witness.point)).T), n=3), e.leaf, 3
            ).transverse

    def test_perturbed_map_jacobian_matches_finite_differences(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        h = choose_complement_H(witness.limit, witness.required, np.array(witness.vector), 3)
        base = rank_drop_map(3, 1, center=np.array(witness.point), frame=frame_for_image(h))
        seq = destabilizing_sequence(base, witness, radius=1.0, count=3, seed=0, c1_samples=500)
        gmap = seq.entries[0].map
        rng = np.random.default_rng(7)
        for z in rng.uniform(-0.9, 0.9, size=(5, 3)):
            jac = gmap.jacobian(z)
            fd = np.stack(
                [(gmap(z + 1e-6 * e) - gmap(z - 1e-6 * e)) / 2e-6 for e in np.eye(3)], axis=1
            )
            assert np.max(np.abs(jac - fd)) < 1e-7

    def test_distances_come_from_the_correction_alone(self, shelf_fault, monkeypatch):
        scene, ctx, witness = shelf_fault
        h = choose_complement_H(witness.limit, witness.required, np.array(witness.vector), 3)
        base = rank_drop_map(3, 1, center=np.array(witness.point), frame=frame_for_image(h))
        sizes = []
        for attr in ("__call__", "jacobian", "value_and_jacobian"):
            def counted(self, z, *args, _original=getattr(RankDropMap, attr), **kwargs):
                sizes.append(len(np.atleast_2d(z)))
                return _original(self, z, *args, **kwargs)

            monkeypatch.setattr(RankDropMap, attr, counted)
        seq = destabilizing_sequence(base, witness, radius=1.0, count=4, seed=0, c1_samples=777)
        # the base is read at the fault point only, never on the C^1 sample
        assert sizes and set(sizes) == {1}
        monkeypatch.undo()

        y = np.asarray(witness.point, dtype=float)
        rng = rng_for(0, "correction-test")
        dirs = rng.standard_normal((300, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        outside = y + seq.radius * rng.uniform(1.0, 1.5, size=(300, 1)) * dirs
        outside[0] = y + seq.radius * np.eye(3)[0]  # on the sphere |z - y| = radius
        cube = y + seq.radius * rng.uniform(-1.0, 1.0, size=(300, 3))
        for e in seq.entries:
            assert e.map.base is base
            val, jac = e.map.delta.value_and_jacobian(outside)
            assert np.all(val == 0.0) and np.all(jac == 0.0)
            # g_i - g is the correction
            gval, gjac = e.map.value_and_jacobian(cube)
            val, jac = e.map.delta.value_and_jacobian(cube)
            assert np.max(np.abs(gval - base(cube) - val)) < 1e-12
            assert np.max(np.abs(gjac - base.jacobian(cube) - jac)) < 1e-12
            assert np.max(np.abs(val)) > 0.0

    def test_degenerate_arc_sample_rejected(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        h = choose_complement_H(witness.limit, witness.required, np.array(witness.vector), 3)
        base = rank_drop_map(3, 1, center=np.array(witness.point), frame=frame_for_image(h))
        with pytest.raises(ValueError, match="arc"):
            destabilizing_sequence(base, witness, count=10_000, seed=0)

    def test_a_spanning_complement_names_its_sample(self, shelf_fault, monkeypatch):
        # the rotated complement misses w_i, so the check cannot fire on a
        # real fault; forced, it must stop with the sample's index
        scene, ctx, witness = shelf_fault
        h = choose_complement_H(witness.limit, witness.required, np.array(witness.vector), 3)
        base = rank_drop_map(3, 1, center=np.array(witness.point), frame=frame_for_image(h))
        real = transverse_at(base.image_at_center(), witness.required, 3)
        monkeypatch.setattr(constructions, "transverse_at", lambda *args: real)
        with pytest.raises(ConstructionError, match="spans with the leaf at arc sample 0$"):
            destabilizing_sequence(base, witness, count=3, seed=0, c1_samples=100)

    # 395 of 777 cube points fall inside the ball; at seed 1 the one
    # point of a 1-point cube falls outside, where delta vanishes
    @pytest.mark.parametrize("seed, count, samples, inside", [(9, 4, 777, 395), (1, 1, 1, 0)])
    def test_support_rows_give_the_full_cube_distance(self, shelf_fault, seed, count, samples, inside):
        # the correction is an exact zero off the ball, so the distances
        # measured on the cube points inside it equal those of every cube
        # point through every row of the unpruned formula, bit for bit
        scene, ctx, witness = shelf_fault
        h = choose_complement_H(witness.limit, witness.required, np.array(witness.vector), 3)
        base = rank_drop_map(3, 1, center=np.array(witness.point), frame=frame_for_image(h))
        seq = destabilizing_sequence(base, witness, radius=0.8, count=count, seed=seed, c1_samples=samples)
        cube = seq.y + 0.8 * rng_for(seed, "c1-samples").uniform(-1.0, 1.0, size=(samples, 3))
        assert np.sum(np.linalg.norm(cube - seq.y, axis=1) < 0.8) == inside
        for e in seq.entries:
            full = _unpruned_c1_size(*e.map.delta.value_and_jacobian(cube))
            assert e.c1_distance.hex() == full.hex()

    def test_deterministic_given_seed(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        h = choose_complement_H(witness.limit, witness.required, np.array(witness.vector), 3)
        base = rank_drop_map(3, 1, center=np.array(witness.point), frame=frame_for_image(h))
        a = destabilizing_sequence(base, witness, count=4, seed=9, c1_samples=500)
        b = destabilizing_sequence(base, witness, count=4, seed=9, c1_samples=500)
        assert [e.c1_distance for e in a.entries] == [e.c1_distance for e in b.entries]


class TestSampledC1Size:
    # tall and wide Jacobians, square ones, and the (10000, 3, 3) ball of
    # destabilizing_sequence
    @pytest.mark.parametrize(
        "shape", [(1000, 3, 2), (1000, 3, 1), (1000, 2, 3), (1000, 1, 2), (1000, 2, 2), (10000, 3, 3)]
    )
    def test_matches_the_svd_reference(self, shape):
        rng = rng_for(0, "c1-size", str(shape))
        jacs = rng.standard_normal(shape)
        vals = rng.standard_normal(shape[:2])
        sup_val = float(np.max(np.linalg.norm(vals, axis=1)))
        sup_jac = float(np.max(np.linalg.svd(jacs, compute_uv=False)[:, 0]))
        assert _sampled_c1_size(vals, jacs) == pytest.approx(sup_val + sup_jac, rel=1e-14, abs=0.0)
        # the Jacobian term alone, without the value term to hide behind
        size = _sampled_c1_size(np.zeros_like(vals), jacs)
        assert size == pytest.approx(sup_jac, rel=1e-14, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_prune_keeps_the_unpruned_float(self, data):
        jacs, vals = data.draw(_c1_stacks())
        assert _c1_outcome(_sampled_c1_size, vals, jacs) == _c1_outcome(_unpruned_c1_size, vals, jacs)

    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_nan_row_gives_the_unpruned_outcome(self, at):
        rng = rng_for(0, "c1-size-nan")
        jacs = rng.standard_normal((7, 3, 2))
        jacs[at, 1, 0] = np.nan
        vals = rng.standard_normal((7, 3))
        assert _c1_outcome(_sampled_c1_size, vals, jacs) == _c1_outcome(_unpruned_c1_size, vals, jacs)

    def test_subnormal_grams_give_the_unpruned_float(self):
        # entries near 1e-162 square into the subnormal range, where the
        # rounding of the Gram matrix and fro2 is absolute, not relative:
        # without the absolute slack this stack would drop every row
        jacs = rng_for(0, "c1-size-subnormal", "14").standard_normal((3, 2, 2)) * 1.5e-162
        vals = np.zeros((3, 2))
        assert _c1_outcome(_sampled_c1_size, vals, jacs) == _c1_outcome(_unpruned_c1_size, vals, jacs)


def _unpruned_c1_size(vals, jacs) -> float:
    """The sampled C^1 size with every row through eigvalsh."""
    sup_val = float(np.max(np.linalg.norm(vals, axis=1)))
    jt = np.swapaxes(jacs, 1, 2)
    gram = jacs @ jt if jacs.shape[1] <= jacs.shape[2] else jt @ jacs
    return sup_val + float(np.sqrt(np.max(np.linalg.eigvalsh(gram)[:, -1])))


def _c1_outcome(size, vals, jacs):
    """The float's bits, "nan", or the error's type and message."""
    return _outcome(lambda: size(vals, jacs))


def _largest_singular_values(jacs) -> np.ndarray:
    """sigma_max of each Jacobian, NaN for one with a NaN entry."""
    out = np.full(len(jacs), np.nan)
    finite = np.all(np.isfinite(jacs), axis=(1, 2))
    out[finite] = np.linalg.svd(jacs[finite], compute_uv=False)[:, 0]
    return out


def _outcome(thunk):
    """The bits of the float the call returns, "nan", or the error's type
    and message."""
    try:
        out = thunk()
    except Exception as exc:
        return type(exc), str(exc)
    return "nan" if np.isnan(out) else out.hex()


@st.composite
def _c1_stacks(draw):
    """(jacs, vals): tall, wide and square Jacobian stacks, plain, all
    zero, of identical rows, with copies of one row moved by one ulp, or
    scaled so their Gram matrices are subnormal, some with a NaN entry."""
    k = draw(st.integers(1, 40))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.floats(-1e3, 1e3, width=64)
    jacs = draw(arrays(np.float64, (k, m, n), elements=entries))
    kind = draw(st.sampled_from(["plain", "zero", "identical", "ulp", "subnormal"]))
    if kind == "subnormal":
        jacs = jacs * 1e-165
    elif kind == "zero":
        jacs = np.zeros_like(jacs)
    elif kind == "identical":
        jacs = np.repeat(jacs[:1], k, axis=0)
    elif kind == "ulp":
        row = jacs[int(np.argmax(np.einsum("kij,kij->k", jacs, jacs)))]
        moved = [row, np.nextafter(row, np.inf), np.nextafter(row, -np.inf), row * np.nextafter(1.0, 2.0),
                 row * np.nextafter(1.0, 0.0)]
        jacs = np.concatenate([jacs, np.stack(draw(st.permutations(moved)))])
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.tuples(st.integers(0, len(jacs) - 1), st.integers(0, m - 1), st.integers(0, n - 1)))
        jacs[at] = np.nan
    vals = draw(arrays(np.float64, (len(jacs), m), elements=entries))
    return jacs, vals


class TestPrunedC1Size:
    """The destabilizer's corrections and the trial fields evaluate only
    the rows whose bounds can reach the sup; the size is still the float
    that every row through the unpruned formula gives."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_correction_gives_the_unpruned_float(self, data):
        correction, cut = data.draw(_corrections())
        want = _outcome(lambda: _unpruned_c1_size(*correction.on_cutoff(cut))) if len(cut.d) else 0.0.hex()
        assert _outcome(lambda: correction.sampled_c1_norm(cut)) == want

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_field_gives_the_unpruned_float(self, data):
        field, sample, misses = data.draw(_fields())
        want = _outcome(lambda: _unpruned_c1_size(*field.value_and_jacobian(sample)))
        assert _outcome(lambda: field.sampled_c1_norm(sample)) == want
        if misses:
            assert want == 0.0.hex()

    @pytest.mark.parametrize("where", ["val_bound", "jac_bound", "probe value", "probe jacobian"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_bound_or_probe_keeps_every_row(self, where, bad):
        # row 0 attains the largest bounds and sizes; rows 1-4 sit far
        # below them, and finite bounds and probes drop them (next test)
        vals = np.full((5, 2), 1e-3)
        vals[0] = 0.5
        jacs = np.tile(1e-3 * np.eye(2), (5, 1, 1))
        jacs[0] = 0.5 * np.eye(2)
        val_bound, jac_bound = np.array([1.0, 2e-3, 2e-3, 2e-3, 2e-3]), np.array([1.0, 3e-3, 3e-3, 3e-3, 3e-3])
        {"val_bound": val_bound, "jac_bound": jac_bound}.get(where, np.zeros(1))[0] = bad
        if where == "probe value":
            vals[0, 0] = bad
        elif where == "probe jacobian":
            jacs[0, 0, 0] = bad
        calls = []

        def evaluate(idx):
            calls.append(idx.tolist())
            return vals[idx], jacs[idx]

        outcome = _outcome(lambda: _pruned_c1_size(evaluate, val_bound, jac_bound))
        assert outcome == _outcome(lambda: _sampled_c1_size(vals, jacs))
        # an infinite Jacobian entry stops both at eigvalsh, with one error
        if not isinstance(outcome, tuple):
            assert calls[-1] == [0, 1, 2, 3, 4]

    def test_finite_bounds_and_probes_drop_the_rows_that_cannot_reach_the_sup(self):
        vals = np.full((5, 2), 1e-3)
        vals[0] = 0.5
        jacs = np.tile(1e-3 * np.eye(2), (5, 1, 1))
        jacs[0] = 0.5 * np.eye(2)
        calls = []

        def evaluate(idx):
            calls.append(idx.tolist())
            return vals[idx], jacs[idx]

        size = _pruned_c1_size(evaluate, np.array([1.0] + [2e-3] * 4), np.array([1.0] + [3e-3] * 4))
        assert size == _sampled_c1_size(vals, jacs)
        assert calls == [[0, 0], [0]]

    # the bit-identity argument rests on row independence: a row's value
    # and Jacobian do not depend on the rows evaluated with it
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_kernel_gives_the_unpruned_float(self, data):
        # bounds at the computed sizes, or a few eps under them, as
        # rounding may leave them; the slack must cover both
        jacs, vals = data.draw(_c1_stacks())
        under = data.draw(st.sampled_from([1.0, 1.0 - 4 * np.finfo(float).eps]))
        with np.errstate(invalid="ignore"):
            val_bound = np.linalg.norm(vals, axis=1) * under
            jac_bound = _largest_singular_values(jacs) * under
        pruned = _outcome(lambda: _pruned_c1_size(lambda idx: (vals[idx], jacs[idx]), val_bound, jac_bound))
        assert pruned == _c1_outcome(_unpruned_c1_size, vals, jacs)

    # the bit-identity argument rests on row independence: a row's value
    # and Jacobian do not depend on the rows evaluated with it, one row
    # alone included
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_correction_rows_do_not_depend_on_their_company(self, data):
        correction, cut = data.draw(_corrections())
        idx = data.draw(_subsets(len(cut.d)))
        full = correction.on_cutoff(cut)
        for rows in [idx, *idx[:16, None]]:
            for part, whole in zip(correction.on_cutoff(cut.rows(rows)), full):
                assert part.tobytes() == whole[rows].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_field_rows_do_not_depend_on_their_company(self, data):
        field, sample, _ = data.draw(_fields())
        idx = data.draw(_subsets(len(sample)))
        full = field.value_and_jacobian(sample)
        for rows in [idx, *idx[:16, None]]:
            for part, whole in zip(field.value_and_jacobian(sample[rows]), full):
                assert part.tobytes() == whole[rows].tobytes()

    def test_destabilizer_evaluates_the_probes_and_the_rows_that_can_reach_the_sup(
        self, shelf_fault, monkeypatch
    ):
        scene, ctx, witness = shelf_fault
        h = choose_complement_H(witness.limit, witness.required, np.array(witness.vector), 3)
        base = rank_drop_map(3, 1, center=np.array(witness.point), frame=frame_for_image(h))
        sizes = []

        def counted(self, cut, _original=LocalizedCorrection.on_cutoff):
            sizes.append(len(cut.d))
            return _original(self, cut)

        monkeypatch.setattr(LocalizedCorrection, "on_cutoff", counted)
        seq = destabilizing_sequence(base, witness, radius=1.0, count=4, seed=0, c1_samples=2000)
        monkeypatch.undo()
        cube = seq.y + rng_for(0, "c1-samples").uniform(-1.0, 1.0, size=(2000, 3))
        inside = int(np.sum(np.linalg.norm(cube - seq.y, axis=1) < 1.0))
        # per map: the center check (one point), the two probe rows, and
        # the kept rows, a small share of the ball
        assert sizes[0::3] == [1] * 4 and sizes[1::3] == [2] * 4
        assert all(2 <= k < 0.25 * inside for k in sizes[2::3])


@st.composite
def _corrections(draw):
    """(correction, cut): a localized correction of R^n into R^m, and its
    cutoff profile at 0, 1, 7, 777 or 10,000 points of the cube around
    its center (the center among them), in and out of its ball.  The
    shift and the linear part are plain or zero, scaled so that their
    squares or they themselves are subnormal, and may hold a NaN."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(st.sampled_from([0, 1, 7, 777, 10_000]))
    rng = rng_for(draw(st.integers(0, 2**16)), "pruned-correction")
    radius = draw(st.sampled_from([0.3, 1.0]))
    y, shift, lin = rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal((m, n))
    kind = draw(st.sampled_from(["plain", "zero-lin", "zero-shift", "zero", "square-subnormal", "subnormal"]))
    if kind in ("zero-lin", "zero"):
        lin = np.zeros_like(lin)
    if kind in ("zero-shift", "zero"):
        shift = np.zeros_like(shift)
    scale = {"square-subnormal": 1e-160, "subnormal": 1e-310}.get(kind, 1.0)
    shift, lin = shift * scale, lin * scale
    if draw(st.integers(0, 4)) == 0:
        entries = draw(st.sampled_from([shift, lin]))
        entries.flat[draw(st.integers(0, entries.size - 1))] = np.nan
    cube = y + radius * rng.uniform(-1.0, 1.0, size=(rows, n))
    if rows and draw(st.booleans()):
        cube[0] = y
    return LocalizedCorrection(y, radius, shift, lin), _Cutoff.at(cube, y, radius)


@st.composite
def _fields(draw):
    """(field, sample, misses): a perturbation field on a line domain of
    dimension 1-3 or on the circle, at scale 1 or not, with plain or zero
    offsets or linear parts, and 1, 7 or 300 sample points; when
    ``misses``, the humps reach none of them."""
    topology = draw(st.sampled_from(["line", "circle"]))
    m = 1 if topology == "circle" else draw(st.integers(1, 3))
    rows = draw(st.sampled_from([1, 7, 300]))
    rng = rng_for(draw(st.integers(0, 2**16)), "pruned-field")
    box = [[-np.pi, np.pi]] if topology == "circle" else [[-1.0, 1.0]] * m
    field = make_perturbation(draw(st.integers(1, 3)), m, box, rng, bumps=draw(st.integers(1, 4)),
                              topology=topology)
    field.scale = draw(st.sampled_from([1.0, 0.37]))
    zero = draw(st.sampled_from([None, "offsets", "linears"]))
    if zero:
        getattr(field, zero)[:] = 0.0
    lo, hi = np.asarray(box).T
    sample = rng.uniform(lo, hi, size=(rows, m))
    misses = draw(st.booleans())
    if misses and topology == "line":
        sample = sample + 10.0
    elif misses:
        field.centers[:] = 0.0
        field.radii[:] = 0.01
        sample = rng.uniform(1.0, 5.0, size=(rows, 1))
    return field, sample, misses


@st.composite
def _subsets(draw, k):
    """Sorted row indices of a nonempty subset of range(k), one row among
    the sizes drawn; for k = 0, no rows."""
    if k == 0:
        return np.arange(0)
    size = min(k, draw(st.sampled_from([1, 2, 7, k])))
    return np.sort(rng_for(draw(st.integers(0, 2**16)), "subset").choice(k, size, replace=False))


class TestWitnessSheet:
    def test_errors_come_in_arc_order(self, gallery_ctx):
        # the arc leaves the shelf's domain at t = 0.0125.  A leaf-tangent
        # failure at t = 0.025 comes first and is the error reported; with
        # the failure moved past the domain exit, the domain error is.
        _, _, ctx = gallery_ctx("parabola-shelf")

        def failing_below(cutoff):
            class Failing(StratifiedMapContext):
                def leaf_tangents(self, stratum, U):
                    U = np.asarray(U, dtype=float)
                    bad = (stratum.name == "S1") & (U[:, 0] < cutoff)
                    if np.any(bad):
                        raise NumericalInconsistencyError(f"leaf fails at {U[np.argmax(bad)].tolist()}")
                    return super().leaf_tangents(stratum, U)

            return Failing(f=ctx.f, prestratification=ctx.prestratification, ranks=ctx.ranks)

        arc = parse_map("x1, 0.02 - x1", 1)
        with pytest.raises(NumericalInconsistencyError, match=r"fails at \[0\.025, -0\.005"):
            tf_witness(failing_below(0.03), "S1", "S2", ORIGIN, arc, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ConstructionError, match="leaves the chart domain at t=0.0125"):
            tf_witness(failing_below(0.01), "S1", "S2", ORIGIN, arc, np.array([0.0, 0.0, 1.0]))

    def test_shelf_sheet_certificates(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        wit = scene.raw["witness"]
        arc = parse_map(wit["arc"], 1)
        sheet = tf_witness(
            ctx, "S1", "S2", ORIGIN, arc, np.array(witness.vector),
            t0=wit["t0"], ratio=wit["ratio"], count=wit["count"],
        )
        # tangent to the approaching foliation along the arc...
        assert np.max(sheet.containment_angles) < 1e-6
        # ...but transverse to the base leaf at the point
        uy = ctx.stratum("S2").locate(np.zeros(3)).u
        leaf_y = ctx.leaf_tangent("S2", uy)
        assert transverse_at(sheet.tangent_at_center(), leaf_y, 3).transverse

    def test_straight_arc_degenerates(self, shelf_fault):
        # marching straight down the parabola swallows the witness vector
        scene, ctx, witness = shelf_fault
        arc = parse_map("0, -x1", 1)
        with pytest.raises(ConstructionError):
            tf_witness(ctx, "S1", "S2", ORIGIN, arc, np.array(witness.vector))

    def test_point_off_the_base_stratum_rejected(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        arc = parse_map(scene.raw["witness"]["arc"], 1)
        with pytest.raises(PreconditionError, match="does not lie on stratum 'S2'"):
            tf_witness(ctx, "S1", "S2", (0.0, 0.3, 0.0), arc, np.array(witness.vector))

    def test_vector_outside_leaf_rejected(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        wit = scene.raw["witness"]
        arc = parse_map(wit["arc"], 1)
        with pytest.raises(ConstructionError, match="not tangent"):
            tf_witness(ctx, "S1", "S2", ORIGIN, arc, np.array([0.0, 1.0, 0.0]))

    def test_no_fault_no_witness(self, gallery_ctx):
        # on the regular constant-map shelf the leaf limit captures
        # every candidate vector
        _, scene, ctx = gallery_ctx("parabola-shelf-constant")
        arc = parse_map("x1, -x1^7", 1)
        with pytest.raises(ConstructionError, match="captured|swallowed"):
            tf_witness(ctx, "S1", "S2", ORIGIN, arc, np.array([0.0, 0.0, 1.0]))

    def test_projection_returns_nearest_patch(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        wit = scene.raw["witness"]
        arc = parse_map(wit["arc"], 1)
        sheet = tf_witness(
            ctx, "S1", "S2", ORIGIN, arc, np.array(witness.vector),
            t0=wit["t0"], ratio=wit["ratio"], count=wit["count"],
        )
        # patch centers project to themselves, with two-dimensional tangents
        q, _, tangents = sheet.project(sheet.centers[:4])
        assert np.max(np.linalg.norm(q - sheet.centers[:4], axis=1)) < 1e-12
        assert tangents.shape == (4, 3, 2)
        for t in tangents:
            np.testing.assert_allclose(t.T @ t, np.eye(2), atol=1e-15)

    def test_projection_returns_patch_normals(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        wit = scene.raw["witness"]
        arc = parse_map(wit["arc"], 1)
        sheet = tf_witness(
            ctx, "S1", "S2", ORIGIN, arc, np.array(witness.vector),
            t0=wit["t0"], ratio=wit["ratio"], count=wit["count"],
        )
        points = sheet.centers + 0.01 * rng_for(0, "sheet-normals").standard_normal(sheet.centers.shape)
        q, normals, tangents = sheet.project(points)
        assert normals.shape == (len(points), 3, 2)
        for normal, tangent, p, foot in zip(normals, tangents, points, q):
            # the foot's patch: its plane and normal frame make an
            # orthonormal basis, and its tangent is the plane plus the arc
            # direction
            # (the center patch repeats the frame of the innermost one)
            k = np.flatnonzero(np.all(sheet.normals == normal, axis=(1, 2)))[0]
            frame = np.hstack([sheet.frames[k], normal])
            np.testing.assert_allclose(frame.T @ frame, np.eye(3), atol=1e-15)
            assert np.array_equal(tangent, sheet.tangents[k])
            assert np.max(np.abs(tangent.T @ sheet.arc_dirs[k])) > 1 - 1e-12
            # the offset to the nearest point lies in the normal
            np.testing.assert_allclose(normal @ (normal.T @ (p - foot)), p - foot, atol=1e-15)

    def test_degenerate_patch_tangent_rejected(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        wit = scene.raw["witness"]
        arc = parse_map(wit["arc"], 1)
        sheet = tf_witness(
            ctx, "S1", "S2", ORIGIN, arc, np.array(witness.vector),
            t0=wit["t0"], ratio=wit["ratio"], count=wit["count"],
        )
        # an arc direction inside its patch plane leaves the patch tangent
        # one dimension short of a hypersurface
        arc_dirs = sheet.arc_dirs.copy()
        arc_dirs[3] = sheet.frames[3][:, 0]
        with pytest.raises(ConstructionError, match="patch 3"):
            SampledSheet(
                center=sheet.center, center_tangent=sheet.center_tangent,
                centers=sheet.centers, frames=sheet.frames, arc_dirs=arc_dirs,
                ts=sheet.ts, extent=sheet.extent,
            )

    def test_serializes_to_frames(self, shelf_fault):
        scene, ctx, witness = shelf_fault
        wit = scene.raw["witness"]
        arc = parse_map(wit["arc"], 1)
        sheet = tf_witness(
            ctx, "S1", "S2", ORIGIN, arc, np.array(witness.vector),
            t0=wit["t0"], ratio=wit["ratio"], count=wit["count"],
        )
        data = sheet.to_json()
        assert len(data["centers"]) == len(data["frames"]) == len(data["ts"])
        assert data["center"] == [0.0, 0.0, 0.0]
