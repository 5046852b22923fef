import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strathom.grassmann import (
    ATOL,
    RTOL,
    Subspace,
    _angles,
    _rank_at_least,
    _ranks,
    grassmann_distance,
    grassmann_limit,
    grassmann_limits,
    kernel,
    principal_angles,
    span_of,
    subspace_sum,
)


def intersection(a, b):
    """a ∩ b as the kernel of the stacked residual projectors I - P_A and
    I - P_B: a vector lies in both iff both residuals vanish."""
    eye = np.eye(a.n)
    return kernel(np.vstack([eye - a.basis @ a.basis.T, eye - b.basis @ b.basis.T]))


def random_subspace(rng, n, k):
    if k == 0:
        return Subspace.zero(n)
    return span_of(list(rng.standard_normal((k, n))), n=n)


class TestSpanOf:
    def test_single_axis_vector(self):
        s = span_of([[1.0, 0.0, 0.0]])
        assert s.dim == 1
        assert abs(abs(s.basis[0, 0]) - 1.0) < 1e-12

    def test_colinear_collapse(self):
        s = span_of([[1.0, 0.0], [2.0, 0.0]])
        assert s.dim == 1

    def test_plane_from_two_vectors(self):
        # hand Gram-Schmidt: (1,1,0) and (1,-1,0) span the z=0 plane
        s = span_of([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        assert s.dim == 2
        assert np.allclose(s.basis[2, :], 0.0)
        assert s.contains(span_of([[0.3, -1.7, 0.0]])).ok

    def test_empty_gives_zero_subspace(self):
        s = span_of([], n=4)
        assert s.dim == 0 and s.n == 4


class TestPrincipalAngles:
    def test_identical(self):
        rng = np.random.default_rng(0)
        a = random_subspace(rng, 5, 2)
        angles = principal_angles(a, a)
        assert np.allclose(angles, 0.0, atol=1e-7)

    def test_orthogonal_lines(self):
        a = span_of([[1.0, 0.0]])
        b = span_of([[0.0, 1.0]])
        assert principal_angles(a, b) == pytest.approx([np.pi / 2])

    def test_diagonal_line(self):
        a = span_of([[1.0, 1.0]])
        b = span_of([[1.0, 0.0]])
        assert principal_angles(a, b) == pytest.approx([np.pi / 4])

    def test_symmetric_sorted_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_subspace(rng, 6, int(rng.integers(1, 4)))
            b = random_subspace(rng, 6, int(rng.integers(1, 4)))
            ab = principal_angles(a, b)
            ba = principal_angles(b, a)
            assert ab == pytest.approx(ba, abs=1e-9)
            assert np.all(np.diff(ab) >= -1e-12)
            assert np.all(ab >= -1e-12) and np.all(ab <= np.pi / 2 + 1e-12)


class TestSumIntersection:
    def test_axes_sum_to_plane(self):
        s = subspace_sum(span_of([[1, 0, 0]]), span_of([[0, 1, 0]]))
        assert s.dim == 2
        assert np.allclose(s.basis[2, :], 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        a = random_subspace(rng, 4, 2)
        assert grassmann_distance(subspace_sum(a, a), a) < 1e-9

    def test_skew_line_fills_plane(self):
        s = subspace_sum(span_of([[1, 0, 0]]), span_of([[1, 1, 0]]))
        assert s.dim == 2

    def test_plane_intersection_axis(self):
        a = span_of([[1, 0, 0], [0, 1, 0]])
        b = span_of([[0, 1, 0], [0, 0, 1]])
        inter = intersection(a, b)
        assert inter.dim == 1
        assert grassmann_distance(inter, span_of([[0, 1, 0]])) < 1e-9

    def test_self_intersection(self):
        rng = np.random.default_rng(5)
        a = random_subspace(rng, 5, 3)
        assert grassmann_distance(intersection(a, a), a) < 1e-9

    def test_two_random_planes_in_r3_meet_in_line(self):
        rng = np.random.default_rng(11)
        a = random_subspace(rng, 3, 2)
        b = random_subspace(rng, 3, 2)
        inter = intersection(a, b)
        assert inter.dim == 1
        # brute-force oracle: rank of stacked bases gives dim of the sum
        stacked = np.hstack([a.basis, b.basis])
        dim_sum = np.linalg.matrix_rank(stacked, tol=1e-10)
        assert inter.dim == a.dim + b.dim - dim_sum

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_dimension_formula_random(self, seed, n):
        rng = np.random.default_rng(seed)
        ka = int(rng.integers(0, n + 1))
        kb = int(rng.integers(0, n + 1))
        a = random_subspace(rng, n, ka)
        b = random_subspace(rng, n, kb)
        assert subspace_sum(a, b).dim + intersection(a, b).dim == ka + kb

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_contains_iff_sum_preserves_dim(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a = random_subspace(rng, n, int(rng.integers(1, n + 1)))
        b = random_subspace(rng, n, int(rng.integers(0, a.dim + 1)))
        if rng.random() < 0.5 and b.dim > 0:
            b = span_of(list((a.basis @ rng.standard_normal((a.dim, b.dim))).T), n=n)
        assert a.contains(b).ok == (subspace_sum(a, b).dim == a.dim)


class TestContains:
    def test_full_space_contains_everything(self):
        full = Subspace.full(3)
        rng = np.random.default_rng(1)
        res = full.contains(random_subspace(rng, 3, 2))
        assert res.ok and res.worst_angle < 1e-9

    def test_orthogonal_line_rejected_with_right_angle(self):
        res = span_of([[1, 0, 0]]).contains(span_of([[0, 0, 1]]))
        assert not res.ok
        assert res.worst_angle == pytest.approx(np.pi / 2)
        assert abs(res.worst_vector[2]) == pytest.approx(1.0)

    def test_vector_in_plane(self):
        plane = span_of([[1, 0, 0], [0, 1, 0]])
        assert plane.contains(span_of([[1, 1, 0]])).ok

    def test_zero_subspace_contained_anywhere(self):
        assert span_of([[1, 0]]).contains(Subspace.zero(2)).ok
        res = Subspace.zero(2).contains(span_of([[1, 0]]))
        assert not res.ok and res.worst_angle == pytest.approx(np.pi / 2)


def nearby_subspace(rng, a, dim, spread):
    """A dim-plane within about ``spread`` of a's first dim directions,
    or a random one where dim exceeds dim a."""
    if dim == 0:
        return Subspace.zero(a.n)
    m = a.basis[:, :dim] if dim <= a.dim else rng.standard_normal((a.n, dim))
    m = m + spread * rng.standard_normal((a.n, dim))
    return Subspace(np.linalg.svd(m, full_matrices=False)[0])


class TestStackedAngles:
    """_angles, the one principal-angle kernel, pair by pair."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        da_frac=st.floats(0.0, 1.0),
        db_frac=st.floats(0.0, 1.0),
        k=st.integers(0, 6),
        spread=st.sampled_from([0.0, 1e-12, 1e-7, 1e-3, 0.3, 10.0]),
    )
    def test_each_pair_gets_the_bits_of_a_one_pair_call(self, seed, n, da_frac, db_frac, k, spread):
        rng = np.random.default_rng(seed)
        da, db = round(da_frac * n), round(db_frac * n)
        a = [random_subspace(rng, n, da) for _ in range(k)]
        b = [nearby_subspace(rng, s, db, spread) for s in a]
        stacked = _angles(
            np.array([s.basis for s in a]).reshape(k, n, da),
            np.array([s.basis for s in b]).reshape(k, n, db),
        )
        assert stacked.shape == (k, db)
        assert np.all(stacked[:, da:] == np.pi / 2)  # directions of b beyond dim a
        for row, sa, sb in zip(stacked, a, b):
            assert row.tobytes() == _angles(sa.basis[None], sb.basis[None])[0].tobytes()
            res = sa.contains(sb)
            assert res.worst_angle == (row[-1] if db else 0.0)
            assert res.ok == (db <= da and res.worst_angle < 1e-6)
            if da >= db:
                assert row.tobytes() == principal_angles(sa, sb).tobytes()

    @pytest.mark.parametrize(
        "da, db, want",
        [(0, 0, []), (0, 2, [np.pi / 2] * 2), (2, 0, []), (1, 3, [0.0, np.pi / 2, np.pi / 2])],
    )
    def test_dimension_zero_and_directions_beyond_dim_a(self, da, db, want):
        a, b = np.eye(3)[:, :da], np.eye(3)[:, :db]
        angles = _angles(np.stack([a, a]), np.stack([b, b]))
        assert angles.shape == (2, db)
        assert angles.tolist() == [want, want]


class TestKernel:
    def test_row_vector_kernel(self):
        k = kernel(np.array([[0.0, 1.0, 1.0]]))
        assert k.dim == 2
        assert k.contains(span_of([[1, 0, 0]])).ok
        assert k.contains(span_of([[0, 1, -1]])).ok

    def test_identity_has_trivial_kernel(self):
        assert kernel(np.eye(3)).dim == 0

    def test_zero_matrix_full_kernel(self):
        assert kernel(np.zeros((1, 3))).dim == 3


class TestGrassmannLimit:
    def test_constant_sequence(self):
        s = span_of([[1, 0]])
        res = grassmann_limit([s] * 10)
        assert res.converged
        assert res.residual == 0.0
        assert grassmann_distance(res.limit, s) == 0.0

    def test_rotating_toward_axis(self):
        entries = tuple(span_of([[1.0, 1.0 / i]]) for i in range(1, 51))
        # the trailing angles still move by ~arctan(1/46)-arctan(1/50),
        # so the window must be read at a matching tolerance
        res = grassmann_limit(entries, tol=5e-3)
        assert res.converged
        assert grassmann_distance(res.limit, span_of([[1.0, 0.0]])) < np.arctan(1 / 50) + 1e-12
        # at checker precision the same data honestly reports "not settled"
        strict = grassmann_limit(entries, tol=1e-6)
        assert not strict.converged
        assert len(strict.history) == 49

    def test_alternating_never_converges(self):
        e1, e2 = span_of([[1.0, 0.0]]), span_of([[0.0, 1.0]])
        res = grassmann_limit([e1, e2] * 10)
        assert not res.converged
        assert res.limit is None
        assert res.residual == pytest.approx(np.pi / 2)
        assert len(res.history) == 19

    def test_dimension_drift_is_hard_error(self):
        with pytest.raises(ValueError, match="Grassmannian"):
            grassmann_limit((span_of([[1, 0]]), Subspace.zero(2)))

    def test_invariant_under_reorthonormalization(self):
        rng = np.random.default_rng(9)
        entries = []
        rotated = []
        for i in range(1, 21):
            basis_vecs = [[1.0, 1.0 / i, 0.0], [0.0, 0.0, 1.0]]
            s = span_of(basis_vecs, n=3)
            entries.append(s)
            # re-express the same subspace in a random rotated basis
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            rotated.append(Subspace(s.basis @ q))
        r1 = grassmann_limit(entries, tol=0.05)
        r2 = grassmann_limit(rotated, tol=0.05)
        assert r1.converged == r2.converged
        assert r1.residual == pytest.approx(r2.residual, abs=1e-10)
        assert grassmann_distance(r1.limit, r2.limit) < 1e-10


def reference_limit(entries, window):
    """The pairwise loop: consecutive distances, then every pair of the
    trailing window."""
    history = tuple(grassmann_distance(a, b) for a, b in zip(entries, entries[1:]))
    tail = entries[-min(window, len(entries)) :]
    residual = 0.0
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            residual = max(residual, grassmann_distance(tail[i], tail[j]))
    return history, residual


def drifting_sequence(rng, n, d, length, spread):
    """Subspaces near one random d-plane, moving by about ``spread``
    radians and settling geometrically."""
    base = rng.standard_normal((n, d))
    out = []
    for i in range(length):
        m = base + spread * 0.5**i * rng.standard_normal((n, d))
        out.append(Subspace(np.linalg.svd(m, full_matrices=False)[0]))
    return tuple(out)


class TestStackedLimit:
    """grassmann_limit's one stacked kernel call against the pairwise loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        d_frac=st.floats(0.0, 1.0),
        length=st.integers(1, 12),
        window=st.integers(2, 14),
        spread=st.sampled_from([0.0, 1e-12, 1e-7, 1e-3, 0.3, 10.0]),
    )
    def test_matches_pairwise_loop(self, seed, n, d_frac, length, window, spread):
        d = round(d_frac * n)
        entries = drifting_sequence(np.random.default_rng(seed), n, d, length, spread)
        res = grassmann_limit(entries, window)
        history, residual = reference_limit(entries, window)
        assert res.history == history
        assert res.residual == residual
        assert all(type(h) is float for h in res.history)

    @pytest.mark.parametrize("n, d", [(3, 0), (1, 1), (3, 3), (4, 2)])
    @pytest.mark.parametrize("length, window", [(1, 5), (4, 5), (5, 5), (9, 3), (6, 2)])
    def test_edge_shapes(self, n, d, length, window):
        entries = drifting_sequence(np.random.default_rng(n + d + length), n, d, length, 0.3)
        res = grassmann_limit(entries, window)
        assert (res.history, res.residual) == reference_limit(entries, window)
        assert len(res.history) == length - 1

    def test_angles_on_both_sides_of_pi_over_4(self):
        # lines at angles 0.1, 0.7, 0.9, 1.5 from the x axis: consecutive
        # gaps below pi/4 take the sine route, the wide window pairs arccos
        angles = [0.0, 0.1, 0.7, 0.9, 1.5]
        entries = tuple(span_of([[np.cos(t), np.sin(t)]]) for t in angles)
        res = grassmann_limit(entries, window=5)
        assert (res.history, res.residual) == reference_limit(entries, 5)
        assert res.history == pytest.approx([0.1, 0.6, 0.2, 0.6], abs=1e-12)
        assert res.residual == pytest.approx(1.5, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), d_frac=st.floats(0.0, 1.0),
           spread=st.sampled_from([1e-9, 1e-3, 0.5, 10.0]))
    def test_distance_is_the_largest_principal_angle(self, seed, n, d_frac, spread):
        d = round(d_frac * n)
        a, b = drifting_sequence(np.random.default_rng(seed), n, d, 2, spread)
        want = float(principal_angles(a, b)[-1]) if d else 0.0
        assert grassmann_distance(a, b) == want


def oscillating_sequence(rng, n, d, length):
    """Subspaces alternating between two random d-planes."""
    a, b = drifting_sequence(rng, n, d, 2, 10.0)
    return tuple(b if i % 2 else a for i in range(length))


class TestBatchedLimits:
    """grassmann_limits on a stack of sequences against grassmann_limit on
    each sequence alone and against the pairwise loop."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        d=st.integers(0, 2),
        shapes=st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=1, max_size=5),
        window=st.integers(2, 8),
        spread=st.sampled_from([0.0, 1e-9, 1e-3, 0.3]),
        tol=st.sampled_from([1e-6, 1e-2]),
    )
    def test_matches_one_sequence_at_a_time(self, seed, n, d, shapes, window, spread, tol):
        rng = np.random.default_rng(seed)
        seqs = [
            oscillating_sequence(rng, n, d, length) if oscillating
            else drifting_sequence(rng, n, d, length, spread)
            for length, oscillating in shapes
        ]
        bases = np.concatenate([np.stack([e.basis for e in seq]) for seq in seqs])
        bounds = np.cumsum([0] + [len(seq) for seq in seqs])
        limits = grassmann_limits(bases, bounds, window, tol)
        assert len(limits) == len(seqs)
        for got, seq in zip(limits, seqs):
            want = grassmann_limit(seq, window, tol)
            assert got.converged == want.converged
            assert got.residual == want.residual
            assert got.history == want.history
            assert (got.history, got.residual) == reference_limit(seq, window)
            if want.limit is None:
                assert got.limit is None
            else:
                assert np.array_equal(got.limit.basis, want.limit.basis)
                assert np.array_equal(got.limit.basis, seq[-1].basis)

    def test_bounds_must_cover_the_stack(self):
        bases = np.stack([span_of([[1.0, 0.0]]).basis] * 4)
        with pytest.raises(ValueError, match="from 0 to 4"):
            grassmann_limits(bases, [0, 3])
        with pytest.raises(ValueError, match="empty subspace sequence"):
            grassmann_limits(bases, [0, 2, 2, 4])


def orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def gate_row(rng, shape, scale, m, c):
    """One m x c matrix of the given shape, times the given scale, for
    the rank gate's test."""
    p = min(m, c)
    a = rng.standard_normal((m, c))
    if shape == "low-rank" and p:
        q = int(rng.integers(0, p))
        a = rng.standard_normal((m, q)) @ rng.standard_normal((q, c))
    elif shape == "near-cut" and p:
        # smallest singular value at 1e-9 to 1e-4 of the largest, across
        # the RTOL cut and the certificate's threshold
        sv = np.sort(10.0 ** rng.uniform(-4, 0, p))[::-1]
        sv[0], sv[-1] = 1.0, 10.0 ** rng.uniform(-9, -4)
        a = orthogonal(rng, m)[:, :p] @ np.diag(sv) @ orthogonal(rng, c)[:, :p].T
    elif shape == "zero":
        a[:] = 0.0
    elif shape in ("nan", "inf") and a.size:
        a[int(rng.integers(0, m)), int(rng.integers(0, c))] = np.nan if shape == "nan" else -np.inf
    if scale == "near-floor":
        return a * 10.0 ** rng.uniform(-14, -8)  # across ATOL and the 1e-10 threshold
    return a * {"one": 1.0, "huge": 1e150, "tiny": 1e-150, "subnormal": 1e-310}[scale]


GATE_ROWS = st.tuples(
    st.sampled_from(("normal", "low-rank", "near-cut", "zero", "nan", "inf")),
    st.sampled_from(("one", "one", "near-floor", "huge", "tiny", "subnormal")),
)


class TestRankAtLeast:
    """The rank gate equals the SVD's ``_ranks(...) >= r`` row for row,
    raising where the SVD raises."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 4),
        st.integers(0, 4),
        st.lists(GATE_ROWS, max_size=6),
        st.integers(-1, 5),
    )
    def test_matches_the_svd(self, seed, m, c, rows, r):
        rng = np.random.default_rng(seed)
        mats = np.array([gate_row(rng, *row, m, c) for row in rows]).reshape(len(rows), m, c)
        try:
            expected = _ranks(np.linalg.svd(mats, compute_uv=False)) >= r
        except np.linalg.LinAlgError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _rank_at_least(mats, r)
            return
        got = _rank_at_least(mats, r)
        assert got.dtype == bool and got.shape == (len(rows),)
        np.testing.assert_array_equal(got, expected)

    def test_wide_margin_rows_skip_the_svd(self, monkeypatch):
        rng = np.random.default_rng(3)
        mats = rng.standard_normal((50, 3, 3))
        mats[7] = 0.0
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(len(a)) or svd(a, **kw))
        got = _rank_at_least(mats, 3)
        assert calls == [1]  # only the zero row is left open
        assert got.sum() == 49 and not got[7]
        assert _rank_at_least(mats, 4).sum() == 0 and _rank_at_least(mats, 0).all()
        assert calls == [1]  # shape decides both

    def test_an_overflowing_gram_is_left_open(self):
        # rank 2: the Gram entry of the first column overflows, and the
        # minor of the two parallel columns rounds to a positive value, so
        # the determinant reads inf
        x, y = 0.1257302210933933, -0.1321048632913019
        mats = np.array([[[1e160, 0.0, 0.0], [0.0, x, 3 * x], [0.0, y, 3 * y]]])
        assert _ranks(np.linalg.svd(mats, compute_uv=False))[0] < 3
        assert not _rank_at_least(mats, 3)[0]

    def test_ranks_take_the_cut_from_the_largest_value_in_any_order(self):
        rng = np.random.default_rng(4)
        sv = np.sort(10.0 ** rng.uniform(-14, 0, (200, 4)), axis=1)[:, ::-1]
        sorted_rule = (sv > np.maximum(RTOL * sv[:, :1], ATOL)).sum(axis=1)
        np.testing.assert_array_equal(_ranks(rng.permuted(sv, axis=1)), sorted_rule)
        sv[0], sv[1, 2] = np.nan, np.nan
        assert _ranks(rng.permuted(sv, axis=1))[:2].tolist() == [0, 0]


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(13)
        s = random_subspace(rng, 4, 2)
        back = Subspace.from_json(s.to_json(), 4)
        assert grassmann_distance(s, back) < 1e-12

    def test_zero_subspace_round_trip(self):
        s = Subspace.zero(3)
        back = Subspace.from_json(s.to_json(), 3)
        assert back.dim == 0 and back.n == 3
