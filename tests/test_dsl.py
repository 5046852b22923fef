import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strathom.constructions import rank_drop_map
from strathom.dsl import (
    Add,
    Call,
    Div,
    DomainError,
    EvaluationError,
    Mul,
    Neg,
    NonDifferentiableError,
    Num,
    ParseError,
    Pow,
    SmoothMap,
    SmoothnessError,
    Sub,
    Var,
    parse_expr,
    parse_map,
    to_source,
)

EPS_FD = float(np.finfo(float).eps) ** (1.0 / 3.0)


def central_difference_jacobian(f, x):
    """Independent derivative oracle: central differences per coordinate."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = EPS_FD * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((f(xp, check_domain=False) - f(xm, check_domain=False)) / (2 * h))
    return np.stack(cols, axis=1)


class TestParse:
    def test_paper_style_aliases(self):
        f = parse_map("y + z", 3)
        assert f.n == 3 and f.m == 1
        assert f([0.0, 1.0, 2.0]) == pytest.approx([3.0])

    def test_identity_on_r1(self):
        f = parse_map("x1", 1)
        assert f([7.25]) == pytest.approx([7.25])

    def test_product_minus_sin(self):
        f = parse_map("x1*x2 - sin(x3)", 3)
        assert f([2.0, 3.0, 0.0]) == pytest.approx([6.0])

    def test_multi_component(self):
        f = parse_map("x1^2, x1*x2", 2)
        assert f.m == 2
        assert f([1.0, 2.0]) == pytest.approx([1.0, 2.0])

    def test_precedence_and_unary_minus(self):
        f = parse_map("-x1^2", 1)
        assert f([3.0]) == pytest.approx([-9.0])
        g = parse_map("2*x1 + 3*x1^2", 1)
        assert g([2.0]) == pytest.approx([16.0])

    def test_power_right_associative(self):
        f = parse_map("x1^2^3", 1)  # x1^(2^3)
        assert f([2.0]) == pytest.approx([256.0])

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x1 + * 2", 1)
        assert "line 1" in str(exc.value)

    def test_error_on_a_later_line_names_its_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_map("x1,\n  * x1", 1)
        assert str(exc.value) == "unexpected token '*' (line 2, column 3)"
        assert (exc.value.line, exc.value.col) == (2, 3)

    @pytest.mark.parametrize("source, n, message", [
        ("x1 $ 2", 1, "unexpected character '$' (line 1, column 4)"),
        ("1", 0, "declared dimension must be >= 1 (line 1, column 1)"),
        ("(x1 + 1", 1, "expected ')', found '' (line 1, column 8)"),
        ("z", 2, "alias 'z' needs dimension >= 3, declared 2 (line 1, column 1)"),
        ("x1 x1", 1, "trailing input 'x1' (line 1, column 4)"),
    ], ids=["bad-character", "dimension-0", "missing-paren", "alias-beyond-dimension",
            "trailing-input"])
    def test_parse_expr_error_message(self, source, n, message):
        with pytest.raises(ParseError) as exc:
            parse_expr(source, n)
        assert str(exc.value) == message

    def test_trailing_input_after_the_components(self):
        with pytest.raises(ParseError, match=r"trailing input '\)' \(line 1, column 4\)"):
            parse_map("x1 )", 1)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("q + 1", 2)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_expr("x5", 3)

    def test_alias_disabled_above_dim_4(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("y", 5)

    def test_function_arity(self):
        with pytest.raises(ParseError, match="argument"):
            parse_expr("sin(x1, x2)", 2)

    def test_nonsmooth_rejected_in_smooth_map(self):
        with pytest.raises(SmoothnessError):
            parse_map("abs(x1)", 1)
        # but allowed in a domain predicate, and in a map built from
        # expressions without the C^1 check
        assert parse_map("x1", 1, domain=("abs(x1) - 1",)).in_domain([-2.0])
        f = SmoothMap(n=1, components=(parse_expr("abs(x1)", 1),))
        assert f([-2.0]) == pytest.approx([2.0])


# random expression trees for printer fuzzing (fixed finite literals so
# AST equality is exact float equality)
_leaves = st.one_of(
    st.sampled_from([Num(0.0), Num(1.0), Num(2.5), Num(0.125)]),
    st.builds(Var, st.integers(0, 2)),
)
_expr_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(Div, inner, inner),
        st.builds(Pow, inner, inner),
        st.builds(lambda a: Call("sin", (a,)), inner),
        st.builds(lambda a: Call("exp", (a,)), inner),
        st.builds(lambda a: Call("abs", (a,)), inner),
        st.builds(lambda a, b: Call("min", (a, b)), inner, inner),
    ),
    max_leaves=24,
)


class TestPrintRoundTrip:
    CASES = [
        ("y + z", 3),
        ("x1*x2 - sin(x3)", 3),
        ("-x1^2 + 2/(x2 - 5)", 2),
        ("exp(x1) * log(x2 + 3) - sqrt(x1^2 + 1)", 2),
        ("(x1 + x2)*(x1 - x2)^3", 2),
        ("min(x1, max(x2, 0.5)) + abs(x1)", 2),
        ("bump(x1^2 + x2^2)", 2),
        ("2^-2 + x1^-1", 1),
    ]

    @pytest.mark.parametrize("source,n", CASES)
    def test_parse_print_parse_fixed_point(self, source, n):
        ast1 = parse_expr(source, n)
        printed = to_source(ast1)
        ast2 = parse_expr(printed, n)
        assert ast1 == ast2
        # printing is idempotent too
        assert to_source(ast2) == printed

    @settings(max_examples=200, deadline=None)
    @given(st.deferred(lambda: _expr_trees))
    def test_generated_trees_survive_printing(self, tree):
        printed = to_source(tree)
        assert parse_expr(printed, 3) == tree


class TestEval:
    def test_constant_second_coordinate(self):
        f = parse_map("y", 3)
        assert f([5.0, 0.0, -1.0]) == pytest.approx([0.0])

    def test_exp_at_zero(self):
        f = parse_map("exp(x1)", 1)
        assert f([0.0]) == pytest.approx([1.0])

    def test_domain_violation_reported(self):
        f = parse_map("sqrt(y)", 2, domain=("y",))
        with pytest.raises(DomainError):
            f([0.0, -1.0])
        # explicit opt-out skips the predicate (evaluation itself still guards)
        with pytest.raises(EvaluationError):
            f([0.0, -1.0], check_domain=False)

    def test_non_finite_value(self):
        # an infinite input; exp(x1) at 1000 would raise numpy's overflow
        # warning before the guard
        with pytest.raises(EvaluationError, match="non-finite value in evaluation"):
            parse_map("x1", 1)([np.inf])

    def test_division_by_zero(self):
        f = parse_map("1/x1", 1)
        with pytest.raises(EvaluationError):
            f([0.0])

    def test_domain_predicates_are_checked_in_order(self):
        # the second predicate cannot be evaluated at x1 = -1; the first,
        # violated there, is reported before it is tried
        f = parse_map("x1", 1, domain=("x1", "log(x1)"))
        with pytest.raises(DomainError, match=r"x1 > 0"):
            f([-1.0])
        with pytest.raises(DomainError, match=r"x1 > 0"):
            f.value_and_jacobian([-1.0])

    def test_in_domain_checks_predicates_in_order_per_point(self):
        # x1 = -1 fails the first predicate and never reaches the log;
        # x1 = 0.5 passes it and fails the second
        f = parse_map("x1", 1, domain=("x1", "log(x1)"))
        assert f.in_domain([[-1.0], [2.0]]).tolist() == [False, True]
        assert f.in_domain([[0.5], [-1.0], [2.0]]).tolist() == [False, False, True]
        assert f.in_domain([-1.0]) is False

    def test_domain_values_stop_at_the_first_failed_predicate(self):
        # x1 = -1 fails the first predicate, so the log is not evaluated
        # there and its entry reads -inf
        f = parse_map("x1", 1, domain=("x1", "log(x1)"))
        vals = f.domain_values([[-1.0], [2.0], [0.5]])
        assert vals[0].tolist() == [-1.0, -np.inf]
        assert vals[1].tolist() == [2.0, np.log(2.0)]
        assert vals[2].tolist() == [0.5, np.log(0.5)]
        assert f.domain_values([-1.0]).tolist() == [-1.0, -np.inf]
        assert np.all(vals > 0.0, axis=1).tolist() == f.in_domain([[-1.0], [2.0], [0.5]]).tolist()

    def test_log_of_negative(self):
        f = parse_map("log(x1)", 1)
        with pytest.raises(EvaluationError):
            f([-1.0])

    def test_batched_matches_single(self):
        f = parse_map("x1*x2 - sin(x3)", 3)
        pts = np.array([[2.0, 3.0, 0.0], [1.0, 1.0, np.pi / 2]])
        batch = f(pts)
        for p, v in zip(pts, batch):
            assert f(p) == pytest.approx(v)

    def test_deterministic_bitwise(self):
        f = parse_map("exp(x1)*sin(x2) - x1/x2", 2)
        p = [0.3, 0.7]
        a = f(p)
        b = f(p)
        assert a.tobytes() == b.tobytes()


class TestJacobian:
    def test_linear_map_rows(self):
        f = parse_map("y + z", 3)
        j = f.jacobian([0.2, -0.4, 1.0])
        assert j == pytest.approx(np.array([[0.0, 1.0, 1.0]]))
        g = parse_map("y", 3)
        assert g.jacobian([1.0, 2.0, 3.0]) == pytest.approx(np.array([[0.0, 1.0, 0.0]]))

    def test_hand_differentiated_pair(self):
        f = parse_map("x1^2, x1*x2", 2)
        j = f.jacobian([1.0, 2.0])
        assert j == pytest.approx(np.array([[2.0, 0.0], [2.0, 1.0]]))

    def test_kink_raises(self):
        f = SmoothMap(n=1, components=(parse_expr("abs(x1)", 1),))
        with pytest.raises(NonDifferentiableError):
            f.jacobian([0.0])
        assert f.jacobian([2.0]) == pytest.approx(np.array([[1.0]]))

    def test_min_tie_raises(self):
        f = SmoothMap(n=2, components=(parse_expr("min(x1, x2)", 2),))
        with pytest.raises(NonDifferentiableError):
            f.jacobian([1.0, 1.0])

    CORPUS = [
        ("y + z", 3),
        ("y", 3),
        ("x1^2, x1*x2", 2),
        ("x1*x2 - sin(x3)", 3),
        ("exp(x1)*cos(x2)", 2),
        ("sqrt(x1^2 + x2^2 + 1)", 2),
        ("log(x1^2 + 1) - x2/x1", 2),
        ("bump(x1^2 + x2^2)", 2),
        ("x1^3 - x1, x2", 2),
        ("(1 + x2*cos(x1))*cos(2*x1), (1 + x2*cos(x1))*sin(2*x1), x2*sin(x1)", 2),
        ("x1/x2, x2/(x1 + 3)", 2),
    ]

    @pytest.mark.parametrize("source,n", CORPUS)
    def test_values_agree_with_value_and_jacobian(self, source, n):
        f = parse_map(source, n)
        x = np.random.default_rng(7).uniform(0.3, 1.5, size=(1000, n))
        assert np.array_equal(f(x), f.value_and_jacobian(x)[0])

    @pytest.mark.parametrize("source,n", CORPUS)
    def test_dual_vs_central_differences(self, source, n):
        f = parse_map(source, n)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(0.3, 1.5, size=n)  # interior, away from singular points
            exact = f.jacobian(x)
            approx = central_difference_jacobian(f, x)
            scale = max(1.0, np.max(np.abs(exact)))
            worst = max(worst, np.max(np.abs(exact - approx)) / scale)
        assert worst < 1e-6


def _distinct_nodes(comps) -> set[str]:
    """Structurally distinct subexpressions, keyed by their repr (which
    tells 0.0 from -0.0)."""
    found: set[str] = set()
    stack = list(comps)
    while stack:
        e = stack.pop()
        found.add(repr(e))
        stack.extend(e.args if isinstance(e, Call) else [getattr(e, f) for f in "ab" if hasattr(e, f)])
    return found


class TestTape:
    @pytest.mark.parametrize("n,r", [(3, 1), (5, 3), (8, 3)])
    def test_rank_drop_map_has_one_slot_per_distinct_node(self, n, r):
        f = rank_drop_map(n, r).map
        assert len(f._tape.steps) == len(_distinct_nodes(f.components))

    def test_band_chart_repeated_factor_is_one_slot(self):
        f = parse_map("(1 + x2*cos(x1))*cos(2*x1), (1 + x2*cos(x1))*sin(2*x1), x2*sin(x1)", 2)
        factor = parse_expr("1 + x2*cos(x1)", 2)
        assert sum(node == factor for node in f._tape.nodes) == 1
        assert len(f._tape.steps) == len(_distinct_nodes(f.components))

    def test_signed_zeros_get_separate_slots(self):
        f = SmoothMap(1, (Mul(Var(0), Num(0.0)), Mul(Var(0), Num(-0.0))))
        assert len(f._tape.steps) == 5
        vals = f([2.0])
        assert not np.signbit(vals[0]) and np.signbit(vals[1])

    @settings(max_examples=200, deadline=None)
    @given(st.deferred(lambda: _expr_trees), st.deferred(lambda: _expr_trees))
    def test_joint_map_matches_its_components(self, t1, t2):
        x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(20, 3))
        comps = (t1, t2, Mul(t1, t2))
        joint = SmoothMap(3, comps)
        singles = [SmoothMap(3, (c,)) for c in comps]
        for method in ("__call__", "value_and_jacobian"):
            got = _outputs(joint, method, x)
            parts = [_outputs(g, method, x) for g in singles]
            assert (got is None) == any(p is None for p in parts)
            if got is not None:
                for j, whole in enumerate(got):
                    assert np.array_equal(whole, np.concatenate([p[j] for p in parts], axis=1))


def _outputs(f, method: str, x) -> tuple | None:
    """The arrays f.method(x) returns, as a tuple; None if it raises."""
    try:
        with np.errstate(all="ignore"):
            out = getattr(f, method)(x)
    except EvaluationError:
        return None
    return out if isinstance(out, tuple) else (out,)


class TestBumpPrimitive:
    def test_saturation_is_exact(self):
        f = parse_map("bump(x1)", 1)
        assert f([-1.0])[0] == 0.0
        assert f([2.0])[0] == 1.0

    def test_midpoint_symmetry(self):
        f = parse_map("bump(x1)", 1)
        assert f([0.5]) == pytest.approx([0.5])

    def test_strictly_increasing_inside(self):
        f = parse_map("bump(x1)", 1)
        xs = np.linspace(0.05, 0.95, 19)[:, None]
        vals = f(xs)[:, 0]
        assert np.all(np.diff(vals) > 0)
        slopes = f.jacobian(xs)[:, 0, 0]
        assert np.all(slopes > 0)
