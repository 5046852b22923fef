"""Expression language for differentiable maps R^n -> R^m.

Maps are written in a small infix grammar and evaluated numerically,
with exact first derivatives in forward mode (each node's value
together with its n-vector of partials).  A map is compiled once into a
tape: its distinct nodes in evaluation order, a subexpression that
appears several times being one node.  One forward pass over the tape,
with one rule per node type, gives the values and, when asked, the
partials, so values and Jacobians agree to the bit.  Evaluation is
vectorised: a batch of points produces a batch of values/Jacobians in
one pass.

Grammar (standard precedence, ``^`` binds tightest and is
right-associative)::

    map    := expr (',' expr)*
    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | variable | function '(' args ')' | '(' expr ')'

Variables are ``x1 .. xn``; for n <= 4 the aliases ``x, y, z, w`` are
accepted.  Functions: ``exp, log, sin, cos, sqrt, bump`` (unary),
``abs`` (unary, non-smooth), ``min, max`` (binary, non-smooth).
``bump`` is the standard smooth step (0 for a <= 0, 1 for a >= 1,
strictly increasing in between) used by the explicit constructions.

Non-smooth primitives parse, but every map :func:`parse_map` builds is
C^1 and rejects them at construction time rather than failing
mid-derivative; they are allowed in domain predicates.
SmoothMap values are immutable and safe to evaluate concurrently.
Maps given by code rather than expressions (:class:`NumericMap`, such
as :class:`AffineMap`) share SmoothMap's evaluation interface.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "DslError",
    "ParseError",
    "SmoothnessError",
    "EvaluationError",
    "DomainError",
    "NonDifferentiableError",
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "SmoothMap",
    "NumericMap",
    "AffineMap",
    "parse_expr",
    "parse_map",
    "to_source",
]


class DslError(Exception):
    """Base class for everything raised by the expression layer."""


class ParseError(DslError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class SmoothnessError(DslError):
    """A non-smooth primitive appears in a map declared C^1."""


class EvaluationError(DslError):
    """Numeric failure during evaluation (log of nonpositive, x/0, ...)."""


class DomainError(EvaluationError):
    """Point violates the map's domain predicate."""


class NonDifferentiableError(EvaluationError):
    """Derivative requested at a kink of a non-smooth primitive."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    args: tuple[Expr, ...]


_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str, n: int):
        if n < 1:
            raise ParseError("declared dimension must be >= 1", 1, 1)
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = n

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def parse_expr(self, min_prec: int = 0) -> Expr:
        """The left-associative operators, by precedence climbing."""
        node = self.parse_unary()
        while True:
            tok = self.peek()
            cls = _INFIX.get(tok.text) if tok.kind == "op" else None
            if cls is None or _OPS[cls].prec < min_prec:
                return node
            self.next()
            node = cls(node, self.parse_expr(_OPS[cls].prec + 1))

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            return Pow(base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            return self._ident(tok)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def _ident(self, tok: _Token) -> Expr:
        name = tok.text
        if name in _FUNCTIONS:
            self.expect_op("(")
            args = [self.parse_expr()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.next()
                args.append(self.parse_expr())
            self.expect_op(")")
            arity = _FUNCTIONS[name].arity
            if len(args) != arity:
                raise ParseError(
                    f"{name} takes {arity} argument(s), got {len(args)}", tok.line, tok.col
                )
            return Call(name, tuple(args))
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            index = int(m.group(1)) - 1
            if not 0 <= index < self.n:
                raise ParseError(
                    f"variable {name} out of range for dimension {self.n}", tok.line, tok.col
                )
            return Var(index)
        if name in _ALIASES and self.n <= 4:
            index = _ALIASES[name]
            if index >= self.n:
                raise ParseError(
                    f"alias {name!r} needs dimension >= {index + 1}, declared {self.n}",
                    tok.line,
                    tok.col,
                )
            return Var(index)
        raise ParseError(f"unknown identifier {name!r}", tok.line, tok.col)

    def parse_component_list(self) -> list[Expr]:
        comps = [self.parse_expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.next()
            comps.append(self.parse_expr())
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return comps


def parse_expr(source: str, n: int) -> Expr:
    """Parse a single scalar expression in n variables."""
    parser = _Parser(source, n)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return node


# ---------------------------------------------------------------------------
# Printing (canonical form; parse(to_source(parse(s))) == parse(s))


def to_source(e: Expr) -> str:
    return _print(e, 0)


def _print(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        s = repr(e.value)
        return f"({s})" if e.value < 0 else s
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_print(a, 0) for a in e.args)})"
    op = _OPS[type(e)]
    if op.assoc == "prefix":
        s = f"{op.symbol}{_print(e.a, op.prec)}"
    else:
        # the operand on the associating side may share the precedence:
        # a - b - c prints bare, a - (b - c) and (a^b)^c keep parens
        left, right = (op.prec, op.prec + 1) if op.assoc == "left" else (op.prec + 1, op.prec)
        s = f"{_print(e.a, left)}{op.symbol}{_print(e.b, right)}"
    return f"({s})" if op.prec < parent_prec else s


# ---------------------------------------------------------------------------
# Smooth step kernel (shared with the constructions module)


def _bump_value_and_slope(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(a)/(phi(a)+phi(1-a)) with phi(t)=exp(-1/t) for t>0, else 0.

    Returns (value, derivative); both are 0 outside (0, 1) and the value
    is exactly 0/1 on the closed complement, so maps built from it are
    exactly the identity where the step has saturated.
    """
    a = np.asarray(a, dtype=float)
    val = np.empty_like(a)
    slope = np.zeros_like(a)
    lo = a <= 0.0
    hi = a >= 1.0
    mid = ~(lo | hi)
    val[lo] = 0.0
    val[hi] = 1.0
    if np.any(mid):
        t = a[mid]
        p = np.exp(-1.0 / t)
        q = np.exp(-1.0 / (1.0 - t))
        denom = p + q
        val[mid] = p / denom
        dp = p / t**2
        dq = q / (1.0 - t) ** 2
        # d/dt [p/(p+q)] with q = phi(1-t), dq/dt = -phi'(1-t)
        slope[mid] = (dp * q + p * dq) / denom**2
    return val, slope


# ---------------------------------------------------------------------------
# Node rules
#
# A rule takes its node's parameter (see ``_lower``), the points x (k, n),
# its operands' values and -- when partials are requested -- their
# partials, and returns the node's value and partials.  Partials are
# (k, n) arrays, or None for a node that does not depend on x; the whole
# partials list is None when they are not requested.  Value errors are
# raised on every evaluation, kink errors only when partials are requested.


def _check_nonzero(v: np.ndarray, msg: str) -> None:
    if np.any(v == 0.0):
        raise EvaluationError(msg)


def _scaled(p, s: np.ndarray):
    """Partials p times the per-point factor s."""
    return None if p is None else p * s[:, None]


def _plus(p, q):
    if p is None:
        return q
    return p if q is None else p + q


def _minus(p, q):
    if q is None:
        return p
    return -q if p is None else p - q


def _num(value, x, v, d):
    return np.full(len(x), value), None


def _var(index, x, v, d):
    if d is None:
        return x[:, index], None
    eps = np.zeros(x.shape)
    eps[:, index] = 1.0
    return x[:, index], eps


def _neg(_, x, v, d):
    return -v[0], None if d is None else _minus(None, d[0])


def _add(_, x, v, d):
    return v[0] + v[1], None if d is None else _plus(d[0], d[1])


def _sub(_, x, v, d):
    return v[0] - v[1], None if d is None else _minus(d[0], d[1])


def _mul(_, x, v, d):
    a, b = v
    return a * b, None if d is None else _plus(_scaled(d[0], b), _scaled(d[1], a))


def _div(_, x, v, d):
    a, b = v
    _check_nonzero(b, "division by zero")
    val = a / b
    if d is None:
        return val, None
    return val, _scaled(_minus(d[0], _scaled(d[1], val)), 1.0 / b)


def _pow(k, x, v, d):
    """``k`` is the exponent when it is an integer constant, else None."""
    base = v[0]
    if k is not None:
        if k < 0:
            _check_nonzero(base, "zero base with negative exponent")
        val = base ** float(k)
        if d is None or k == 0:
            return val, None
        return val, _scaled(d[0], k * base ** float(k - 1))
    expo = v[1]
    if np.any(base <= 0.0):
        raise EvaluationError("non-integer power of a nonpositive base")
    val = base**expo
    if d is None:
        return val, None
    return val, _scaled(_plus(_scaled(d[1], np.log(base)), _scaled(d[0], expo / base)), val)


def _exp(_, x, v, d):
    val = np.exp(v[0])
    return val, None if d is None else _scaled(d[0], val)


def _log(_, x, v, d):
    a = v[0]
    if np.any(a <= 0.0):
        raise EvaluationError("log of a nonpositive value")
    return np.log(a), None if d is None else _scaled(d[0], 1.0 / a)


def _sin(_, x, v, d):
    return np.sin(v[0]), None if d is None else _scaled(d[0], np.cos(v[0]))


def _cos(_, x, v, d):
    return np.cos(v[0]), None if d is None else _scaled(d[0], -np.sin(v[0]))


def _sqrt(_, x, v, d):
    a = v[0]
    if np.any(a < 0.0):
        raise EvaluationError("sqrt of a negative value")
    if d is not None and np.any(a == 0.0):
        raise NonDifferentiableError("sqrt derivative at 0")
    val = np.sqrt(a)
    return val, None if d is None else _scaled(d[0], 0.5 / val)


def _bump(_, x, v, d):
    val, slope = _bump_value_and_slope(v[0])
    return val, None if d is None else _scaled(d[0], slope)


def _abs(_, x, v, d):
    a = v[0]
    if d is not None and np.any(a == 0.0):
        raise NonDifferentiableError("abs at its kink")
    return np.abs(a), None if d is None else _scaled(d[0], np.sign(a))


def _min_max(fn, x, v, d):
    a, b = v
    val = np.minimum(a, b) if fn == "min" else np.maximum(a, b)
    if d is None:
        return val, None
    if np.any(a == b):
        raise NonDifferentiableError(f"{fn} at a tie")
    p, q = d
    if p is None and q is None:
        return val, None
    pick = (a < b) if fn == "min" else (a > b)
    p = np.zeros_like(q) if p is None else p
    q = np.zeros_like(p) if q is None else q
    return val, np.where(pick[:, None], p, q)


# ---------------------------------------------------------------------------
# Node tables: each operator node type and each function is defined once,
# here; lowering, printing, parsing and the smoothness check read these.


class _Op(NamedTuple):
    rule: Callable
    prec: int  # binds tighter than every lower value
    symbol: str  # as printed, spacing included
    assoc: str  # "left", "right" or "prefix" (unary)


class _Function(NamedTuple):
    rule: Callable
    arity: int
    smooth: bool = True


_OPS = {
    Add: _Op(_add, 10, " + ", "left"),
    Sub: _Op(_sub, 10, " - ", "left"),
    Mul: _Op(_mul, 20, "*", "left"),
    Div: _Op(_div, 20, "/", "left"),
    Neg: _Op(_neg, 30, "-", "prefix"),
    Pow: _Op(_pow, 40, "^", "right"),
}
_INFIX = {op.symbol.strip(): cls for cls, op in _OPS.items() if op.assoc == "left"}
_FUNCTIONS = {
    "exp": _Function(_exp, 1),
    "log": _Function(_log, 1),
    "sin": _Function(_sin, 1),
    "cos": _Function(_cos, 1),
    "sqrt": _Function(_sqrt, 1),
    "bump": _Function(_bump, 1),
    "abs": _Function(_abs, 1, smooth=False),
    "min": _Function(_min_max, 2, smooth=False),
    "max": _Function(_min_max, 2, smooth=False),
}


def _integer_exponent(e: Expr) -> int | None:
    if isinstance(e, Num) and float(e.value).is_integer():
        return int(e.value)
    if isinstance(e, Neg) and isinstance(e.a, Num) and float(e.a.value).is_integer():
        return -int(e.a.value)
    return None


def _lower(e: Expr):
    """(rule, parameter, structural tag, operands) of one node."""
    if isinstance(e, Num):
        value = float(e.value)
        return _num, value, struct.pack("<d", value), ()
    if isinstance(e, Var):
        return _var, e.index, e.index, ()
    if isinstance(e, Call):
        return _FUNCTIONS[e.fn].rule, e.fn, e.fn, e.args
    op = _OPS[type(e)]
    k = _integer_exponent(e.b) if isinstance(e, Pow) else None
    if k is not None:
        return op.rule, k, k, (e.a,)
    return op.rule, None, None, (e.a,) if op.assoc == "prefix" else (e.a, e.b)


# ---------------------------------------------------------------------------
# Tape


class _Tape:
    """Expressions compiled into their distinct nodes in evaluation order.

    Nodes are keyed structurally -- rule, parameter and operand slots, a
    ``Num`` by its bit pattern so 0.0 and -0.0 stay apart -- so a
    subexpression is evaluated once however often it appears, shared by
    a construction or repeated in the text.  Roots are laid out in order
    and depth first, the way a recursive walk would evaluate them, so
    errors surface in the same order.  A value is released after its
    last use; root values are kept.
    """

    def __init__(self, roots: tuple[Expr, ...]):
        self.roots = roots
        self.nodes: list[Expr] = []  # first node of each slot
        steps: list[tuple] = []
        slots: dict[tuple, int] = {}
        seen: dict[int, int] = {}  # id(node) -> slot, so a shared object is lowered once

        def visit(e: Expr) -> int:
            slot = seen.get(id(e))
            if slot is None:
                rule, param, tag, operands = _lower(e)
                args = tuple(visit(a) for a in operands)
                slot = slots.setdefault((rule, tag, args), len(steps))
                if slot == len(steps):
                    steps.append((rule, param, args))
                    self.nodes.append(e)
                seen[id(e)] = slot
            return slot

        self.outputs = tuple(visit(r) for r in roots)
        last_use = {a: i for i, (_, _, args) in enumerate(steps) for a in args}
        free: list[list[int]] = [[] for _ in steps]
        for slot, i in last_use.items():
            if slot not in self.outputs:
                free[i].append(slot)
        # root j is checked once it and every root before it are computed
        checks: list[list[int]] = [[] for _ in steps]
        ready = -1
        for j, slot in enumerate(self.outputs):
            ready = max(ready, slot)
            checks[ready].append(j)
        self.steps = [step + (tuple(f), tuple(c)) for step, f, c in zip(steps, free, checks)]

    def run(self, x: np.ndarray, partials: bool = False, check: str | None = None,
            floor: float = 0.0):
        """Root values (k, #roots) at the points x (k, n) and, with
        ``partials``, their Jacobians (k, #roots, n), else None.

        With ``check`` the roots are domain predicates, each checked
        ``> floor`` in order, before any node that only later roots need
        runs.  ``check="raise"`` raises :class:`DomainError` at the first
        failure.  ``check="values"`` drops a failing point from the rest
        of the run and returns the root values (k, #roots), where a point
        reads ``-inf`` on the roots after the first one it fails; it runs
        values only."""
        k, n = x.shape
        rows = np.arange(k)  # the points still in the run
        passed = None  # which of them pass every check so far, None for all
        vals: list = [None] * len(self.steps)
        ders: list = [None] * len(self.steps)
        out = np.full((k, len(self.outputs)), -np.inf) if check == "values" else None
        for i, (rule, param, args, free, checks) in enumerate(self.steps):
            if passed is not None:  # failed points leave the run
                vals = [None if v is None else v[passed] for v in vals]
                rows, x, passed = rows[passed], x[passed], None
            vals[i], ders[i] = rule(
                param, x, [vals[a] for a in args], [ders[a] for a in args] if partials else None
            )
            for a in free:
                vals[a] = ders[a] = None
            for j in checks if check else ():
                value = vals[self.outputs[j]]
                if check == "values":
                    keep = slice(None) if passed is None else passed
                    out[rows[keep], j] = value[keep]
                ok = value > floor
                if ok.all():
                    continue
                if check == "raise":
                    raise DomainError(
                        f"point {x[int(np.argmin(ok))].tolist()} violates domain "
                        f"predicate {to_source(self.roots[j])} > 0"
                    )
                passed = ok if passed is None else passed & ok
        if check:
            return out
        out = np.empty((k, len(self.outputs)))
        jac = np.zeros((k, len(self.outputs), n)) if partials else None
        for j, slot in enumerate(self.outputs):
            out[:, j] = vals[slot]
            if partials and ders[slot] is not None:
                jac[:, j, :] = ders[slot]
        return out, jac


# ---------------------------------------------------------------------------
# SmoothMap


@dataclass(frozen=True)
class SmoothMap:
    """A map R^n -> R^m given by one expression per output component.

    ``domain`` is a conjunction of strict inequalities ``expr > 0`` on the
    input; evaluating outside it raises :class:`DomainError` unless the
    caller opts out with ``check_domain=False``.  Components and domain
    are compiled once, at construction, into one tape each.
    """

    n: int
    components: tuple[Expr, ...]
    domain: tuple[Expr, ...] = ()
    _tape: _Tape = field(init=False, repr=False, compare=False)
    _domain_tape: _Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("input dimension must be >= 1")
        if not self.components:
            raise ValueError("a map needs at least one component")
        object.__setattr__(self, "_tape", _Tape(self.components))
        object.__setattr__(self, "_domain_tape", _Tape(self.domain))
        bad = [
            e.index
            for e in self._tape.nodes + self._domain_tape.nodes
            if isinstance(e, Var) and e.index >= self.n
        ]
        if bad:
            raise ValueError(f"component references x{bad[0] + 1} beyond dimension {self.n}")

    @property
    def m(self) -> int:
        return len(self.components)

    def require_smooth(self) -> "SmoothMap":
        """Reject non-smooth primitives in the components (not the domain)."""
        calls = [e.fn for e in self._tape.nodes if isinstance(e, Call)]
        bad = [fn for fn in calls if not _FUNCTIONS[fn].smooth]
        if bad:
            raise SmoothnessError(f"non-smooth primitive {bad[0]!r} in a map declared C^1")
        return self

    # -- evaluation ---------------------------------------------------------

    def _batch(self, x) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(f"expected points of dimension {self.n}, got shape {arr.shape}")
        return arr, single

    def domain_values(self, x, floor: float = 0.0) -> np.ndarray:
        """Values of the domain predicates, (k, #predicates) for a batch.

        Predicates are evaluated in order per point: a point whose value
        on one is not above ``floor`` is not evaluated on the later
        ones, which read ``-inf``.  A negative ``floor`` admits points
        just outside the domain, in the closure."""
        arr, single = self._batch(x)
        vals = self._domain_tape.run(arr, check="values", floor=floor)
        return vals[0] if single else vals

    def in_domain(self, x) -> np.ndarray | bool:
        """Whether each point satisfies the domain predicates; a point
        that fails one is not evaluated on the later ones."""
        ok = (self.domain_values(x) > 0.0).all(axis=-1)
        return bool(ok) if ok.ndim == 0 else ok

    def _evaluate(self, x, check_domain: bool, partials: bool):
        arr, single = self._batch(x)
        if check_domain and self.domain:
            self._domain_tape.run(arr, check="raise")
        vals, jac = self._tape.run(arr, partials)
        if not (np.isfinite(vals).all() and (jac is None or np.isfinite(jac).all())):
            raise EvaluationError("non-finite value in evaluation")
        if single:
            return vals[0], None if jac is None else jac[0]
        return vals, jac

    def __call__(self, x, check_domain: bool = True) -> np.ndarray:
        return self._evaluate(x, check_domain, partials=False)[0]

    def jacobian(self, x, check_domain: bool = True) -> np.ndarray:
        return self._evaluate(x, check_domain, partials=True)[1]

    def value_and_jacobian(self, x, check_domain: bool = True):
        return self._evaluate(x, check_domain, partials=True)

    # -- text form ----------------------------------------------------------

    def to_source(self) -> str:
        return ", ".join(to_source(c) for c in self.components)


def parse_map(
    source: str,
    n: int,
    domain: tuple[str, ...] | list[str] = (),
) -> SmoothMap:
    """Parse comma-separated components into a C^1 SmoothMap.

    ``domain`` entries are expressions interpreted as strict inequalities
    ``expr > 0``.  The components must avoid abs/min/max
    (:class:`SmoothnessError`); the domain predicates may use them.
    """
    comps = tuple(_Parser(source, n).parse_component_list())
    preds = tuple(parse_expr(d, n) for d in domain)
    return SmoothMap(n=n, components=comps, domain=preds).require_smooth()


# ---------------------------------------------------------------------------
# Numeric maps


class NumericMap:
    """A map given by code, not expressions.  A subclass defines only
    ``on_batch(w)``, the values (k, m) and Jacobians (k, m, n) at points
    w (k, n); :meth:`value_and_jacobian` is the one place a point (n,)
    becomes a batch of one and back.  It has no domain to check."""

    def value_and_jacobian(self, z, check_domain: bool = False):
        arr = np.asarray(z, dtype=float)
        val, jac = self.on_batch(np.atleast_2d(arr))
        return (val[0], jac[0]) if arr.ndim == 1 else (val, jac)

    def __call__(self, z, check_domain: bool = False) -> np.ndarray:
        return self.value_and_jacobian(z)[0]

    def jacobian(self, z, check_domain: bool = False) -> np.ndarray:
        return self.value_and_jacobian(z)[1]


class AffineMap(NumericMap):
    """Numeric affine map w -> A w + b."""

    def __init__(self, matrix: np.ndarray, offset: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        self.m, self.n = self.matrix.shape[0], self.matrix.shape[1]

    def on_batch(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return w @ self.matrix.T + self.offset, np.broadcast_to(self.matrix, (len(w),) + self.matrix.shape).copy()
