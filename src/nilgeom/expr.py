"""Smooth-function models: expression ASTs, evaluation, jets.

An Expr is a tree over constants, variables x1..xn, field operations,
integer powers, and the analytic primitives exp/log/sin/cos/sqrt.  Exact
mode restricts to the rational-function fragment; primitives require float
mode.  Evaluation at nilpotent arguments (``jet_eval``) runs the expression
with the Weil algebra's own arithmetic: ring operations directly, division
and the primitives as Taylor series in the nilpotent part of their
argument, which the algebra's degree bound makes finite.  The result is the
exact image of the function model in the Weil algebra, the truncated Taylor
expansion at the base point, obtained without symbolic derivatives; Taylor
coefficients, Jacobians and metric derivatives are read off such jets.
Evaluation at a real point (``evaluate``) is the same interpreter on plain
scalars.

No simplification happens beyond constant folding; expressions are never
compared structurally, only through evaluation.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from ._record import Record
from .scalars import EXACT, FLOAT, check_mode, format_scalar, to_scalar
from .weil import Polynomial, WeilElement, _in_mode, mono_key, truncated_algebra

PRIMITIVES = ("exp", "log", "sin", "cos", "sqrt")


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        return pow_(self, k)

    def __neg__(self):
        return mul(Const(Fraction(-1)), self)

    def __repr__(self):
        return f"Expr({format_expr(self)})"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value if isinstance(value, float) else to_scalar(value)


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("variable index must be >= 0")
        self.index = index


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("powers must have non-negative integer exponents")
        self.base = base
        self.exponent = exponent


class Call(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        if name not in PRIMITIVES:
            raise ValueError(f"unknown primitive {name!r}")
        self.name = name
        self.arg = arg


def _coerce(x):
    if isinstance(x, Expr):
        return x
    return Const(x)


# -- folding constructors ----------------------------------------------------

def add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return Add(a, b)


def sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0:
        return a
    return Sub(a, b)


def mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0:
            return Const(Fraction(0))
        if a.value == 1:
            return b
    if isinstance(b, Const):
        if b.value == 0:
            return Const(Fraction(0))
        if b.value == 1:
            return a
    return Mul(a, b)


def div(a, b):
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("constant zero denominator")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1:
            return a
    if isinstance(a, Const) and a.value == 0:
        return Const(Fraction(0))
    return Div(a, b)


def pow_(a, k: int):
    if k == 0:
        return Const(Fraction(1))
    if k == 1:
        return a
    if isinstance(a, Const):
        return Const(a.value ** k)
    return Pow(a, k)


def variables(e: Expr) -> set:
    """Indices of variables occurring in the expression."""
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, Const):
        return set()
    if isinstance(e, _Binary):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Pow):
        return variables(e.base)
    return variables(e.arg)


# -- evaluation: one interpreter for real and infinitesimal points --------------

def evaluate(e: Expr, point, mode: str = EXACT):
    """Evaluate at a real point: ``_jet`` on the point's scalars, where every
    operation is a scalar one.  Exact mode rejects analytic primitives."""
    check_mode(mode)
    point = [float(v) if mode == FLOAT else to_scalar(v) for v in point]
    return _jet(e, point, mode)


def taylor_coefficients(e: Expr, base, order: int, mode: str = EXACT) -> dict:
    """Coefficients of the Taylor polynomial at ``base`` up to total degree
    ``order``, keyed by exponent vector: derivative value over factorial.

    They are the coordinates of the jet of ``e`` at the universal point of
    ``truncated_algebra(len(base), order)``, whose basis is exactly these
    exponent vectors.
    """
    check_mode(mode)
    algebra = truncated_algebra(len(base), order)
    jet = jet_eval(e, base, algebra.generators(), mode)
    return {m: c for m, c in zip(algebra.basis, jet.coords) if c != 0}


def jet_eval(e: Expr, base, offsets, mode: str = EXACT) -> WeilElement:
    """Evaluate the function model at base + offsets, offsets nilpotent.

    The expression is evaluated with the arithmetic of the offsets' Weil
    algebra: variable i becomes base[i] + offsets[i], ``+ - * ^`` are ring
    operations, and division and the primitives are finite Taylor series in
    the nilpotent part u of their argument a0 + u, cut off at the algebra's
    degree bound or as soon as u^k = 0.  The result is the image of the
    truncated Taylor expansion at ``base``, and the map is a ring
    homomorphism in ``e``.

    A pole at the base point, or sqrt at 0 in an algebra of order >= 1,
    raises ZeroDivisionError; log or sqrt of a negative number raises
    ArithmeticError; a primitive in exact mode raises ValueError.
    """
    check_mode(mode)
    offsets = list(offsets)
    if not offsets:
        raise ValueError("need at least one offset coordinate")
    if len(base) != len(offsets):
        raise ValueError(f"base point has {len(base)} coordinates for {len(offsets)} offsets")
    algebra = offsets[0].algebra
    for z in offsets:
        if not isinstance(z, WeilElement):
            raise TypeError("offsets must be Weil elements")
        if z.algebra != algebra:
            raise ValueError("offsets live in mixed algebras")
        if not z.is_nilpotent():
            raise ValueError("offsets must be nilpotent (zero unit coordinate)")
    point = [z + (float(b) if mode == FLOAT else to_scalar(b)) for b, z in zip(base, offsets)]
    value = _jet(e, point, mode)
    if not isinstance(value, WeilElement):
        value = algebra.scalar(value)
    return _in_mode(value, mode)


def _jet(e, point, mode):
    """The evaluator of expression trees, behind ``evaluate`` and
    ``jet_eval``.  Subtrees that see only scalars (all of them at a real
    point, the constant ones at base + offsets) stay plain scalars; the
    others are Weil elements."""
    if isinstance(e, Const):
        if mode == EXACT:
            return e.value
        try:
            return float(e.value)
        except OverflowError:
            raise ValueError("an expression constant lies outside the float range") from None
    if isinstance(e, Var):
        if e.index >= len(point):
            raise ValueError(f"expression uses x{e.index + 1} but the point has {len(point)} coordinates")
        return point[e.index]
    if isinstance(e, Add):
        return _jet(e.left, point, mode) + _jet(e.right, point, mode)
    if isinstance(e, Sub):
        return _jet(e.left, point, mode) - _jet(e.right, point, mode)
    if isinstance(e, Mul):
        return _jet(e.left, point, mode) * _jet(e.right, point, mode)
    if isinstance(e, Div):
        num, den = _jet(e.left, point, mode), _jet(e.right, point, mode)
        if isinstance(den, WeilElement):
            return num * _reciprocal(den)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return num * (1 / den) if isinstance(num, WeilElement) else num / den
    if isinstance(e, Pow):
        return _jet(e.base, point, mode) ** e.exponent
    if isinstance(e, Call):
        if mode == EXACT:
            raise ValueError(f"primitive {e.name!r} requires float mode")
        return _primitive(e.name, _jet(e.arg, point, mode))
    raise TypeError(f"cannot evaluate {e!r}")


def _reciprocal(a):
    """1/(a0 + u) = sum over k of (-u)^k / a0^(k+1) for a Weil element."""
    a0 = a.coords[0]
    if a0 == 0:
        raise ZeroDivisionError("denominator vanishes at the evaluation point")
    inv = 1 / a0
    coeffs = [inv]
    for _ in range(a.algebra.degree_bound):
        coeffs.append(-coeffs[-1] * inv)
    return _series(a, coeffs)


def _primitive(name, a):
    """exp/log/sin/cos/sqrt of a0 + u as the Taylor series at a0 in u."""
    if not isinstance(a, WeilElement):
        return _math(name, a)
    a0 = a.coords[0]
    bound = a.algebra.degree_bound
    value = _math(name, a0)
    if name == "exp":
        coeffs = [value]
        for k in range(1, bound + 1):
            coeffs.append(coeffs[-1] / k)
    elif name == "log":
        coeffs = [value] + [(-1) ** (k + 1) / (k * a0 ** k) for k in range(1, bound + 1)]
    elif name in ("sin", "cos"):
        s, c = math.sin(a0), math.cos(a0)
        cycle = (s, c, -s, -c) if name == "sin" else (c, -s, -c, s)
        coeffs = [cycle[k % 4] / math.factorial(k) for k in range(bound + 1)]
    else:  # sqrt
        if a0 == 0 and bound >= 1:
            raise ZeroDivisionError("sqrt is not differentiable at 0")
        coeffs = [value]  # sqrt(a0) * binomial(1/2, k) / a0^k
        for k in range(1, bound + 1):
            coeffs.append(coeffs[-1] * (1.5 - k) / (k * a0))
    return _series(a, coeffs)


_MATH = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


def _math(name, x):
    try:
        return _MATH[name](x)
    except ValueError as exc:
        raise ArithmeticError(f"{name}({x}) out of domain") from exc


def _series(a, coeffs):
    """sum of coeffs[k] * u^k, u the nilpotent part of a; stops once u^k = 0."""
    u = a.nilpotent_part()
    out = a.algebra.scalar(coeffs[0])
    power = u
    for k in range(1, len(coeffs)):
        if k > 1:
            power = power * u
        if power.is_zero():
            break
        out = out + power * coeffs[k]
    return out


# -- function models -----------------------------------------------------------

class FunctionModel(Record):
    """A smooth map modeled componentwise by expressions.

    Fields ``n_in``, ``n_out`` and ``components``, a tuple of ``n_out``
    expressions in the variables x1..x{n_in}.
    """

    __slots__ = ("n_in", "n_out", "components")

    def __post_init__(self):
        if len(self.components) != self.n_out:
            raise ValueError("component count does not match n_out")
        for comp in self.components:
            bad = [i for i in variables(comp) if i >= self.n_in]
            if bad:
                raise ValueError(f"component uses variable index {bad[0]} >= n_in={self.n_in}")

    def evaluate(self, point, mode: str = EXACT):
        return tuple(evaluate(c, point, mode) for c in self.components)

    def jacobian(self, point, mode: str = EXACT):
        """First partials at ``point``: coordinates 1..n_in of the jets at the
        universal first-order point ``truncated_algebra(n_in, 1)``."""
        jets = self.jet(point, truncated_algebra(self.n_in, 1).generators(), mode)
        return [list(j.coords[1:self.n_in + 1]) for j in jets]

    def jet(self, base, offsets, mode: str = EXACT):
        return tuple(jet_eval(c, base, offsets, mode) for c in self.components)


def scalar_function(e: Expr, n: int) -> FunctionModel:
    return FunctionModel(n, 1, (e,))


# -- polynomial bridge ----------------------------------------------------------

def expr_to_polynomial(e: Expr, n: int) -> Polynomial:
    """Exact expansion of a polynomial expression; rejects primitives and
    division by non-constants."""
    if isinstance(e, Const):
        return Polynomial.constant(n, e.value)
    if isinstance(e, Var):
        return Polynomial.variable(n, e.index)
    if isinstance(e, Add):
        return expr_to_polynomial(e.left, n) + expr_to_polynomial(e.right, n)
    if isinstance(e, Sub):
        return expr_to_polynomial(e.left, n) - expr_to_polynomial(e.right, n)
    if isinstance(e, Mul):
        return expr_to_polynomial(e.left, n) * expr_to_polynomial(e.right, n)
    if isinstance(e, Div):
        denom = expr_to_polynomial(e.right, n)
        if denom.degree() > 0:
            raise ValueError("division by a non-constant is not polynomial")
        c = denom.constant_term()
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        return expr_to_polynomial(e.left, n) * (Fraction(1) / c)
    if isinstance(e, Pow):
        return expr_to_polynomial(e.base, n) ** e.exponent
    raise ValueError(f"{format_expr(e)} is not polynomial")


def polynomial_to_expr(p: Polynomial) -> Expr:
    out = Const(Fraction(0))
    for m in sorted(p.terms, key=mono_key):
        term = Const(p.terms[m])
        for i, e in enumerate(m):
            term = mul(term, pow_(Var(i), e))
        out = add(out, term)
    return out


# -- text grammar ----------------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := unary (('*'|'/') unary)*
# unary  := '-' unary | power
# power  := atom ('^' unary)?          (right associative, integer exponent)
# atom   := NUMBER | NAME '(' expr ')' | NAME | '(' expr ')'
#
# NAME is a primitive or a variable like x1, x2, ... (the prefix letter is
# configurable so the same grammar serves distribution symbols d1, d2, ...).

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character at {text[pos:pos + 10]!r}")
        pos = m.end()
        if m.group("num") is not None:
            out.append(("num", m.group("num")))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", ""))
    return out


MAX_DEPTH = 100
"""Deepest expression the parser accepts.  Every operator, unary minus,
primitive call and pair of parentheses adds one level.  The evaluator
and the printers walk trees recursively, so the bound keeps
them, and the parser itself, well inside Python's recursion limit."""


MAX_EXPONENT = 1000
"""Largest exponent the parser accepts, for a literal and for the product
of nested exponents, as in (x1^10)^100 or a constant-folded (7^10)^100.
Exact powers of rationals grow by digits proportional to the exponent, so
an unbounded one can keep an evaluation running indefinitely."""


class _Parser:
    """Recursive descent; each ``parse_*`` method returns (node, depth)."""

    def __init__(self, text, prefix="x", n=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefix = prefix
        self.n = n
        self.max_index = 0
        self.level = 0  # open parse_unary calls: bounds the recursion
        self.power = 1  # largest product of nested exponents parsed so far

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if (kind and tok[0] != kind) or (value is not None and tok[1] != value):
            raise ValueError(f"unexpected token {tok[1]!r}")
        self.pos += 1
        return tok

    @staticmethod
    def deeper(depth):
        if depth > MAX_DEPTH:
            raise ValueError(f"expression nests deeper than {MAX_DEPTH} levels")
        return depth

    def parse_expr(self):
        node, depth = self.parse_term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs, d = self.parse_term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
            depth = self.deeper(max(depth, d) + 1)
        return node, depth

    def parse_term(self):
        node, depth = self.parse_unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs, d = self.parse_unary()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
            depth = self.deeper(max(depth, d) + 1)
        return node, depth

    def parse_unary(self):
        self.level = self.deeper(self.level + 1)
        if self.peek() == ("op", "-"):
            self.take()
            node, depth = self.parse_unary()
            node, depth = mul(Const(Fraction(-1)), node), self.deeper(depth + 1)
        else:
            node, depth = self.parse_power()
        self.level -= 1
        return node, depth

    def parse_power(self):
        outer, self.power = self.power, 1
        base, depth = self.parse_atom()
        power = self.power
        if self.peek() == ("op", "^"):
            self.take()
            exponent, _ = self.parse_unary()
            if not isinstance(exponent, Const):
                raise ValueError("exponent must be a literal integer")
            k = exponent.value
            if not (isinstance(k, Fraction) and k.denominator == 1 and k >= 0):
                raise ValueError(f"exponent must be a non-negative integer, got {k}")
            if k > MAX_EXPONENT:
                raise ValueError(f"exponent exceeds MAX_EXPONENT = {MAX_EXPONENT}")
            power *= int(k)
            if power > MAX_EXPONENT:
                raise ValueError(f"nested exponents multiply to {power} > MAX_EXPONENT = {MAX_EXPONENT}")
            base, depth = pow_(base, int(k)), self.deeper(depth + 1)
        self.power = max(outer, power)
        return base, depth

    def parse_atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return Const(Fraction(value)), 1
        if kind == "name":
            self.take()
            if value in PRIMITIVES:
                self.take("op", "(")
                arg, depth = self.parse_expr()
                self.take("op", ")")
                return Call(value, arg), self.deeper(depth + 1)
            m = re.fullmatch(re.escape(self.prefix) + r"(\d+)", value)
            if not m:
                raise ValueError(f"unknown name {value!r} (variables look like {self.prefix}1)")
            index = int(m.group(1))
            if index < 1:
                raise ValueError("variable indices start at 1")
            if self.n is not None and index > self.n:
                raise ValueError(f"variable {value} exceeds declared dimension {self.n}")
            self.max_index = max(self.max_index, index)
            return Var(index - 1), 1
        if (kind, value) == ("op", "("):
            self.take()
            node, depth = self.parse_expr()
            self.take("op", ")")
            return node, self.deeper(depth + 1)
        raise ValueError(f"unexpected token {value!r}")


def parse_expr(text: str, n=None, prefix: str = "x") -> Expr:
    """Parse one expression in the infix grammar."""
    parser = _Parser(text, prefix, n)
    node, _ = parser.parse_expr()
    parser.take("end")
    return node


def parse_function(text: str, n=None) -> FunctionModel:
    """Parse a comma-separated list of component expressions in x1..xn into
    a map."""
    parser = _Parser(text, n=n)
    components = [parser.parse_expr()[0]]
    while parser.peek() == ("op", ","):
        parser.take()
        components.append(parser.parse_expr()[0])
    parser.take("end")
    n_in = n if n is not None else max(parser.max_index, 1)
    return FunctionModel(n_in, len(components), tuple(components))


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Pow: 3}


def format_expr(e: Expr) -> str:
    """Deterministic pretty-printer in the variables x1, x2, ...; output
    reparses to the same function."""
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{format_scalar(-e.value)}"
        return format_scalar(e.value)
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Call):
        return f"{e.name}({format_expr(e.arg)})"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, 3, tight=True)}^{e.exponent}"
    ops = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}
    prec = _PREC[type(e)]
    left = _wrap(e.left, prec)
    right = _wrap(e.right, prec, tight=type(e) in (Sub, Div))
    return f"{left}{ops[type(e)]}{right}"


def _wrap(e, parent_prec, tight=False):
    text = format_expr(e)
    prec = _PREC.get(type(e), 4)
    if isinstance(e, Const) and text.startswith("-"):
        prec = 0
    if prec < parent_prec or (tight and prec == parent_prec):
        return f"({text})"
    return text
