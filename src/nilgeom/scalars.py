"""Scalar domain shared by every module: exact rationals or binary floats.

Exact mode works over `fractions.Fraction`; every identity in the library
then holds on the nose, and no exact computation takes a square root.
Float mode is opt-in per computation and is only required where analytic
primitives enter (exp/log/sin/cos/sqrt).  Float comparisons use an
absolute tolerance, default 1e-9.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]

EXACT = "exact"
FLOAT = "float"

DEFAULT_EPS = 1e-9


def check_mode(mode: str) -> str:
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}, expected 'exact' or 'float'")
    return mode


def to_scalar(value, mode: str = EXACT) -> Scalar:
    """Coerce a number or numeric string into the given scalar domain."""
    if mode == FLOAT:
        if isinstance(value, str):
            value = parse_rational(value)
        return float(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(
                f"non-integral float {value!r} in exact mode; pass a Fraction "
                "or a 'p/q' string, or switch to float mode"
            )
        return Fraction(int(value))
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a scalar")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal literals exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def scalars_equal(a, b, eps: float | None = None) -> bool:
    """Equality of scalars: exact when ``eps`` is None, else |a-b| <= eps."""
    if eps is None:
        return a == b
    return abs(a - b) <= eps


def format_scalar(value) -> str:
    """Canonical printed form: rationals as p/q, floats at 17 significant
    digits, and a float zero of either sign as 0."""
    if isinstance(value, float):
        return format(value, ".17g") if value else "0"
    return str(Fraction(value))
