"""Exact rationals, and the one rule for what text is a number.

Every number cfl reads from text passes through here.  In a graph or
partition file a number is ASCII digits (``decimal_fields``).  Anywhere
else (config values, vertex lists, graph specs, ``--seed``,
CFL_NODE_BUDGET) it is ASCII text with no '_', which ``int``, ``float`` or
``exact_fraction`` then reads (``number``): '-1/3', '1e6' and '+3' are
numbers, but '٢' and '1_0', which Python's readers take, are not.

Every cfl module imports ``fractions`` inside the function that builds a
Fraction, and names the type in annotations only, so a run that reads and
builds no rational never loads it (or the ``decimal`` and ``numbers`` it
brings).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from fractions import Fraction


def decimal_fields(fields: Iterable[str]) -> bool:
    """Whether each field is ASCII digits (``isdigit`` also takes '²')."""
    return all(f.isascii() and f.isdigit() for f in fields)


def number(text: str, kind: Callable = int):
    """``kind(text)``, where ``kind`` is ``int``, ``float`` or
    ``exact_fraction``, if ``text`` is ASCII with no '_'; else a ValueError
    that says what was expected."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"expected an ASCII number without '_', got {text!r}")
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"expected {what}, got {text!r}") from None


def exact_fraction(x) -> Fraction:
    """Convert a parameter to an exact Fraction.

    Floats are read at their shortest decimal representation (the literal a
    user typed, e.g. 0.2 -> 1/5), not their binary expansion; this keeps
    thresholds like ceil(eps * size) landing on the intended integer.
    Fractions, ints and strings ("2/7", "0.3") pass through exactly.
    """
    from fractions import Fraction
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def round_half_up(x: Fraction) -> int:
    """Round to nearest integer, ties upward."""
    from fractions import Fraction
    return math.floor(x + Fraction(1, 2))
