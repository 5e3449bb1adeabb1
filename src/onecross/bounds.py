"""Closed-form edge-count bounds, regime classification, and gap reporting.

All arithmetic is exact (integers and fractions); nothing here builds a
drawing.  The constructive lower bound is the maximum over the same family
table that drives :func:`onecross.constructions.best_known`, so the two agree
by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Literal, NamedTuple

from .constructions import family_formulas
from .drawing import DrawingError


class SizeBounds(NamedTuple):
    """Every bound evaluation for class sizes (x, y), all recomputed."""

    x: int
    y: int
    n: int
    upper_general: int
    upper_unbalanced: int | None
    upper_x3: int | None
    upper_final: int
    lower_constructive: int
    regime: str
    conjecture_bound: int | None


def _check_domain(x: int, y: int) -> None:
    if x < 1 or x > y:
        raise DrawingError("need 1 <= x <= y")


def _general_cap(x: int, y: int) -> int:
    """3n - 8 for even n other than 6, 3n - 9 for odd n or n = 6; x*y below n = 4."""
    n = x + y
    # The parity rule dips below the trivial caps for n = 3, so floor it there.
    if n < 4:
        return x * y
    return 3 * n - 9 if (n % 2 == 1 or n == 6) else 3 * n - 8


def _upper_candidates(x: int, y: int) -> dict[str, int]:
    """Every proven upper bound on the edge count that applies at (x, y).

    The complete bipartite count x*y; the general cap 3n - 8 for even n other
    than 6 and 3n - 9 for odd n or n = 6; 2n + 6x - 16 for x >= 2; the planar
    bipartite cap 2n - 4 for x = 2; 2n for x = 3; and y for x = 1.
    """
    _check_domain(x, y)
    n = x + y
    out = {"complete": x * y, "general": _general_cap(x, y)}
    if x >= 2:
        out["unbalanced"] = 2 * n + 6 * x - 16
    if x == 1:
        out["star"] = y
    if x == 2:
        out["planar"] = 2 * n - 4
    if x == 3:
        out["x3"] = 2 * n
    return out


def upper_bound(x: int, y: int) -> int:
    """Smallest applicable proven upper bound on the edge count."""
    return min(_upper_candidates(x, y).values())


def lower_bound(x: int, y: int) -> int:
    """Best constructive lower bound; equals ``best_known(x, y).edges``."""
    return max(count for _, count in family_formulas(x, y))


def _conjectured(x: int, y: int) -> int | None:
    """The conjectured cap 2n + 4x - 12: the w3 family's count, where it applies."""
    return dict(family_formulas(x, y)).get("w3")


def _regime(x: int, y: int) -> str:
    if x <= 2:
        return "planar"
    if x == 3:
        return "x3"
    if _conjectured(x, y) is not None:
        return "unbalanced"
    # With x >= 4 and y below 6x - 12, the intermediate regime starts at y = 6.
    if y >= 6:
        return "intermediate"
    return "balanced-augmented"


def size_bounds(x: int, y: int) -> SizeBounds:
    """All bound fields for (x, y); see :class:`SizeBounds`."""
    upper = _upper_candidates(x, y)
    return SizeBounds(
        x=x,
        y=y,
        n=x + y,
        upper_general=upper["general"],
        upper_unbalanced=upper.get("unbalanced"),
        upper_x3=upper.get("x3"),
        upper_final=min(upper.values()),
        lower_constructive=lower_bound(x, y),
        regime=_regime(x, y),
        conjecture_bound=_conjectured(x, y),
    )


class ConjectureGap(NamedTuple):
    """The open interval between construction and proof in the sparse regime."""

    x: int
    y: int
    conjectured_upper: int
    proven_upper: int
    constructive_lower: int
    open_interval: tuple[int, int]
    conjecture_tight: bool


def conjecture_gap(x: int, y: int) -> ConjectureGap:
    """Bracket the extremal count against the conjectured cap 2n + 4x - 12.

    Only defined for x >= 3 and y >= 6x - 12.  The artifact reports the gap;
    it never asserts the conjecture.
    """
    conjectured = _conjectured(x, y)
    if conjectured is None:
        raise DrawingError("outside the conjecture regime (x >= 3, y >= 6x - 12)")
    proven = upper_bound(x, y)
    lower = lower_bound(x, y)
    return ConjectureGap(
        x=x,
        y=y,
        conjectured_upper=conjectured,
        proven_upper=proven,
        constructive_lower=lower,
        open_interval=(lower, min(proven, conjectured)),
        conjecture_tight=lower == conjectured and proven == conjectured,
    )


RatioRule = Literal["fixed", "alpha", "sqrt"]


class RatioRow(NamedTuple):
    y: int
    x: int
    n: int
    lower: int
    upper: int
    lower_ratio: Fraction
    upper_ratio: Fraction


def ratio_table(rule: RatioRule, y_values: Iterable[int],
                value: float | int | None = None) -> list[RatioRow]:
    """Edge-per-vertex ratio brackets along a growth rule for x.

    ``rule`` fixes x directly (``fixed`` with ``value``), as the floor of
    ``value * y`` (``alpha``), or as the floor of ``sqrt(y)``.  For sublinear
    rules both ratio columns approach 2 from above as y grows.
    """
    chooser: Callable[[int], int]
    if rule == "fixed":
        if value is None:
            raise DrawingError("fixed rule needs a value for x")
        chooser = lambda y: int(value)
    elif rule == "alpha":
        if value is None:
            raise DrawingError("alpha rule needs a coefficient")
        chooser = lambda y: int(Fraction(value).limit_denominator(10**6) * y)
    elif rule == "sqrt":
        chooser = lambda y: isqrt(y)
    else:
        raise DrawingError(f"unknown rule {rule!r}")
    rows = []
    for y in y_values:
        x = max(1, min(chooser(y), y))
        n = x + y
        lo, up = lower_bound(x, y), upper_bound(x, y)
        rows.append(RatioRow(
            y=y, x=x, n=n, lower=lo, upper=up,
            lower_ratio=Fraction(lo, n), upper_ratio=Fraction(up, n),
        ))
    return rows
