"""The Wielandt and Dulmage-Mendelsohn threshold bounds.

Pure integer formulas: Wi(n) = (n-1)^2 + 1 for n >= 2 (and 0 for n = 1),
DM(g, n) = g(n-2) + n for a girth parameter 1 <= g <= n.
"""

from __future__ import annotations

from dataclasses import dataclass


def wielandt_bound(n: int) -> int:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 0 if n == 1 else (n - 1) ** 2 + 1


def dm_bound(g: int, n: int) -> int:
    if not 1 <= g <= n:
        raise ValueError(f"need 1 <= g <= n, got g={g}, n={n}")
    return g * (n - 2) + n


@dataclass(frozen=True)
class BoundComparison:
    """Which of the two bounds binds, and whether Wi(n) is attainable at all.

    The Wielandt bound can only be met when the critical girth is n-1 or n;
    below that the DM bound is strictly smaller.
    """

    wi: int
    dm: int
    smaller: str  # "wi", "dm", or "equal"
    wielandt_attainable: bool


def compare_bounds(g: int, n: int) -> BoundComparison:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    wi = wielandt_bound(n)
    dm = dm_bound(g, n)
    if wi == dm:
        smaller = "equal"
    elif dm < wi:
        smaller = "dm"
    else:
        smaller = "wi"
    return BoundComparison(wi=wi, dm=dm, smaller=smaller, wielandt_attainable=g >= n - 1)
