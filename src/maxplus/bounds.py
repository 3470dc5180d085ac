"""The Wielandt and Dulmage-Mendelsohn threshold bounds.

Pure integer formulas: Wi(n) = (n-1)^2 + 1 for n >= 2 (and 0 for n = 1),
DM(g, n) = g(n-2) + n for a girth parameter 1 <= g <= n.
"""

from __future__ import annotations


def wielandt_bound(n: int) -> int:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 0 if n == 1 else (n - 1) ** 2 + 1


def dm_bound(g: int, n: int) -> int:
    if not 1 <= g <= n:
        raise ValueError(f"need 1 <= g <= n, got g={g}, n={n}")
    return g * (n - 2) + n

