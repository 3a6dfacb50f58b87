"""Expected answers that do not come from the code under test.

* The pinned constellations of the builtins, written out by hand from the
  theorems they reproduce: the five warm-up iterations, the four
  many-values models, the three left-side models and the bottom row of the
  chain-intersection plan.
* For finite systems: a separate exact set-cover search for b and d, the
  small-set systems, dual and product built from their definitions, and a
  brute-force Tukey search for small systems.

Nothing here imports ``cichon``.
"""

from __future__ import annotations

import itertools
import math

ENTRIES = ("addN", "covN", "addM", "b", "covM", "nonM", "d", "cofM", "nonN", "cofN", "c")

# the labels `cichon derive` prints in its constellation listing
DISPLAY = {"add(N)": "addN", "cov(N)": "covN", "add(M)": "addM", "b": "b",
           "cov(M)": "covM", "non(M)": "nonM", "d": "d", "cof(M)": "cofM",
           "non(N)": "nonN", "cof(N)": "cofN", "c": "c"}


def _spread(**groups: str) -> dict[str, str]:
    """{value: 'entry entry ...'} -> {entry: value}, covering all eleven."""
    out = {}
    for value, entries in groups.items():
        for e in entries.split():
            out[e] = value
    if sorted(out) != sorted(ENTRIES):
        raise ValueError(f"not the eleven entries: {sorted(out)}")
    return out


_LEFT = "addN covN addM b nonM"
_RIGHT = "covM d cofM nonN cofN c"

CONSTELLATIONS = {
    # warm-ups: a finite-support iteration of length lam (cf. lam uncountable)
    "cohen": _spread(aleph1=_LEFT, lam=_RIGHT),
    "random": _spread(aleph1="addN addM b", lam="covN nonM " + _RIGHT),
    "evdiff": _spread(aleph1="addN covN addM b", lam="nonM " + _RIGHT),
    "hechler": _spread(aleph1="addN covN", lam="addM b nonM " + _RIGHT),
    "loc": _spread(lam=_LEFT + " " + _RIGHT),
    # many-values theorems
    "mod1": _spread(lam1="addN", lam2="covN", lam3="addM b", lam4="nonM covM",
                    lam5="d cofM nonN cofN c"),
    "mod2": _spread(lam1="addN", lam2="covN", lam3="addM b nonM",
                    lam4="covM d cofM nonN cofN c"),
    "mod3": _spread(lam1="addN", lam2="addM b", lam3="covN nonM covM nonN",
                    lam4="d cofM cofN c"),
    "mod5": _spread(lam1="addN", lam2="covN", lam3="addM b nonM covM d cofM",
                    lam4="nonN cofN c"),
    # left-side models
    "gksmax": _spread(lam1="addN", lam2="covN", lam3="addM b", lam4="nonM",
                      lam5=_RIGHT),
    "kst": _spread(lam1="addN", lam2="addM b", lam3="covN", lam4="nonM",
                   lam5=_RIGHT),
    "bcm": _spread(lam1="addN", lam2="covN", lam3="addM b", lam4="nonM",
                   lam5="covM", lam6="d cofM nonN cofN c"),
    # the ten-value bottom row of the intersection plan
    "cichon_max": _spread(lam1b="addN", lam2b="covN", lam3b="addM b", lam4b="nonM",
                          lam4d="covM", lam3d="d cofM", lam2d="nonN",
                          lam1d="cofN", lamc="c"),
}

def parse_constellation(text: str) -> dict[str, str]:
    """Entry -> value from the listing `cichon derive` prints."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in DISPLAY:
            out[DISPLAY[parts[0]]] = parts[1]
    return out


# ---------------------------------------------------------------------------
# finite systems, given as (x_size, y_size, rows) with rows[x] a bitmask over Y
# ---------------------------------------------------------------------------

INF = math.inf


def _popcount(m: int) -> int:
    return bin(m).count("1")


def min_cover(universe: int, sets: list[int]) -> float:
    """Fewest sets whose union contains universe, by iterative deepening."""
    if universe == 0:
        return 0
    sets = sorted({s & universe for s in sets if s & universe}, key=_popcount, reverse=True)
    union = 0
    for s in sets:
        union |= s
    if union != universe:
        return INF
    biggest = _popcount(sets[0])
    elems = [e for e in range(universe.bit_length()) if universe >> e & 1]
    holders = {e: [s for s in sets if s >> e & 1] for e in elems}

    def fits(left: int, k: int) -> bool:
        if left == 0:
            return True
        if k == 0 or _popcount(left) > k * biggest:
            return False
        e = min((e for e in elems if left >> e & 1), key=lambda e: len(holders[e]))
        return any(fits(left & ~s, k - 1) for s in holders[e])

    k = -(-len(elems) // biggest)
    while not fits(universe, k):
        k += 1
    return k


def cones(x_size: int, y_size: int, rows) -> list[int]:
    return [sum(1 << x for x in range(x_size) if rows[x] >> y & 1) for y in range(y_size)]


def d_value(x_size: int, y_size: int, rows) -> float:
    """d: fewest responses bounding every challenge."""
    return min_cover((1 << x_size) - 1, cones(x_size, y_size, rows))


def b_value(x_size: int, y_size: int, rows) -> float:
    """b: fewest challenges that no single response bounds."""
    full_y = (1 << y_size) - 1
    return min_cover(full_y, [full_y & ~r for r in rows])


def dual_system(x_size: int, y_size: int, rows) -> tuple:
    """R-dual: challenges and responses swap, and y bounds x iff not x R y."""
    return y_size, x_size, tuple(sum(1 << x for x in range(x_size) if not rows[x] >> y & 1)
                                 for y in range(y_size))


def product_system(R, R2) -> tuple:
    """R x R2 on pairs, (x, x2) indexed x * |X2| + x2, likewise for responses."""
    (x, y, rows), (x2, y2, rows2) = R, R2
    return x * x2, y * y2, tuple(
        sum(1 << (b * y2 + b2) for b in range(y) for b2 in range(y2)
            if rows[a] >> b & 1 and rows2[a2] >> b2 & 1)
        for a in range(x) for a2 in range(x2))


def small_sets(n: int, k: int) -> list[int]:
    """Subsets of {0..n-1} with fewer than k elements, as bitmasks, in the
    order cichon indexes them (by size, then by mask)."""
    return sorted((m for m in range(1 << n) if _popcount(m) < k), key=lambda m: (_popcount(m), m))


def is_connection(R, R2, psi_minus, psi_plus) -> bool:
    """Does (psi_minus, psi_plus) carry the relation of R2 back to R?"""
    (x, y, rows), (x2, y2, rows2) = R, R2
    if len(psi_minus) != x or len(psi_plus) != y2:
        return False
    if not all(0 <= v < x2 for v in psi_minus) or not all(0 <= v < y for v in psi_plus):
        return False
    return all(rows[a] >> psi_plus[b2] & 1
               for a in range(x) for b2 in range(y2)
               if rows2[psi_minus[a]] >> b2 & 1)


def connects(R, R2) -> bool:
    """Brute force over every psi_minus: X -> X2 (small systems only)."""
    (x, y, rows), (x2, y2, rows2) = R, R2
    cone = cones(x, y, rows)
    for psi in itertools.product(range(x2), repeat=x):
        if all(any(need & ~c == 0 for c in cone)
               for need in (sum(1 << a for a in range(x) if rows2[psi[a]] >> b2 & 1)
                            for b2 in range(y2))):
            return True
    return False
