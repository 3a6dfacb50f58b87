"""Exact finite relational systems: b/d numbers, duals, products, Tukey search.

A finite relational system is an incidence matrix between a challenge set X
and a response set Y.  A `FinSys` is stored as its rows, one bitmask over Y
per challenge; `FinSys.cones()` is its one column view, and every other
view (the dual, the cover sets, the search's bound masks) is read from
those two.  The two invariants are

    d_num: the least number of responses dominating every challenge
           (a minimum set cover of X by the cones {x : x rel y}), and
    b_num: the least number of challenges no single response bounds
           (a minimum hitting set of the cone complements).

The production path is one branch-and-bound set-cover solver: `d_num`
runs it on the cones, and `b_num` runs `d_num` on the dual system, since
b(R) = d(dual(R)).  A plain subset-enumeration oracle for each (`*_brute`)
is kept independent of it as a check for the test suite.

TOP is the "no witnessing set exists" value and is represented by
``math.inf`` so it compares and absorbs naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, count

TOP = math.inf

NODE_BUDGET = 100_000                # nodes one exact search may expand before it refuses
PRODUCT_CELL_LIMIT = 1_000_000       # cells a product system may have


class FiniteError(Exception):
    pass


class SizeLimit(FiniteError):
    pass


class SearchSpaceTooLarge(FiniteError):
    pass


class BadParameters(FiniteError):
    pass


class NotPreorder(FiniteError):
    pass


@dataclass(frozen=True)
class FinSys:
    """Relational system on finite carriers; rows[x] is a bitmask over Y."""

    x_size: int
    y_size: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.x_size < 1 or self.y_size < 1:
            raise BadParameters("carriers must be non-empty")
        if len(self.rows) != self.x_size:
            raise BadParameters("row count does not match x_size")
        mask = (1 << self.y_size) - 1
        for r in self.rows:
            if r & ~mask:
                raise BadParameters("row mask exceeds y_size")

    @staticmethod
    def from_matrix(matrix) -> "FinSys":
        rows = []
        width = len(matrix[0]) if matrix else 0
        for row in matrix:
            if len(row) != width:
                raise BadParameters("ragged relation matrix")
            rows.append(sum(1 << y for y, v in enumerate(row) if v))
        return FinSys(len(matrix), width, tuple(rows))

    def rel(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def cones(self) -> list[int]:
        """The column view: cones()[y] is the bitmask over X of the
        challenges that response y bounds."""
        return [sum(1 << x for x, row in enumerate(self.rows) if row >> y & 1)
                for y in range(self.y_size)]


# ---------------------------------------------------------------------------
# exact minimum cover
# ---------------------------------------------------------------------------

def _greedy_cover(universe: int, sets: list[int]) -> int:
    """Size of a greedy cover; `sets` must cover `universe`."""
    covered, used = 0, 0
    while covered & universe != universe:
        covered |= max(sets, key=lambda s: bin(s & universe & ~covered).count("1"))
        used += 1
    return used


def _search_cover(uncovered: int, used: int, best, sets, covers_of, seen: dict):
    """Branch and bound: the least cover size found below `uncovered`
    (`best` if none beats it).  `seen` has one entry per node expanded."""
    if uncovered == 0:
        return min(best, used)
    if used + 1 >= best:
        return best
    prior = seen.get(uncovered)
    if prior is not None and prior <= used:
        return best
    seen[uncovered] = used
    if len(seen) > NODE_BUDGET:
        raise SizeLimit(f"cover search exceeds {NODE_BUDGET} nodes")
    # branch on the uncovered element with the fewest candidate sets
    elem = min((e for e in covers_of if uncovered >> e & 1),
               key=lambda e: len(covers_of[e]))
    for i in covers_of[elem]:
        best = _search_cover(uncovered & ~sets[i], used + 1, best, sets, covers_of, seen)
    return best


def min_cover(universe: int, sets: list[int]) -> int | float:
    """Exact minimum number of sets covering universe; TOP if impossible.

    The search is a module-level function, not a closure that calls itself:
    such a closure is a reference cycle that keeps its `seen` memo alive
    until the next garbage collection."""
    if universe == 0:
        return 0
    total = 0
    for s in sets:
        total |= s
    if universe & ~total:
        return TOP

    covers_of = {}  # element -> list of set indices containing it
    n_elems = universe.bit_length()
    for e in range(n_elems):
        if universe >> e & 1:
            covers_of[e] = [i for i, s in enumerate(sets) if s >> e & 1]
    try:
        return _search_cover(universe, 0, _greedy_cover(universe, sets), sets, covers_of, {})
    except RecursionError:  # one frame per set taken
        raise SizeLimit("cover search nests deeper than the interpreter allows") from None


def d_num(R: FinSys) -> int | float:
    """Dominating number: minimum set cover of X by cones; TOP if some x uncovered."""
    return min_cover((1 << R.x_size) - 1, R.cones())


def b_num(R: FinSys) -> int | float:
    """Unbounding number, as b(R) = d(dual(R))."""
    return d_num(dual(R))


def d_num_brute(R: FinSys) -> int | float:
    """Subset-enumeration oracle for d_num. Keep independent of min_cover."""
    cones = R.cones()
    full = (1 << R.x_size) - 1
    for k in range(0, R.y_size + 1):
        for pick in combinations(range(R.y_size), k):
            cov = 0
            for y in pick:
                cov |= cones[y]
            if cov == full:
                return k
    return TOP


def b_num_brute(R: FinSys) -> int | float:
    """Subset-enumeration oracle for b_num."""
    cones = R.cones()
    for k in range(0, R.x_size + 1):
        for pick in combinations(range(R.x_size), k):
            fmask = sum(1 << x for x in pick)
            if all(fmask & ~c for c in cones):
                return k
    return TOP


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def dual(R: FinSys) -> FinSys:
    """Swap roles and negate: rows'[y] bit x set iff not (x rel y)."""
    full_x = (1 << R.x_size) - 1
    return FinSys(R.y_size, R.x_size, tuple(full_x & ~c for c in R.cones()))


def product(R: FinSys, R2: FinSys) -> FinSys:
    """Componentwise-conjunction product on X×X', Y×Y'."""
    xs, ys = R.x_size * R2.x_size, R.y_size * R2.y_size
    if xs * ys > PRODUCT_CELL_LIMIT:
        raise SizeLimit(f"product has {xs * ys} cells (limit {PRODUCT_CELL_LIMIT})")
    rows = []
    for x1 in range(R.x_size):
        for x2 in range(R2.x_size):
            mask = 0
            for y1 in range(R.y_size):
                if not R.rel(x1, y1):
                    continue
                base = y1 * R2.y_size
                mask |= R2.rows[x2] << base
            rows.append(mask)
    return FinSys(xs, ys, tuple(rows))


def identity_system(n: int) -> FinSys:
    return FinSys(n, n, tuple(1 << i for i in range(n)))


def le_system(n: int) -> FinSys:
    """The linear order <= on {0..n-1} as a self-relational system."""
    full = (1 << n) - 1
    return FinSys(n, n, tuple(full & ~((1 << i) - 1) for i in range(n)))


# ---------------------------------------------------------------------------
# Tukey connections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TukeyMorphism:
    """psi_minus: X -> X', psi_plus: Y' -> Y with the bound-transport law."""

    psi_minus: tuple[int, ...]
    psi_plus: tuple[int, ...]

    def validates(self, R: FinSys, R2: FinSys) -> bool:
        for x in range(R.x_size):
            for y2 in range(R2.y_size):
                if R2.rel(self.psi_minus[x], y2) and not R.rel(x, self.psi_plus[y2]):
                    return False
        return True


def tukey_search(R: FinSys, R2: FinSys) -> TukeyMorphism | None:
    """Exhaustive search for a Tukey connection R -> R2.

    Complete: returns a morphism iff one exists.  The b/d monotonicity
    corollary is applied first as a refutation; afterwards psi_minus is
    enumerated lexicographically with per-response candidate pruning, so
    the returned witness is reproducible.  Each of the four refutation
    solves and the enumeration stops at NODE_BUDGET nodes.  The
    enumeration is the module-level `_assign`, not a closure that calls
    itself, so no reference cycle keeps its candidate lists alive after
    the call.
    """
    if b_num(R2) > b_num(R) or d_num(R) > d_num(R2):
        return None

    full_y = (1 << R.y_size) - 1
    try:
        return _assign(0, [], [full_y] * R2.y_size, R, R2, count(1))
    except RecursionError:  # one frame per challenge of R
        raise SearchSpaceTooLarge("psi_minus search nests deeper than the interpreter allows") from None


def _assign(x: int, psi: list[int], cand: list[int], R: FinSys, R2: FinSys,
            calls: count) -> TukeyMorphism | None:
    """Extend the partial psi_minus `psi` (defined below x) lexicographically.

    cand[y2] = bitmask of y in Y still usable as psi_plus(y2) given the
    partial psi_minus; assigning psi_minus(x) = x2 with x2 rel' y2 forces
    psi_plus(y2) into R.rows[x], the responses that bound x.  `calls`
    numbers the calls of one search, which stops past NODE_BUDGET."""
    if next(calls) > NODE_BUDGET:
        raise SearchSpaceTooLarge(f"psi_minus search exceeds {NODE_BUDGET} nodes")
    if x == R.x_size:
        plus = tuple((m & -m).bit_length() - 1 for m in cand)
        return TukeyMorphism(tuple(psi), plus)
    bounds_x = R.rows[x]
    for x2, row2 in enumerate(R2.rows):
        new_cand = [c & bounds_x if row2 >> y2 & 1 else c for y2, c in enumerate(cand)]
        if all(new_cand):
            psi.append(x2)
            found = _assign(x + 1, psi, new_cand, R, R2, calls)
            if found is not None:
                return found
            psi.pop()
    return None


def compose(m1: TukeyMorphism, m2: TukeyMorphism) -> TukeyMorphism:
    """Composite connection R -> R'' from R -> R' and R' -> R''."""
    minus = tuple(m2.psi_minus[i] for i in m1.psi_minus)
    plus = tuple(m1.psi_plus[j] for j in m2.psi_plus)
    return TukeyMorphism(minus, plus)


def swap(m: TukeyMorphism) -> TukeyMorphism:
    """The dual connection (psi_plus, psi_minus): dual(R') -> dual(R)."""
    return TukeyMorphism(m.psi_plus, m.psi_minus)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinIdeal:
    """A downward-closed family over {0..ground_size-1} containing all singletons."""

    ground_size: int
    members: tuple[int, ...]  # bitmasks, canonically sorted

    def __post_init__(self):
        if self.ground_size < 1:
            raise BadParameters("ground set must be non-empty")
        mem = set(self.members)
        for i in range(self.ground_size):
            if (1 << i) not in mem:
                raise BadParameters(f"singleton {{{i}}} missing from ideal")
        for s in mem:
            if s >= 1 << self.ground_size:
                raise BadParameters("member exceeds ground set")
            if any(sub not in mem for sub in _one_smaller(s)):
                raise BadParameters("ideal is not downward closed")

    @staticmethod
    def from_sets(ground_size: int, sets) -> "FinIdeal":
        masks = {0, *(sum(1 << i for i in s) for s in sets),
                 *(1 << i for i in range(ground_size))}
        # close downward
        stack = list(masks)
        while stack:
            for sub in _one_smaller(stack.pop()):
                if sub not in masks:
                    masks.add(sub)
                    stack.append(sub)
        return _ideal(ground_size, masks)


def _one_smaller(s: int):
    """The subsets of bitmask s with exactly one element fewer."""
    t = s
    while t:
        low = t & -t
        yield s & ~low
        t &= ~low


def _ideal(ground_size: int, masks) -> FinIdeal:
    """The ideal with these members, in the canonical order: by size, then value."""
    return FinIdeal(ground_size, tuple(sorted(masks, key=lambda m: (bin(m).count("1"), m))))


def small_sets_ideal(n: int, k: int) -> FinIdeal:
    """The ideal of subsets of {0..n-1} of size < k; k >= 2, so that it
    holds the singletons."""
    if not 2 <= k <= n:
        raise BadParameters("need 2 <= k <= n")
    return _ideal(n, (m for m in range(1 << n) if bin(m).count("1") < k))


def systems_of_ideal(I: FinIdeal) -> tuple[FinSys, FinSys]:
    """The directed system <I, I, ⊆> and the covering system <X, I, ∈>."""
    mem = I.members
    i_rows = tuple(
        sum(1 << j for j, b in enumerate(mem) if a & ~b == 0)
        for a in mem
    )
    i_sys = FinSys(len(mem), len(mem), i_rows)
    c_rows = tuple(
        sum(1 << j for j, b in enumerate(mem) if b >> x & 1)
        for x in range(I.ground_size)
    )
    c_sys = FinSys(I.ground_size, len(mem), c_rows)
    return i_sys, c_sys


def ideal_systems(n: int, k: int) -> tuple[FinSys, FinSys]:
    """Finite analog of ([X]^{<k}, ⊆) and (X, [X]^{<k}, ∈) for |X| = n."""
    return systems_of_ideal(small_sets_ideal(n, k))


def bounded_below(R: FinSys, k: int) -> bool:
    """Is every subset of X with fewer than k elements R-bounded?"""
    cones = R.cones()
    for size in range(k):
        for pick in combinations(range(R.x_size), size):
            fmask = sum(1 << x for x in pick)
            if not any(fmask & ~c == 0 for c in cones):
                return False
    return True


# ---------------------------------------------------------------------------
# directed preorders
# ---------------------------------------------------------------------------

def from_preorder(matrix) -> tuple[FinSys, bool]:
    """Self-relational system of a preorder; also reports directedness."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise NotPreorder("relation must be square")
    sys = FinSys.from_matrix(matrix)
    rows = sys.rows
    for i, row in enumerate(rows):
        if not row >> i & 1:
            raise NotPreorder(f"not reflexive at {i}")
    for i, row in enumerate(rows):
        for j in range(n):
            missing = rows[j] & ~row  # k with j <= k but not i <= k
            if row >> j & 1 and missing:
                k = (missing & -missing).bit_length() - 1
                raise NotPreorder(f"not transitive at {i},{j},{k}")
    directed = all(a & b for a in rows for b in rows)  # some z above both
    return sys, directed


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _nat(tok: str) -> bool:
    """ASCII digits only: str.isdigit also admits '³', which int() rejects."""
    return tok.isascii() and tok.isdigit()


def parse_finsys(text: str) -> FinSys:
    """First line '<x_size> <y_size>', then x_size rows of 0/1 characters."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise BadParameters("empty system file")
    head = lines[0].split()
    if len(head) != 2 or not all(_nat(tok) and int(tok) > 0 for tok in head):
        raise BadParameters("header must be '<x_size> <y_size>', both positive")
    xs, ys = int(head[0]), int(head[1])
    if len(lines) - 1 != xs:
        raise BadParameters(f"expected {xs} relation rows, got {len(lines) - 1}")
    matrix = []
    for ln in lines[1:]:
        if len(ln) != ys or any(ch not in "01" for ch in ln):
            raise BadParameters(f"bad relation row {ln!r}")
        matrix.append([ch == "1" for ch in ln])
    return FinSys.from_matrix(matrix)


def format_finsys(R: FinSys) -> str:
    out = [f"{R.x_size} {R.y_size}"]
    for x in range(R.x_size):
        out.append("".join("1" if R.rel(x, y) else "0" for y in range(R.y_size)))
    return "\n".join(out) + "\n"


def parse_finideal(text: str) -> FinIdeal:
    """First line the ground size, then one subset per line as sorted
    indices; a blank line is the empty set."""
    raw = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    raw = [ln.strip() for ln in raw]
    if not raw or not _nat(raw[0]):
        raise BadParameters("ideal file must start with the ground size")
    n = int(raw[0])
    sets = []
    for ln in raw[1:]:
        toks = ln.split()
        if not all(_nat(tok) for tok in toks):
            raise BadParameters(f"bad member line {ln!r}")
        sets.append(tuple(map(int, toks)))
    return FinIdeal.from_sets(n, sets)


def format_finideal(I: FinIdeal) -> str:
    out = [str(I.ground_size)]
    for m in I.members:
        if m == 0:
            continue
        out.append(" ".join(str(i) for i in range(I.ground_size) if m >> i & 1))
    return "\n".join(out) + "\n"
