"""The eleven diagram entries: value intervals, propagation, checking, DOT.

Entries are keyed addN covN addM b covM nonM d cofM nonN cofN c.  Each one
gets an interval of cardinal names.  Intrinsically valued expressions
(ideals, covering systems of small sets, cardinals, ordinal products,
finite products, duals of these) have closed-form bounds; the four Polish
atoms and the two sigma-ideal orders are bounded by harvesting the closed
fact database through the monotonicity corollary: lhs <= rhs in the Tukey
order pushes the unbounding number down and the dominating number up.  The
harvest reads only the facts with the atom on one side, from the by-lhs and
by-rhs lists the database keeps per expression.

`constellation` combines the harvested intervals with the two dependent
equations add(M) = min(b, cov(M)) and cof(M) = max(d, non(M)) and with
monotone propagation along the diagram arrows, to a fixpoint.  Each
equation, and each end of a product's bounds, settles on its own: one the
order does not decide stays open without widening the others.  One call
evaluates the closed-form bounds of each distinct expression once.

An interval end is a name, the first declared one of its cardinal.  The
end of a meet is chosen by bit tests on the context positions of its
candidates, against the context's `_up` and `_strict` rows.

Comparisons that the context does not settle leave intervals wide; they
are never guessed.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .cards import ALEPH1, CardContext
from .facts import FactDB
from .systems import (CIdeal, Card, Dual, Ideal, IdealSys, Ord, Prod, Prs,
                      SysExpr, render)

ENTRIES = ("addN", "covN", "addM", "b", "covM", "nonM",
           "d", "cofM", "nonN", "cofN", "c")

DISPLAY = {"addN": "add(N)", "covN": "cov(N)", "addM": "add(M)", "b": "b",
           "covM": "cov(M)", "nonM": "non(M)", "d": "d", "cofM": "cof(M)",
           "nonN": "non(N)", "cofN": "cof(N)", "c": "c"}

# x -> y means the entry x is provably <= the entry y
ARROWS = (
    ("addN", "covN"), ("addN", "addM"),
    ("covN", "nonM"),
    ("addM", "covM"), ("addM", "b"),
    ("covM", "nonN"), ("covM", "d"),
    ("b", "nonM"), ("b", "d"),
    ("nonM", "cofM"),
    ("d", "cofM"),
    ("nonN", "cofN"),
    ("cofM", "cofN"),
    ("cofN", "c"),
)


class DiagramError(Exception):
    pass


class InconsistentBounds(DiagramError):
    pass


class Interval(NamedTuple):
    lo: Optional[str]
    hi: Optional[str]

    @property
    def pinned(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def __str__(self):
        if self.pinned:
            return self.lo
        return f"[{self.lo or '?'}, {self.hi or '?'}]"


def _extreme(ctx: CardContext, names: list[str], upper: bool) -> Optional[str]:
    """Largest (upper) or least candidate, as the first declared name equal
    to it, so equal cardinals compare equal as interval endpoints; if none
    dominates the rest, the first maximal (minimal) one in context order."""
    pos = sorted({ctx.check(n) for n in names})
    if not pos:
        return None
    j = ctx._dominant(pos, upper)
    if j is None:
        strict = ctx._strict
        if upper:  # no candidate lies strictly above j
            mask = 0
            for i in pos:
                mask |= 1 << i
            j = next(j for j in pos if not strict[j] & mask)
        else:  # no candidate lies strictly below j
            above = 0
            for i in pos:
                above |= strict[i]
            j = next(j for j in pos if not above >> j & 1)
    return ctx.names[ctx._canon[j]]


def _meet(ctx, a: Interval, b: Interval) -> Interval:
    lo = _extreme(ctx, [x for x in (a.lo, b.lo) if x is not None], upper=True)
    hi = _extreme(ctx, [x for x in (a.hi, b.hi) if x is not None], upper=False)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# values of expressions
# ---------------------------------------------------------------------------

def intrinsic_bounds(ctx: CardContext, e: SysExpr) -> Optional[tuple[Interval, Interval]]:
    """(bounds for b, bounds for d) of a closed-form expression, else None."""
    if isinstance(e, CIdeal):
        # non([X]^{<theta}) = theta; cov = |X| whenever theta is regular
        d = Interval(e.index, e.index) if (ctx.is_regular(e.theta)
                                           or ctx.lt(e.theta, e.index) is True) \
            else Interval(None, e.index)
        return Interval(e.theta, e.theta), d
    if isinstance(e, Ideal):
        b = Interval(e.theta, e.theta) if ctx.is_regular(e.theta) \
            else Interval(None, e.theta)
        d = Interval(e.index, e.index) if ctx.has_pow_lt(e.index, e.theta) \
            else Interval(e.index, None)
        return b, d
    if isinstance(e, Card):
        v = Interval(e.name, e.name)
        return v, v
    if isinstance(e, Ord):
        cf = ctx.cf(e.factors)
        v = Interval(cf, cf)
        return v, v
    if isinstance(e, Dual):
        inner = intrinsic_bounds(ctx, e.arg)
        if inner is None:
            return None
        b, d = inner
        return d, b
    if isinstance(e, Prod):
        parts = [intrinsic_bounds(ctx, p) for p in e.parts]
        if any(p is None for p in parts):
            return None
        b_los = [p[0].lo for p in parts]
        d_his = [p[1].hi for p in parts]
        # b of a product is the exact min; d is squeezed between the max of
        # the factors and their (cardinal, hence max) product.  Each end is
        # None where the order does not settle it.
        b_lo = None if None in b_los else ctx.least(b_los)
        b_hi = ctx.least(p[0].hi for p in parts if p[0].hi is not None)
        d_lo = ctx.greatest(p[1].lo for p in parts if p[1].lo is not None)
        d_hi = None if None in d_his else ctx.greatest(d_his)
        return Interval(b_lo, b_hi), Interval(d_lo, d_hi)
    return None


class _Bounds(dict):
    """`intrinsic_bounds` of each expression looked up, evaluated at the
    first lookup.  Expressions are shared across contexts, so one of these
    lives for one call only."""

    def __init__(self, ctx: CardContext):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, e: SysExpr):
        self[e] = out = intrinsic_bounds(self.ctx, e)
        return out


def value_bounds(db: FactDB, e: SysExpr) -> tuple[Interval, Interval]:
    """Intervals for the unbounding and dominating numbers of e.

    Requires a closed database for the harvested (atom) case, so that
    transitive consequences are materialized.
    """
    return _value_bounds(db, e, _Bounds(db.ctx))


def _value_bounds(db: FactDB, e: SysExpr, bounds: _Bounds) -> tuple[Interval, Interval]:
    ctx = db.ctx
    direct = bounds[e]
    if direct is not None:
        return direct
    if isinstance(e, Dual):
        b, d = _value_bounds(db, e.arg, bounds)
        return d, b
    if not db.closed:
        raise DiagramError("value_bounds on atoms needs a closed database")

    b_lo, b_hi, d_lo, d_hi = [ALEPH1], [db.c_name], [ALEPH1], [db.c_name]
    k = db.ids.get(e)
    for j in db.by_lhs[k] if k is not None else ():
        val = bounds[db.facts[j].rhs]
        if val is not None:
            vb, vd = val
            if vb.lo is not None:
                b_lo.append(vb.lo)   # b(e) >= b(rhs)
            if vd.hi is not None:
                d_hi.append(vd.hi)   # d(e) <= d(rhs)
    for j in db.by_rhs[k] if k is not None else ():
        val = bounds[db.facts[j].lhs]
        if val is not None:
            vb, vd = val
            if vb.hi is not None:
                b_hi.append(vb.hi)   # b(e) <= b(lhs)
            if vd.lo is not None:
                d_lo.append(vd.lo)   # d(e) >= d(lhs)
    b = Interval(_extreme(ctx, b_lo, upper=True), _extreme(ctx, b_hi, upper=False))
    d = Interval(_extreme(ctx, d_lo, upper=True), _extreme(ctx, d_hi, upper=False))
    for iv, what in ((b, "b"), (d, "d")):
        if iv.lo is not None and iv.hi is not None and ctx.leq(iv.lo, iv.hi) is False:
            raise InconsistentBounds(f"{what}({render(e)}) in {iv}")
    return b, d


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

Constellation = dict  # entry key -> Interval

# atom -> (entry for its unbounding number, entry for its dominating number)
_ATOM_ENTRIES = (
    (Prs("Lc"), "addN", "cofN"),
    (Prs("Cn"), "covN", "nonN"),
    (Prs("ww"), "b", "d"),
    (Prs("Mg"), "nonM", "covM"),
    (IdealSys("N"), "addN", "cofN"),
    (IdealSys("M"), "addM", "cofM"),
)


def constellation(db: FactDB) -> Constellation:
    """Intervals for the eleven entries of a closed database."""
    if not db.closed:
        raise DiagramError("constellation needs a closed database")
    ctx = db.ctx
    out: Constellation = {k: Interval(ALEPH1, db.c_name) for k in ENTRIES}
    out["c"] = Interval(db.c_name, db.c_name)
    bounds = _Bounds(ctx)
    for atom, b_entry, d_entry in _ATOM_ENTRIES:
        b, d = _value_bounds(db, atom, bounds)
        out[b_entry] = _meet(ctx, out[b_entry], b)
        out[d_entry] = _meet(ctx, out[d_entry], d)

    # every end is a name: each entry starts at [aleph1, c], and a meet with
    # a named end keeps a named end
    def update(entry, iv):
        nonlocal changed
        merged = _meet(ctx, out[entry], iv)
        if merged != out[entry]:
            out[entry] = merged
            changed = True

    changed = True
    while changed:
        changed = False
        for x, y in ARROWS:
            update(y, Interval(out[x].lo, None))
            update(x, Interval(None, out[y].hi))
        # add(M) = min(b, cov(M)): the arrows handle add(M) <= each, the
        # equation adds the lower half (and dually for cof(M)); an equation
        # the order does not settle adds nothing
        update("addM", Interval(ctx.least([out["b"].lo, out["covM"].lo]), None))
        update("cofM", Interval(None, ctx.greatest([out["d"].hi, out["nonM"].hi])))

    for k, iv in out.items():
        if ctx.leq(iv.lo, iv.hi) is False:
            raise InconsistentBounds(f"{DISPLAY[k]} in {iv}")
    return out


def pinned_values(cons: Constellation) -> dict[str, str]:
    if not all(iv.pinned for iv in cons.values()):
        unpinned = [k for k, iv in cons.items() if not iv.pinned]
        raise DiagramError(f"entries not pinned: {unpinned}")
    return {k: iv.lo for k, iv in cons.items()}


def format_constellation(cons: Constellation) -> str:
    width = max(len(DISPLAY[k]) for k in ENTRIES)
    lines = [f"{DISPLAY[k]:<{width}}  {cons[k]}" for k in ENTRIES]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# assignment checking
# ---------------------------------------------------------------------------

class Violation(NamedTuple):
    kind: str     # 'arrow' | 'equation' | 'floor' | 'ceiling'
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


def check_assignment(ctx: CardContext, assignment: dict[str, str]) -> list[Violation]:
    """All diagram constraints on a full entry->cardinal assignment."""
    missing = [k for k in ENTRIES if k not in assignment]
    if missing:
        raise DiagramError(f"assignment missing entries: {missing}")
    for k in ENTRIES:
        ctx.check(assignment[k])
    out: list[Violation] = []
    for x, y in ARROWS:
        vx, vy = assignment[x], assignment[y]
        if ctx.leq(vx, vy) is not True:
            out.append(Violation("arrow", f"{DISPLAY[x]}={vx} <= {DISPLAY[y]}={vy} not derivable"))
    for k in ENTRIES:
        v = assignment[k]
        if ctx.leq(ALEPH1, v) is not True:
            out.append(Violation("floor", f"aleph1 <= {DISPLAY[k]}={v} not derivable"))
        if k != "c" and ctx.leq(v, assignment["c"]) is not True:
            out.append(Violation("ceiling", f"{DISPLAY[k]}={v} <= c={assignment['c']} not derivable"))
    for k, want, what in (
            ("addM", ctx.least([assignment["b"], assignment["covM"]]), "min(b, cov(M))"),
            ("cofM", ctx.greatest([assignment["d"], assignment["nonM"]]), "max(d, non(M))")):
        if want is None:
            out.append(Violation("equation", f"{what} is not determined by the order"))
        elif not ctx.same(assignment[k], want):
            out.append(Violation("equation", f"{DISPLAY[k]}={assignment[k]} != {what}={want}"))
    return out


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

def to_dot(cons: Constellation) -> str:
    """Graphviz rendering of the diagram annotated with interval labels."""
    pos = {
        "addN": (0, 0), "covN": (0, 2),
        "addM": (1, 0), "b": (1, 1), "nonM": (1, 2),
        "covM": (2, 0), "d": (2, 1), "cofM": (2, 2),
        "nonN": (3, 0), "cofN": (3, 2), "c": (4, 2),
    }
    lines = ["digraph cichon {", "  rankdir=BT;", "  node [shape=box];"]
    for k in ENTRIES:
        x, y = pos[k]
        label = f"{DISPLAY[k]}\\n{cons[k]}"
        lines.append(f'  {k} [label="{label}", pos="{x},{y}!"];')
    for x, y in ARROWS:
        lines.append(f"  {x} -> {y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
