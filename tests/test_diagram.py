import pytest

from cichon.cards import ALEPH1, ContextBuilder
from cichon.diagram import (ARROWS, ENTRIES, InconsistentBounds, Interval,
                            _extreme, check_assignment, constellation,
                            format_constellation, intrinsic_bounds,
                            pinned_values, to_dot, value_bounds)
from cichon.facts import REPLAY, base_facts, close
from cichon.systems import (CIdeal, Card, Ideal, Ord, Prod, R1, R2, R3, R4,
                            dual)

REPLAY.setdefault("axiom:test", lambda db, fid, f: None)


def lam_ctx():
    return (ContextBuilder().card("lam", regular=True).lt(ALEPH1, "lam")
            .pow("lam", "aleph0").pow_lt("lam", ALEPH1).build())


def five_ctx():
    b = ContextBuilder()
    for i in range(1, 6):
        b.card(f"lam{i}", regular=True)
    b.chain([ALEPH1] + [f"lam{i}" for i in range(1, 6)], strict=True)
    b.pow_lt("lam5", "lam3")
    return b.build()


def test_intrinsic_values():
    ctx = five_ctx()
    b, d = intrinsic_bounds(ctx, Ideal("lam5", ALEPH1))
    assert b == Interval(ALEPH1, ALEPH1) and d == Interval("lam5", "lam5")
    b, d = intrinsic_bounds(ctx, CIdeal("lam5", "lam2"))
    assert (b.lo, d.lo) == ("lam2", "lam5") and b.pinned and d.pinned
    b, d = intrinsic_bounds(ctx, Ord(("lam5", "lam4")))
    assert b == d == Interval("lam4", "lam4")
    b, d = intrinsic_bounds(ctx, dual(Card("lam3")))
    assert b == d == Interval("lam3", "lam3")
    b, d = intrinsic_bounds(ctx, Prod((Card("lam5"), Card("lam4"))))
    assert b == Interval("lam4", "lam4") and d == Interval("lam5", "lam5")


def test_ideal_cofinality_needs_assumption():
    ctx = five_ctx()
    b, d = intrinsic_bounds(ctx, Ideal("lam5", "lam2"))
    assert d.pinned  # pow_lt(lam5,lam3) covers lam2
    b, d = intrinsic_bounds(ctx, Ideal("lam5", "lam4"))
    assert d == Interval("lam5", None)  # no assumption at lam4


def test_value_bounds_from_equivalence():
    ctx = lam_ctx()
    db = base_facts(ctx, "lam")
    C = CIdeal("lam", ALEPH1)
    db.add(R1, C, "axiom:test", note="t")
    db.add(C, R1, "axiom:test", note="t")
    close(db)
    b, d = value_bounds(db, R1)
    assert b == Interval(ALEPH1, ALEPH1)
    assert d == Interval("lam", "lam")
    # duality: bounds of the dual swap
    bd, dd = value_bounds(db, dual(R1))
    assert (bd, dd) == (d, b)


def test_inconsistent_bounds_detected():
    ctx = five_ctx()
    db = base_facts(ctx, "lam5")
    db.add(R3, Card("lam2"), "axiom:test", note="t")   # d(R3) <= lam2
    db.add(Card("lam4"), R3, "axiom:test", note="t")   # d(R3) >= lam4
    close(db)
    with pytest.raises(InconsistentBounds):
        value_bounds(db, R3)


def test_empty_db_gives_wide_intervals():
    ctx = ContextBuilder().build()
    db = close(base_facts(ctx, None))
    cons = constellation(db)
    for k in ENTRIES:
        if k == "c":
            assert cons[k] == Interval("c", "c")
        else:
            assert cons[k] == Interval(ALEPH1, "c")


def test_constellation_formatting_and_dot():
    ctx = lam_ctx()
    db = base_facts(ctx, "lam")
    for r in (R1, R2, R3, R4):
        db.add(CIdeal("lam", ALEPH1), r, "axiom:test", note="t")
    close(db)
    cons = constellation(db)
    text = format_constellation(cons)
    assert "add(N)" in text and text.count("\n") == len(ENTRIES)
    dot = to_dot(cons)
    assert dot.startswith("digraph")
    assert dot.count("[label=") == 11  # ten diagram nodes plus c
    assert dot.count("->") == len(ARROWS)


def test_check_assignment_accepts_and_rejects():
    ctx = five_ctx()
    good = dict(addN="lam1", covN="lam2", addM="lam3", b="lam3", covM="lam4",
                nonM="lam4", d="lam5", cofM="lam5", nonN="lam5", cofN="lam5",
                c="lam5")
    assert check_assignment(ctx, good) == []
    bad = dict(good, addM="lam1")
    kinds = {v.kind for v in check_assignment(ctx, bad)}
    assert kinds == {"equation"}
    bad2 = dict(good, covN="lam5", nonM="lam2")
    assert any(v.kind == "arrow" for v in check_assignment(ctx, bad2))
    bad3 = dict(good, addN="aleph0")
    assert any(v.kind == "floor" for v in check_assignment(ctx, bad3))


def test_check_assignment_missing_entries():
    from cichon.diagram import DiagramError
    ctx = five_ctx()
    with pytest.raises(DiagramError) as err:
        check_assignment(ctx, {"addN": "lam1"})
    assert "covN" in str(err.value)


def test_pinned_values_raises_on_gaps():
    from cichon.diagram import DiagramError
    ctx = ContextBuilder().build()
    db = close(base_facts(ctx, None))
    with pytest.raises(DiagramError):
        pinned_values(constellation(db))


def test_interval_endpoints():
    """The dominating candidate as its first declared equal; with none, the
    first maximal (minimal) candidate in context order."""
    b = ContextBuilder().card("a").card("b").card("a2").card("top")
    b.lt(ALEPH1, "a").lt(ALEPH1, "b").le("a", "a2").le("a2", "a")
    ctx = b.lt("a", "top").lt("b", "top").build()
    assert _extreme(ctx, [], upper=True) is None
    assert _extreme(ctx, [ALEPH1, "a2"], upper=True) == "a"
    assert _extreme(ctx, ["top", "a2"], upper=False) == "a"
    assert _extreme(ctx, ["a2", "b", "top"], upper=True) == "top"
    assert _extreme(ctx, ["a2", "b"], upper=True) == "b"
    assert _extreme(ctx, ["a2", "b", ALEPH1], upper=True) == "b"
    assert _extreme(ctx, ["top", "a2", "b"], upper=False) == "b"
