import pytest

from cichon.cards import ALEPH1, CONTINUUM, CardContext
from cichon.diagram import (ARROWS, ENTRIES, InconsistentBounds, Interval,
                            _extreme, check_assignment, constellation,
                            format_constellation, intrinsic_bounds,
                            pinned_values, to_dot, value_bounds)
from cichon.facts import base_facts, close, replays
from cichon.systems import (CIdeal, Card, Ideal, Ord, Prod, R1, R2, R3, R4,
                            dual)

replays("axiom:test")(lambda ctx, facts, fid, f: None)


def lam_ctx():
    return CardContext([("card", "lam", True), ("lt", ALEPH1, "lam"),
                        ("pow", "lam", "aleph0"), ("pow_lt", "lam", ALEPH1)])


def five_ctx():
    lams = [f"lam{i}" for i in range(1, 6)]
    chain = [ALEPH1] + lams
    return CardContext([("card", n, True) for n in lams]
                       + [("lt", a, b) for a, b in zip(chain, chain[1:])]
                       + [("pow_lt", "lam5", "lam3")])


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
    ctx = CardContext([])
    db = close(base_facts(ctx, CONTINUUM))
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
    ctx = CardContext([])
    db = close(base_facts(ctx, CONTINUUM))
    with pytest.raises(DiagramError):
        pinned_values(constellation(db))


def test_interval_endpoints():
    """The dominating candidate as its first declared equal; with none, the
    first maximal (minimal) candidate in context order."""
    ctx = CardContext([("card", n, False) for n in ("a", "b", "a2", "top")]
                      + [("lt", ALEPH1, "a"), ("lt", ALEPH1, "b"), ("le", "a", "a2"),
                         ("le", "a2", "a"), ("lt", "a", "top"), ("lt", "b", "top")])
    assert _extreme(ctx, [], upper=True) is None
    assert _extreme(ctx, [ALEPH1, "a2"], upper=True) == "a"
    assert _extreme(ctx, ["top", "a2"], upper=False) == "a"
    assert _extreme(ctx, ["a2", "b", "top"], upper=True) == "top"
    assert _extreme(ctx, ["a2", "b"], upper=True) == "b"
    assert _extreme(ctx, ["a2", "b", ALEPH1], upper=True) == "b"
    assert _extreme(ctx, ["top", "a2", "b"], upper=False) == "b"


def _two_chain_constellation(first, second):
    """The printed constellation of a recipe over the partial order with
    chains aleph1 < a1 < a2 < top and aleph1 < b1 < b2 < top joined only by
    a1 <= b2, declaring the incomparable `first` before `second`."""
    from cichon import textfmt
    powers = "".join(f"  assume pow_lt(top,{x})=top;\n" for x in ("b1", "b2", "top", "a2"))
    text = (f"context {{\n  card {first} regular;\n  card {second} regular;\n"
            "  card b1 regular;\n  card top regular;\n  card a1 regular;\n"
            "  lt aleph1 a1;\n  lt aleph1 b1;\n  lt a1 a2;\n  lt b1 b2;\n"
            "  lt a2 top;\n  lt b2 top;\n  le top c;\n  le a1 b2;\n"
            f"  assume pow(top,aleph0)=top;\n{powers}}}\n"
            "recipe m {\n  length top*a2;\n  cc b1;\n  slot hechler;\n"
            "  slot random_sub(b2) cofinal;\n  slot hechler_sub(b2);\n}\n")
    return format_constellation(textfmt.derive(textfmt.parse(text), "m").constellation)


_TWO_CHAIN_REST = """\
add(M)  [aleph1, a2]
b       [aleph1, a2]
cov(M)  [a2, top]
non(M)  [aleph1, a2]
d       [a2, top]
cof(M)  [a2, top]
non(N)  top
cof(N)  top
c       top
"""


def test_arrow_ends_on_a_partial_order_follow_declaration_order():
    """The arrow loop meets add(N)'s harvested upper end a2 with cov(N)'s
    b2, and cov(N)'s b2 with non(M)'s a2.  The two are incomparable and
    `_extreme` keeps the one declared first, so the loop swaps one end for
    the other: these ends are order-dependent.  ROADMAP item 7 replaces
    them with antichains."""
    assert _two_chain_constellation("b2", "a2") == (
        "add(N)  [aleph1, b2]\ncov(N)  [aleph1, b2]\n" + _TWO_CHAIN_REST)
    assert _two_chain_constellation("a2", "b2") == (
        "add(N)  [aleph1, a2]\ncov(N)  [aleph1, a2]\n" + _TWO_CHAIN_REST)


@pytest.mark.xfail(strict=True, reason="interval ends follow declaration order (ROADMAP item 7)")
def test_arrow_ends_on_a_partial_order_do_not_follow_declaration_order():
    assert _two_chain_constellation("b2", "a2") == _two_chain_constellation("a2", "b2")
