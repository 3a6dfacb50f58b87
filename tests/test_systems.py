import copy
import pickle
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cichon import systems
from cichon.cards import ALEPH1, CardContext
from cichon.facts import TukeyFact
from cichon.systems import (ATOM_ALIASES, PRS_ATOMS, CIdeal, Card, CoverSys,
                            Dual, ExprError, Ideal, IdealSys, Ord, Prod, Prs,
                            R1, R2, R3, R4, SysExpr, dual, ord_expr,
                            parse_expr, prs, render, validate_expr)


def ctx():
    chain = [ALEPH1, "lam1", "lam4", "lam5"]
    return CardContext([("card", n, True) for n in chain[1:]] + [("card", "mu", False)]
                       + [("lt", a, b) for a, b in zip(chain, chain[1:])])


def test_atom_aliases():
    assert prs("R1") == R1 and prs("R4") == R4
    assert prs("Lc") == R1
    with pytest.raises(ExprError):
        prs("R9")


def test_dual_normalizes():
    e = CIdeal("lam5", ALEPH1)
    assert dual(dual(e)) == e
    assert dual(e) == Dual(e)


def test_single_factor_ordinal_collapses_to_card():
    c = ctx()
    assert ord_expr(c.ordinal(["lam5"])) == Card("lam5")
    assert ord_expr(c.ordinal(["lam5", "lam4"])) == Ord(("lam5", "lam4"))


def test_validate_expr():
    c = ctx()
    validate_expr(c, CIdeal("lam5", "lam1"))
    validate_expr(c, Prod((Card("lam5"), Card("lam4"))))
    with pytest.raises(ExprError):
        validate_expr(c, CIdeal("lam1", "lam5"))  # theta above the index
    with pytest.raises(ExprError):
        validate_expr(c, Card("mu"))  # not regular
    with pytest.raises(ExprError):
        validate_expr(c, Ord(("lam5", "mu")))


def test_render_parse_round_trip():
    exprs = [
        R1, R2, R3, R4,
        IdealSys("M"), IdealSys("N"), CoverSys("M"), CoverSys("N"),
        CIdeal("lam5", "lam1"), Ideal("lam5", "lam1"),
        Card("lam4"), Ord(("lam5", "lam4")),
        Prod((Card("lam5"), Card("lam4"))),
        dual(CIdeal("lam5", ALEPH1)),
        dual(Prod((Card("lam5"), dual(R3)))),
    ]
    for e in exprs:
        assert parse_expr(render(e)) == e, render(e)


def test_parse_expr_errors():
    for bad in ("", "prod(lam)", "C[lam5 lam1]", "dual(", "idl(X)", "lam5)"):
        with pytest.raises(ExprError):
            parse_expr(bad)


# ---------------------------------------------------------------------------
# one object per expression
# ---------------------------------------------------------------------------

# (class, fields, the dataclass-style repr the classes had before)
ONE_OF_EACH = [
    (Prs, ("Lc",), "Prs(atom='Lc')"),
    (IdealSys, ("M",), "IdealSys(ideal='M')"),
    (CoverSys, ("N",), "CoverSys(ideal='N')"),
    (CIdeal, ("lam5", "lam1"), "CIdeal(index='lam5', theta='lam1')"),
    (Ideal, ("lam5", "lam1"), "Ideal(index='lam5', theta='lam1')"),
    (Card, ("lam4",), "Card(name='lam4')"),
    (Ord, (("lam5", "lam4"),), "Ord(factors=('lam5', 'lam4'))"),
    (Prod, ((Card("lam5"), dual(R3)),),
     "Prod(parts=(Card(name='lam5'), Dual(arg=Prs(atom='ww'))))"),
    (Dual, (CIdeal("lam5", ALEPH1),), "Dual(arg=CIdeal(index='lam5', theta='aleph1'))"),
]


def _fresh(v):
    """An equal value built anew: other str and tuple objects."""
    if isinstance(v, str):
        return "".join(list(v))
    return tuple(map(_fresh, v)) if isinstance(v, tuple) else v


@pytest.mark.parametrize("cls,fields,text", ONE_OF_EACH, ids=[c.__name__ for c, *_ in ONE_OF_EACH])
def test_one_object_per_expression(cls, fields, text):
    e = cls(*fields)
    assert cls(*_fresh(fields)) is e
    assert parse_expr(render(e)) is e
    assert dual(dual(e)) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy(e) is e and copy.copy(e) is e
    assert repr(e) == text
    with pytest.raises(AttributeError):
        setattr(e, cls.__slots__[0], fields[0])
    assert getattr(e, cls.__slots__[0]) == fields[0]


@pytest.mark.parametrize("make", [lambda: Prs("X"), lambda: Prod((R1,)),
                                  lambda: IdealSys("Q"), lambda: CoverSys("")],
                         ids=["prs", "prod", "ideal", "cover"])
def test_a_refused_expression_leaves_no_object(make):
    size = len(systems._TABLE)
    with pytest.raises(ExprError):
        make()
    assert len(systems._TABLE) == size


def test_tukey_fact_is_an_immutable_tuple():
    f = TukeyFact(dual(R3), Prod((Card("lam5"), dual(CIdeal("lam5", ALEPH1)))), "rule:trans",
                  (3, 7), ("ww",), "Tukey connections compose")
    assert repr(f) == (
        "TukeyFact(lhs=Dual(arg=Prs(atom='ww')), rhs=Prod(parts=(Card(name='lam5'), "
        "Dual(arg=CIdeal(index='lam5', theta='aleph1')))), rule='rule:trans', "
        "premises=(3, 7), params=('ww',), note='Tukey connections compose')")
    assert f.key() == (f.lhs, f.rhs)
    assert TukeyFact(R1, R2, "seed:diagram") == (R1, R2, "seed:diagram", (), (), "")
    with pytest.raises(AttributeError):
        f.rule = "rule:dual"


# ---------------------------------------------------------------------------
# oracle: the closure-based parser that parse_expr replaced, kept verbatim
# ---------------------------------------------------------------------------

def reference_parse_expr(text: str) -> SysExpr:
    """Inverse of :func:`render` (also accepts the R1..R4 aliases)."""
    s = text.strip()
    pos = 0

    def fail(msg):
        raise ExprError(f"{msg} at {pos} in {text!r}")

    def parse() -> SysExpr:
        nonlocal pos
        rest = s[pos:]
        if rest.startswith("dual("):
            pos += 5
            inner = parse()
            expect(")")
            return dual(inner)
        if rest.startswith("prod("):
            pos += 5
            parts = [parse()]
            while s[pos:pos + 1] == ",":
                pos += 1
                parts.append(parse())
            expect(")")
            return Prod(tuple(parts))
        if rest.startswith("ord("):
            pos += 4
            names = [name()]
            while s[pos:pos + 1] == "*":
                pos += 1
                names.append(name())
            expect(")")
            return ord_expr(tuple(names))
        if rest.startswith("idl("):
            pos += 4
            n = name()
            expect(")")
            return IdealSys(n)
        if rest.startswith("cov("):
            pos += 4
            n = name()
            expect(")")
            return CoverSys(n)
        if rest.startswith("C[") or rest.startswith("I["):
            kind = rest[0]
            pos += 2
            idx = name()
            expect("<")
            th = name()
            expect("]")
            return CIdeal(idx, th) if kind == "C" else Ideal(idx, th)
        n = name()
        if n in PRS_ATOMS or n in ATOM_ALIASES:
            return prs(n)
        return Card(n)

    def name() -> str:
        nonlocal pos
        start = pos
        while pos < len(s) and (s[pos].isalnum() or s[pos] == "_"):
            pos += 1
        if pos == start:
            fail("expected a name")
        return s[start:pos]

    def expect(ch):
        nonlocal pos
        if s[pos:pos + len(ch)] != ch:
            fail(f"expected {ch!r}")
        pos += len(ch)

    out = parse()
    if pos != len(s):
        fail("trailing input")
    return out


NAME_CHARS = "abclmuz019_" + "λéΩ٣"          # ٣ is an Arabic-Indic digit
MUTATION_CHARS = NAME_CHARS + "()[]<>,* \t\n" + "·−（"  # non-ASCII non-names too

names = st.one_of(
    st.sampled_from(["aleph1", "lam5", "mu", "c", "M", "N", "X", *PRS_ATOMS,
                     *(a for a in ATOM_ALIASES if a.isalnum())]),
    st.text(NAME_CHARS, min_size=1, max_size=5),
)
leaves = st.one_of(
    st.sampled_from(PRS_ATOMS).map(Prs),
    st.sampled_from("MN").map(IdealSys),
    st.sampled_from("MN").map(CoverSys),
    st.builds(CIdeal, names, names),
    st.builds(Ideal, names, names),
    names.map(Card),
    st.lists(names, min_size=2, max_size=3).map(lambda fs: Ord(tuple(fs))),
)
exprs = st.recursive(
    leaves,
    lambda inner: st.one_of(
        inner.map(dual),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Prod(tuple(ps)))),
    max_leaves=8)


# texts in the shape of the grammar whose names and arities the constructors
# may refuse: idl(X), prod(a), ord(Lc*c)
sketches = st.recursive(
    st.one_of(
        names,
        st.builds("idl({})".format, names),
        st.builds("cov({})".format, names),
        st.builds("{}[{}<{}]".format, st.sampled_from("CI"), names, names),
        st.lists(names, min_size=1, max_size=3).map(lambda fs: f"ord({'*'.join(fs)})"),
    ),
    lambda inner: st.one_of(
        st.builds("dual({})".format, inner),
        st.lists(inner, min_size=1, max_size=3).map(lambda ps: f"prod({','.join(ps)})")),
    max_leaves=6)


@st.composite
def mutated(draw):
    """A rendered expression or a sketch with characters dropped, inserted
    or swapped, and whitespace around it."""
    text = list(draw(st.one_of(exprs.map(render), sketches)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["drop", "insert", "swap"]))
        if op == "insert":
            text.insert(i, draw(st.sampled_from(MUTATION_CHARS)))
        elif op == "drop" and i < len(text):
            del text[i]
        elif op == "swap" and i + 1 < len(text):
            text[i], text[i + 1] = text[i + 1], text[i]
    pad = st.text(" \t\n", max_size=2)
    return draw(pad) + "".join(text) + draw(pad)


def parsed(parse, text):
    try:
        return "ok", parse(text)
    except ExprError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(exprs.map(render), sketches, mutated(),
                 st.text(MUTATION_CHARS, max_size=12)))
def test_parse_expr_matches_reference(text):
    assert parsed(parse_expr, text) == parsed(reference_parse_expr, text)


def test_parse_expr_matches_reference_on_edge_cases():
    # "idl(X", "cov(Q]", "prod(a": the syntax error after the arguments is
    # reported, not the constructor's refusal of them
    for text in ("idl(X", "cov(Q]", "prod(a", "ord(a*", "C[a<b", "", " dual( ",
                 "R1", "w^w", "Lc*", "λ٣ ", "idl(M))", "prod(Lc,,Cn)"):
        assert parsed(parse_expr, text) == parsed(reference_parse_expr, text), text


def test_name_pattern_is_isalnum_or_underscore():
    """parse_expr reads names with the regex \\w; the reference tested
    each character with str.isalnum() or "_".  Check every code point."""
    word = re.compile(r"\w")
    assert all(bool(word.match(c)) == (c.isalnum() or c == "_")
               for c in map(chr, range(sys.maxunicode + 1)))
