import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cichon import forge
from cichon.builtins import builtin
from cichon.cards import ALEPH1, ContextBuilder
from cichon.diagram import pinned_values
from cichon.facts import check_trace, verify
from cichon.forge import (COHEN, FULL_CLASSES, HECHLER, LOC, RANDOM, SUB_MAKERS,
                          MissingAssumption, PreconditionFailed, Recipe, Slot,
                          axiom_model, cohen_limit, fullgen, hechler_sub,
                          iterand, itsmallsets, loc_sub, preEUB,
                          preeub_threshold, random_sub, run_recipe, validate)
from cichon.systems import CIdeal, Card, Ideal, Prs

WARMUP_EXPECTED = {
    "cohen": dict(addN="aleph1", covN="aleph1", addM="aleph1", b="aleph1",
                  nonM="aleph1", covM="lam", d="lam", nonN="lam", cofM="lam",
                  cofN="lam", c="lam"),
    "random": dict(addN="aleph1", b="aleph1", addM="aleph1", covN="lam",
                   nonM="lam", covM="lam", nonN="lam", d="lam", cofM="lam",
                   cofN="lam", c="lam"),
    "evdiff": dict(addN="aleph1", covN="aleph1", b="aleph1", addM="aleph1",
                   nonM="lam", covM="lam", d="lam", cofM="lam", nonN="lam",
                   cofN="lam", c="lam"),
    "hechler": dict(addN="aleph1", covN="aleph1", addM="lam", b="lam",
                    nonM="lam", covM="lam", d="lam", cofM="lam", nonN="lam",
                    cofN="lam", c="lam"),
    "loc": {k: "lam" for k in ("addN", "covN", "addM", "b", "covM", "nonM",
                               "d", "cofM", "nonN", "cofN", "c")},
}

MOD_EXPECTED = {
    "mod1": dict(addN="lam1", covN="lam2", b="lam3", addM="lam3", nonM="lam4",
                 covM="lam4", d="lam5", nonN="lam5", cofM="lam5", cofN="lam5",
                 c="lam5"),
    "mod2": dict(addN="lam1", covN="lam2", b="lam3", nonM="lam3", addM="lam3",
                 covM="lam4", d="lam4", nonN="lam4", cofM="lam4", cofN="lam4",
                 c="lam4"),
    "mod3": dict(addN="lam1", b="lam2", addM="lam2", covN="lam3", nonM="lam3",
                 covM="lam3", nonN="lam3", d="lam4", cofM="lam4", cofN="lam4",
                 c="lam4"),
    "mod5": dict(addN="lam1", covN="lam2", addM="lam3", b="lam3", nonM="lam3",
                 covM="lam3", d="lam3", cofM="lam3", nonN="lam4", cofN="lam4",
                 c="lam4"),
}


@pytest.mark.parametrize("name", sorted(WARMUP_EXPECTED))
def test_warmup_constellations(name):
    model = builtin(name).derive()
    assert pinned_values(model.constellation) == WARMUP_EXPECTED[name]
    verify(model.db)


@pytest.mark.parametrize("name", sorted(MOD_EXPECTED))
def test_mod_constellations(name):
    model = builtin(name).derive()
    assert pinned_values(model.constellation) == MOD_EXPECTED[name]
    verify(model.db)


def test_mod1_conclusions_verbatim():
    db = builtin("mod1").derive().db
    for i, atom in ((1, "Lc"), (2, "Cn"), (3, "ww")):
        C, I, r = CIdeal("lam5", f"lam{i}"), Ideal("lam5", f"lam{i}"), Prs(atom)
        for a, b in ((r, C), (C, r), (r, I), (I, r)):
            assert db.has(a, b)
    assert db.has(Prs("Mg"), Card("lam4")) and db.has(Card("lam4"), Prs("Mg"))


def test_mod2_r4_collapses_to_r3_level():
    db = builtin("mod2").derive().db
    C3 = CIdeal("lam4", "lam3")
    assert db.has(Prs("Mg"), C3) and db.has(C3, Prs("Mg"))
    assert db.has(Prs("Mg"), Prs("ww"))  # the base edge it rides on


def test_catalog_goodness():
    assert HECHLER.good_thresholds("ww") == []          # adds dominating reals
    assert RANDOM.good_thresholds("Cn") == []           # adds random reals
    assert LOC.good_thresholds("Lc") == []
    assert ALEPH1 in COHEN.good_thresholds("Mg")
    sub = hechler_sub("lam3")
    assert ALEPH1 in sub.good_thresholds("Cn")          # inherited
    assert "lam3" in sub.good_thresholds("ww")          # by size
    assert sub.adds_dominating == ()                    # only over its models
    assert sub.dominates_small == (Prs("ww"),)


def test_iterand_token_parsing():
    assert iterand("cohen") == COHEN
    assert iterand("loc_sub", "lam1") == loc_sub("lam1")
    from cichon.forge import ForgeError
    with pytest.raises(ForgeError):
        iterand("cohen", "lam1")
    with pytest.raises(ForgeError):
        iterand("random_sub")


def test_preeub_threshold_computation():
    b = builtin("mod1")
    ctx, r = b.ctx(), b.recipe
    assert preeub_threshold(ctx, r, "Lc") == "lam1"
    assert preeub_threshold(ctx, r, "Cn") == "lam2"
    assert preeub_threshold(ctx, r, "ww") == "lam3"
    assert preeub_threshold(ctx, r, "Mg") is None       # evdiff is not Mg-good


def test_validate_missing_assumption():
    b = ContextBuilder()
    for i in range(1, 6):
        b.card(f"lam{i}", regular=True)
    b.chain([ALEPH1] + [f"lam{i}" for i in range(1, 6)], strict=True)
    ctx = b.build()  # deliberately missing pow_lt(lam5, lam3)
    recipe = builtin("mod1").recipe
    diags = validate(ctx, recipe)
    assert any("pow_lt(lam5,lam3)" in d for d in diags)
    with pytest.raises(MissingAssumption):
        run_recipe(ctx, recipe)


def test_validate_cc_exceeds_cofinality():
    b = ContextBuilder()
    b.card("lam", regular=True).card("kap", regular=True)
    b.chain([ALEPH1, "lam", "kap"], strict=True)
    b.pow("lam", "aleph0")
    ctx = b.build()
    r = Recipe("bad", length=("lam",), cc="kap",
               slots=(Slot(HECHLER, cofinal=True),))
    diags = validate(ctx, r)
    assert any("cf(length)" in d for d in diags)


def test_cc_above_aleph1_moves_the_preeub_threshold():
    """Hechler is Cn-good from aleph1 on, but preEUB also needs cc <= theta,
    so with cc lam the least usable threshold is lam."""
    b = ContextBuilder()
    b.card("lam", regular=True).card("kap", regular=True)
    b.chain([ALEPH1, "lam", "kap"], strict=True)
    b.pow("kap", "aleph0")
    ctx = b.build()
    r = Recipe("x", length=("kap",), cc="lam", slots=(Slot(HECHLER, cofinal=True),))
    assert validate(ctx, r) == []
    assert preeub_threshold(ctx, r, "Cn") == "lam"
    model = run_recipe(ctx, r)
    assert "preEUB Cn@lam" in model.trace
    assert model.db.facts[model.db.id_of(CIdeal("kap", "lam"), Prs("Cn"))].rule == "forge:preEUB"
    verify(model.db)
    assert check_trace(ctx, model.db.trace_lines()) == len(model.db.facts)


def test_singular_preeub_threshold_moves_to_least_regular():
    """A class restricted below a singular mu is mu-good, so by monotonicity
    lam-good for the least regular lam above mu; the recipe must derive."""
    b = ContextBuilder()
    b.card("mu").card("lam", regular=True)
    b.chain([ALEPH1, "mu", "lam"], strict=True)
    b.pow("lam", "aleph0")
    ctx = b.build()
    r = Recipe("x", length=("lam",),
               slots=(Slot(COHEN, cofinal=True), Slot(hechler_sub("mu"))))
    assert preeub_threshold(ctx, r, "ww") == "mu"
    assert validate(ctx, r) == []
    model = run_recipe(ctx, r)
    assert "preEUB ww@lam" in model.trace and "preEUB Mg@lam" in model.trace
    assert model.db.facts[model.db.id_of(CIdeal("lam", "lam"), Prs("ww"))].rule == "forge:preEUB"
    verify(model.db)
    assert check_trace(ctx, model.db.trace_lines()) == len(model.db.facts)


def test_singular_preeub_threshold_without_regular_above_is_skipped():
    b = ContextBuilder()
    b.card("mu").card("lam", regular=True)
    b.lt(ALEPH1, "lam").lt(ALEPH1, "mu")  # mu and lam incomparable
    b.pow("lam", "aleph0")
    ctx = b.build()
    r = Recipe("x", length=("lam",),
               slots=(Slot(COHEN, cofinal=True), Slot(hechler_sub("mu"))))
    assert validate(ctx, r) == []
    assert not any(label.startswith(("preEUB ww", "preEUB Mg"))
                   for label in run_recipe(ctx, r).trace)


def test_repeated_bookkeeping_is_one_application():
    b = ContextBuilder()
    b.card("lam", regular=True).lt(ALEPH1, "lam").pow("lam", "aleph0")
    slot = Slot(loc_sub("lam"), bookkeeping=("Lc", "lam"))
    r = Recipe("x", length=("lam",), slots=(Slot(COHEN, cofinal=True), slot, slot))
    failures = validate(b.build(), r)
    assert [f for f in failures if f.startswith("itsmallsets Lc@lam")] == [
        "itsmallsets Lc@lam: bookkeeping coverage at lam needs pow_lt(lam,lam)=lam declared"]
    ctx = b.pow_lt("lam", "lam").build()
    model = run_recipe(ctx, r)
    assert model.trace.count("itsmallsets Lc@lam") == 1
    verify(model.db)
    assert check_trace(ctx, model.db.trace_lines()) == len(model.db.facts)


_NAMES = ("lam1", "lam2", "lam3", "lam4")
_CARDS = (ALEPH1,) + _NAMES
_ATOMS = ("Lc", "Cn", "ww", "Mg")


@st.composite
def _slots(draw):
    full = st.sampled_from(sorted(FULL_CLASSES.values(), key=lambda c: c.name))
    sub = st.builds(lambda make, theta: SUB_MAKERS[make](theta),
                    st.sampled_from(sorted(SUB_MAKERS)), st.sampled_from(_CARDS))
    cls = draw(full | sub)
    bookkeeping = st.none()
    if cls.size_bound is not None:  # mostly the bookkeeping its class can carry
        bookkeeping |= st.just((cls.dominates_small[0].atom, cls.size_bound))
    if draw(st.integers(0, 3)) == 0:
        bookkeeping = st.tuples(st.sampled_from(_ATOMS), st.sampled_from(_CARDS))
    return Slot(cls, cofinal=draw(st.booleans()), bookkeeping=draw(bookkeeping))


@st.composite
def _recipes(draw):
    """A recipe over aleph1 < lam1 < ... < lam4, in a context that declares
    a random part of pow(a,aleph0)=a and of pow_lt(a,t)=a for lam1 <= t <= a."""
    b = ContextBuilder()
    for name in _NAMES:
        b.card(name, regular=True)
    b.chain(_CARDS, strict=True)
    for a in _CARDS:
        if draw(st.booleans()):
            b.pow(a, "aleph0")
        for t in _CARDS[1:_CARDS.index(a) + 1]:
            if draw(st.booleans()):
                b.pow_lt(a, t)
    r = Recipe("random",
               length=tuple(draw(st.lists(st.sampled_from(_CARDS), min_size=1, max_size=2))),
               cc=draw(st.sampled_from(_CARDS + ("aleph0",))),
               slots=tuple(draw(st.lists(_slots(), min_size=1, max_size=4))))
    return b.build(), r


@settings(max_examples=200, deadline=None)
@given(_recipes())
def test_run_recipe_derives_exactly_what_validate_accepts(case):
    ctx, r = case
    diags = validate(ctx, r)
    try:
        model = run_recipe(ctx, r)
    except MissingAssumption:
        assert diags
        return
    assert diags == []
    verify(model.db)
    assert check_trace(ctx, model.db.trace_lines()) == len(model.db.facts)


def _pairs(conclusions):
    return {(lhs, rhs) for lhs, rhs, _, _ in conclusions}


def test_apply_fullgen_preconditions():
    b = builtin("hechler")
    ctx, r = b.ctx(), b.recipe
    with pytest.raises(PreconditionFailed):
        fullgen(ctx, r, Prs("Lc"))  # hechler does not add Lc-dominating
    assert (Prs("ww"), Card("lam")) in _pairs(fullgen(ctx, r, Prs("ww")))
    no_cofinal = Recipe("x", length=("lam",), slots=(Slot(HECHLER),))
    with pytest.raises(PreconditionFailed):
        fullgen(ctx, no_cofinal, Prs("ww"))


def test_apply_cohen_limit_zero_length():
    b = builtin("cohen")
    ctx = b.ctx()
    empty = Recipe("empty", length=("lam",), slots=())
    with pytest.raises(PreconditionFailed):
        cohen_limit(ctx, empty)
    # pure Cohen product
    assert (CIdeal("lam", ALEPH1), Prs("Mg")) in _pairs(cohen_limit(ctx, b.recipe))


def test_apply_itsmallsets_requires_bookkeeping():
    b = builtin("mod1")
    ctx, r = b.ctx(), b.recipe
    assert _pairs(itsmallsets(ctx, r, Prs("Lc"), "lam1")) == {(Prs("Lc"), CIdeal("lam5", "lam1"))}
    with pytest.raises(PreconditionFailed):
        itsmallsets(ctx, r, Prs("Mg"), "lam1")


def test_apply_preeub_names_bad_slot():
    b = builtin("mod1")
    ctx, r = b.ctx(), b.recipe
    with pytest.raises(PreconditionFailed) as err:
        preEUB(ctx, r, Prs("Mg"), "lam3")
    assert "evdiff" in str(err.value)
    assert _pairs(preEUB(ctx, r, Prs("Cn"), "lam2")) == {(CIdeal("lam5", "lam2"), Prs("Cn"))}
    db = b.derive().db  # each regular in [lam2, lam5] embeds below Cn, citing that fact
    fact = db.facts[db.id_of(Card("lam3"), Prs("Cn"))]
    assert fact.rule == "forge:preEUB-card"
    assert db.facts[fact.premises[0]].key() == (CIdeal("lam5", "lam2"), Prs("Cn"))


def test_full_hechler_never_preeub_for_ww():
    # a recipe with a full Hechler slot cannot force C[..<theta] below ww
    b = builtin("mod5")
    ctx, r = b.ctx(), b.recipe
    assert preeub_threshold(ctx, r, "ww") is None
    for theta in ("lam1", "lam2", "lam3", "lam4"):
        with pytest.raises(PreconditionFailed):
            preEUB(ctx, r, Prs("ww"), theta)


def test_rule_order_confluence(monkeypatch):
    """`run_recipe` reaches the same closed fact set and constellation
    whatever order its rule applications come in."""
    rng = random.Random(4)
    listed = forge.applications

    def shuffled(*args):
        apps = listed(*args)
        rng.shuffle(apps)
        return apps

    moved = 0
    for name in ("cohen", "random", "evdiff", "hechler", "loc",
                 "mod1", "mod2", "mod3", "mod5"):
        b = builtin(name)
        reference = b.derive()
        with monkeypatch.context() as mp:
            mp.setattr(forge, "applications", shuffled)
            model = run_recipe(b.ctx(), b.recipe)
        assert sorted(model.trace) == sorted(reference.trace), name
        moved += model.trace != reference.trace
        assert model.db.pairs() == reference.db.pairs(), name
        assert model.constellation == reference.constellation, name
    assert moved >= 5


AXIOM_EXPECTED = {
    "gksmax": dict(addN="lam1", covN="lam2", b="lam3", addM="lam3",
                   nonM="lam4", covM="lam5", d="lam5", nonN="lam5",
                   cofM="lam5", cofN="lam5", c="lam5"),
    "kst": dict(addN="lam1", covN="lam3", b="lam2", addM="lam2", nonM="lam4",
                covM="lam5", d="lam5", nonN="lam5", cofM="lam5", cofN="lam5",
                c="lam5"),
    "bcm": dict(addN="lam1", covN="lam2", b="lam3", addM="lam3", nonM="lam4",
                covM="lam5", d="lam6", nonN="lam6", cofM="lam6", cofN="lam6",
                c="lam6"),
}


@pytest.mark.parametrize("name", sorted(AXIOM_EXPECTED))
def test_axiom_models(name):
    model = builtin(name).derive()
    assert pinned_values(model.constellation) == AXIOM_EXPECTED[name]
    verify(model.db)


def test_bcm_pins_r4_between_product_factors():
    db = builtin("bcm").derive().db
    from cichon.systems import Prod
    assert db.has(Card("lam4"), Prs("Mg"))
    assert db.has(Card("lam5"), Prs("Mg"))
    assert db.has(Prs("Mg"), Prod((Card("lam5"), Card("lam4"))))


def test_kst_needs_inaccessibility():
    b = ContextBuilder()
    for i in range(1, 6):
        b.card(f"lam{i}", regular=True)
    b.chain([ALEPH1] + [f"lam{i}" for i in range(1, 6)], strict=True)
    b.pow_lt("lam2", "lam2").pow_lt("lam5", "lam4")
    with pytest.raises(MissingAssumption) as err:
        axiom_model(b.build(), "kst", tuple(f"lam{i}" for i in range(1, 6)))
    assert "inaccessible" in str(err.value)
