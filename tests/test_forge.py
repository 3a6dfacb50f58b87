import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cichon import forge
from cichon.builtins import builtin
from cichon.cards import ALEPH1, CardContext
from cichon.diagram import pinned_values
from cichon.facts import check_trace, verify
from cichon.forge import (COHEN, FULL_CLASSES, HECHLER, LOC, RANDOM, SUB_PARENTS,
                          ForgeError, MissingAssumption, PreconditionFailed, Recipe, Slot,
                          axiom_model, cohen_limit, fullgen, iterand, itsmallsets,
                          preEUB, preeub_threshold, run_recipe, validate)
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
    sub = iterand("hechler_sub", "lam3")
    assert ALEPH1 in sub.good_thresholds("Cn")          # inherited
    assert "lam3" in sub.good_thresholds("ww")          # by size
    assert sub.adds_dominating == ()                    # only over its models
    assert sub.dominates_small == (Prs("ww"),)


def test_iterand_token_parsing():
    assert iterand("cohen") == COHEN
    assert iterand("loc_sub", "lam1") == forge._sub(LOC, "lam1")
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
    chain = [ALEPH1] + [f"lam{i}" for i in range(1, 6)]
    decls = ([("card", n, True) for n in chain[1:]]
             + [("lt", a, b) for a, b in zip(chain, chain[1:])])
    ctx = CardContext(decls)  # deliberately missing pow_lt(lam5, lam3)
    recipe = builtin("mod1").recipe
    diags = validate(ctx, recipe)
    assert any("pow_lt(lam5,lam3)" in d for d in diags)
    with pytest.raises(MissingAssumption):
        run_recipe(ctx, recipe)


def test_validate_cc_exceeds_cofinality():
    ctx = CardContext([("card", "lam", True), ("card", "kap", True),
                       ("lt", ALEPH1, "lam"), ("lt", "lam", "kap"), ("pow", "lam", "aleph0")])
    r = Recipe("bad", length=("lam",), cc="kap",
               slots=(Slot(HECHLER, cofinal=True),))
    diags = validate(ctx, r)
    assert any("cf(length)" in d for d in diags)


def test_cc_above_aleph1_moves_the_preeub_threshold():
    """Hechler is Cn-good from aleph1 on, but preEUB also needs cc <= theta,
    so with cc lam the least usable threshold is lam."""
    ctx = CardContext([("card", "lam", True), ("card", "kap", True),
                       ("lt", ALEPH1, "lam"), ("lt", "lam", "kap"), ("pow", "kap", "aleph0")])
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
    ctx = CardContext([("card", "mu", False), ("card", "lam", True),
                       ("lt", ALEPH1, "mu"), ("lt", "mu", "lam"), ("pow", "lam", "aleph0")])
    r = Recipe("x", length=("lam",),
               slots=(Slot(COHEN, cofinal=True), Slot(iterand("hechler_sub", "mu"))))
    assert preeub_threshold(ctx, r, "ww") == "mu"
    assert validate(ctx, r) == []
    model = run_recipe(ctx, r)
    assert "preEUB ww@lam" in model.trace and "preEUB Mg@lam" in model.trace
    assert model.db.facts[model.db.id_of(CIdeal("lam", "lam"), Prs("ww"))].rule == "forge:preEUB"
    verify(model.db)
    assert check_trace(ctx, model.db.trace_lines()) == len(model.db.facts)


def test_singular_preeub_threshold_without_regular_above_is_skipped():
    ctx = CardContext([("card", "mu", False), ("card", "lam", True),
                       ("lt", ALEPH1, "lam"), ("lt", ALEPH1, "mu"),  # mu and lam incomparable
                       ("pow", "lam", "aleph0")])
    r = Recipe("x", length=("lam",),
               slots=(Slot(COHEN, cofinal=True), Slot(iterand("hechler_sub", "mu"))))
    assert validate(ctx, r) == []
    assert not any(label.startswith(("preEUB ww", "preEUB Mg"))
                   for label in run_recipe(ctx, r).trace)


def test_repeated_bookkeeping_is_one_application():
    decls = [("card", "lam", True), ("lt", ALEPH1, "lam"), ("pow", "lam", "aleph0")]
    slot = Slot(iterand("loc_sub", "lam"), bookkeeping=("Lc", "lam"))
    r = Recipe("x", length=("lam",), slots=(Slot(COHEN, cofinal=True), slot, slot))
    failures = validate(CardContext(decls), r)
    assert [f for f in failures if f.startswith("itsmallsets Lc@lam")] == [
        "itsmallsets Lc@lam: bookkeeping coverage at lam needs pow_lt(lam,lam)=lam declared"]
    ctx = CardContext(decls + [("pow_lt", "lam", "lam")])
    model = run_recipe(ctx, r)
    assert model.trace.count("itsmallsets Lc@lam") == 1
    verify(model.db)
    assert check_trace(ctx, model.db.trace_lines()) == len(model.db.facts)


_NAMES = ("lam1", "lam2", "lam3", "lam4")
_CARDS = (ALEPH1,) + _NAMES
_ATOMS = ("Lc", "Cn", "ww", "Mg")


# the strategies a draw reuses, built once
_CLASSES = (st.sampled_from(sorted(FULL_CLASSES.values(), key=lambda c: c.name))
            | st.builds(iterand, st.sampled_from(sorted(SUB_PARENTS)), st.sampled_from(_CARDS)))
_ANY_BOOKKEEPING = st.tuples(st.sampled_from(_ATOMS), st.sampled_from(_CARDS))


@st.composite
def _slots(draw):
    cls = draw(_CLASSES)
    bookkeeping = st.none()
    if cls.size_bound is not None:  # mostly the bookkeeping its class can carry
        bookkeeping |= st.just((cls.dominates_small[0].atom, cls.size_bound))
    if draw(st.integers(0, 3)) == 0:
        bookkeeping = _ANY_BOOKKEEPING
    return Slot(cls, cofinal=draw(st.booleans()), bookkeeping=draw(bookkeeping))


_LENGTHS = st.lists(st.sampled_from(_CARDS), min_size=1, max_size=2)
_CCS = st.sampled_from(_CARDS + ("aleph0",))
_SLOT_LISTS = st.lists(_slots(), min_size=1, max_size=4)


@st.composite
def _recipes(draw):
    """A recipe over aleph1 < lam1 < ... < lam4, in a context that declares
    a random part of pow(a,aleph0)=a and of pow_lt(a,t)=a for lam1 <= t <= a."""
    decls = ([("card", name, True) for name in _NAMES]
             + [("lt", a, b) for a, b in zip(_CARDS, _CARDS[1:])])
    for a in _CARDS:
        if draw(st.booleans()):
            decls.append(("pow", a, "aleph0"))
        for t in _CARDS[1:_CARDS.index(a) + 1]:
            if draw(st.booleans()):
                decls.append(("pow_lt", a, t))
    r = Recipe("random", length=tuple(draw(_LENGTHS)), cc=draw(_CCS),
               slots=tuple(draw(_SLOT_LISTS)))
    return CardContext(decls), r


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
    chain = [ALEPH1] + [f"lam{i}" for i in range(1, 6)]
    decls = ([("card", n, True) for n in chain[1:]]
             + [("lt", a, b) for a, b in zip(chain, chain[1:])])
    decls += [("pow_lt", "lam2", "lam2"), ("pow_lt", "lam5", "lam4")]
    with pytest.raises(MissingAssumption) as err:
        axiom_model(CardContext(decls), "kst", tuple(f"lam{i}" for i in range(1, 6)))
    assert "inaccessible" in str(err.value)


# aleph1 < lam1 < mu < lam2 < ... < lam7, mu singular, no arithmetic declared
_CHAIN = [ALEPH1, "lam1", "mu"] + [f"lam{i}" for i in range(2, 8)]
_HYP_CTX = CardContext([("card", n, n != "mu") for n in _CHAIN[1:]]
                       + [("lt", a, b) for a, b in zip(_CHAIN, _CHAIN[1:])])
_LAMS = tuple(f"lam{i}" for i in range(1, 8))


def _messages(call):
    """The failed hypotheses a validate list or a raised ForgeError names."""
    try:
        result = call()
    except ForgeError as exc:
        return str(exc).split("; ")
    return result


@pytest.mark.parametrize("call, message", [
    (lambda: iterand("sacks"), "unknown iterand class 'sacks'"),
    (lambda: validate(_HYP_CTX, Recipe("x", length=("aleph0",),
                                       slots=(Slot(HECHLER, cofinal=True),))),
     "fullgen ww: fullgen needs uncountable cofinality"),
    (lambda: validate(_HYP_CTX, Recipe("x", length=("aleph0",), slots=(Slot(COHEN),))),
     "cohen-limit: cohen-limit needs uncountable cofinality"),
    (lambda: itsmallsets(_HYP_CTX, Recipe("x", length=("lam2",)), Card("lam1"), "lam1"),
     "itsmallsets targets a Polish atom"),
    (lambda: validate(_HYP_CTX, Recipe("x", length=("lam2",), slots=(
        Slot(COHEN, cofinal=True), Slot(iterand("loc_sub", "mu"), bookkeeping=("Lc", "mu"))))),
     "itsmallsets Lc@mu: mu must be regular uncountable"),
    (lambda: preEUB(_HYP_CTX, Recipe("x", length=("lam2",)), Card("lam1"), "lam1"),
     "preEUB targets a Polish atom"),
    (lambda: validate(_HYP_CTX, Recipe("x", length=("lam1",), cc="aleph0",
                                       slots=(Slot(iterand("loc_sub", "aleph0")),))),
     "preEUB Lc@aleph0: aleph0 must be regular uncountable"),
    (lambda: preEUB(_HYP_CTX, Recipe("x", length=("lam2",), cc="lam2", slots=(Slot(COHEN),)),
                    Prs("Mg"), "lam1"),
     "need cc <= lam1"),
    (lambda: preEUB(_HYP_CTX, Recipe("x", length=("lam1",), slots=(Slot(COHEN),)),
                    Prs("Mg"), "lam2"),
     "need lam2 <= |length|"),
    (lambda: validate(_HYP_CTX, Recipe("x", length=("mu",))), "bad length: mu"),
    (lambda: axiom_model(_HYP_CTX, "gksmax", ("aleph0",) + _LAMS[1:5]),
     "gksmax: aleph0 must be uncountable"),
    (lambda: axiom_model(_HYP_CTX, "gksmax", _LAMS[:5]), "gksmax: needs pow_lt(lam3,lam3)=lam3"),
    (lambda: axiom_model(_HYP_CTX, "kst", _LAMS[:4] + ("lam4",)), "kst: need lam4 < lam4"),
    (lambda: axiom_model(_HYP_CTX, "kst", _LAMS[:5]), "kst: needs pow_lt(lam2,lam2)=lam2"),
    (lambda: axiom_model(_HYP_CTX, "kst", _LAMS[:5]), "kst: needs pow_lt(lam5,lam4)=lam5"),
    (lambda: axiom_model(_HYP_CTX, "bcm", _LAMS[:6] + ("lam1",)), "bcm: need lam6 <= lam1"),
    (lambda: axiom_model(_HYP_CTX, "bcm", _LAMS), "bcm: needs pow_lt(lam7,lam4)=lam7"),
])
def test_each_failed_hypothesis_is_named(call, message):
    assert message in _messages(call)


# aleph1 < mu < a, b < lam with a and b incomparable regulars, mu singular
_FORK_CTX = CardContext([("card", "mu", False), ("card", "a", True), ("card", "b", True),
                         ("card", "lam", True), ("lt", ALEPH1, "mu"), ("lt", "mu", "a"),
                         ("lt", "mu", "b"), ("lt", "a", "lam"), ("lt", "b", "lam"),
                         ("pow", "lam", "aleph0")])


@pytest.mark.parametrize("small, threshold", [
    (("a", "b"), None),  # the slots' thresholds have no maximum
    (("mu",), "mu"),     # the regulars above the singular mu have no minimum
])
def test_an_unsettled_preeub_threshold_applies_no_preeub(small, threshold):
    r = Recipe("x", length=("lam",), slots=(Slot(COHEN, cofinal=True),)
               + tuple(Slot(iterand("hechler_sub", t)) for t in small))
    assert preeub_threshold(_FORK_CTX, r, "ww") == threshold
    assert not any(label.startswith("preEUB ww")
                   for label, *_ in forge.applications(_FORK_CTX, r, "lam"))
