"""Finite-support iteration recipes and their effect on the fact database.

A recipe is declarative: an iteration length (ordinal product of regulars),
a chain-condition bound, and a list of slots.  Each slot names an iterand
class from a fixed catalog:

* full classes - Cohen, Random, EvDiff (eventually different reals),
  Hechler, Loc (localization) - which add a known kind of dominating real
  over the whole extension, and
* restricted classes - RandomSub/HechlerSub/LocSub of size below theta -
  which only dominate over the small bookkept models but are
  theta-good for every Polish system by virtue of their size.

Goodness entries are (threshold, atom) pairs: the class preserves
unbounded families of the atom's system above the threshold.  Restricted
classes inherit their parent's entries (a subalgebra of random forcing
keeps the measure-theoretic Lc*-goodness; subposets of Hechler stay
sigma-centered) and gain (theta, R) for every R from their size.

The four derivation rules are trusted, hypothesis-checked inferences:

* fullgen      - dominating reals cofinally often force R <= length, and
                 R = Mg = length for Polish R;
* cohen-limit  - limit iterations add Cohen reals cofinally, so
                 length <= Mg (and C[length<aleph1] <= Mg for a pure
                 Cohen product);
* itsmallsets  - bookkept small-set domination forces R <= C[c < theta];
* preEUB       - when every slot is theta-R-good, C[c < theta] <= R.

`run_recipe` applies every applicable rule, closes the database and
evaluates the constellation.  `axiom_model` installs the three
construction-heavy left-side models as axiom-level fact sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cards import ALEPH1, CardContext, OrdinalExpr
from .diagram import Constellation, constellation
from .facts import (FactDB, _expect, base_facts, card_embed, close,
                    replays, shape_only)
from .systems import (CIdeal, Card, Ideal, Prs, Prod, SysExpr, dual,
                      ord_expr, parse_expr, render)


class ForgeError(Exception):
    pass


class MissingAssumption(ForgeError):
    pass


class PreconditionFailed(ForgeError):
    pass


# ---------------------------------------------------------------------------
# iterand catalog
# ---------------------------------------------------------------------------

_ALL_ATOMS = ("Lc", "Cn", "ww", "Mg")


@dataclass(frozen=True)
class IterandClass:
    name: str
    adds_dominating: tuple[SysExpr, ...]      # over the whole extension
    goodness: tuple[tuple[str, str], ...]     # (threshold name, atom)
    size_bound: Optional[str] = None          # theta of a restricted class
    dominates_small: tuple[SysExpr, ...] = () # over the bookkept models only

    def good_thresholds(self, atom: str) -> list[str]:
        return [t for t, a in self.goodness if a == atom]

    def token(self) -> str:
        if self.size_bound is None:
            return self.name
        return f"{self.name}({self.size_bound})"


COHEN = IterandClass(
    "cohen",
    adds_dominating=(dual(Prs("Mg")),),  # Cohen reals are Mg-unbounded
    goodness=tuple((ALEPH1, a) for a in _ALL_ATOMS),  # countable, so good for all
)
RANDOM = IterandClass(
    "random",
    adds_dominating=(Prs("Cn"),),
    goodness=((ALEPH1, "ww"), (ALEPH1, "Lc")),
)
EVDIFF = IterandClass(
    "evdiff",
    adds_dominating=(Prs("Mg"),),
    goodness=((ALEPH1, "ww"), (ALEPH1, "Cn"), (ALEPH1, "Lc")),
)
HECHLER = IterandClass(
    "hechler",
    adds_dominating=(Prs("ww"),),
    goodness=((ALEPH1, "Cn"), (ALEPH1, "Lc")),
)
LOC = IterandClass(
    "loc",
    adds_dominating=(Prs("Lc"),),
    goodness=(),
)


def _sub(parent: IterandClass, theta: str) -> IterandClass:
    return IterandClass(
        parent.name + "_sub",
        adds_dominating=(),
        goodness=parent.goodness + tuple((theta, a) for a in _ALL_ATOMS),
        size_bound=theta,
        dominates_small=parent.adds_dominating,
    )


def random_sub(theta: str) -> IterandClass:
    return _sub(RANDOM, theta)


def hechler_sub(theta: str) -> IterandClass:
    return _sub(HECHLER, theta)


def loc_sub(theta: str) -> IterandClass:
    return _sub(LOC, theta)


FULL_CLASSES = {c.name: c for c in (COHEN, RANDOM, EVDIFF, HECHLER, LOC)}
SUB_MAKERS = {"random_sub": random_sub, "hechler_sub": hechler_sub,
              "loc_sub": loc_sub}


def iterand(token: str, theta: Optional[str] = None) -> IterandClass:
    if token in FULL_CLASSES:
        if theta is not None:
            raise ForgeError(f"{token} takes no size parameter")
        return FULL_CLASSES[token]
    if token in SUB_MAKERS:
        if theta is None:
            raise ForgeError(f"{token} needs a size parameter")
        return SUB_MAKERS[token](theta)
    raise ForgeError(f"unknown iterand class {token!r}")


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Slot:
    iterand: IterandClass
    cofinal: bool = False
    bookkeeping: Optional[tuple[str, str]] = None  # (atom, up_to cardinal)


@dataclass(frozen=True)
class Recipe:
    name: str
    length: tuple[str, ...]  # ordinal product factors, left to right
    cc: str = ALEPH1
    slots: tuple[Slot, ...] = ()

    def length_expr(self, ctx: CardContext) -> OrdinalExpr:
        return ctx.ordinal(self.length)


@dataclass(frozen=True)
class DerivedModel:
    db: FactDB
    constellation: Constellation
    trace: tuple[str, ...]


def validate(ctx: CardContext, r: Recipe) -> list[str]:
    """Diagnostics for every theorem hypothesis the recipe will trigger."""
    diags: list[str] = []
    if not r.slots:
        diags.append("recipe has no slots")
        return diags
    try:
        length = r.length_expr(ctx)
    except Exception as exc:
        diags.append(f"bad length: {exc}")
        return diags
    card = ctx.card(length)
    cf = ctx.cf(length)
    if not (ctx.is_regular(r.cc) and ctx.uncountable(r.cc)):
        diags.append(f"cc bound {r.cc} must be regular uncountable")
    if not ctx.has_pow(card, "aleph0"):
        diags.append(f"forcing c={card} needs pow({card},aleph0)={card} declared")
    for slot in r.slots:
        cls = slot.iterand
        if slot.cofinal and cls.adds_dominating and ctx.leq(r.cc, cf) is not True:
            diags.append(f"fullgen via {cls.token()} needs cc {r.cc} <= cf(length) {cf}")
        if slot.bookkeeping is not None:
            atom, theta = slot.bookkeeping
            if cls.size_bound is None:
                diags.append(f"{cls.token()} cannot carry bookkeeping (not a restricted class)")
                continue
            if theta != cls.size_bound:
                diags.append(f"bookkeeping up_to {theta} must equal the class bound {cls.size_bound}")
            if Prs(atom) not in cls.dominates_small:
                diags.append(f"{cls.token()} does not add {atom}-dominating reals over its models")
            if not (ctx.is_regular(theta) and ctx.uncountable(theta)):
                diags.append(f"bookkeeping threshold {theta} must be regular uncountable")
            if ctx.leq(r.cc, theta) is not True or ctx.leq(theta, cf) is not True:
                diags.append(f"bookkeeping needs cc <= {theta} <= cf(length)={cf}")
            if not ctx.has_pow_lt(card, theta):
                diags.append(
                    f"bookkeeping coverage at {theta} needs pow_lt({card},{theta})={card} declared")
    return diags


# ---------------------------------------------------------------------------
# rule applications
# ---------------------------------------------------------------------------
#
# Each rule is one function (ctx, recipe, *args) -> [(lhs, rhs, rule, note)]
# that raises PreconditionFailed when a hypothesis fails.  `apply_*` adds
# its conclusions to a database, and the replay re-runs it on the recipe
# the database carries.

def fullgen(ctx: CardContext, r: Recipe, R: SysExpr) -> list[tuple]:
    """Dominating reals cofinally often: R <= length (= Mg = length for Polish R)."""
    length = r.length_expr(ctx)
    cf = ctx.cf(length)
    if not any(s.cofinal and R in s.iterand.adds_dominating for s in r.slots):
        raise PreconditionFailed(f"no cofinal slot class adds {render(R)}-dominating reals")
    if not ctx.uncountable(cf):
        raise PreconditionFailed("fullgen needs uncountable cofinality")
    if ctx.leq(r.cc, cf) is not True:
        raise PreconditionFailed(f"fullgen needs cc {r.cc} <= cf(length) {cf}")
    O = ord_expr(length)
    out = [(R, O, "forge:fullgen",
            "an iteration adding dominating reals cofinally often forces the system below its length")]
    if isinstance(R, Prs):
        note = "for a Polish system the connection upgrades to equivalence with Mg and the length"
        out += [(O, R, "forge:fullgen-prs", note),
                (Prs("Mg"), O, "forge:fullgen-prs", note),
                (O, Prs("Mg"), "forge:fullgen-prs", note)]
    return out


def cohen_limit(ctx: CardContext, r: Recipe) -> list[tuple]:
    """Limit iterations add Cohen reals cofinally: length <= Mg."""
    if not r.slots:
        raise PreconditionFailed("zero-length recipe")
    length = r.length_expr(ctx)
    if not ctx.uncountable(ctx.cf(length)):
        raise PreconditionFailed("cohen-limit needs uncountable cofinality")
    out = [(ord_expr(length), Prs("Mg"), "forge:cohen-limit",
            "limit stages add Cohen reals, placing the length below Mg")]
    if all(s.iterand.name == "cohen" for s in r.slots):
        out.append((CIdeal(ctx.card(length), ALEPH1), Prs("Mg"), "forge:cohen-product",
                    "a Cohen product embeds the index small-set covering into Mg"))
    return out


def itsmallsets(ctx: CardContext, r: Recipe, R: SysExpr, theta: str) -> list[tuple]:
    """Bookkept small-set domination: R <= C[|length| < theta]."""
    if not isinstance(R, Prs):
        raise PreconditionFailed("itsmallsets targets a Polish atom")
    if not any(s.bookkeeping == (R.atom, theta) for s in r.slots):
        raise PreconditionFailed(f"no slot bookkeeps {R.atom} up to {theta}")
    length = r.length_expr(ctx)
    if not (ctx.is_regular(theta) and ctx.uncountable(theta)):
        raise PreconditionFailed(f"{theta} must be regular uncountable")
    if ctx.leq(r.cc, theta) is not True or ctx.leq(theta, ctx.cf(length)) is not True:
        raise PreconditionFailed(f"need cc <= {theta} <= cf(length)")
    return [(R, CIdeal(ctx.card(length), theta), "forge:itsmallsets",
             "every bookkept small set gets a dominating real, so R embeds into the covering system")]


def preEUB(ctx: CardContext, r: Recipe, R: SysExpr, theta: str) -> list[tuple]:
    """Goodness of all slots at theta: C[|length| < theta] <= R."""
    if not isinstance(R, Prs):
        raise PreconditionFailed("preEUB targets a Polish atom")
    for slot in r.slots:
        ts = slot.iterand.good_thresholds(R.atom)
        if not any(ctx.leq(t, theta) is True for t in ts):
            raise PreconditionFailed(
                f"slot class {slot.iterand.token()} is not {theta}-{R.atom}-good")
    if not (ctx.is_regular(theta) and ctx.uncountable(theta)):
        raise PreconditionFailed(f"{theta} must be regular uncountable")
    if ctx.leq(r.cc, theta) is not True:
        raise PreconditionFailed(f"need cc <= {theta}")
    card = ctx.card(r.length_expr(ctx))
    if ctx.leq(theta, card) is not True:
        raise PreconditionFailed(f"need {theta} <= |length|")
    return [(CIdeal(card, theta), R, "forge:preEUB",
             "goodness is preserved along the iteration, keeping ground witnesses unbounded; "
             "the covering system embeds into R")]


# rule name -> the function that concludes it; a fact's params are its
# function's arguments after the recipe, the first one rendered
RECIPE_RULES = {
    "forge:fullgen": fullgen, "forge:fullgen-prs": fullgen,
    "forge:cohen-limit": cohen_limit, "forge:cohen-product": cohen_limit,
    "forge:itsmallsets": itsmallsets, "forge:preEUB": preEUB,
}


def _add(db: FactDB, conclusions, params=(), premises=()) -> list[int]:
    ids = [db.add(lhs, rhs, rule, premises, params, note)
           for lhs, rhs, rule, note in conclusions]
    return [i for i in ids if i is not None]


def apply_fullgen(db: FactDB, r: Recipe, R: SysExpr) -> list[int]:
    return _add(db, fullgen(db.ctx, r, R), (render(R),))


def apply_cohen_limit(db: FactDB, r: Recipe) -> list[int]:
    return _add(db, cohen_limit(db.ctx, r))


def apply_itsmallsets(db: FactDB, r: Recipe, R: SysExpr, theta: str) -> list[int]:
    return _add(db, itsmallsets(db.ctx, r, R, theta), (render(R), theta))


def apply_preEUB(db: FactDB, r: Recipe, R: SysExpr, theta: str) -> list[int]:
    """Adds C[|length| < theta] <= R, and below it each regular cardinal in
    [theta, |length|] (`forge:preEUB-card`, citing that fact)."""
    conclusions = preEUB(db.ctx, r, R, theta)
    ids = _add(db, conclusions, (render(R), theta))
    ci = conclusions[0][0]
    note = "each regular cardinal in [theta,|length|] embeds below R"
    cards = [(mu, R, "forge:preEUB-card", note) for mu, _ in card_embed(db.ctx, ci)]
    return ids + _add(db, cards, premises=(db.id_of(ci, R),))


def preeub_threshold(ctx: CardContext, r: Recipe, atom: str) -> Optional[str]:
    """Least theta at which every slot class is theta-atom-good, if any."""
    slot_minima = []
    for slot in r.slots:
        ts = slot.iterand.good_thresholds(atom)
        if not ts:
            return None
        slot_minima.append(ctx.min_of(ts))
    return ctx.max_of(slot_minima)


def run_recipe(ctx: CardContext, r: Recipe,
               order: Optional[Sequence[int]] = None) -> DerivedModel:
    """Apply every applicable rule, close, and evaluate the constellation.

    `order` optionally permutes the rule applications (the closed fact set
    is the same for any order; tests exercise this confluence).
    """
    diags = validate(ctx, r)
    if diags:
        raise MissingAssumption("; ".join(diags))
    length = r.length_expr(ctx)
    forced = ctx.card(length)
    db = base_facts(ctx, forced)
    db.meta["recipe"] = r

    apps: list[tuple[str, object]] = []
    apps.append(("cohen-limit", lambda db=db: apply_cohen_limit(db, r)))
    targets = []
    for slot in r.slots:
        if slot.cofinal:
            for R in slot.iterand.adds_dominating:
                if R not in targets:
                    targets.append(R)
    for R in targets:
        apps.append((f"fullgen {render(R)}",
                     lambda db=db, R=R: apply_fullgen(db, r, R)))
    for slot in r.slots:
        if slot.bookkeeping is not None:
            atom, theta = slot.bookkeeping
            apps.append((f"itsmallsets {atom}@{theta}",
                         lambda db=db, a=atom, t=theta: apply_itsmallsets(db, r, Prs(a), t)))
    for atom in _ALL_ATOMS:
        theta = preeub_threshold(ctx, r, atom)
        if theta is not None and ctx.leq(theta, forced) is True:
            apps.append((f"preEUB {atom}@{theta}",
                         lambda db=db, a=atom, t=theta: apply_preEUB(db, r, Prs(a), t)))

    if order is not None:
        if sorted(order) != list(range(len(apps))):
            raise ForgeError("order must permute the application list")
        apps = [apps[i] for i in order]
    trace = []
    for label, fn in apps:
        fn()
        trace.append(label)
    close(db)
    return DerivedModel(db, constellation(db), tuple(trace))


# ---------------------------------------------------------------------------
# axiom-level models
# ---------------------------------------------------------------------------

def axiom_requirements(ctx: CardContext, name: str, cards: tuple[str, ...]) -> list[str]:
    miss: list[str] = []

    def regular_chain(names, label):
        for n in names:
            if not ctx.is_regular(n):
                miss.append(f"{label}: {n} must be regular")
        if names and ctx.leq(ALEPH1, names[0]) is not True:
            miss.append(f"{label}: {names[0]} must be uncountable")
        for a, b in zip(names, names[1:]):
            if ctx.leq(a, b) is not True:
                miss.append(f"{label}: need {a} <= {b}")

    if name == "gksmax":
        l1, l2, l3, l4, l5 = cards
        regular_chain([l1, l2, l3, l4], "gksmax")
        if ctx.leq(l4, l5) is not True:
            miss.append(f"gksmax: need {l4} <= {l5}")
        if not ctx.has_pow_lt(l3, l3):
            miss.append(f"gksmax: needs pow_lt({l3},{l3})={l3}")
        if not ctx.has_pow_lt(l5, l4):
            miss.append(f"gksmax: needs pow_lt({l5},{l4})={l5}")
        if not ctx.has_inaccessible(l4, ALEPH1):
            miss.append(f"gksmax: needs inaccessible({l4},aleph1)")
    elif name == "kst":
        l1, l2, l3, l4, l5 = cards
        regular_chain([l1, l2, l3, l4], "kst")
        if ctx.lt(l4, l5) is not True:
            miss.append(f"kst: need {l4} < {l5}")
        if not ctx.has_pow_lt(l2, l2):
            miss.append(f"kst: needs pow_lt({l2},{l2})={l2}")
        if not ctx.has_pow_lt(l5, l4):
            miss.append(f"kst: needs pow_lt({l5},{l4})={l5}")
        for l in (l3, l4):
            if not ctx.has_inaccessible(l, ALEPH1):
                miss.append(f"kst: needs inaccessible({l},aleph1)")
    elif name == "bcm":
        l0, l1, l2, l3, l4, l5, l6 = cards
        regular_chain([l0, l1, l2, l3, l4, l5], "bcm")
        if ctx.leq(l5, l6) is not True:
            miss.append(f"bcm: need {l5} <= {l6}")
        if not ctx.has_pow_lt(l6, l3):
            miss.append(f"bcm: needs pow_lt({l6},{l3})={l6}")
    else:
        raise ForgeError(f"unknown axiom model {name!r}")
    return miss


def axiom_facts(name: str, cards: tuple[str, ...]) -> list[tuple[SysExpr, SysExpr, str]]:
    """(lhs, rhs, note) conclusions of the named construction, ground-model
    traces normalized away."""
    out = []
    if name == "gksmax":
        l5 = cards[4]
        note = "the left-side construction pins each system to a small-set covering"
        for i in range(1, 5):
            ci = CIdeal(l5, cards[i - 1])
            out += [(Prs(_ALL_ATOMS[i - 1]), ci, note), (ci, Prs(_ALL_ATOMS[i - 1]), note)]
    elif name == "kst":
        l1, l2, l3, l4, l5 = cards
        note = "the alternative left-side construction pins each system to a small-set ideal"
        for atom, th in (("Lc", l1), ("Cn", l3), ("ww", l2), ("Mg", l4)):
            ideal = Ideal(l5, th)
            out += [(Prs(atom), ideal, note), (ideal, Prs(atom), note)]
    elif name == "bcm":
        l0, l1, l2, l3, l4, l5, l6 = cards
        note = "the three-values construction pins the first three systems"
        for i in range(1, 4):
            ci = CIdeal(l6, cards[i])
            out += [(Prs(_ALL_ATOMS[i - 1]), ci, note), (ci, Prs(_ALL_ATOMS[i - 1]), note)]
        note4 = "the meager covering sits between two regulars and below their product"
        out += [
            (Card(l4), Prs("Mg"), note4),
            (Card(l5), Prs("Mg"), note4),
            (Prs("Mg"), Prod((Card(l5), Card(l4))), note4),
        ]
    else:
        raise ForgeError(f"unknown axiom model {name!r}")
    return out


_AXIOM_C = {"gksmax": 4, "kst": 4, "bcm": 6}  # index of the forced continuum
_AXIOM_ARITY = {"gksmax": 5, "kst": 5, "bcm": 7}


def axiom_model(ctx: CardContext, name: str, cards: Sequence[str]) -> DerivedModel:
    cards = tuple(cards)
    if name not in _AXIOM_ARITY:
        raise ForgeError(f"unknown axiom model {name!r}")
    if len(cards) != _AXIOM_ARITY[name]:
        raise ForgeError(f"{name} takes {_AXIOM_ARITY[name]} cardinals")
    for c in cards:
        ctx.check(c)
    miss = axiom_requirements(ctx, name, cards)
    if miss:
        raise MissingAssumption("; ".join(miss))
    forced = cards[_AXIOM_C[name]]
    db = base_facts(ctx, forced)
    db.meta["axiom"] = (name, cards)
    for lhs, rhs, note in axiom_facts(name, cards):
        db.add(lhs, rhs, f"axiom:{name}", params=cards, note=note)
    close(db)
    return DerivedModel(db, constellation(db), (f"axiom {name}",))


# ---------------------------------------------------------------------------
# replay entries
# ---------------------------------------------------------------------------

@replays(*RECIPE_RULES)
def _replay_recipe_rule(db, fid, fact):
    if shape_only(db, fact):
        return
    r = db.meta.get("recipe")
    _expect(r is not None, fid, fact, "database carries no recipe")
    args = (parse_expr(fact.params[0]),) + tuple(fact.params[1:]) if fact.params else ()
    try:
        conclusions = RECIPE_RULES[fact.rule](db.ctx, r, *args)
    except PreconditionFailed as exc:
        _expect(False, fid, fact, f"precondition fails: {exc}")
    _expect((fact.lhs, fact.rhs, fact.rule) in [c[:3] for c in conclusions], fid, fact,
            "not a conclusion of the rule")


@replays("forge:preEUB-card", premises=1)
def _replay_preeub_card(db, fid, fact):
    base = db.facts[fact.premises[0]]
    _expect(isinstance(base.lhs, CIdeal) and fact.rhs == base.rhs
            and (fact.lhs, base.lhs) in card_embed(db.ctx, base.lhs), fid, fact,
            "not a regular cardinal below the premise's covering system")


@replays(*(f"axiom:{name}" for name in _AXIOM_ARITY))
def _replay_axiom(db, fid, fact):
    if shape_only(db, fact):
        return
    meta = db.meta.get("axiom")
    _expect(meta is not None, fid, fact, "database carries no axiom model")
    name, cards = meta
    _expect(fact.rule == f"axiom:{name}", fid, fact, "rule/model mismatch")
    _expect(tuple(fact.params) == tuple(cards), fid, fact, "parameter mismatch")
    miss = axiom_requirements(db.ctx, name, tuple(cards))
    _expect(not miss, fid, fact, f"hypotheses fail: {miss}")
    expected = {(l, r) for l, r, _ in axiom_facts(name, tuple(cards))}
    _expect(fact.key() in expected, fid, fact, "not a conclusion of the model")
