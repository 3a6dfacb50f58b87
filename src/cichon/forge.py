"""Finite-support iteration recipes and their effect on the fact database.

A recipe is declarative: an iteration length (ordinal product of regulars),
a chain-condition bound, and a list of slots.  Each slot names an iterand
class from a fixed catalog:

* full classes - Cohen, Random, EvDiff (eventually different reals),
  Hechler, Loc (localization) - which add a known kind of dominating real
  over the whole extension, and
* restricted classes - random_sub/hechler_sub/loc_sub(theta), of size below theta,
  which only dominate over the small bookkept models but are
  theta-good for every Polish system by virtue of their size.

Goodness entries are (threshold, atom) pairs: the class preserves
unbounded families of the atom's system above the threshold.  Restricted
classes inherit their parent's entries (a subalgebra of random forcing
keeps the measure-theoretic Lc*-goodness; subposets of Hechler stay
sigma-centered) and gain (theta, R) for every R from their size.

The four derivation rules are the theorems behind every recipe fact.  Each
is one function `(ctx, recipe, *args)` that returns its conclusions as
(lhs, rhs, rule, note) or raises `PreconditionFailed` naming the hypothesis
that fails, and it is the only place its hypotheses are stated:

* fullgen      - dominating reals cofinally often force R <= length, and
                 R = Mg = length for Polish R;
* cohen-limit  - limit iterations add Cohen reals cofinally, so
                 length <= Mg (and C[length<aleph1] <= Mg for a pure
                 Cohen product);
* itsmallsets  - bookkept small-set domination forces R <= C[c < theta];
* preEUB       - when every slot is theta-R-good, C[c < theta] <= R.

`run_rules` is the one pass over a recipe.  It checks the hypotheses all
applications share (a well-formed length, a regular uncountable cc, and
|length|^aleph0 = |length| so that c = |length|), lists the applications
the recipe triggers, and calls each rule once.  `validate` returns the
failures of that pass, `run_recipe` adds its conclusions, closes the
database and evaluates the constellation, and the replay of a `forge:`
fact re-runs it.

`axiom_model` installs the three construction-heavy left-side models as
axiom-level fact sets.  `AXIOMS` is their one table: for each of gksmax,
kst and bcm its arity, the position of the forced continuum among its
cardinals, and one function returning both its failed hypotheses and its
conclusions.  `axiom_facts` checks a (name, cards) model against the table
and returns its facts; `axiom_model` and the replay of an `axiom:` fact
both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .cards import ALEPH1, CardContext, CardError
from .diagram import Constellation, constellation
from .facts import (FactDB, _expect, base_facts, card_embed, close, replays,
                    replays_source)
from .systems import (PRS_ATOMS, CIdeal, Card, Ideal, Prs, Prod, SysExpr, dual,
                      ord_expr, render)


class ForgeError(Exception):
    pass


class MissingAssumption(ForgeError):
    pass


class PreconditionFailed(ForgeError):
    pass


# ---------------------------------------------------------------------------
# iterand catalog
# ---------------------------------------------------------------------------

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
    goodness=tuple((ALEPH1, a) for a in PRS_ATOMS),  # countable, so good for all
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
        goodness=parent.goodness + tuple((theta, a) for a in PRS_ATOMS),
        size_bound=theta,
        dominates_small=parent.adds_dominating,
    )


FULL_CLASSES = {c.name: c for c in (COHEN, RANDOM, EVDIFF, HECHLER, LOC)}
# "<name>_sub" -> the full class that the size-bounded class restricts
SUB_PARENTS = {c.name + "_sub": c for c in (RANDOM, HECHLER, LOC)}


def iterand(token: str, theta: Optional[str] = None) -> IterandClass:
    if token in FULL_CLASSES:
        if theta is not None:
            raise ForgeError(f"{token} takes no size parameter")
        return FULL_CLASSES[token]
    if token in SUB_PARENTS:
        if theta is None:
            raise ForgeError(f"{token} needs a size parameter")
        return _sub(SUB_PARENTS[token], theta)
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


@dataclass(frozen=True)
class DerivedModel:
    db: FactDB
    constellation: Constellation
    trace: tuple[str, ...]
    log: object = None             # a plan's submodel.TableLog; None otherwise


# ---------------------------------------------------------------------------
# rule applications
# ---------------------------------------------------------------------------

def fullgen(ctx: CardContext, r: Recipe, R: SysExpr) -> list[tuple]:
    """Dominating reals cofinally often: R <= length (= Mg = length for Polish R)."""
    length = ctx.ordinal(r.length)
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
        raise PreconditionFailed("recipe has no slots")
    length = ctx.ordinal(r.length)
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
    kept = [s.iterand for s in r.slots if s.bookkeeping == (R.atom, theta)]
    if not kept:
        raise PreconditionFailed(f"no slot bookkeeps {R.atom} up to {theta}")
    for cls in kept:
        if cls.size_bound != theta:
            raise PreconditionFailed(f"{cls.token()} is not a class restricted below {theta}")
        if R not in cls.dominates_small:
            raise PreconditionFailed(
                f"{cls.token()} does not add {R.atom}-dominating reals over its models")
    length = ctx.ordinal(r.length)
    card = ctx.card(length)
    if not (ctx.is_regular(theta) and ctx.uncountable(theta)):
        raise PreconditionFailed(f"{theta} must be regular uncountable")
    if ctx.leq(r.cc, theta) is not True or ctx.leq(theta, ctx.cf(length)) is not True:
        raise PreconditionFailed(f"need cc <= {theta} <= cf(length)")
    if not ctx.has_pow_lt(card, theta):
        raise PreconditionFailed(
            f"bookkeeping coverage at {theta} needs pow_lt({card},{theta})={card} declared")
    return [(R, CIdeal(card, theta), "forge:itsmallsets",
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
    card = ctx.card(ctx.ordinal(r.length))
    if ctx.leq(theta, card) is not True:
        raise PreconditionFailed(f"need {theta} <= |length|")
    return [(CIdeal(card, theta), R, "forge:preEUB",
             "goodness is preserved along the iteration, keeping ground witnesses unbounded; "
             "the covering system embeds into R")]


RECIPE_RULES = ("forge:fullgen", "forge:fullgen-prs", "forge:cohen-limit",
                "forge:cohen-product", "forge:itsmallsets", "forge:preEUB")


def _add(db: FactDB, conclusions, params) -> None:
    """Adds the conclusions and, below a preEUB one C[|length| < theta] <= R,
    each regular cardinal in [theta, |length|] (`forge:preEUB-card`, citing it)."""
    for lhs, rhs, rule, note in conclusions:
        db.add(lhs, rhs, rule, (), params, note)
        if rule == "forge:preEUB":
            for mu, _ in card_embed(db.ctx, lhs):
                db.add(mu, rhs, "forge:preEUB-card", (db.id_of(lhs, rhs),), (),
                       "each regular cardinal in [theta,|length|] embeds below R")


def preeub_threshold(ctx: CardContext, r: Recipe, atom: str) -> Optional[str]:
    """Least theta >= cc at which every slot class is theta-atom-good, if the
    declared order settles it.  Goodness is monotone in theta, so that is the
    maximum of cc and each slot's least threshold."""
    lows = [ctx.least(slot.iterand.good_thresholds(atom)) for slot in r.slots]
    return None if None in lows else ctx.greatest(lows + [r.cc])


def applications(ctx: CardContext, r: Recipe, forced: str) -> list[tuple]:
    """(label, rule, args, params) for each rule application the recipe
    triggers, in the default order."""
    apps = [("cohen-limit", cohen_limit, (), ())]
    targets = dict.fromkeys(R for s in r.slots if s.cofinal for R in s.iterand.adds_dominating)
    apps += [(f"fullgen {render(R)}", fullgen, (R,), (render(R),)) for R in targets]
    for atom, theta in dict.fromkeys(s.bookkeeping for s in r.slots if s.bookkeeping is not None):
        apps.append((f"itsmallsets {atom}@{theta}", itsmallsets, (Prs(atom), theta), (atom, theta)))
    for atom in PRS_ATOMS:
        theta = preeub_threshold(ctx, r, atom)
        if theta is not None and not ctx.is_regular(theta):
            # goodness is monotone in theta: use the least regular above it
            # (None if the order does not settle the least one)
            theta = ctx.least(ctx.regulars_between(theta, forced))
        if theta is not None and ctx.leq(theta, forced) is True:
            apps.append((f"preEUB {atom}@{theta}", preEUB, (Prs(atom), theta), (atom, theta)))
    return apps


def run_rules(ctx: CardContext, r: Recipe) -> tuple[list[str], list[tuple]]:
    """One pass over the recipe: checks the hypotheses every application
    shares, then calls each rule the recipe triggers once.  Returns the
    failed hypotheses, the recipe-wide ones first, and (label, conclusions,
    params) for each application whose hypotheses hold."""
    try:
        length = ctx.ordinal(r.length)
        forced = ctx.card(length)
    except (CardError, ValueError) as exc:
        return [f"bad length: {exc}"], []
    failures = []
    if not (ctx.is_regular(r.cc) and ctx.uncountable(r.cc)):
        failures.append(f"cc bound {r.cc} must be regular uncountable")
    if not ctx.has_pow(forced, "aleph0"):
        failures.append(f"forcing c={forced} needs pow({forced},aleph0)={forced} declared")
    done = []
    for label, rule, args, params in applications(ctx, r, forced):
        try:
            done.append((label, rule(ctx, r, *args), params))
        except PreconditionFailed as exc:
            failures.append(f"{label}: {exc}")
    return failures, done


def validate(ctx: CardContext, r: Recipe) -> list[str]:
    """The failed hypotheses of every theorem the recipe triggers."""
    return run_rules(ctx, r)[0]


def run_recipe(ctx: CardContext, r: Recipe) -> DerivedModel:
    """Apply every applicable rule, close, and evaluate the constellation."""
    failures, done = run_rules(ctx, r)
    if failures:
        raise MissingAssumption("; ".join(failures))
    db = base_facts(ctx, ctx.card(ctx.ordinal(r.length)))
    db.meta["recipe"] = r
    for _, conclusions, params in done:
        _add(db, conclusions, params)
    close(db)
    return DerivedModel(db, constellation(db), tuple(label for label, _, _ in done))


# ---------------------------------------------------------------------------
# axiom-level models
# ---------------------------------------------------------------------------
#
# Each construction is one function `(ctx, cards)` that returns its failed
# hypotheses and its (lhs, rhs, note) conclusions, ground-model traces
# normalized away.

def _regular_chain(ctx: CardContext, names, label: str) -> list[str]:
    miss = [f"{label}: {n} must be regular" for n in names if not ctx.is_regular(n)]
    if names and ctx.leq(ALEPH1, names[0]) is not True:
        miss.append(f"{label}: {names[0]} must be uncountable")
    miss += [f"{label}: need {a} <= {b}" for a, b in zip(names, names[1:])
             if ctx.leq(a, b) is not True]
    return miss


def _pinned(systems, note: str) -> list[tuple]:
    """Polish system i Tukey-equivalent to the i-th given system."""
    return [pair for atom, sys_ in zip(PRS_ATOMS, systems)
            for pair in ((Prs(atom), sys_, note), (sys_, Prs(atom), note))]


def gksmax(ctx: CardContext, cards: tuple[str, ...]) -> tuple[list[str], list[tuple]]:
    l1, l2, l3, l4, l5 = cards
    miss = _regular_chain(ctx, [l1, l2, l3, l4], "gksmax")
    if ctx.leq(l4, l5) is not True:
        miss.append(f"gksmax: need {l4} <= {l5}")
    if not ctx.has_pow_lt(l3, l3):
        miss.append(f"gksmax: needs pow_lt({l3},{l3})={l3}")
    if not ctx.has_pow_lt(l5, l4):
        miss.append(f"gksmax: needs pow_lt({l5},{l4})={l5}")
    if not ctx.has_inaccessible(l4, ALEPH1):
        miss.append(f"gksmax: needs inaccessible({l4},aleph1)")
    note = "the left-side construction pins each system to a small-set covering"
    return miss, _pinned([CIdeal(l5, l) for l in cards[:4]], note)


def kst(ctx: CardContext, cards: tuple[str, ...]) -> tuple[list[str], list[tuple]]:
    l1, l2, l3, l4, l5 = cards
    miss = _regular_chain(ctx, [l1, l2, l3, l4], "kst")
    if ctx.lt(l4, l5) is not True:
        miss.append(f"kst: need {l4} < {l5}")
    if not ctx.has_pow_lt(l2, l2):
        miss.append(f"kst: needs pow_lt({l2},{l2})={l2}")
    if not ctx.has_pow_lt(l5, l4):
        miss.append(f"kst: needs pow_lt({l5},{l4})={l5}")
    miss += [f"kst: needs inaccessible({l},aleph1)" for l in (l3, l4)
             if not ctx.has_inaccessible(l, ALEPH1)]
    note = "the alternative left-side construction pins each system to a small-set ideal"
    return miss, _pinned([Ideal(l5, l) for l in (l1, l3, l2, l4)], note)


def bcm(ctx: CardContext, cards: tuple[str, ...]) -> tuple[list[str], list[tuple]]:
    l0, l1, l2, l3, l4, l5, l6 = cards
    miss = _regular_chain(ctx, [l0, l1, l2, l3, l4, l5], "bcm")
    if ctx.leq(l5, l6) is not True:
        miss.append(f"bcm: need {l5} <= {l6}")
    if not ctx.has_pow_lt(l6, l3):
        miss.append(f"bcm: needs pow_lt({l6},{l3})={l6}")
    out = _pinned([CIdeal(l6, l) for l in (l1, l2, l3)],
                  "the three-values construction pins the first three systems")
    note = "the meager covering sits between two regulars and below their product"
    out += [(Card(l4), Prs("Mg"), note), (Card(l5), Prs("Mg"), note),
            (Prs("Mg"), Prod((Card(l5), Card(l4))), note)]
    return miss, out


@dataclass(frozen=True)
class Axiom:
    arity: int
    c_at: int            # position of the forced continuum among the cards
    construct: Callable  # (ctx, cards) -> (failed hypotheses, conclusions)


AXIOMS = {"gksmax": Axiom(5, 4, gksmax), "kst": Axiom(5, 4, kst), "bcm": Axiom(7, 6, bcm)}


def axiom_facts(ctx: CardContext, model: tuple[str, tuple[str, ...]]) -> list[tuple]:
    """(lhs, rhs, rule, params, note) conclusions of the axiom model
    (name, cards); raises unless its name, arity and hypotheses check."""
    name, cards = model
    axiom = AXIOMS.get(name)
    if axiom is None:
        raise ForgeError(f"unknown axiom model {name!r}")
    if len(cards) != axiom.arity:
        raise ForgeError(f"{name} takes {axiom.arity} cardinals")
    for c in cards:
        ctx.check(c)
    miss, conclusions = axiom.construct(ctx, cards)
    if miss:
        raise MissingAssumption("; ".join(miss))
    return [(lhs, rhs, f"axiom:{name}", cards, note) for lhs, rhs, note in conclusions]


def axiom_model(ctx: CardContext, name: str, cards: Sequence[str]) -> DerivedModel:
    cards = tuple(cards)
    conclusions = axiom_facts(ctx, (name, cards))
    db = base_facts(ctx, cards[AXIOMS[name].c_at])
    db.meta["axiom"] = (name, cards)
    for lhs, rhs, rule, params, note in conclusions:
        db.add(lhs, rhs, rule, params=params, note=note)
    close(db)
    return DerivedModel(db, constellation(db), (f"axiom {name}",))


# ---------------------------------------------------------------------------
# replay entries
# ---------------------------------------------------------------------------

def _recipe_facts(ctx: CardContext, r: Recipe) -> list[tuple]:
    failures, done = run_rules(ctx, r)
    if failures:
        raise MissingAssumption("; ".join(failures))
    return [(lhs, rhs, rule, params, note) for _, conclusions, params in done
            for lhs, rhs, rule, note in conclusions]


replays_source("recipe", *RECIPE_RULES, rerun=_recipe_facts, errors=(ForgeError, CardError))
replays_source("axiom", *(f"axiom:{name}" for name in AXIOMS), rerun=axiom_facts,
               errors=(ForgeError, CardError))


@replays("forge:preEUB-card", premises=1)
def _replay_preeub_card(ctx, facts, fid, fact):
    base = facts[fact.premises[0]]
    _expect(isinstance(base.lhs, CIdeal) and fact.rhs == base.rhs
            and (fact.lhs, base.lhs) in card_embed(ctx, base.lhs), fid, fact,
            "not a regular cardinal below the premise's covering system")
