"""Directed Tukey-order facts with provenance, and their closure.

Every fact ``lhs <= rhs`` (in the Tukey order) carries the rule that
produced it, the ids of its premise facts, the parameters the rule needs
to replay, and a one-line note naming the mathematical principle.  A
justification must replay: re-running the rule on the premises has to
reproduce the fact exactly, which `verify` checks for a whole database.

`base_facts` seeds a database with the ZFC layer: the classical diagram
edges between the meager/null ideal systems and the four Polish atoms,
the Polish characterizations of those atoms, the ideal-versus-covering
comparisons, and the fact that every Polish system lies Tukey-above the
meager covering system.

`close` runs the structural rules to a least fixpoint:

* transitivity and contravariant dualization,
* products lie above their factors,
* every regular mu in [theta, lambda] embeds into C[lambda<theta],
* C[lambda<theta] collapses onto the ideal when lambda^{<theta} = lambda
  is declared,
* monotonicity of the small-subset covering systems in both parameters,
* a limit ordinal product is Tukey-equivalent to its cofinality.

The closure is held over small ints.  `close` interns every expression once
per call, in a table of its own, and gives each id an out-row and an
in-row: ``int`` bitmasks of the ids it has facts to and from.  A candidate
that is already a fact is dropped by one bit test, before any expression
is hashed; only new facts reach `FactDB.add`, which validates them and is
the only way a fact enters the database.

Each rule is defined once, in the `REPLAY` table: its premise count and
one check that re-derives the fact.  The per-expression rules and the
monotonicity test are functions that `close` and the replay both call.
The seed, recipe, axiom and plan rules, whose hypotheses live in a source
held in ``db.meta``, are registered through `replays_source`: their check
re-runs the source once per database and looks the fact up in the result.
`verify` runs the table over a live database.  `check_trace` runs the same
loop over a rendered trace, which carries no ``meta``; `_replay` alone
decides that such a trace's source facts are only checked to be well
formed.  Every other check reads only the facts, so it re-derives from the
trace alone: the structural rules here and the preEUB cardinal embeddings
of `forge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .cards import ALEPH1, CONTINUUM, CardContext, CardError, OrdinalExpr
from .systems import (CIdeal, Card, CoverSys, ExprError, Ideal, IdealSys, Ord,
                      Prod, R1, R2, R3, R4, SysExpr, dual, parse_expr, render,
                      subexpressions, validate_expr)


class FactError(Exception):
    pass


class DivergentUniverse(FactError):
    pass


class ReplayError(FactError):
    pass


@dataclass(frozen=True)
class TukeyFact:
    lhs: SysExpr
    rhs: SysExpr
    rule: str
    premises: tuple[int, ...] = ()
    params: tuple = ()
    note: str = ""

    def key(self) -> tuple[SysExpr, SysExpr]:
        return (self.lhs, self.rhs)

    def pretty(self, fid: int) -> str:
        prem = ",".join(str(p) for p in self.premises)
        return f'{fid}: {render(self.lhs)} <= {render(self.rhs)}  [{self.rule}; {prem}; "{self.note}"]'


class FactDB:
    """Ordered store of facts; ids are list positions."""

    def __init__(self, ctx: CardContext, forced_c: Optional[str] = None):
        if forced_c is not None:
            ctx.check(forced_c)
            if ctx.leq(ALEPH1, forced_c) is not True:
                raise FactError(f"forced continuum {forced_c} must be >= aleph1")
        self.ctx = ctx
        self.forced_c = forced_c
        self.facts: list[TukeyFact] = []
        self._index: dict[tuple[SysExpr, SysExpr], int] = {}
        self.closed = False
        # the sources the facts re-run from, by name: the continuum the seeds
        # follow, and the recipe, axiom model or plan; None for a parsed trace
        self.meta: Optional[dict] = {"seed": self.c_name}
        self._reran: dict[str, tuple] = {}  # source -> (object, its re-run)

    @property
    def c_name(self) -> str:
        return self.forced_c if self.forced_c is not None else CONTINUUM

    def add(self, lhs: SysExpr, rhs: SysExpr, rule: str, premises=(),
            params=(), note: str = "") -> Optional[int]:
        """Record a fact; returns its id, or None if already present."""
        key = (lhs, rhs)
        if key in self._index:
            return None
        validate_expr(self.ctx, lhs)
        validate_expr(self.ctx, rhs)
        fact = TukeyFact(lhs, rhs, rule, tuple(premises), tuple(params), note)
        self.facts.append(fact)
        fid = len(self.facts) - 1
        self._index[key] = fid
        self.closed = False
        return fid

    def has(self, lhs: SysExpr, rhs: SysExpr) -> bool:
        return (lhs, rhs) in self._index

    def id_of(self, lhs: SysExpr, rhs: SysExpr) -> int:
        return self._index[(lhs, rhs)]

    def pairs(self) -> set[tuple[SysExpr, SysExpr]]:
        return set(self._index)

    def universe(self) -> set[SysExpr]:
        out: set[SysExpr] = set()
        for f in self.facts:
            out.update(subexpressions(f.lhs))
            out.update(subexpressions(f.rhs))
        return out

    def trace_lines(self) -> list[str]:
        return [f.pretty(i) for i, f in enumerate(self.facts)]


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

NOTE_DIAGRAM = "ZFC Tukey connection between the classical diagram systems"
NOTE_PRS_EQUIV = "Polish characterization of the classical invariants"
NOTE_IDEAL_COVER = "for any ideal, the covering system and its dual lie below the ideal order"
NOTE_PRS_MEAGER = "every Polish relational system lies Tukey-above the meager covering system"


def seed_facts(ctx: CardContext, cn: str) -> list[tuple]:
    """The (lhs, rhs, rule, params, note) seeds for continuum name cn."""
    C = CIdeal(cn, ALEPH1)
    iM, iN = IdealSys("M"), IdealSys("N")
    cM, cN = CoverSys("M"), CoverSys("N")
    edges = [
        (dual(C), dual(iN)),        # aleph1 <= add(N)
        (dual(iN), cN),             # add(N) <= cov(N)
        (cN, dual(cM)),             # cov(N) <= non(M)
        (dual(cM), iM),             # non(M) <= cof(M)
        (iM, iN),                   # cof(M) <= cof(N)
        (iN, C),                    # cof(N) <= c
        (dual(iN), dual(iM)),       # add(N) <= add(M)
        (dual(iM), cM),             # add(M) <= cov(M)
        (cM, dual(cN)),             # cov(M) <= non(N)
        (dual(cN), iN),             # non(N) <= cof(N)
        (dual(iM), dual(R3)),       # add(M) <= b
        (dual(R3), dual(cM)),       # b <= non(M)
        (cM, R3),                   # cov(M) <= d
        (R3, iM),                   # d <= cof(M)
        (dual(R3), R3),             # b <= d
    ]
    out = [(a, b, "seed:diagram", (), NOTE_DIAGRAM) for a, b in edges]
    equivs = [(R4, cM), (cM, R4), (R2, dual(cN)), (dual(cN), R2), (R1, iN), (iN, R1)]
    out += [(a, b, "seed:prs-equiv", (), NOTE_PRS_EQUIV) for a, b in equivs]
    trivial = [(cM, iM), (dual(cM), iM), (cN, iN), (dual(cN), iN)]
    out += [(a, b, "seed:ideal-cover", (), NOTE_IDEAL_COVER) for a, b in trivial]
    prs = [(R4, R1), (R4, R2), (R4, R3)]
    out += [(a, b, "seed:prs-meager", (), NOTE_PRS_MEAGER) for a, b in prs]
    return out


def base_facts(ctx: CardContext, forced_c: Optional[str] = None) -> FactDB:
    db = FactDB(ctx, forced_c)
    for lhs, rhs, rule, params, note in seed_facts(ctx, db.c_name):
        db.add(lhs, rhs, rule, params=params, note=note)
    return db


# ---------------------------------------------------------------------------
# per-expression rules
# ---------------------------------------------------------------------------
#
# Each returns the (lhs, rhs) conclusions the rule draws from one
# expression; `close` calls it when it first meets the expression and the
# replay calls it again to re-derive a recorded fact.

def prod_proj(ctx: CardContext, e: Prod) -> list[tuple[SysExpr, SysExpr]]:
    return [(part, e) for part in e.parts]


def card_embed(ctx: CardContext, e: CIdeal) -> list[tuple[SysExpr, SysExpr]]:
    return [(Card(mu), e) for mu in ctx.regulars_between(e.theta, e.index)]


def ideal_collapse(ctx: CardContext, e: CIdeal) -> list[tuple[SysExpr, SysExpr]]:
    if not (ctx.is_regular(e.theta) and ctx.has_pow_lt(e.index, e.theta)):
        return []
    ideal = Ideal(e.index, e.theta)
    return [(e, ideal), (ideal, e)]


def ord_cofinality(ctx: CardContext, e: Ord) -> list[tuple[SysExpr, SysExpr]]:
    cf = Card(ctx.cf(OrdinalExpr(e.factors)))
    return [(e, cf), (cf, e)]


# (rule, the expression type it fires on, its conclusions, note), in the
# order `close` applies them to a new expression
EXPR_RULES = (
    ("rule:prod-proj", Prod, prod_proj, "a product system lies above each factor"),
    ("rule:card-embed", CIdeal, card_embed,
     "each regular mu in [theta,lambda] embeds into C[lambda<theta]"),
    ("rule:ideal-collapse", CIdeal, ideal_collapse,
     "C[X<theta] matches the ideal when |X|^{<theta}=|X|"),
    ("rule:ord-cofinality", Ord, ord_cofinality,
     "a limit ordinal is Tukey-equivalent to its cofinality"),
)


def cideal_mono(ctx: CardContext, small: CIdeal, large: CIdeal) -> bool:
    """C[X<theta] <= C[X'<theta'] for theta' <= theta <= |X| <= |X'|."""
    return (ctx.leq(large.theta, small.theta) is True
            and ctx.leq(small.theta, small.index) is True
            and ctx.leq(small.index, large.index) is True)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

DEFAULT_UNIVERSE_LIMIT = 4000


def close(db: FactDB, universe_limit: int = DEFAULT_UNIVERSE_LIMIT) -> FactDB:
    """Least fixpoint of the structural rules; every new fact gets provenance.

    Incremental worklist evaluation: each fact is processed exactly once, in
    id order, and composed against the facts chaining through either side.
    It runs on interned ids with bitmask rows (see the module docstring), so
    a candidate that is already a fact costs one bit test, and a composition
    loop runs only when the rows say it adds a fact.  Duplicates are only
    skipped earlier: the facts, their order and their provenance are those
    of a plain worklist that offers every candidate to `FactDB.add`.
    """
    from collections import deque

    ctx = db.ctx
    ids: dict[SysExpr, int] = {}
    exprs: list[SysExpr] = []
    out: list[int] = []        # out[a]: bit c set when a <= c is a fact
    into: list[int] = []       # into[c]: bit a set when a <= c is a fact
    by_lhs: list[list[int]] = []  # fact ids with lhs a, in id order
    by_rhs: list[list[int]] = []
    dual_id: list[Optional[int]] = []
    seen: list[bool] = []      # the per-expression rules have fired on it
    expanded: list[bool] = []  # every subexpression of it is seen
    lhs_of: list[int] = []     # per fact id
    rhs_of: list[int] = []
    known_cideals: list[tuple[CIdeal, int, int]] = []  # (expr, id, witness fact id)
    queue: deque[int] = deque()
    n_seen = 0

    def intern(e: SysExpr) -> int:
        k = ids.get(e)
        if k is None:
            k = ids[e] = len(exprs)
            exprs.append(e)
            out.append(0)
            into.append(0)
            by_lhs.append([])
            by_rhs.append([])
            dual_id.append(None)
            seen.append(False)
            expanded.append(False)
        return k

    def dual_of(a: int) -> int:
        d = dual_id[a]
        if d is None:
            d = dual_id[a] = intern(dual(exprs[a]))
        return d

    def register(fid: int, a: int, c: int):
        lhs_of.append(a)
        rhs_of.append(c)
        out[a] |= 1 << c
        into[c] |= 1 << a
        by_lhs[a].append(fid)
        by_rhs[c].append(fid)
        queue.append(fid)

    def add(a: int, c: int, rule, premises, note):
        register(db.add(exprs[a], exprs[c], rule, premises, note=note), a, c)

    def emit(a: int, c: int, rule, premises, note=""):
        if a != c and not out[a] >> c & 1:
            add(a, c, rule, premises, note)

    for fid, f in enumerate(db.facts):
        register(fid, intern(f.lhs), intern(f.rhs))

    trans_note = "Tukey connections compose"
    mono_note = "small-subset covering systems are monotone in both parameters"
    while queue:
        i = queue.popleft()
        a, b = lhs_of[i], rhs_of[i]

        emit(dual_of(b), dual_of(a), "rule:dual", (i,),
             note="a Tukey connection dualizes contravariantly")

        # compose with everything chaining through either side; `new` holds
        # the ids a composition would add, and each is met once in the walk
        new = out[b] & ~out[a] & ~(1 << a)
        for j in by_lhs[b] if new else ():
            c = rhs_of[j]
            if new >> c & 1:
                add(a, c, "rule:trans", (i, j), trans_note)
                new ^= 1 << c
                if not new:
                    break
        new = into[a] & ~into[b] & ~(1 << b)
        for j in by_rhs[a] if new else ():
            x = lhs_of[j]
            if new >> x & 1:
                add(x, b, "rule:trans", (j, i), trans_note)
                new ^= 1 << x
                if not new:
                    break

        if expanded[a] and expanded[b]:
            continue
        for e in sorted(set(subexpressions(exprs[a])) | set(subexpressions(exprs[b])),
                        key=render):
            k = intern(e)
            if seen[k]:
                continue
            seen[k] = True
            n_seen += 1
            if n_seen > universe_limit:
                raise DivergentUniverse(f"expression universe exceeds {universe_limit}")
            for rule, kind, conclude, note in EXPR_RULES:
                if isinstance(e, kind):
                    for lhs, rhs in conclude(ctx, e):
                        emit(intern(lhs), intern(rhs), rule, (i,), note=note)
            if isinstance(e, CIdeal):
                for other, o, wj in known_cideals:
                    if cideal_mono(ctx, e, other):
                        emit(k, o, "rule:cideal-mono", (i, wj), note=mono_note)
                    if cideal_mono(ctx, other, e):
                        emit(o, k, "rule:cideal-mono", (wj, i), note=mono_note)
                known_cideals.append((e, k, i))
        expanded[a] = expanded[b] = True

    db.closed = True
    return db


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------
#
# REPLAY maps each rule to the one check that re-derives its conclusion,
# `fn(db, fid, fact)`.  `replays` also records on fn how many premises the
# rule cites; a check registered by hand without one has its premise count
# left unchecked.  `replays_source` records the source the check re-runs.

ReplayFn = Callable[[FactDB, int, TukeyFact], None]
REPLAY: dict[str, ReplayFn] = {}


def replays(*rules: str, premises: int = 0):
    def deco(fn: ReplayFn):
        fn.premises = premises
        for rule in rules:
            REPLAY[rule] = fn
        return fn
    return deco


def _expect(cond: bool, fid: int, fact: TukeyFact, msg: str):
    if not cond:
        raise ReplayError(f"fact {fid} ({render(fact.lhs)} <= {render(fact.rhs)}): {msg}")


def _mentions(fact: TukeyFact, e: SysExpr) -> bool:
    return e in subexpressions(fact.lhs) or e in subexpressions(fact.rhs)


def replays_source(source: str, *rules: str, rerun: Callable, errors: tuple = ()):
    """Registers the check of `rules`, whose facts come from the object
    ``db.meta[source]``: the fact and its params must be among the
    (lhs, rhs, rule, params, note) tuples ``rerun(ctx, object)`` returns.
    It re-runs once per database and object, so replacing the object
    invalidates the result; an error of a type in `errors` fails the fact."""
    def check(db, fid, fact):
        obj = db.meta.get(source)
        _expect(obj is not None, fid, fact, f"database carries no {source}")
        ran, expected = db._reran.get(source, (None, None))
        if ran is not obj:
            try:
                expected = {c[:4] for c in rerun(db.ctx, obj)}
            except errors as exc:
                _expect(False, fid, fact, f"re-running the {source} fails: {exc}")
            db._reran[source] = (obj, expected)
        _expect((fact.lhs, fact.rhs, fact.rule, tuple(fact.params)) in expected, fid, fact,
                f"re-running the {source} does not reproduce it")
    check.source = source
    replays(*rules)(check)


replays_source("seed", "seed:diagram", "seed:prs-equiv", "seed:ideal-cover",
               "seed:prs-meager", rerun=seed_facts)


@replays("rule:dual", premises=1)
def _replay_dual(db, fid, fact):
    p = db.facts[fact.premises[0]]
    _expect(fact.lhs == dual(p.rhs) and fact.rhs == dual(p.lhs), fid, fact,
            "dualized premise does not match")


@replays("rule:trans", premises=2)
def _replay_trans(db, fid, fact):
    i, j = fact.premises
    p, q = db.facts[i], db.facts[j]
    _expect(p.rhs == q.lhs and fact.lhs == p.lhs and fact.rhs == q.rhs, fid, fact,
            "composition does not match premises")


def _expr_rule_check(kind: type, conclude) -> ReplayFn:
    def check(db, fid, fact):
        sides = [e for e in fact.key()
                 if isinstance(e, kind) and fact.key() in conclude(db.ctx, e)]
        _expect(bool(sides), fid, fact, "the rule does not conclude it")
        _expect(any(_mentions(db.facts[fact.premises[0]], e) for e in sides), fid, fact,
                f"witness premise does not mention the {kind.__name__} side")
    return check


for _rule, _kind, _conclude, _ in EXPR_RULES:
    replays(_rule, premises=1)(_expr_rule_check(_kind, _conclude))


@replays("rule:cideal-mono", premises=2)
def _replay_cideal_mono(db, fid, fact):
    small, large = fact.key()
    _expect(isinstance(small, CIdeal) and isinstance(large, CIdeal)
            and cideal_mono(db.ctx, small, large), fid, fact,
            "monotonicity hypotheses fail")
    i, j = fact.premises
    _expect(_mentions(db.facts[i], small) and _mentions(db.facts[j], large), fid, fact,
            "witness premises do not mention the sides")


def _replay(db: FactDB):
    # shared by verify and check_trace; neither calls the other, so the time
    # a profile or a per-layer timing gives each one stays its own
    for fid, fact in enumerate(db.facts):
        fn = REPLAY.get(fact.rule)
        if fn is None:
            raise ReplayError(f"fact {fid}: unknown rule {fact.rule!r}")
        premises = fact.premises
        n = getattr(fn, "premises", None)
        if n is not None and len(premises) != n:
            raise ReplayError(
                f"fact {fid}: {fact.rule} cites {n} premises, not {len(premises)}")
        for p in premises:
            if not 0 <= p < fid:
                raise ReplayError(f"fact {fid}: premise {p} does not precede it")
        try:
            if db.meta is None and hasattr(fn, "source"):
                # a trace carries no sources: only check the fact is well formed
                validate_expr(db.ctx, fact.lhs)
                validate_expr(db.ctx, fact.rhs)
            else:
                fn(db, fid, fact)
        except (CardError, ExprError) as exc:
            raise ReplayError(f"fact {fid}: {type(exc).__name__}: {exc}") from exc


def verify(db: FactDB):
    """Replay every justification; raises ReplayError on the first failure."""
    _replay(db)


# ---------------------------------------------------------------------------
# textual trace checking
# ---------------------------------------------------------------------------

import re as _re

_TRACE_LINE = _re.compile(
    r'^(\d+): (.*?) <= (.*?)  \[([^;\]]+); ([0-9, ]*); "(.*)"\]$')


def parse_trace(lines) -> list[TukeyFact]:
    out = []
    for k, line in enumerate(lines):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        m = _TRACE_LINE.match(line)
        if m is None:
            raise ReplayError(f"trace line {k + 1} is malformed: {line!r}")
        fid = int(m.group(1))
        if fid != len(out):
            raise ReplayError(f"trace line {k + 1}: expected id {len(out)}, got {fid}")
        prem = tuple(int(t) for t in m.group(5).replace(" ", "").split(",") if t)
        try:
            lhs, rhs = parse_expr(m.group(2)), parse_expr(m.group(3))
        except ExprError as exc:
            raise ReplayError(f"trace line {k + 1}: {exc}") from exc
        out.append(TukeyFact(lhs, rhs, m.group(4), prem, (), m.group(6)))
    return out


def check_trace(ctx: CardContext, lines) -> int:
    """Replay a rendered trace without the live database.  Returns the
    number of facts checked.

    The structural rules re-derive from the trace alone.  The trace carries
    no ``meta``, so the facts of the seed, recipe, axiom and plan rules are
    only checked to be well formed (see `_replay`)."""
    db = FactDB(ctx)
    db.facts, db.meta = parse_trace(lines), None
    _replay(db)
    return len(db.facts)
