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

`close` interns at most 2*(S + r + c) expressions (see `close`), so it
needs no size guard.  It runs the structural rules to a least fixpoint:

* transitivity and contravariant dualization,
* products lie above their factors,
* every regular mu in [theta, lambda] embeds into C[lambda<theta],
* C[lambda<theta] collapses onto the ideal when lambda^{<theta} = lambda
  is declared,
* monotonicity of the small-subset covering systems in both parameters,
* a limit ordinal product is Tukey-equivalent to its cofinality.

`FactDB` holds the one index of its facts, over small ints: it interns
each expression once, validating it then, and gives each id an out-row and
an in-row (``int`` bitmasks of the ids it has facts to and from) and the
fact ids with it on either side.  `close` runs on those ids and rows and
keeps only its worklist and per-call marks: a candidate that is already a
fact is dropped by one bit test, before any expression is hashed, and only
new facts reach `FactDB.add`, the only way a fact enters the database.
`diagram.value_bounds` reads the same by-side lists.

Each rule is defined once, in the `REPLAY` table: its premise count and
one check that re-derives the fact.  The per-expression rules and the
monotonicity test are functions that `close` and the replay both call.
The seed, recipe, axiom and plan rules, whose hypotheses live in a source
held in ``db.meta``, are registered through `replays_source`: their check
re-runs the source once per database and looks the fact up in the result.
`forge` and `submodel` register theirs when imported, and `_replay` imports
them first, so no replay depends on what its caller happened to import.
`verify` runs the table over a live database.  `check_trace` runs the same
loop over a rendered trace, which carries no ``meta``; `_replay` alone
decides that such a trace's source facts are only checked to be well
formed.  Every other check reads only the facts, so it re-derives from the
trace alone: the structural rules here and the preEUB cardinal embeddings
of `forge`.  `FactDB.trace_lines` renders each side through the text its
expression keeps (see `systems`), and `parse_trace` parses each distinct
side text once per call.  A fact is an immutable tuple, `TukeyFact`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .cards import ALEPH1, CONTINUUM, CardContext, CardError
from .systems import (CIdeal, Card, CoverSys, ExprError, Ideal, IdealSys, Ord,
                      Prod, R1, R2, R3, R4, SysExpr, dual, parse_expr, render,
                      subexpressions, validate_expr)


class FactError(Exception):
    pass


class ReplayError(FactError):
    pass


class TukeyFact(NamedTuple):
    lhs: SysExpr
    rhs: SysExpr
    rule: str
    premises: tuple[int, ...] = ()
    params: tuple = ()
    note: str = ""

    def key(self) -> tuple[SysExpr, SysExpr]:
        return (self.lhs, self.rhs)


class FactDB:
    """Ordered store of facts; ids are list positions.

    The database is also the one index of its facts.  Each distinct
    expression gets an int id when first seen, and is validated then, once.
    Per expression id it keeps an out-row and an in-row, ``int`` bitmasks of
    the ids it has facts to and from, and the ids of the facts with it as
    lhs and as rhs, in id order; per fact id, the ids of its two sides.
    `add` is the only way a fact enters a live database: it drops a
    duplicate by one bit test, and `has`, `id_of` and `pairs` read the same
    rows.  A parsed trace assigns ``facts`` directly and is never indexed.
    """

    def __init__(self, ctx: CardContext, forced_c: Optional[str] = None):
        if forced_c is not None:
            ctx.check(forced_c)
            if ctx.leq(ALEPH1, forced_c) is not True:
                raise FactError(f"forced continuum {forced_c} must be >= aleph1")
        self.ctx = ctx
        self.forced_c = forced_c
        self.facts: list[TukeyFact] = []
        self.ids: dict[SysExpr, int] = {}
        self.exprs: list[SysExpr] = []
        self.out: list[int] = []            # out[a]: bit c set when a <= c is a fact
        self.into: list[int] = []           # into[c]: bit a set when a <= c is a fact
        self.by_lhs: list[list[int]] = []   # by_lhs[a]: fact ids with lhs a, in id order
        self.by_rhs: list[list[int]] = []
        self.lhs_of: list[int] = []         # per fact id, the id of its lhs
        self.rhs_of: list[int] = []
        self.closed = False
        # the sources the facts re-run from, by name: the continuum the seeds
        # follow, and the recipe, axiom model or plan; None for a parsed trace
        self.meta: Optional[dict] = {"seed": self.c_name}
        self._reran: dict[str, tuple] = {}  # source -> (object, its re-run)

    @property
    def c_name(self) -> str:
        return self.forced_c if self.forced_c is not None else CONTINUUM

    def intern(self, e: SysExpr) -> int:
        """The id of e, validating and indexing it when first seen."""
        k = self.ids.get(e)
        if k is None:
            validate_expr(self.ctx, e)
            k = self.ids[e] = len(self.exprs)
            self.exprs.append(e)
            self.out.append(0)
            self.into.append(0)
            self.by_lhs.append([])
            self.by_rhs.append([])
        return k

    def add(self, lhs: SysExpr, rhs: SysExpr, rule: str, premises=(),
            params=(), note: str = "") -> Optional[int]:
        """Record a fact; returns its id, or None if already present."""
        a, c = self.intern(lhs), self.intern(rhs)
        if self.out[a] >> c & 1:
            return None
        fid = len(self.facts)
        self.facts.append(TukeyFact(lhs, rhs, rule, tuple(premises), tuple(params), note))
        self.lhs_of.append(a)
        self.rhs_of.append(c)
        self.out[a] |= 1 << c
        self.into[c] |= 1 << a
        self.by_lhs[a].append(fid)
        self.by_rhs[c].append(fid)
        self.closed = False
        return fid

    def has(self, lhs: SysExpr, rhs: SysExpr) -> bool:
        a, c = self.ids.get(lhs), self.ids.get(rhs)
        return a is not None and c is not None and bool(self.out[a] >> c & 1)

    def id_of(self, lhs: SysExpr, rhs: SysExpr) -> int:
        if not self.has(lhs, rhs):
            raise KeyError((lhs, rhs))
        c = self.ids[rhs]
        return next(j for j in self.by_lhs[self.ids[lhs]] if self.rhs_of[j] == c)

    def pairs(self) -> set[tuple[SysExpr, SysExpr]]:
        return {(self.exprs[a], self.exprs[c]) for a, c in zip(self.lhs_of, self.rhs_of)}

    def universe(self) -> set[SysExpr]:
        out: set[SysExpr] = set()
        for f in self.facts:
            out.update(subexpressions(f.lhs))
            out.update(subexpressions(f.rhs))
        return out

    def trace_lines(self) -> list[str]:
        """One line per fact, the format `parse_trace` reads."""
        lines = []
        for fid, f in enumerate(self.facts):
            a, c, prem = render(f.lhs), render(f.rhs), ",".join(map(str, f.premises))
            lines.append(f'{fid}: {a} <= {c}  [{f.rule}; {prem}; "{f.note}"]')
        return lines


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
    trivial = [(cM, iM), (cN, iN)]  # dual(cM) -> iM and dual(cN) -> iN are diagram edges
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
    cf = Card(ctx.cf(e.factors))
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

def close(db: FactDB) -> FactDB:
    """Least fixpoint of the structural rules; every new fact gets provenance.

    Incremental worklist evaluation: each fact is processed exactly once, in
    id order, and composed against the facts chaining through either side.
    It runs on the database's expression ids and rows (see `FactDB`), so a
    candidate that is already a fact costs one bit test, and a composition
    loop runs only when the rows say it adds a fact.  Duplicates are only
    skipped earlier: the facts, their order and their provenance are those
    of a plain worklist that offers every candidate to `FactDB.add`.

    Only four steps make an expression: a dual, ``Card(mu)`` for a declared
    regular mu, ``I[x<t]`` for a ``C[x<t]``, and an ordinal's cofinality (a
    regular ``Card``).  So it interns at most 2*(S + r + c) expressions: S
    subexpressions before closing, r regular names, c C-ideals among the S.
    """
    from collections import deque

    ctx = db.ctx
    exprs, out, into = db.exprs, db.out, db.into
    by_lhs, by_rhs, lhs_of, rhs_of = db.by_lhs, db.by_rhs, db.lhs_of, db.rhs_of
    intern = db.intern
    duals: dict[int, int] = {}
    seen: set[int] = set()      # the per-expression rules have fired on it
    expanded: set[int] = set()  # every subexpression of it is seen
    known_cideals: list[tuple[CIdeal, int, int]] = []  # (expr, id, witness fact id)
    queue: deque[int] = deque(range(len(db.facts)))

    def dual_of(a: int) -> int:
        d = duals.get(a)
        if d is None:
            d = duals[a] = intern(dual(exprs[a]))
        return d

    def add(a: int, c: int, rule, premises, note):
        queue.append(db.add(exprs[a], exprs[c], rule, premises, note=note))

    def emit(a: int, c: int, rule, premises, note):
        if a != c and not out[a] >> c & 1:
            add(a, c, rule, premises, note)

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

        if a in expanded and b in expanded:
            continue
        for e in sorted(set(subexpressions(exprs[a])) | set(subexpressions(exprs[b])),
                        key=render):
            k = intern(e)
            if k in seen:
                continue
            seen.add(k)
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
        expanded.add(a)
        expanded.add(b)

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
    from . import forge, submodel  # noqa: F401  register the forge:, axiom: and plan: checks
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
    r'^([0-9]+): (.*?) <= (.*?)  \[([^;\]]+); ([0-9, ]*); "(.*)"\]$')


def parse_trace(lines) -> list[TukeyFact]:
    """The facts of a rendered trace, without params.  Each distinct side
    text is parsed once per call, and every line that repeats it shares the
    one expression; a bad text fails at its first line."""
    out = []
    parsed: dict[str, SysExpr] = {}  # side text -> its expression
    for k, line in enumerate(lines):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        m = _TRACE_LINE.match(line)
        if m is None:
            raise ReplayError(f"trace line {k + 1} is malformed: {line!r}")
        fid, lhs, rhs, rule, prem, note = m.groups()
        if int(fid) != len(out):
            raise ReplayError(f"trace line {k + 1}: expected id {len(out)}, got {int(fid)}")
        premises = tuple(map(int, filter(None, prem.replace(" ", "").split(","))))
        sides = []
        for text in (lhs, rhs):
            e = parsed.get(text)
            if e is None:
                try:
                    e = parsed[text] = parse_expr(text)
                except ExprError as exc:
                    raise ReplayError(f"trace line {k + 1}: {exc}") from exc
            sides.append(e)
        out.append(TukeyFact(sides[0], sides[1], rule, premises, (), note))
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
