"""`facts.close` against the plain worklist it replaces, and the index
`FactDB` keeps against a plain scan of its facts.

`reference_close` is the closure as it was written before it moved to
interned ids and bitmask rows: every candidate goes to `FactDB.add`, which
drops the duplicates.  The fast closure must give the same `db.facts`,
every field of every fact in the same order, and stay inside the bound
`close` states: `closure_universe` builds the set of expressions closing
may intern from the database before closing, independently of `close`.

`scan_value_bounds` is `diagram.value_bounds` as it was written before it
read the database's by-lhs/by-rhs lists: one scan of every fact per atom."""

import random
from collections import deque

import pytest
from hypothesis import given, settings

from cichon import facts, forge, submodel
from cichon.builtins import BUILTINS, builtin
from cichon.cards import ALEPH0, ALEPH1, CardContext
from cichon.diagram import (DiagramError, InconsistentBounds, Interval, _extreme,
                            intrinsic_bounds, value_bounds)
from cichon.facts import EXPR_RULES, FactDB, base_facts, cideal_mono, close
from cichon.systems import (CIdeal, Card, CoverSys, Dual, Ideal, IdealSys, Ord, Prod,
                            Prs, R3, dual, render, subexpressions)
from test_forge import _recipes


def reference_close(db: FactDB) -> FactDB:
    ctx = db.ctx
    by_lhs = {}
    by_rhs = {}
    seen_exprs = set()
    known_cideals = []  # (expr, witness fact id)
    queue = deque()

    def register(fid: int):
        f = db.facts[fid]
        by_lhs.setdefault(f.lhs, []).append(fid)
        by_rhs.setdefault(f.rhs, []).append(fid)
        queue.append(fid)

    def emit(lhs, rhs, rule, premises, note=""):
        if lhs == rhs:
            return
        fid = db.add(lhs, rhs, rule, premises, note=note)
        if fid is not None:
            register(fid)

    for fid in range(len(db.facts)):
        register(fid)

    mono_note = "small-subset covering systems are monotone in both parameters"
    while queue:
        i = queue.popleft()
        f = db.facts[i]

        emit(dual(f.rhs), dual(f.lhs), "rule:dual", (i,),
             note="a Tukey connection dualizes contravariantly")

        # compose with everything currently chaining through either side
        for j in list(by_lhs.get(f.rhs, ())):
            emit(f.lhs, db.facts[j].rhs, "rule:trans", (i, j),
                 note="Tukey connections compose")
        for j in list(by_rhs.get(f.lhs, ())):
            emit(db.facts[j].lhs, f.rhs, "rule:trans", (j, i),
                 note="Tukey connections compose")

        for e in sorted(set(subexpressions(f.lhs)) | set(subexpressions(f.rhs)),
                        key=render):
            if e in seen_exprs:
                continue
            seen_exprs.add(e)
            for rule, kind, conclude, note in EXPR_RULES:
                if isinstance(e, kind):
                    for lhs, rhs in conclude(ctx, e):
                        emit(lhs, rhs, rule, (i,), note=note)
            if isinstance(e, CIdeal):
                for other, wj in known_cideals:
                    if cideal_mono(ctx, e, other):
                        emit(e, other, "rule:cideal-mono", (i, wj), note=mono_note)
                    if cideal_mono(ctx, other, e):
                        emit(other, e, "rule:cideal-mono", (wj, i), note=mono_note)
                known_cideals.append((e, i))

    db.closed = True
    return db


def clone(db: FactDB) -> FactDB:
    out = FactDB(db.ctx, db.c_name)
    for f in db.facts:
        out.add(f.lhs, f.rhs, f.rule, f.premises, f.params, f.note)
    out.meta = dict(db.meta)
    return out


def closure_universe(db: FactDB) -> tuple[set, int]:
    """The expressions closing DB may intern, and the bound 2*(S + r + c)
    on their number: S subexpressions before closing, r regular names, c
    C-ideals among the S.  Built from the four steps that make a new
    expression, not from `close`."""
    ctx = db.ctx
    start = db.universe()
    regular = [mu for mu in ctx.names if ctx.is_regular(mu)]
    cideals = [e for e in start if isinstance(e, CIdeal)]
    allowed = (start | {Card(mu) for mu in regular}
               | {Ideal(e.index, e.theta) for e in cideals}
               | {Card(ctx.cf(e.factors)) for e in start if isinstance(e, Ord)})
    allowed |= {dual(e) for e in allowed}
    return allowed, 2 * (len(start) + len(regular) + len(cideals))


def assert_within_bound(db: FactDB):
    allowed, bound = closure_universe(db)
    close(db)
    assert sorted(map(render, set(db.exprs) - allowed)) == []
    assert len(db.exprs) <= bound


def assert_same(db: FactDB) -> list:
    """The facts of closing a copy, the same under both closures; the
    fast one stays inside the bound `close` states."""
    want, got = clone(db), clone(db)
    reference_close(want)
    assert_within_bound(got)
    assert got.facts == want.facts  # every field of every fact, in order
    assert got.closed and want.closed
    return want.facts


def caught_close(derive) -> FactDB:
    """The database DERIVE() hands to `close`, caught at the call."""
    caught = []

    def catch(db):
        caught.append(clone(db))
        return close(db)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forge, "close", catch)
        mp.setattr(submodel, "close", catch)
        derive()
    (db,) = caught
    return db


def pre_close(name: str) -> FactDB:
    """The database a builtin hands to `close`."""
    return caught_close(builtin(name).derive)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtins_match_reference(name):
    db = pre_close(name)
    assert len(assert_same(db)) > len(db.facts)


def chain_db(n: int) -> FactDB:
    """aleph1 < n0 < ... < n{n-1}, all regular; one C[n_k < n_{k//2}] fact
    per name, so card-embed and cideal-mono fire between every pair."""
    names = [f"n{k}" for k in range(n)]
    chain = [ALEPH1] + names
    ctx = CardContext([("card", nm, True) for nm in names]
                      + [("lt", a, b) for a, b in zip(chain, chain[1:])]
                      + [("pow_lt", names[k], names[k // 2]) for k in range(0, n, 3)])
    db = FactDB(ctx, names[-1])
    for k, nm in enumerate(names):
        db.add(CIdeal(nm, names[k // 2]), R3, "axiom:test", note="t")
    return db


@pytest.mark.parametrize("n", (10, 20, 40))
def test_chain_matches_reference(n):
    db = chain_db(n)
    rules = {f.rule for f in assert_same(db)}
    assert {"rule:card-embed", "rule:cideal-mono", "rule:ideal-collapse"} <= rules


def random_db(rng: random.Random) -> FactDB:
    n = rng.randint(2, 5)
    names = [f"m{k}" for k in range(n)]
    decls = [("card", nm, rng.random() < 0.7) for nm in names]
    chain = [ALEPH1] + names
    decls += [("lt", a, b) for a, b in zip(chain, chain[1:])]
    ctx_names = [ALEPH0, ALEPH1] + names
    for _ in range(rng.randint(0, 3)):
        lo, hi = sorted(rng.sample(range(len(ctx_names)), 2))
        decls.append(("pow_lt", ctx_names[hi], ctx_names[lo]))
    ctx = CardContext(decls)
    regular = [nm for nm in ctx_names if ctx.is_regular(nm)]

    def pair():
        lo, hi = sorted(rng.choices(range(len(ctx_names)), k=2))
        return ctx_names[hi], ctx_names[lo]

    def atom():
        kind = rng.randrange(7)
        if kind == 0:
            return Prs(rng.choice(("Lc", "Cn", "ww", "Mg")))
        if kind == 1:
            return IdealSys(rng.choice("MN"))
        if kind == 2:
            return CoverSys(rng.choice("MN"))
        if kind == 3:
            return CIdeal(*pair())
        if kind == 4:
            return Ideal(*pair())
        if kind == 5:
            return Card(rng.choice(regular))
        return Ord(tuple(rng.choices(regular, k=2)))

    def expr():
        e = atom()
        if rng.random() < 0.25:
            e = Prod(tuple(atom() for _ in range(rng.randint(2, 3))))
        return dual(e) if rng.random() < 0.3 else e

    db = base_facts(ctx, names[-1]) if rng.random() < 0.2 else FactDB(ctx, names[-1])
    for _ in range(rng.randint(1, 6)):
        lhs, rhs = expr(), expr()
        db.add(lhs, rhs, "axiom:test", note="t")
    return db


def test_random_databases_match_reference():
    rng = random.Random(5)
    rules: dict[str, int] = {}
    for _ in range(220):
        for f in assert_same(random_db(rng)):
            rules[f.rule] = rules.get(f.rule, 0) + 1
    for rule in ("rule:prod-proj", "rule:cideal-mono", "rule:card-embed",
                 "rule:ideal-collapse", "rule:ord-cofinality", "rule:trans", "rule:dual"):
        assert rules.get(rule, 0) >= 5, (rule, rules)


@settings(max_examples=100, deadline=None)
@given(_recipes())
def test_random_recipes_match_reference(case):
    ctx, r = case
    try:
        db = caught_close(lambda: forge.run_recipe(ctx, r))
    except forge.MissingAssumption:
        return
    assert_same(db)


def test_close_adds_each_fact_with_one_call(monkeypatch):
    """Deterministic cost guard: the closure offers `FactDB.add` only the
    facts it lacks, so a closed database costs no call at all."""
    db = pre_close("mod1")
    calls = []
    real_add = FactDB.add

    def counting_add(self, *args, **kwargs):
        calls.append(1)
        return real_add(self, *args, **kwargs)

    monkeypatch.setattr(FactDB, "add", counting_add)
    before = len(db.facts)
    close(db)
    assert len(calls) == len(db.facts) - before > 500
    calls.clear()
    close(db)
    assert calls == []


def test_derive_validates_each_interned_expression_once(monkeypatch):
    """Deterministic cost guard: `FactDB` validates an expression when it
    first interns it, and never again."""
    validated = []
    real = facts.validate_expr

    def counting(ctx, e):
        validated.append(e)
        return real(ctx, e)

    monkeypatch.setattr(facts, "validate_expr", counting)
    db = builtin("mod1").derive().db
    assert len(validated) == len(set(validated))
    assert set(validated) == set(db.exprs) and len(db.exprs) < len(db.facts)


# ---------------------------------------------------------------------------
# the index against a scan
# ---------------------------------------------------------------------------

def scan_value_bounds(db: FactDB, e):
    ctx = db.ctx
    direct = intrinsic_bounds(ctx, e)
    if direct is not None:
        return direct
    if isinstance(e, Dual):
        b, d = scan_value_bounds(db, e.arg)
        return d, b
    if not db.closed:
        raise DiagramError("value_bounds on atoms needs a closed database")

    b_lo, b_hi, d_lo, d_hi = [ALEPH1], [db.c_name], [ALEPH1], [db.c_name]
    for f in db.facts:
        if f.lhs == e:
            val = intrinsic_bounds(ctx, f.rhs)
            if val is not None:
                vb, vd = val
                if vb.lo is not None:
                    b_lo.append(vb.lo)
                if vd.hi is not None:
                    d_hi.append(vd.hi)
        if f.rhs == e:
            val = intrinsic_bounds(ctx, f.lhs)
            if val is not None:
                vb, vd = val
                if vb.hi is not None:
                    b_hi.append(vb.hi)
                if vd.lo is not None:
                    d_lo.append(vd.lo)
    b = Interval(_extreme(ctx, b_lo, upper=True), _extreme(ctx, b_hi, upper=False))
    d = Interval(_extreme(ctx, d_lo, upper=True), _extreme(ctx, d_hi, upper=False))
    for iv, what in ((b, "b"), (d, "d")):
        if iv.lo is not None and iv.hi is not None and ctx.leq(iv.lo, iv.hi) is False:
            raise InconsistentBounds(f"{what}({render(e)}) in {iv}")
    return b, d


ATOMS = (Prs("Lc"), Prs("Cn"), Prs("ww"), Prs("Mg"), IdealSys("N"), IdealSys("M"))


def outcome(fn, *args):
    try:
        return fn(*args)
    except DiagramError as exc:
        return type(exc), str(exc)


def assert_index_matches_scan(db: FactDB):
    keys = [f.key() for f in db.facts]
    pairs = set(keys)
    assert len(pairs) == len(keys)
    assert db.pairs() == pairs
    for fid, key in enumerate(keys):
        assert db.id_of(*key) == fid
    exprs = sorted(db.universe() | set(ATOMS), key=render)
    for x in exprs:
        for y in exprs:
            assert db.has(x, y) == ((x, y) in pairs)
    for x, y in [(e, e) for e in exprs] + [(rhs, lhs) for lhs, rhs in keys]:
        if (x, y) not in pairs:
            with pytest.raises(KeyError):
                db.id_of(x, y)
    for e in exprs:
        assert outcome(value_bounds, db, e) == outcome(scan_value_bounds, db, e), render(e)
    # a fact already present is refused, and nothing changes
    for f in list(db.facts):
        assert db.add(f.lhs, f.rhs, "axiom:again", note="again") is None
    assert [f.key() for f in db.facts] == keys


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_index_matches_scan(name):
    db = builtin(name).derive().db
    assert db.closed
    assert_index_matches_scan(db)


def test_random_index_matches_scan():
    rng = random.Random(5)
    for _ in range(220):
        db = random_db(rng)
        assert_index_matches_scan(db)
        close(db)
        assert_index_matches_scan(db)
