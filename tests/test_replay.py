"""Replay of every rule family: a wrong premise count or a corrupted
conclusion ends in ReplayError, from `verify` on a live database and, for
the rules a trace can re-derive alone, from `check_trace` on its rendering."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from cichon import forge
from cichon.builtins import BUILTINS, builtin
from cichon.cards import ALEPH1, CardContext
from cichon.facts import FactDB, ReplayError, check_trace, close, replays, verify
from cichon.systems import Card, Ideal, Prod, R4, dual

replays("axiom:test")(lambda ctx, facts, fid, f: None)


def derive(name):
    return builtin(name).derive().db


def prod_db():
    """No builtin records rule:prod-proj, so project out of a lone product."""
    ctx = CardContext([("card", "lam4", True), ("card", "lam5", True),
                       ("lt", ALEPH1, "lam4"), ("lt", "lam4", "lam5")])
    db = FactDB(ctx, "lam5")
    db.add(R4, Prod((Card("lam5"), Card("lam4"))), "axiom:test", note="t")
    return close(db)


def replace_fact(db, fid, **changes):
    db.facts[fid] = db.facts[fid]._replace(**changes)


# -- premise counts ----------------------------------------------------------

def _retrace(lines, rule, premises):
    """Rewrite the premises of the first trace line of `rule`."""
    k = next(k for k, ln in enumerate(lines) if f"[{rule}; " in ln)
    head, rest = lines[k].split(f"[{rule}; ", 1)
    lines[k] = f"{head}[{rule}; {premises}; {rest.split('; ', 1)[1]}"
    return lines


def test_trace_trans_with_one_premise():
    db = derive("mod1")
    lines = _retrace(db.trace_lines(), "rule:trans", "0")
    with pytest.raises(ReplayError, match="premises"):
        check_trace(db.ctx, lines)


def test_trace_card_embed_without_premises():
    db = derive("mod1")
    lines = _retrace(db.trace_lines(), "rule:card-embed", "")
    with pytest.raises(ReplayError, match="premises"):
        check_trace(db.ctx, lines)


def test_a_source_fact_cites_no_premises():
    """A seed fact that cites a premise fails on its count, in `verify` and
    in `check_trace`."""
    db = derive("mod1")
    lines = _retrace(db.trace_lines(), "seed:diagram", "0")
    with pytest.raises(ReplayError, match="seed:diagram cites 0 premises, not 1"):
        check_trace(db.ctx, lines)
    fid = next(i for i, f in enumerate(db.facts) if i and f.rule == "seed:diagram")
    replace_fact(db, fid, premises=(0,))
    with pytest.raises(ReplayError, match=rf"fact {fid}: seed:diagram cites 0 premises, not 1"):
        verify(db)


def test_check_trace_builds_no_database(monkeypatch):
    db = derive("mod1")
    lines, calls = db.trace_lines(), []
    init = FactDB.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)
    monkeypatch.setattr(FactDB, "__init__", counted)
    assert check_trace(db.ctx, lines) == len(db.facts)
    assert calls == []


def test_verify_trans_with_one_premise():
    db = derive("mod1")
    fid = next(i for i, f in enumerate(db.facts) if f.rule == "rule:trans")
    replace_fact(db, fid, premises=db.facts[fid].premises[:1])
    with pytest.raises(ReplayError, match="premises"):
        verify(db)


# -- a corrupted conclusion of the same shape, per rule family ---------------

def _card_side(f):
    return f.lhs if isinstance(f.lhs, Card) else f.rhs


def _aleph1_for_card_side(db, f):
    """Swap the cardinal side for aleph1, which lies below the theta of the
    premise's covering system, outside the product, or off the cofinality."""
    card = _card_side(f)
    if card == Card(ALEPH1):
        return None
    if f.rule == "forge:preEUB-card" and db.facts[f.premises[0]].lhs.theta == ALEPH1:
        return None
    return tuple(Card(ALEPH1) if e is card else e for e in (f.lhs, f.rhs))


def _card_below_theta(db, f):
    """Lower the cardinal to the largest regular below the covering
    system's theta, which the premise still mentions."""
    ctx, theta = db.ctx, f.rhs.theta
    below = [mu for mu in ctx.regulars_between(ALEPH1, theta) if ctx.lt(mu, theta)]
    return (Card(below[-1]), f.rhs) if below else None


def _ideal_theta(db, f):
    """Give the ideal side another theta than its covering system."""
    ideal = f.lhs if isinstance(f.lhs, Ideal) else f.rhs
    if ideal.theta == ALEPH1:
        return None
    other = Ideal(ideal.index, ALEPH1)
    return tuple(other if e is ideal else e for e in (f.lhs, f.rhs))


def _rhs_dual(db, f):
    return f.lhs, dual(f.rhs)


def _swap(db, f):
    return f.rhs, f.lhs


STRUCTURAL = [
    ("rule:trans", derive, "mod1", _rhs_dual),
    ("rule:dual", derive, "mod1", _rhs_dual),
    ("rule:prod-proj", lambda _: prod_db(), None, _aleph1_for_card_side),
    ("rule:card-embed", derive, "gksmax", _card_below_theta),
    ("rule:ideal-collapse", derive, "mod1", _ideal_theta),
    ("rule:cideal-mono", derive, "mod1", _swap),
    ("rule:ord-cofinality", derive, "mod1", _aleph1_for_card_side),
    ("forge:preEUB-card", derive, "mod1", _aleph1_for_card_side),
]

TRUSTED = [
    ("seed:diagram", "mod1"),
    ("seed:prs-equiv", "mod1"),
    ("seed:ideal-cover", "mod1"),
    ("seed:prs-meager", "mod1"),
    ("forge:fullgen", "mod1"),
    ("forge:fullgen-prs", "random"),
    ("forge:cohen-limit", "mod1"),
    ("forge:cohen-product", "cohen"),
    ("forge:itsmallsets", "mod1"),
    ("forge:preEUB", "mod1"),
    ("axiom:gksmax", "gksmax"),
    ("axiom:kst", "kst"),
    ("axiom:bcm", "bcm"),
    ("plan:product-bound", "cichon_max"),
    ("plan:regular-below", "cichon_max"),
]


def tamper(db, rule, corrupt):
    """Corrupt the conclusion of the first `rule` fact that `corrupt` turns
    into a pair the database does not hold."""
    for fid, f in enumerate(db.facts):
        if f.rule == rule:
            new = corrupt(db, f)
            if new is not None and not db.has(*new):
                replace_fact(db, fid, lhs=new[0], rhs=new[1])
                return fid
    raise AssertionError(f"no {rule} fact to tamper with")


@pytest.mark.parametrize("rule,make,name,corrupt", STRUCTURAL,
                         ids=[r for r, *_ in STRUCTURAL])
def test_structural_tampering_caught(rule, make, name, corrupt):
    db = make(name)
    verify(db)
    assert check_trace(db.ctx, db.trace_lines()) == len(db.facts)
    fid = tamper(db, rule, corrupt)
    with pytest.raises(ReplayError, match=rf"fact {fid}\b"):
        verify(db)
    with pytest.raises(ReplayError, match=rf"fact {fid}\b"):
        check_trace(db.ctx, db.trace_lines())


@pytest.mark.parametrize("rule,name", TRUSTED, ids=[r for r, _ in TRUSTED])
def test_trusted_tampering_caught_by_verify(rule, name):
    db = derive(name)
    verify(db)
    fid = tamper(db, rule, _rhs_dual)
    with pytest.raises(ReplayError, match=rf"fact {fid}\b"):
        verify(db)


def test_verify_needs_the_recipe():
    db = derive("mod1")
    del db.meta["recipe"]
    with pytest.raises(ReplayError, match="no recipe"):
        verify(db)


@pytest.mark.parametrize("name,source,change,msg", [
    ("mod1", "seed", lambda m: None, "database carries no seed"),
    ("gksmax", "axiom", lambda m: None, "database carries no axiom"),
    ("cichon_max", "plan", lambda m: None, "database carries no plan"),
    ("gksmax", "axiom", lambda m: (m[0], m[1][::-1]),
     "re-running the axiom fails: gksmax: need lam5 <= lam4"),
    ("kst", "axiom", lambda m: (m[0], m[1][:-1]),
     "re-running the axiom fails: kst takes 5 cardinals"),
    ("bcm", "axiom", lambda m: ("nope", m[1]),
     "re-running the axiom fails: unknown axiom model 'nope'"),
], ids=["no-seed", "no-axiom", "no-plan", "axiom-hypothesis", "axiom-arity",
        "axiom-name"])
def test_verify_rechecks_the_source(name, source, change, msg):
    """The recipe case is test_verify_needs_the_recipe and the ones below."""
    db = derive(name)
    verify(db)
    new = change(db.meta.pop(source))
    if new is not None:
        db.meta[source] = new
    with pytest.raises(ReplayError, match=re.escape(msg)):
        verify(db)


@pytest.mark.parametrize("name", ["gksmax", "kst", "bcm"])
def test_verify_runs_the_construction_once_per_call(monkeypatch, name):
    """One `verify` re-runs the axiom model once for all its facts."""
    db = derive(name)
    entry, calls = forge.AXIOMS[name], []

    def construct(ctx, cards):
        calls.append(cards)
        return entry.construct(ctx, cards)
    monkeypatch.setitem(forge.AXIOMS, name, dataclasses.replace(entry, construct=construct))
    verify(db)
    assert sum(f.rule == f"axiom:{name}" for f in db.facts) > 1
    assert calls == [db.meta["axiom"][1]]


def _nonesuch(line):
    """The trace line with its rule renamed to one that no table holds."""
    return re.sub(r"  \[[^;\]]+;", "  [rule:nonesuch;", line, count=1)


def test_a_rule_in_no_table_fails_replay():
    db = derive("mod1")
    lines = db.trace_lines()
    lines[-1] = _nonesuch(lines[-1])
    with pytest.raises(ReplayError, match=f"fact {len(lines) - 1}: unknown rule 'rule:nonesuch'"):
        check_trace(db.ctx, lines)
    replace_fact(db, len(db.facts) - 1, rule="rule:nonesuch")
    with pytest.raises(ReplayError, match="unknown rule 'rule:nonesuch'"):
        verify(db)


def test_a_fresh_replay_resolves_every_builtin_rule():
    """A fresh interpreter: `import cichon.finite` loads no other module, and
    `check_trace` with only `cards` and `facts` imported, then `verify` on
    the live databases, resolve every rule any builtin records, while a rule
    in no table still fails."""
    traces = {}
    for name in BUILTINS:
        db = derive(name)
        traces[name] = (db.ctx.declarations, db.trace_lines())
    code = """if True:
        import json, sys
        import cichon.finite
        loaded = sorted(m for m in sys.modules if m.startswith("cichon"))
        assert loaded == ["cichon", "cichon.finite"], loaded
        from cichon.cards import CardContext
        from cichon.facts import ReplayError, check_trace, verify
        assert "cichon.forge" not in sys.modules and "cichon.submodel" not in sys.modules
        for k, (name, (decls, lines)) in enumerate(json.load(sys.stdin).items()):
            ctx = CardContext([tuple(d) for d in decls])
            if k == 0:  # the first replay: the bad rule comes after every good one
                try:
                    check_trace(ctx, lines[:-1] + [sys.argv[1]])
                    raise AssertionError("a rule in no table replayed")
                except ReplayError as exc:
                    assert "unknown rule 'rule:nonesuch'" in str(exc), exc
            assert check_trace(ctx, lines) == len(lines), name
        from cichon.builtins import BUILTINS
        for name, b in BUILTINS.items():
            verify(b.derive().db)
    """
    first = next(iter(traces.values()))[1]
    src = os.path.dirname(os.path.dirname(os.path.abspath(forge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run([sys.executable, "-S", "-c", code, _nonesuch(first[-1])], env=env,
                       input=json.dumps(traces), capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr


def test_facts_loads_no_dataclasses():
    """A fresh interpreter: the fact layer and its expressions are built
    without `dataclasses`."""
    code = """if True:
        import sys
        import cichon.facts
        loaded = sorted(m for m in sys.modules if m.startswith("cichon"))
        assert loaded == ["cichon", "cichon.cards", "cichon.facts", "cichon.systems"], loaded
        assert "dataclasses" not in sys.modules
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(forge.__file__)))
    p = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr


def test_verify_rechecks_the_plan_hypotheses():
    db = derive("cichon_max")
    verify(db)
    plan = db.meta["plan"]
    final = dataclasses.replace(plan.steps[-1], closure=plan.steps[0].closure)
    db.meta["plan"] = dataclasses.replace(plan, steps=plan.steps[:-1] + (final,))
    with pytest.raises(ReplayError, match="sigma-closed"):
        verify(db)


def test_verify_rechecks_the_recipe_hypotheses():
    """A bookkeeping slot whose class adds no Lc-dominating reals: itsmallsets
    refuses it, so the replay of the recipe's facts does too."""
    from cichon.forge import iterand
    db = derive("mod1")
    verify(db)
    recipe = db.meta["recipe"]
    slots = tuple(dataclasses.replace(s, iterand=iterand("random_sub", "lam1"))
                  if s.bookkeeping == ("Lc", "lam1") else s for s in recipe.slots)
    db.meta["recipe"] = dataclasses.replace(recipe, slots=slots)
    with pytest.raises(ReplayError, match="Lc-dominating"):
        verify(db)


def test_verify_rechecks_the_recipe_wide_hypotheses():
    """The hechler recipe applied rule by rule in a context that does not
    declare pow(lam,aleph0), so the continuum is not forced to lam."""
    from cichon.facts import base_facts
    from cichon.forge import cohen_limit, fullgen, preEUB
    from cichon.systems import Prs
    ctx = CardContext([("card", "lam", True), ("lt", ALEPH1, "lam")])
    r = builtin("hechler").recipe
    db = base_facts(ctx, "lam")
    db.meta["recipe"] = r
    for conclusions, params in ((cohen_limit(ctx, r), ()),
                                (fullgen(ctx, r, Prs("ww")), ("ww",)),
                                (preEUB(ctx, r, Prs("Cn"), ALEPH1), ("Cn", ALEPH1))):
        for lhs, rhs, rule, note in conclusions:
            db.add(lhs, rhs, rule, (), params, note)
    close(db)
    with pytest.raises(ReplayError, match=r"pow\(lam,aleph0\)"):
        verify(db)


# -- a malformed trace ends in ReplayError -----------------------------------

@pytest.mark.parametrize("rule,old,new,where", [
    ("rule:card-embed", "C[lam5<aleph1]", "C[zzz<aleph1]", "fact"),   # undeclared name
    ("seed:diagram", "idl(N)", "idl(Q)", "trace line"),               # unknown ideal
    ("seed:diagram", "C[lam5<aleph1]", "C[lam1<lam5]", "fact"),       # theta above index
    ("seed:diagram", "C[lam5<aleph1]", "C[zzz<aleph1]", "fact"),      # undeclared, in a source fact
], ids=["undeclared-cardinal", "unknown-ideal", "theta-above-index",
        "undeclared-cardinal-in-source"])
def test_check_trace_bad_expression(rule, old, new, where):
    db = derive("mod1")
    lines = db.trace_lines()
    k = next(k for k, ln in enumerate(lines) if f"[{rule}; " in ln and old in ln)
    lines[k] = lines[k].replace(old, new, 1)
    number = k + 1 if where == "trace line" else k
    with pytest.raises(ReplayError, match=rf"^{where} {number}:"):
        check_trace(db.ctx, lines)


def test_check_trace_fact_ids_take_ascii_digits_only():
    db = derive("cohen")
    lines = db.trace_lines()
    lines[0] = "\u0660" + lines[0][1:]  # ARABIC-INDIC DIGIT ZERO for the id 0
    with pytest.raises(ReplayError, match=r"^trace line 1 is malformed"):
        check_trace(db.ctx, lines)
