import random

import pytest
from hypothesis import HealthCheck, given, reject, settings

from cichon.builtins import BUILTINS
from cichon.cards import ALEPH1, ContextBuilder
from cichon.facts import (FactDB, ReplayError, base_facts, check_trace,
                          cideal_mono, close, parse_trace, seed_facts, verify)
from cichon.forge import MissingAssumption, run_recipe
from cichon.systems import (CIdeal, Card, CoverSys, Ideal, Ord, Prod, R1,
                            R2, R3, R4, dual, render)
from cichon import finite as fin
from test_forge import _recipes


def lam_ctx():
    return (ContextBuilder().card("lam", regular=True).lt(ALEPH1, "lam")
            .pow("lam", "aleph0").pow_lt("lam", ALEPH1).build())


def test_base_facts_reach_continuum():
    db = close(base_facts(lam_ctx(), "lam"))
    C = CIdeal("lam", ALEPH1)
    for r in (R1, R2, R3, R4):
        assert db.has(r, C)
        assert db.has(dual(C), dual(r))
    verify(db)


def test_every_seed_enters_the_base_database():
    from cichon.builtins import BUILTINS
    for name, b in BUILTINS.items():
        db = base_facts(b.ctx())
        seeds = seed_facts(b.ctx(), db.c_name)
        assert [(f.lhs, f.rhs, f.rule, f.params, f.note) for f in db.facts] == seeds, name


def test_forced_c_renames_continuum():
    db = base_facts(lam_ctx(), "lam")
    assert db.c_name == "lam"
    assert any(isinstance(f.rhs, CIdeal) and f.rhs.index == "lam" for f in db.facts)
    db_unforced = base_facts(lam_ctx(), None)
    assert db_unforced.c_name == "c"


def test_close_idempotent_and_monotone():
    db = base_facts(lam_ctx(), "lam")
    n0 = len(db.facts)
    close(db)
    pairs = db.pairs()
    assert len(pairs) >= n0
    close(db)
    assert db.pairs() == pairs


def test_equivalence_closure_bookkeeping():
    ctx = lam_ctx()
    db = base_facts(ctx, "lam")
    O = Card("lam")
    db.add(O, R4, "axiom:test", note="t")
    db.add(R4, O, "axiom:test", note="t")
    close(db)
    # symmetry artifacts: equivalence propagates through Mg's neighbors
    assert db.has(CoverSys("M"), O) and db.has(O, CoverSys("M"))


def test_card_embed_rule():
    b = ContextBuilder()
    for n in ("th", "mu", "lam"):
        b.card(n, regular=True)
    b.chain([ALEPH1, "th", "mu", "lam"], strict=True)
    ctx = b.build()
    db = FactDB(ctx, "lam")
    db.add(CIdeal("lam", "th"), R3, "axiom:test", note="t")
    close(db)
    for name in ("th", "mu", "lam"):
        assert db.has(Card(name), CIdeal("lam", "th"))
        assert db.has(Card(name), R3)  # via transitivity
    assert not db.has(Card(ALEPH1), CIdeal("lam", "th"))  # below theta


def test_ideal_collapse_needs_assumption():
    ctx1 = lam_ctx()  # declares pow_lt(lam, aleph1)
    db = FactDB(ctx1, "lam")
    db.add(R1, CIdeal("lam", ALEPH1), "axiom:test", note="t")
    close(db)
    assert db.has(CIdeal("lam", ALEPH1), Ideal("lam", ALEPH1))
    assert db.has(Ideal("lam", ALEPH1), CIdeal("lam", ALEPH1))

    ctx2 = (ContextBuilder().card("lam", regular=True).lt(ALEPH1, "lam")
            .pow("lam", "aleph0").build())
    db2 = FactDB(ctx2, "lam")
    db2.add(R1, CIdeal("lam", ALEPH1), "axiom:test", note="t")
    close(db2)
    assert not db2.has(CIdeal("lam", ALEPH1), Ideal("lam", ALEPH1))


def test_cideal_monotonicity():
    b = ContextBuilder()
    for n in ("th1", "th2", "lam"):
        b.card(n, regular=True)
    b.chain([ALEPH1, "th1", "th2", "lam"], strict=True)
    ctx = b.build()
    db = FactDB(ctx, "lam")
    small, large = CIdeal("lam", "th2"), CIdeal("lam", "th1")
    db.add(small, R1, "axiom:test", note="t")
    db.add(large, R2, "axiom:test", note="t")
    close(db)
    assert db.has(small, large)       # bigger theta embeds into smaller theta
    assert not db.has(large, small)


def test_ord_cofinality_rule():
    b = ContextBuilder()
    for n in ("lam4", "lam5"):
        b.card(n, regular=True)
    b.chain([ALEPH1, "lam4", "lam5"], strict=True)
    b.pow("lam5", "aleph0")
    ctx = b.build()
    db = FactDB(ctx, "lam5")
    O = Ord(("lam5", "lam4"))
    db.add(R4, O, "axiom:test", note="t")
    close(db)
    assert db.has(O, Card("lam4")) and db.has(Card("lam4"), O)
    assert db.has(R4, Card("lam4"))


def test_product_projections():
    b = ContextBuilder()
    for n in ("lam4", "lam5"):
        b.card(n, regular=True)
    b.chain([ALEPH1, "lam4", "lam5"], strict=True)
    b.pow("lam5", "aleph0")
    ctx = b.build()
    db = FactDB(ctx, "lam5")
    p = Prod((Card("lam5"), Card("lam4")))
    db.add(R4, p, "axiom:test", note="t")
    close(db)
    assert db.has(Card("lam5"), p) and db.has(Card("lam4"), p)


def test_replay_rejects_tampering():
    db = close(base_facts(lam_ctx(), "lam"))
    verify(db)
    # corrupt one derived fact's premises
    for i, f in enumerate(db.facts):
        if f.rule == "rule:trans":
            from cichon.facts import TukeyFact
            db.facts[i] = TukeyFact(f.lhs, f.rhs, f.rule, (0, 0), f.params, f.note)
            break
    with pytest.raises(ReplayError):
        verify(db)


def test_trace_lines_check():
    db = close(base_facts(lam_ctx(), "lam"))
    lines = db.trace_lines()
    assert check_trace(db.ctx, lines) == len(db.facts)
    # tamper with the conclusion of a structural derivation
    target = next(i for i, f in enumerate(db.facts) if f.rule == "rule:trans")
    lines[target] = lines[target].replace(" <= ", " <= dual(", 1).replace("  [", ")  [", 1)
    with pytest.raises(ReplayError):
        check_trace(db.ctx, lines)


# -- the kept renderings of trace_lines and the per-call table of parse_trace -

def _rendered(db):
    """The trace, rendered fact by fact with `systems.render`."""
    return [f'{i}: {render(f.lhs)} <= {render(f.rhs)}  '
            f'[{f.rule}; {",".join(str(p) for p in f.premises)}; "{f.note}"]'
            for i, f in enumerate(db.facts)]


def _check_trace_tables(db):
    lines = db.trace_lines()
    assert lines == _rendered(db)
    parsed = parse_trace(lines)
    assert ([(f.lhs, f.rhs, f.rule, f.premises, f.note) for f in parsed]
            == [(f.lhs, f.rhs, f.rule, f.premises, f.note) for f in db.facts])
    first = {}  # text -> the first expression parsed from it
    for f in parsed:
        for e in (f.lhs, f.rhs):
            assert first.setdefault(render(e), e) is e
    assert len(first) < 2 * len(parsed)


def test_parse_trace_reads_premise_lists():
    """Spaces and empty items between the commas are skipped."""
    lines = [f'{k}: Lc <= Cn  [seed:diagram; {prem}; "n"]'
             for k, prem in enumerate(("1, 2", "1,,2", "", " 3 "))]
    assert [f.premises for f in parse_trace(lines)] == [(1, 2), (1, 2), (), (3,)]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_trace_tables_match_the_per_fact_paths(name):
    _check_trace_tables(BUILTINS[name].derive().db)


# about two draws in three miss an assumption; 50 that derive are checked
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_recipes())
def test_trace_tables_match_the_per_fact_paths_on_random_recipes(case):
    ctx, r = case
    try:
        model = run_recipe(ctx, r)
    except MissingAssumption:
        reject()
    _check_trace_tables(model.db)


# -- finite-scale soundness of the structural rules -------------------------

def _finsys(rng, max_n=3):
    xs, ys = rng.randint(1, max_n), rng.randint(1, max_n)
    return fin.FinSys(xs, ys, tuple(rng.getrandbits(ys) for _ in range(xs)))


def test_rules_sound_at_finite_scale():
    rng = random.Random(21)
    checked_trans = checked_dual = checked_proj = 0
    for _ in range(120):
        A, B, C = _finsys(rng), _finsys(rng), _finsys(rng)
        m1 = fin.tukey_search(A, B)
        m2 = fin.tukey_search(B, C)
        if m1 is not None:
            assert fin.swap(m1).validates(fin.dual(B), fin.dual(A))
            checked_dual += 1
        if m1 is not None and m2 is not None:
            assert fin.compose(m1, m2).validates(A, C)
            checked_trans += 1
        # product projections always exist
        p = fin.product(A, B)
        proj_minus = tuple(x * B.x_size for x in range(A.x_size))
        proj_plus = tuple(y // B.y_size for y in range(p.y_size))
        assert fin.TukeyMorphism(proj_minus, proj_plus).validates(A, p)
        checked_proj += 1
    assert checked_trans > 5 and checked_dual > 10 and checked_proj == 120


def test_cideal_mono_sound_at_finite_scale():
    """`rule:cideal-mono` read on finite carriers: whenever the rule orders
    C[n<k] below C[n'<k'] for 2 <= k <= n <= 5, the exhaustive search finds
    a Tukey connection between the covering systems of [n]^{<k} and
    [n']^{<k'}.  Product b = min, the other rule with a finite reading, is
    acceptance criterion 2 (`test_criterion_2_product_laws`).

    `rule:card-embed`, `rule:ideal-collapse` and `rule:ord-cofinality` have
    no finite analogue: each speaks of infinite regular cardinals (a regular
    embedding below an ideal, |X|^{<theta} = |X|, the cofinality of a limit
    ordinal).  A finite linear order has a top element, so it is
    Tukey-equivalent to a point, and no finite system plays a regular
    cardinal."""
    b = ContextBuilder()
    names = {i: f"n{i}" for i in range(2, 6)}
    for name in names.values():
        b.card(name, regular=True)
    b.chain([ALEPH1, *names.values()], strict=True)
    ctx = b.build()
    shapes = [(n, k) for n in range(2, 6) for k in range(2, n + 1)]
    checked = 0
    for n, k in shapes:
        for n2, k2 in shapes:
            if not cideal_mono(ctx, CIdeal(names[n], names[k]), CIdeal(names[n2], names[k2])):
                continue
            R, R2 = fin.ideal_systems(n, k)[1], fin.ideal_systems(n2, k2)[1]
            found = fin.tukey_search(R, R2)
            assert found is not None and found.validates(R, R2), (n, k, n2, k2)
            checked += 1
    assert checked == sum(1 for n, k in shapes for n2, k2 in shapes
                          if k2 <= k and n <= n2)
