import re
from dataclasses import replace

import pytest

from cichon import forge
from cichon.builtins import FIG16_BOTTOM, builtin
from cichon.cards import CardContext
from cichon.diagram import check_assignment, pinned_values
from cichon.facts import verify
from cichon.forge import MissingAssumption
from cichon.submodel import (ChainSpec, Plan, PlanOrderViolation, SubmodelError,
                             SysState, Unpinned, format_tables, plan_diagnostics,
                             run_plan, run_steps, step)
from cichon.systems import Card, Prod, Prs


@pytest.fixture(scope="module")
def cmax():
    b = builtin("cichon_max")
    return b.ctx(), b.plan


@pytest.fixture(scope="module")
def result(cmax):
    ctx, plan = cmax
    return run_plan(ctx, plan)


def test_init_states(cmax):
    ctx, plan = cmax
    states = run_steps(ctx, plan).snapshots[0].states
    assert states[3] == SysState(frozenset({"th4", "thinf"}), "th4", "thinf")
    assert states[0].b == "th1" and states[0].d == "thinf"
    assert states[0].below == frozenset(ctx.regulars_between("th1", "thinf"))


def test_init_missing_theta_inf(cmax):
    ctx, plan = cmax
    bad = replace(plan, base=("th1", "th2", "th3", "th4", "nonexistent"))
    with pytest.raises(MissingAssumption, match="context does not declare nonexistent"):
        run_plan(ctx, bad)


def test_first_step_collapse(cmax):
    ctx, plan = cmax
    states = run_steps(ctx, plan).snapshots[0].states
    states, _ = step(states, plan.steps[0], ctx)
    for st in states:
        assert st.b == "lam4d" and st.d == "th4"
    assert states[3].below == frozenset({"th4", "lam4d"})


def test_second_step_product_pin(cmax):
    ctx, plan = cmax
    states = run_steps(ctx, plan).snapshots[0].states
    states, _ = step(states, plan.steps[0], ctx)
    states, notes = step(states, plan.steps[1], ctx)
    assert states[3] == SysState(frozenset({"lam4b", "lam4d"}), "lam4b", "lam4d")
    assert any("product bound" in n for n in notes)
    for i in range(3):
        assert states[i].b == "lam4b" and states[i].d == "th4m"


def test_smaller_systems_unchanged_later(cmax):
    ctx, plan = cmax
    states = run_steps(ctx, plan).snapshots[0].states
    states, _ = step(states, plan.steps[0], ctx)
    states, _ = step(states, plan.steps[1], ctx)
    frozen4 = states[3]
    states, _ = step(states, plan.steps[2], ctx)  # d-chain at level 3
    assert states[3] == frozen4


def test_tables_cell_for_cell(result, cmax):
    ctx, plan = cmax
    T = lambda *ns: frozenset(ns)
    scale = {i: T(*ctx.regulars_between(f"th{i}", "thinf")) for i in range(1, 5)}
    expected = {
        "start": [(scale[i], f"th{i}", "thinf") for i in (1, 2, 3, 4)],
        "1.1": [
            (T("th1", "th2m", "th2", "th3m", "th3", "th4m", "th4", "lam4d"), "lam4d", "th4"),
            (T("th2", "th3m", "th3", "th4m", "th4", "lam4d"), "lam4d", "th4"),
            (T("th3", "th4m", "th4", "lam4d"), "lam4d", "th4"),
            (T("th4", "lam4d"), "lam4d", "th4")],
        "1.2": [
            (T("th1", "th2m", "th2", "th3m", "th3", "th4m", "lam4b", "lam4d"), "lam4b", "th4m"),
            (T("th2", "th3m", "th3", "th4m", "lam4b", "lam4d"), "lam4b", "th4m"),
            (T("th3", "th4m", "lam4b", "lam4d"), "lam4b", "th4m"),
            (T("lam4b", "lam4d"), "lam4b", "lam4d")],
        "2.1": [
            (T("th1", "th2m", "th2", "th3m", "th3", "lam4b", "lam4d", "lam3d"), "lam4b", "th3"),
            (T("th2", "th3m", "th3", "lam4b", "lam4d", "lam3d"), "lam4b", "th3"),
            (T("th3", "lam4b", "lam4d", "lam3d"), "lam4b", "th3"),
            (T("lam4b", "lam4d"), "lam4b", "lam4d")],
        "2.2": [
            (T("th1", "th2m", "th2", "th3m", "lam3b", "lam4b", "lam4d", "lam3d"), "lam3b", "th3m"),
            (T("th2", "th3m", "lam3b", "lam4b", "lam4d", "lam3d"), "lam3b", "th3m"),
            (T("lam3b", "lam4b", "lam4d", "lam3d"), "lam3b", "lam3d"),
            (T("lam4b", "lam4d"), "lam4b", "lam4d")],
        "3.1": [
            (T("th1", "th2m", "th2", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"), "lam3b", "th2"),
            (T("th2", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"), "lam3b", "th2"),
            (T("lam3b", "lam4b", "lam4d", "lam3d"), "lam3b", "lam3d"),
            (T("lam4b", "lam4d"), "lam4b", "lam4d")],
        "3.2": [
            (T("th1", "th2m", "lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"), "lam2b", "th2m"),
            (T("lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"), "lam2b", "lam2d"),
            (T("lam3b", "lam4b", "lam4d", "lam3d"), "lam3b", "lam3d"),
            (T("lam4b", "lam4d"), "lam4b", "lam4d")],
        "4.1": [
            (T("th1", "lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d", "lam1d"), "lam2b", "th1"),
            (T("lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"), "lam2b", "lam2d"),
            (T("lam3b", "lam4b", "lam4d", "lam3d"), "lam3b", "lam3d"),
            (T("lam4b", "lam4d"), "lam4b", "lam4d")],
        "4.2": [
            (T("lam1b", "lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d", "lam1d"), "lam1b", "lam1d"),
            (T("lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"), "lam2b", "lam2d"),
            (T("lam3b", "lam4b", "lam4d", "lam3d"), "lam3b", "lam3d"),
            (T("lam4b", "lam4d"), "lam4b", "lam4d")],
    }
    expected["final"] = expected["4.2"]
    assert [s.label for s in result.log.snapshots] == [
        "start", "1.1", "1.2", "2.1", "2.2", "3.1", "3.2", "4.1", "4.2", "final"]
    for snap in result.log.snapshots:
        want = expected[snap.label]
        for i in (1, 2, 3, 4):
            below, bval, dval = want[i - 1]
            st = snap.states[i - 1]
            assert st.below == below, (snap.label, i)
            assert (st.b, st.d) == (bval, dval), (snap.label, i)


def test_product_bounds_recorded(result):
    lam = result.log.product_bounds
    assert set(lam) == {1, 2, 3, 4}
    assert lam[4] == Prod((Card("lam4d"), Card("lam4b")))
    assert lam[1].parts == tuple(
        Card(n) for n in ("lam1d", "lam1b", "lam2d", "lam2b",
                          "lam3d", "lam3b", "lam4d", "lam4b"))


def test_final_constellation_is_fig16_bottom(result, cmax):
    ctx, _ = cmax
    vals = pinned_values(result.constellation)
    assert vals == FIG16_BOTTOM
    assert check_assignment(ctx, vals) == []


def test_emitted_facts(result):
    db = result.db
    for i, atom in enumerate(("Lc", "Cn", "ww", "Mg"), start=1):
        assert db.has(Prs(atom), result.log.product_bounds[i])
        for j in range(i, 5):
            assert db.has(Card(f"lam{j}b"), Prs(atom))
            assert db.has(Card(f"lam{j}d"), Prs(atom))
    verify(db)


def test_run_deterministic(cmax, result):
    ctx, plan = cmax
    again = run_plan(ctx, plan)
    assert again.log.snapshots == result.log.snapshots
    assert again.db.pairs() == result.db.pairs()


def test_builtin_derive_runs_the_plan(cmax, result):
    model = builtin("cichon_max").derive()
    assert model.constellation == result.constellation
    assert model.db.pairs() == result.db.pairs()
    assert model.log.snapshots == result.log.snapshots
    assert model.trace == ()


def test_plan_checks_its_base_once(cmax, monkeypatch):
    ctx, plan = cmax
    gksmax = forge.AXIOMS["gksmax"]
    calls = []

    def counting(*args):
        calls.append(args)
        return gksmax.construct(*args)

    monkeypatch.setitem(forge.AXIOMS, "gksmax", replace(gksmax, construct=counting))
    model = run_plan(ctx, plan)
    assert len(calls) == 1
    verify(model.db)
    assert len(calls) == 2


def test_plan_order_violation(cmax):
    ctx, plan = cmax
    steps = list(plan.steps)
    steps[0], steps[1] = steps[1], steps[0]  # b-chain before d-chain
    bad = Plan(plan.name, plan.base, tuple(steps))
    with pytest.raises(PlanOrderViolation):
        run_plan(ctx, bad)


def test_plan_missing_assumption(cmax):
    _, plan = cmax
    decls = tuple(d for d in builtin("cichon_max").context if d != ("pow", "th4", "th4m"))
    ctx = CardContext(decls)
    with pytest.raises(MissingAssumption) as err:
        run_plan(ctx, plan)
    assert "pow(th4,th4m)" in str(err.value)


def test_widths_must_decrease(cmax):
    ctx, plan = cmax
    steps = list(plan.steps)
    s = steps[2]  # d-chain at level 3: widen it beyond level 4's width
    steps[2] = ChainSpec(s.kind, s.index, s.length, s.closure, "thinf")
    bad = Plan(plan.name, plan.base, tuple(steps))
    diags = plan_diagnostics(ctx, bad)
    assert any("strictly decrease" in d for d in diags)


def test_format_tables_layout(result, cmax):
    ctx, plan = cmax
    text = format_tables(ctx, plan, result.log)
    assert "-- start --" in text and "-- final --" in text
    assert "[th4,thinf]" in text           # interval rendering on the scale
    assert "lam4b, lam4d" in text          # targets listed individually
    assert "[th1,th2m]" in text


def test_below_set_legality(result, cmax):
    ctx, _ = cmax
    for snap in result.log.snapshots:
        for st in snap.states:
            st.check(ctx)
            assert ctx.min_of(st.below) == st.b
            assert ctx.max_of(st.below) == st.d


def test_plan_tolerates_aliased_targets():
    # (H1) only requires the targets to be non-decreasing: two chain lengths
    # declared equal (ordered both ways) must still pin
    decls = builtin("cichon_max").context
    fixed = []
    for d in decls:
        if d == ("lt", "lam3d", "lam2d"):
            fixed.append(("le", "lam3d", "lam2d"))
            fixed.append(("le", "lam2d", "lam3d"))
        else:
            fixed.append(d)
    ctx = CardContext(tuple(fixed))
    plan = builtin("cichon_max").plan
    result = run_plan(ctx, plan)
    st = result.log.snapshots[-1].states[1]  # system 2
    assert ctx.same(st.d, "lam2d")
    vals = pinned_values(result.constellation)
    assert ctx.same(vals["nonN"], "lam2d") and ctx.same(vals["d"], "lam3d")


# -- refusals of the plan engine ----------------------------------------------

@pytest.mark.parametrize("below,b,d,pos,message", [
    ({"th4", "thinf"}, "th4", "thinf", -1, "final width lamc does not dominate system 1 (d=thinf)"),
    ({"th4", "z"}, "th4", "thinf", 0, "cannot compare z with width th4"),
    # b sits below the chain length, so min(b, degree) misses min(below)
    ({"th4", "thinf"}, "lam1b", "thinf", 0,
     "system 1: b bounds do not meet (lower lam1b, upper lam4d)"),
    # thinf collapses onto lam4d, while d traces to th4 in the model; off the
    # b-step of system 1 no product bound closes the gap
    ({"thinf"}, "th4", "thinf", 0, "system 1: d bounds do not meet (lower lam4d, upper th4)"),
    ({"th4"}, "th4", "z", 0, "system 1: no minimum among"),
])
def test_step_refusals(cmax, below, b, d, pos, message):
    """Each way `step` refuses to pin a system, on hand-built states; z is
    a regular cardinal the context orders against nothing else."""
    _, plan = cmax
    ctx = CardContext(builtin("cichon_max").context + (("card", "z", True),))
    with pytest.raises(Unpinned, match=re.escape(message)):
        step([SysState(frozenset(below), b, d)] * 4, plan.steps[pos], ctx)


def test_sys_state_check(cmax):
    ctx, _ = cmax
    with pytest.raises(SubmodelError, match=r"below-cardinal th1 escapes \[th2,th3\]"):
        SysState(frozenset({"th1"}), "th2", "th3").check(ctx)
    with pytest.raises(SubmodelError, match="b=th3 above d=th2"):
        SysState(frozenset(), "th3", "th2").check(ctx)


@pytest.mark.parametrize("pos,field", [(-1, "width"), (0, "width"), (0, "length"),
                                       (3, "length"), (1, "closure"), (-1, "closure")])
def test_plan_undeclared_name(cmax, pos, field):
    """Every name a step holds is checked against the context before any
    step hypothesis reads it."""
    ctx, plan = cmax
    steps = list(plan.steps)
    steps[pos] = replace(steps[pos], **{field: "nowhere"})
    bad = replace(plan, steps=tuple(steps))
    assert plan_diagnostics(ctx, bad) == ["context does not declare nowhere"]
    with pytest.raises(MissingAssumption, match="context does not declare nowhere"):
        run_plan(ctx, bad)


@pytest.mark.parametrize("pos,change,message", [
    (-1, dict(closure="th1"), "final step must be sigma-closed (closure aleph1)"),
    (0, dict(length="lamc"), "chain length lamc must be regular uncountable"),
    (0, dict(length="thinf"), "chain length thinf must sit below the width th4"),
    (0, dict(closure="thinf"), "d-chain 4: closure thinf must be succ(th4m)"),
    (1, dict(closure="th3"), "b-chain 4: closure and width must both be theta^-"),
])
def test_plan_diagnostics_on_changed_steps(cmax, pos, change, message):
    ctx, plan = cmax
    steps = list(plan.steps)
    steps[pos] = replace(steps[pos], **change)
    bad = replace(plan, steps=tuple(steps))
    assert message in plan_diagnostics(ctx, bad)
    with pytest.raises(MissingAssumption, match=re.escape(message)):
        run_plan(ctx, bad)


@pytest.mark.parametrize("decl,message", [
    (("pow", "lamc", "aleph0"), "needs pow(lamc,aleph0)=lamc declared"),
    (("pow_lt", "th4m", "th4m"), "b-chain 4: needs pow_lt(th4m,th4m)=th4m"),
])
def test_plan_diagnostics_on_missing_assumptions(cmax, decl, message):
    _, plan = cmax
    decls = builtin("cichon_max").context
    assert decl in decls
    ctx = CardContext(tuple(d for d in decls if d != decl))
    assert plan_diagnostics(ctx, plan) == [message]
    with pytest.raises(MissingAssumption, match=re.escape(message)):
        run_plan(ctx, plan)


def test_product_bound_refusal(cmax):
    # the d-chain 1 length lam1d moves above th1 (under a new width w1), so
    # the b-step of level 1 collapses it out of system 1's below-set while
    # the product Lambda_1 still has it as its largest factor
    _, plan = cmax
    moved = (("lt", "lam2d", "lam1d"), ("lt", "lam1d", "lamc"))
    decls = tuple(d for d in builtin("cichon_max").context if d not in moved) + (
        ("card", "w1", True), ("lt", "lam2d", "lamc"), ("lt", "th1", "lam1d"),
        ("lt", "lam1d", "w1"), ("lt", "w1", "th2m"), ("pow", "w1", "th1m"))
    ctx = CardContext(decls)
    steps = list(plan.steps)
    steps[6] = replace(steps[6], width="w1")  # d-chain 1
    bad = replace(plan, steps=tuple(steps))
    assert plan_diagnostics(ctx, bad) == []
    with pytest.raises(Unpinned, match=re.escape(
            "product bound prod(lam1d,lam1b,lam2d,lam2b,lam3d,lam3b,lam4d,lam4b) "
            "gives (lam1b,lam1d), state has (lam1b,lam2d)")):
        run_plan(ctx, bad)
