"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All comparisons are exact (integer or symbolic equality); every runtime
budget is asserted, not just measured.
"""

import random
import time

from cichon import finite as fin
from cichon.builtins import FIG16_BOTTOM, builtin
from cichon.diagram import check_assignment, pinned_values
from cichon.facts import check_trace, verify
from cichon.submodel import run_plan
from cichon.systems import CIdeal, Card, Ideal, Prs

WARMUPS = ("cohen", "random", "evdiff", "hechler", "loc")
MODS = ("mod1", "mod2", "mod3", "mod5")


def _report(num: int, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {num}: {detail}"


def _derive(name):
    return builtin(name).derive()


def _plan_result():
    b = builtin("cichon_max")
    return b.ctx(), run_plan(b.ctx(), b.plan)


def rand_system(rng, max_x, max_y):
    xs, ys = rng.randint(1, max_x), rng.randint(1, max_y)
    return fin.FinSys(xs, ys, tuple(rng.getrandbits(ys) for _ in range(xs)))


def test_criterion_1_duality():
    t0 = time.time()
    rng = random.Random(20240101)
    top_cases = 0
    for _ in range(500):
        R = rand_system(rng, 6, 6)
        assert fin.b_num(fin.dual(R)) == fin.d_num(R)
        assert fin.d_num(fin.dual(R)) == fin.b_num(R)
        if fin.b_num(R) == fin.TOP or fin.d_num(R) == fin.TOP:
            top_cases += 1
    elapsed = time.time() - t0
    _report(1, elapsed < 10 and top_cases > 0,
            f"duality identities on 500 systems ({top_cases} with TOP)", elapsed)


def test_criterion_2_product_laws():
    t0 = time.time()
    rng = random.Random(20240202)
    for _ in range(200):
        R, R2 = rand_system(rng, 4, 4), rand_system(rng, 4, 4)
        p = fin.product(R, R2)
        assert fin.b_num(p) == min(fin.b_num(R), fin.b_num(R2))
        d, d1, d2 = fin.d_num(p), fin.d_num(R), fin.d_num(R2)
        assert max(d1, d2) <= d <= d1 * d2
    elapsed = time.time() - t0
    _report(2, elapsed < 30, "product laws on 200 pairs", elapsed)


def _fixed_enumeration():
    """A fixed 10-system family with |X|,|Y| <= 3; all 100 ordered pairs."""
    mats = [
        [[1]],
        [[0]],
        [[1, 0], [0, 1]],
        [[1, 1], [0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 1], [1, 1, 0], [0, 1, 1]],
        [[1, 1], [1, 0], [0, 1]],
        [[1, 0, 1], [0, 1, 0]],
        [[1, 1, 0]],
    ]
    family = [fin.FinSys.from_matrix(m) for m in mats]
    return [(a, b) for a in family for b in family]


def test_criterion_3_monotonicity_and_dual_connections():
    t0 = time.time()
    pairs = _fixed_enumeration()
    assert len(pairs) == 100
    found = 0
    for R, R2 in pairs:
        m = fin.tukey_search(R, R2)
        if m is None:
            continue
        found += 1
        assert m.validates(R, R2)
        assert fin.b_num(R2) <= fin.b_num(R)
        assert fin.d_num(R) <= fin.d_num(R2)
        assert fin.swap(m).validates(fin.dual(R2), fin.dual(R))
    elapsed = time.time() - t0
    _report(3, elapsed < 60 and found > 10,
            f"monotonicity + dual connections, {found}/100 pairs connected", elapsed)


def test_criterion_4_small_bounded_characterization():
    t0 = time.time()
    rng = random.Random(20240404)
    agree = 0
    for _ in range(50):
        ys = rng.randint(1, 3)
        R = fin.FinSys(4, ys, tuple(rng.getrandbits(ys) for _ in range(4)))
        for k in (2, 3):
            _, c_sys = fin.ideal_systems(4, k)
            found = fin.tukey_search(R, c_sys)
            assert (found is not None) == fin.bounded_below(R, k)
            agree += 1
    elapsed = time.time() - t0
    _report(4, elapsed < 120 and agree == 100,
            "search into C_[4]^{<k} iff every small set bounded (100 checks)",
            elapsed)


WARMUP_FIGURES = {
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


def test_criterion_5_warmup_constellations():
    worst = 0.0
    for name in WARMUPS:
        t0 = time.time()
        model = _derive(name)
        dt = time.time() - t0
        worst = max(worst, dt)
        assert pinned_values(model.constellation) == WARMUP_FIGURES[name], name
        assert dt < 1.0, f"{name} took {dt:.2f}s"
    _report(5, True, "warm-up recipes match the five figure constellations",
            worst)


MOD_FIGURES = {
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

# (a)/(b)-style conclusion facts, as normalized expressions: every pair is
# required in both directions (Tukey equivalence is stored directed)
MOD_CONCLUSIONS = {
    "mod1": [(Prs(a), CIdeal("lam5", f"lam{i}")) for i, a in ((1, "Lc"), (2, "Cn"), (3, "ww"))]
          + [(Prs(a), Ideal("lam5", f"lam{i}")) for i, a in ((1, "Lc"), (2, "Cn"), (3, "ww"))]
          + [(Prs("Mg"), Card("lam4"))],
    "mod2": [(Prs(a), CIdeal("lam4", f"lam{i}")) for i, a in ((1, "Lc"), (2, "Cn"), (3, "ww"))]
          + [(Prs(a), Ideal("lam4", f"lam{i}")) for i, a in ((1, "Lc"), (2, "Cn"), (3, "ww"))]
          + [(Prs("Mg"), Prs("ww")), (Prs("Mg"), CIdeal("lam4", "lam3")),
             (Prs("Mg"), Ideal("lam4", "lam3"))],
    "mod3": [(Prs("Lc"), CIdeal("lam4", "lam1")), (Prs("Lc"), Ideal("lam4", "lam1")),
             (Prs("ww"), CIdeal("lam4", "lam2")), (Prs("ww"), Ideal("lam4", "lam2")),
             (Prs("Cn"), Card("lam3")), (Prs("Mg"), Card("lam3")),
             (Prs("Cn"), Prs("Mg"))],
    "mod5": [(Prs("Lc"), CIdeal("lam4", "lam1")), (Prs("Lc"), Ideal("lam4", "lam1")),
             (Prs("Cn"), CIdeal("lam4", "lam2")), (Prs("Cn"), Ideal("lam4", "lam2")),
             (Prs("ww"), Card("lam3")), (Prs("Mg"), Card("lam3")),
             (Prs("ww"), Prs("Mg"))],
}


def test_criterion_6_mod_theorems():
    worst = 0.0
    for name in MODS:
        t0 = time.time()
        model = _derive(name)
        dt = time.time() - t0
        worst = max(worst, dt)
        assert pinned_values(model.constellation) == MOD_FIGURES[name], name
        for lhs, rhs in MOD_CONCLUSIONS[name]:
            assert model.db.has(lhs, rhs), (name, lhs, rhs)
            assert model.db.has(rhs, lhs), (name, rhs, lhs)
        assert dt < 1.0, f"{name} took {dt:.2f}s"
    _report(6, True,
            "mod1/mod2/mod3/mod5 derive their conclusions verbatim and pin the figures",
            worst)


EXPECTED_TABLES = {
    "start": [
        ({"th1", "th2m", "th2", "th3m", "th3", "th4m", "th4", "thinf"}, "th1", "thinf"),
        ({"th2", "th3m", "th3", "th4m", "th4", "thinf"}, "th2", "thinf"),
        ({"th3", "th4m", "th4", "thinf"}, "th3", "thinf"),
        ({"th4", "thinf"}, "th4", "thinf")],
    "1.1": [
        ({"th1", "th2m", "th2", "th3m", "th3", "th4m", "th4", "lam4d"}, "lam4d", "th4"),
        ({"th2", "th3m", "th3", "th4m", "th4", "lam4d"}, "lam4d", "th4"),
        ({"th3", "th4m", "th4", "lam4d"}, "lam4d", "th4"),
        ({"th4", "lam4d"}, "lam4d", "th4")],
    "1.2": [
        ({"th1", "th2m", "th2", "th3m", "th3", "th4m", "lam4b", "lam4d"}, "lam4b", "th4m"),
        ({"th2", "th3m", "th3", "th4m", "lam4b", "lam4d"}, "lam4b", "th4m"),
        ({"th3", "th4m", "lam4b", "lam4d"}, "lam4b", "th4m"),
        ({"lam4b", "lam4d"}, "lam4b", "lam4d")],
    "2.1": [
        ({"th1", "th2m", "th2", "th3m", "th3", "lam4b", "lam4d", "lam3d"}, "lam4b", "th3"),
        ({"th2", "th3m", "th3", "lam4b", "lam4d", "lam3d"}, "lam4b", "th3"),
        ({"th3", "lam4b", "lam4d", "lam3d"}, "lam4b", "th3"),
        ({"lam4b", "lam4d"}, "lam4b", "lam4d")],
    "2.2": [
        ({"th1", "th2m", "th2", "th3m", "lam3b", "lam4b", "lam4d", "lam3d"}, "lam3b", "th3m"),
        ({"th2", "th3m", "lam3b", "lam4b", "lam4d", "lam3d"}, "lam3b", "th3m"),
        ({"lam3b", "lam4b", "lam4d", "lam3d"}, "lam3b", "lam3d"),
        ({"lam4b", "lam4d"}, "lam4b", "lam4d")],
    "3.1": [
        ({"th1", "th2m", "th2", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"}, "lam3b", "th2"),
        ({"th2", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"}, "lam3b", "th2"),
        ({"lam3b", "lam4b", "lam4d", "lam3d"}, "lam3b", "lam3d"),
        ({"lam4b", "lam4d"}, "lam4b", "lam4d")],
    "3.2": [
        ({"th1", "th2m", "lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"}, "lam2b", "th2m"),
        ({"lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"}, "lam2b", "lam2d"),
        ({"lam3b", "lam4b", "lam4d", "lam3d"}, "lam3b", "lam3d"),
        ({"lam4b", "lam4d"}, "lam4b", "lam4d")],
    "4.1": [
        ({"th1", "lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d", "lam1d"}, "lam2b", "th1"),
        ({"lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"}, "lam2b", "lam2d"),
        ({"lam3b", "lam4b", "lam4d", "lam3d"}, "lam3b", "lam3d"),
        ({"lam4b", "lam4d"}, "lam4b", "lam4d")],
    "4.2": [
        ({"lam1b", "lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d", "lam1d"}, "lam1b", "lam1d"),
        ({"lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d"}, "lam2b", "lam2d"),
        ({"lam3b", "lam4b", "lam4d", "lam3d"}, "lam3b", "lam3d"),
        ({"lam4b", "lam4d"}, "lam4b", "lam4d")],
}
EXPECTED_TABLES["final"] = EXPECTED_TABLES["4.2"]


def test_criterion_7_intersection_pipeline():
    t0 = time.time()
    ctx, result = _plan_result()
    elapsed = time.time() - t0
    labels = [s.label for s in result.log.snapshots]
    assert labels == ["start", "1.1", "1.2", "2.1", "2.2",
                      "3.1", "3.2", "4.1", "4.2", "final"]
    for snap in result.log.snapshots:
        # rows are systems 1..4; EXPECTED_TABLES stores them 1-first
        for i in (1, 2, 3, 4):
            below, b, d = EXPECTED_TABLES[snap.label][i - 1]
            st = snap.states[i - 1]
            assert st.below == frozenset(below), (snap.label, i)
            assert (st.b, st.d) == (b, d), (snap.label, i)
    assert pinned_values(result.constellation) == FIG16_BOTTOM
    for i in range(1, 5):
        lam = result.log.product_bounds[i]
        want = tuple(Card(f"lam{j}{s}") for j in range(i, 5) for s in ("d", "b"))
        assert lam.parts == want, i
        assert result.db.has(Prs(("Lc", "Cn", "ww", "Mg")[i - 1]), lam)
    _report(7, elapsed < 1.0,
            "all 9 intersection tables cell-for-cell, bottom row pinned, "
            "product bounds recorded", elapsed)


def test_criterion_8_constraint_checker():
    t0 = time.time()
    # accepts every pinned constellation from criteria 5-7
    for name in WARMUPS + MODS:
        b = builtin(name)
        vals = pinned_values(b.derive().constellation)
        assert check_assignment(b.ctx(), vals) == [], name
    ctx, result = _plan_result()
    vals = pinned_values(result.constellation)
    assert check_assignment(ctx, vals) == []

    # five targeted violations, one per constraint family
    cases = [
        ("arrow", dict(FIG16_BOTTOM, covN="lam1d")),       # cov(N) > non(M)
        ("equation", dict(FIG16_BOTTOM, addM="lam1b")),    # add(M) != min
        ("equation", dict(FIG16_BOTTOM, cofM="lam1d")),    # cof(M) != max
        ("floor", dict(FIG16_BOTTOM, addN="aleph0")),      # below aleph1
        ("ceiling", dict(FIG16_BOTTOM, cofN="th1m")),      # above c
    ]
    for kind, assignment in cases:
        violations = check_assignment(ctx, assignment)
        assert violations, kind
        assert any(v.kind == kind for v in violations), (kind, violations)
    elapsed = time.time() - t0
    _report(8, True, "checker accepts criteria 5-7 and rejects 5 violations "
            "with correct identification", elapsed)


def test_criterion_9_trace_integrity():
    t0 = time.time()
    total = 0
    for name in WARMUPS + MODS:
        model = _derive(name)
        verify(model.db)
        total += check_trace(model.db.ctx, model.db.trace_lines())
    ctx, result = _plan_result()
    verify(result.db)
    total += check_trace(ctx, result.db.trace_lines())
    elapsed = time.time() - t0
    _report(9, total > 0, f"replayed {total} justifications across criteria 5-7",
            elapsed)
