"""An independent oracle for the diagram layer on chain contexts.

`diagram.constellation` meets the harvested bounds of the six atoms with
the arrows of Cichon's diagram and the two equations, propagated to a
fixpoint.  The oracle restates those constraints here and solves them by
search: for each entry and each cardinal class in [aleph1, c] it looks
for one assignment of all eleven entries that meets every constraint.
The printed interval must run from the least to the greatest value found.

From the engine it takes only the harvested atom bounds
(`diagram.value_bounds`), which `scan_value_bounds` checks elsewhere.
The classes of a chain context are totally ordered, so each is a rank;
on a partial order the oracle would have to run over every linear
extension, which this file does not do.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, seed, settings

from cichon.builtins import BUILTINS
from cichon.cards import ALEPH1
from cichon.diagram import value_bounds
from cichon.forge import run_recipe, validate
from cichon.systems import IdealSys, Prs
from test_forge import _recipes

# the entries, in an order in which every arrow points forward
ORDER = ("addN", "covN", "addM", "b", "covM", "nonM", "d", "cofM", "nonN", "cofN", "c")

# x -> y: the entry x is <= the entry y
ARROWS = (("addN", "covN"), ("addN", "addM"), ("covN", "nonM"), ("addM", "covM"),
          ("addM", "b"), ("covM", "nonN"), ("covM", "d"), ("b", "nonM"), ("b", "d"),
          ("nonM", "cofM"), ("d", "cofM"), ("nonN", "cofN"), ("cofM", "cofN"),
          ("cofN", "c"))

# atom -> the entries its unbounding and its dominating number bound
ATOMS = ((Prs("Lc"), "addN", "cofN"), (Prs("Cn"), "covN", "nonN"),
         (Prs("ww"), "b", "d"), (Prs("Mg"), "nonM", "covM"),
         (IdealSys("N"), "addN", "cofN"), (IdealSys("M"), "addM", "cofM"))

SEED, DRAWS = 5, 500


def test_the_order_is_a_linear_extension_of_the_arrows():
    assert sorted(ORDER) == sorted({k for arrow in ARROWS for k in arrow})
    assert all(ORDER.index(x) < ORDER.index(y) for x, y in ARROWS)


def ranks(db) -> list[str]:
    """The canonical names of the classes in [aleph1, c], least first.
    Fails unless they form a chain."""
    ctx, c = db.ctx, db.c_name
    classes = {ctx.canon(n) for n in ctx.names
               if ctx.leq(ALEPH1, n) is True and ctx.leq(n, c) is True}
    below = {v: sum(ctx.leq(u, v) is True for u in classes) for v in classes}
    assert sorted(below.values()) == list(range(1, len(classes) + 1)), "not a chain"
    return sorted(classes, key=below.get)


def hulls(db) -> dict:
    """entry -> (least, greatest) value over all assignments that meet the
    harvested bounds, the arrows, the two equations and c = db.c_name."""
    ctx, rank = db.ctx, ranks(db)
    domain = {k: range(len(rank)) for k in ORDER}
    domain["c"] = [rank.index(ctx.canon(db.c_name))]
    for atom, b_entry, d_entry in ATOMS:
        for iv, k in zip(value_bounds(db, atom), (b_entry, d_entry)):
            domain[k] = [i for i in domain[k]
                         if (iv.lo is None or ctx.leq(iv.lo, rank[i]) is True)
                         and (iv.hi is None or ctx.leq(rank[i], iv.hi) is True)]
    below = {k: [x for x, y in ARROWS if y == k] for k in ORDER}

    def extends(val: dict, i: int) -> bool:
        if i == len(ORDER):
            return True
        k = ORDER[i]
        for v in domain[k]:
            if any(val[x] > v for x in below[k]):
                continue
            if k == "covM" and val["addM"] != min(val["b"], v):  # add(M) = min(b, cov(M))
                continue
            if k == "cofM" and v != max(val["d"], val["nonM"]):  # cof(M) = max(d, non(M))
                continue
            if extends({**val, k: v}, i + 1):
                return True
        return False

    out = {}
    for k in ORDER:
        kept = domain[k]
        feasible = []
        for v in kept:
            domain[k] = [v]
            if extends({}, 0):
                feasible.append(v)
        domain[k] = kept
        assert feasible, f"no assignment gives {k} a value"
        out[k] = (rank[min(feasible)], rank[max(feasible)])
    return out


def assert_matches_oracle(model):
    ctx = model.db.ctx
    for k, (lo, hi) in hulls(model.db).items():
        iv = model.constellation[k]
        assert iv.lo is not None and iv.hi is not None, (k, iv)
        assert ctx.same(iv.lo, lo) and ctx.same(iv.hi, hi), (k, str(iv), lo, hi)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_intervals_are_the_feasible_hulls(name):
    assert_matches_oracle(BUILTINS[name].derive())


def derivable_draws() -> list:
    """The recipes among DRAWS seeded draws of `test_forge._recipes` that
    `validate` accepts, with their contexts."""
    cases = []

    @seed(SEED)
    @settings(database=None, max_examples=DRAWS, phases=[Phase.generate], deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(_recipes())
    def collect(case):
        cases.append(case)

    collect()
    return [(ctx, r) for ctx, r in cases if validate(ctx, r) == []]


def test_random_recipe_intervals_are_the_feasible_hulls():
    draws = derivable_draws()
    assert len(draws) >= 100
    for ctx, r in draws:
        assert_matches_oracle(run_recipe(ctx, r))
