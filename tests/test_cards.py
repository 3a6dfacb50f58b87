import random

import pytest

from cichon.cards import (ALEPH0, ALEPH1, CONTINUUM, BadSuccessor, CardContext,
                          DuplicateName, IncomparableFactors, IncomparableNames,
                          NonRegularFactor, OrderCycle, UnknownName)


def section5_ctx():
    lams = ["lam1b", "lam2b", "lam3b", "lam4b", "lam4d", "lam3d", "lam2d", "lam1d"]
    thetas = ["th1m", "th1", "th2m", "th2", "th3m", "th3", "th4m", "th4", "thinf"]
    chain = [ALEPH1] + lams + ["lamc"] + thetas
    return CardContext([("card", n, True) for n in lams] + [("card", "lamc", False)]
                       + [("card", n, True) for n in thetas]
                       + [("lt", a, b) for a, b in zip(chain, chain[1:])])


def test_two_element_chain():
    ctx = CardContext([("card", "lam", True), ("le", ALEPH1, "lam")])
    assert ctx.leq(ALEPH1, "lam") is True
    assert ctx.is_regular("lam")


def test_aleph0_aleph1_always_present():
    ctx = CardContext([])
    assert ctx.leq(ALEPH0, ALEPH1) is True
    assert ctx.lt(ALEPH0, ALEPH1) is True
    assert ctx.is_regular(ALEPH1)


def test_section5_chain_accepted():
    ctx = section5_ctx()
    assert ctx.leq("lam1b", "lamc") is True
    assert ctx.leq("th1", "lamc") is False   # increasing past lamc
    assert ctx.lt("lamc", "th1m") is True


def test_reflexivity_and_unknown():
    ctx = CardContext([("card", "a", False), ("card", "b", False)])
    assert ctx.leq("a", "a") is True
    assert ctx.leq("a", "b") is None


def test_order_cycle_rejected():
    with pytest.raises(OrderCycle):
        CardContext([("card", "a", False), ("card", "b", False),
                     ("le", "a", "b"), ("lt", "b", "a")])


def test_nonstrict_cycle_allowed_as_alias():
    ctx = CardContext([("card", "a", False), ("card", "b", False),
                       ("le", "a", "b"), ("le", "b", "a")])
    assert ctx.leq("a", "b") is True and ctx.leq("b", "a") is True


def test_duplicate_name():
    with pytest.raises(DuplicateName):
        CardContext([("card", "a", False), ("card", "a", False)])


def test_successor_is_enforced():
    def ctx(succs, *more):
        return CardContext([("card", n, True) for n in ("a", "b", "x")]
                           + [("lt", ALEPH1, "a"), ("le", "b", "x")]
                           + [("succ", "a", target) for target in succs] + list(more))
    # a second successor strictly above the first
    with pytest.raises(BadSuccessor, match="succ.a. is declared as both b and x"):
        ctx(("b", "x"), ("lt", "b", "x"))
    # a second successor equal to the first as a cardinal is the same claim
    same = ctx(("b", "x"), ("le", "x", "b"))
    assert same.succ_of("a") == "b" and same.same("b", "x")
    # a declared name strictly between a and a^+
    with pytest.raises(BadSuccessor, match="b lies strictly between a and succ.a.=x"):
        ctx(("x",), ("lt", "a", "b"), ("lt", "b", "x"))
    # merely below the successor is no contradiction
    assert ctx(("x",), ("le", "b", "x")).succ_of("a") == "x"


def test_unknown_name():
    ctx = CardContext([])
    with pytest.raises(UnknownName):
        ctx.leq("nope", ALEPH1)


def test_preorder_random_triples():
    ctx = section5_ctx()
    names = ctx.names
    import random
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.choice(names) for _ in range(3))
        assert ctx.leq(a, a) is True
        if ctx.leq(a, b) is True and ctx.leq(b, c) is True:
            assert ctx.leq(a, c) is True


def test_cf_and_card_of_products():
    ctx = CardContext([("card", "lam4", True), ("card", "lam5", True),
                       ("le", "lam4", "lam5")])
    e = ctx.ordinal(["lam5", "lam4"])
    assert ctx.cf(e) == "lam4"
    assert ctx.card(e) == "lam5"
    single = ctx.ordinal(["lam5"])
    assert ctx.cf(single) == "lam5" == ctx.card(single)
    e2 = ctx.ordinal(["lam4", "lam5"])
    assert ctx.cf(e2) == "lam5"
    assert ctx.card(e2) == "lam5"
    # cf <= card always
    for expr in (e, single, e2):
        assert ctx.leq(ctx.cf(expr), ctx.card(expr)) is True


def test_ordinal_rejects_nonregular():
    ctx = CardContext([("card", "mu", False)])
    with pytest.raises(NonRegularFactor):
        ctx.ordinal(["mu"])


def test_card_incomparable_factors():
    ctx = CardContext([("card", "a", True), ("card", "b", True)])
    with pytest.raises(IncomparableFactors):
        ctx.card(ctx.ordinal(["a", "b"]))


def test_trace_is_min():
    ctx = section5_ctx()
    assert ctx.trace("thinf", "th4") == "th4"
    assert ctx.trace("lam4d", "th3") == "lam4d"
    assert ctx.trace("th2", "th2") == "th2"
    with pytest.raises(IncomparableNames):
        CardContext([("card", "a", False), ("card", "b", False)]).trace("a", "b")


def test_trace_bounds_property():
    ctx = section5_ctx()
    import random
    rng = random.Random(11)
    for _ in range(100):
        mu, th = rng.choice(ctx.names), rng.choice(ctx.names)
        if ctx.leq(mu, th) is None and ctx.leq(th, mu) is None:
            continue
        t = ctx.trace(mu, th)
        assert ctx.leq(t, mu) is True and ctx.leq(t, th) is True
        assert (t == mu) == (ctx.leq(mu, th) is True)


def test_assumption_weakening():
    ctx = CardContext([("card", "lam3", True), ("card", "lam5", True),
                       ("lt", ALEPH1, "lam3"), ("lt", "lam3", "lam5"),
                       ("pow_lt", "lam5", "lam3")])
    assert ctx.has_pow_lt("lam5", "lam3")
    assert ctx.has_pow_lt("lam5", ALEPH1)       # weaker exponent
    assert not ctx.has_pow_lt("lam5", "lam5")   # stronger exponent
    assert ctx.has_pow("lam5", ALEPH1)          # aleph0 < aleph1 <= lam3
    assert ctx.has_pow("lam5", ALEPH0)


def test_regulars_between_and_sorting():
    ctx = section5_ctx()
    assert ctx.regulars_between("th4", "thinf") == ["th4", "thinf"]
    assert ctx.regulars_between("th3", "thinf") == ["th3", "th4m", "th4", "thinf"]
    shuffled = ["th4", "lam1b", "thinf", "lam4d"]
    assert ctx.sorted_names(shuffled) == ["lam1b", "lam4d", "th4", "thinf"]


# -- reference: the pair-set closure the context used before its bitmask rows --

def _close(names, edges):
    reach = {(n, n) for n in names}
    reach.update(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(reach):
            for (c, d) in list(reach):
                if b == c and (a, d) not in reach:
                    reach.add((a, d))
                    changed = True
    return frozenset(reach)


def _strict_close(names, le_edges, lt_edges):
    le = _close(names, le_edges)
    strict = set()
    for (u, v) in lt_edges:
        for a in names:
            for b in names:
                if (a, u) in le and (v, b) in le:
                    strict.add((a, b))
    return frozenset(strict)


class _Reference:
    """Every order query answered by scanning pair sets."""

    def __init__(self, decls):
        builtin = [ALEPH0, ALEPH1, CONTINUUM]
        self.names = builtin + [n for k, n, _ in decls if k == "card" and n not in builtin]
        self.regular = {ALEPH0, ALEPH1} | {n for k, n, r in decls if k == "card" and r}
        le_edges = [(ALEPH0, ALEPH1), (ALEPH1, CONTINUUM)]
        le_edges += [(a, b) for k, a, b in decls if k in ("le", "lt", "succ")]
        lt_edges = [(ALEPH0, ALEPH1)] + [(a, b) for k, a, b in decls if k in ("lt", "succ")]
        self.le = _close(self.names, le_edges)
        self.lt_pairs = _strict_close(self.names, le_edges, lt_edges)
        self.cycle = any((n, n) in self.lt_pairs for n in self.names)
        self.assumed = [(k, a, b) for k, a, b in decls if k in ("pow_lt", "pow", "inaccessible")]
        self.assumed.append(("pow", CONTINUUM, ALEPH0))
        # the first declared successor of each name, and whether another
        # one differs from it or a name lies strictly between
        self.succ, self.bad_succ = {}, False
        for k, a, b in decls:
            if k == "succ":
                first = self.succ.setdefault(a, b)
                self.bad_succ |= not (self.leq(first, b) is True and self.leq(b, first) is True)
                self.bad_succ |= any((a, n) in self.lt_pairs and (n, b) in self.lt_pairs
                                     for n in self.names)

    def leq(self, a, b):
        return True if (a, b) in self.le else False if (b, a) in self.lt_pairs else None

    def lt(self, a, b):
        return True if (a, b) in self.lt_pairs else False if (b, a) in self.le else None

    def has(self, kind, a, b, strict=False):
        above = self.lt if strict else self.leq
        return any(k == kind and x == a and above(b, y) is True for k, x, y in self.assumed)

    def extreme(self, pool, upper):
        for cand in pool:
            if all((self.leq(o, cand) if upper else self.leq(cand, o)) is True for o in pool):
                return cand
        return None


def _random_decls(rng):
    """About 8 names with le/lt/succ edges, mostly along a hidden ranking;
    a backward le or an le both ways makes an alias, a backward lt or succ
    may close a strict cycle."""
    own = [f"n{i}" for i in range(rng.randint(4, 9))]
    decls = [("card", n, rng.random() < 0.6) for n in own]
    if rng.random() < 0.2:
        decls.append(("card", CONTINUUM, True))
    names = [ALEPH0, ALEPH1, CONTINUUM] + own
    rank = {n: rng.random() for n in own}
    rank.update({ALEPH0: -2, ALEPH1: -1, CONTINUUM: rng.random()})
    for _ in range(rng.randint(0, 12)):
        a, b = rng.sample(names, 2)
        if rank[a] > rank[b] and rng.random() < 0.85:
            a, b = b, a
        decls.append((rng.choice(("le", "le", "lt", "lt", "succ")), a, b))
    if rng.random() < 0.3:
        a, b = rng.sample(own, 2)
        decls += [("le", a, b), ("le", b, a)]
    for _ in range(rng.randint(0, 5)):
        decls.append((rng.choice(("pow_lt", "pow", "inaccessible")), *rng.sample(names, 2)))
    return decls


def test_order_matches_pair_set_closure():
    rng = random.Random(2026)
    cycles = aliased = bad_succ = 0
    for _ in range(300):
        decls = _random_decls(rng)
        ref = _Reference(decls)
        if ref.cycle:
            cycles += 1
            with pytest.raises(OrderCycle):
                CardContext(decls)
            continue
        if ref.bad_succ:
            bad_succ += 1
            with pytest.raises(BadSuccessor):
                CardContext(decls)
            # a successor orders like lt: check the order without the claim
            decls = [("lt", *d[1:]) if d[0] == "succ" else d for d in decls]
        ctx = CardContext(decls)
        assert ctx.names == ref.names
        if not ref.bad_succ:
            assert {a: ctx.succ_of(a) for a in ref.succ} == ref.succ
        aliased += any(ctx.canon(n) != n for n in ctx.names)
        for a in ctx.names:
            assert ctx.canon(a) == next(n for n in ref.names
                                        if ref.leq(a, n) is True and ref.leq(n, a) is True)
            for b in ctx.names:
                assert ctx.leq(a, b) is ref.leq(a, b), (decls, a, b)
                assert ctx.lt(a, b) is ref.lt(a, b), (decls, a, b)
                assert ctx.regulars_between(a, b) == [
                    n for n in ref.names if n in ref.regular
                    and ref.leq(a, n) is True and ref.leq(n, b) is True]
                assert ctx.has_pow_lt(a, b) == ref.has("pow_lt", a, b)
                assert ctx.has_pow(a, b) == (ref.has("pow", a, b)
                                             or ref.has("pow_lt", a, b, strict=True))
                assert ctx.has_inaccessible(a, b) == ref.has("inaccessible", a, b)
        for _ in range(5):
            pool = rng.sample(ctx.names, rng.randint(1, 4))
            for upper, pick in ((True, ctx.max_of), (False, ctx.min_of)):
                want = ref.extreme(pool, upper)
                if want is None:
                    with pytest.raises(IncomparableNames):
                        pick(pool)
                else:
                    assert pick(pool) == want
    assert cycles >= 20 and aliased >= 20 and bad_succ >= 10, (cycles, aliased, bad_succ)


def test_check_returns_position():
    ctx = section5_ctx()
    assert [ctx.check(n) for n in ctx.names] == list(range(len(ctx.names)))
    assert ctx.canon("lam1b") == "lam1b"
    alias = CardContext([("card", "a", False), ("card", "b", False),
                         ("le", "b", "a"), ("le", "a", "b")])
    assert alias.canon("b") == "a" and alias.has("b") and not alias.has("z")
    with pytest.raises(UnknownName):
        alias.check("z")


@pytest.mark.parametrize("decl, msg", [
    (("card", "a"), "bad declaration ('card', 'a')"),
    (("lt", "a"), "bad declaration ('lt', 'a')"),
    (("le", "a", "b", "c"), "bad declaration ('le', 'a', 'b', 'c')"),
    ((), "bad declaration ()"),
    (("gt", "a", "b"), "unknown declaration kind 'gt'"),
])
def test_malformed_declaration_is_named(decl, msg):
    with pytest.raises(ValueError) as err:
        CardContext([("card", "a", False), ("card", "b", False), decl])
    assert str(err.value) == msg


def test_declarations_may_come_from_a_generator():
    decls = [("card", "lam", True), ("lt", ALEPH1, "lam")]
    ctx = CardContext(d for d in decls)
    assert ctx.declarations == tuple(decls)
    assert ctx.has("lam") and ctx.lt(ALEPH1, "lam") is True
