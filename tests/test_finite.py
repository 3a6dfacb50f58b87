import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cichon.finite import (TOP, BadParameters, FinIdeal, FinSys, NotPreorder,
                           SearchSpaceTooLarge, SizeLimit, b_num, b_num_brute,
                           bounded_below, compose, d_num, d_num_brute, dual,
                           format_finideal, format_finsys, from_preorder,
                           ideal_systems, identity_system, le_system,
                           min_cover, parse_finideal, parse_finsys, product,
                           small_sets_ideal, swap, systems_of_ideal,
                           tukey_search)


def rand_system(rng, max_x=6, max_y=6):
    xs = rng.randint(1, max_x)
    ys = rng.randint(1, max_y)
    rows = tuple(rng.getrandbits(ys) for _ in range(xs))
    return FinSys(xs, ys, rows)


@st.composite
def systems(draw, max_x=5, max_y=5):
    xs = draw(st.integers(1, max_x))
    ys = draw(st.integers(1, max_y))
    rows = tuple(draw(st.integers(0, (1 << ys) - 1)) for _ in range(xs))
    return FinSys(xs, ys, rows)


# -- b/d numbers -------------------------------------------------------------

def test_d_on_linear_order():
    assert d_num(le_system(3)) == 1
    assert b_num(le_system(3)) == TOP


def test_identity_system_values():
    assert d_num(identity_system(3)) == 3
    assert b_num(identity_system(3)) == 2


def test_cones_example():
    # cones {0,1},{1,2},{0,2} over X={0,1,2}
    R = FinSys.from_matrix([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    assert d_num(R) == 2 == d_num_brute(R)
    assert b_num(R) == 3 == b_num_brute(R)


@given(systems())
@settings(max_examples=150, deadline=None)
def test_solver_matches_bruteforce(R):
    assert d_num(R) == d_num_brute(R)
    assert b_num(R) == b_num_brute(R)


# -- duality -----------------------------------------------------------------

def test_dual_involution_and_values():
    R = FinSys.from_matrix([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    assert dual(dual(R)) == R
    assert b_num(dual(R)) == d_num(R) == 2
    assert d_num(dual(le_system(3))) == b_num(le_system(3)) == TOP


@given(systems())
@settings(max_examples=150, deadline=None)
def test_duality_identities(R):
    assert b_num(dual(R)) == d_num(R)
    assert d_num(dual(R)) == b_num(R)


# -- products ----------------------------------------------------------------

def test_product_example():
    p = product(identity_system(2), le_system(3))
    assert b_num(p) == 2
    assert d_num(p) == 2


def test_bd_size_guard(monkeypatch):
    big = identity_system(13)  # b = 2 takes one search node
    assert b_num(big) == 2
    monkeypatch.setattr("cichon.finite.NODE_BUDGET", 5)
    with pytest.raises(SizeLimit):
        d_num(big)  # d = 13: a 12-node deep cover search


def test_product_neutral_factor():
    one = FinSys.from_matrix([[1]])
    R = FinSys.from_matrix([[1, 0], [0, 1]])
    p = product(R, one)
    fwd = tukey_search(R, p)
    back = tukey_search(p, R)
    assert fwd is not None and back is not None


def test_product_size_limit(monkeypatch):
    assert product(identity_system(8), identity_system(8)).x_size == 64
    monkeypatch.setattr("cichon.finite.PRODUCT_CELL_LIMIT", 100)
    with pytest.raises(SizeLimit, match=r"product has 4096 cells \(limit 100\)"):
        product(identity_system(8), identity_system(8))


@given(systems(max_x=3, max_y=3), systems(max_x=3, max_y=3))
@settings(max_examples=80, deadline=None)
def test_product_laws(R, R2):
    p = product(R, R2)
    assert b_num(p) == min(b_num(R), b_num(R2))
    d, d1, d2 = d_num(p), d_num(R), d_num(R2)
    assert max(d1, d2) <= d <= d1 * d2


# -- Tukey search ------------------------------------------------------------

def test_identity_morphism():
    R = FinSys.from_matrix([[1, 0], [0, 1]])
    m = tukey_search(R, R)
    assert m is not None
    assert m.psi_minus == (0, 1)
    assert m.validates(R, R)


def test_inclusion_found_and_refutation():
    assert tukey_search(identity_system(2), identity_system(3)) is not None
    assert tukey_search(identity_system(3), identity_system(2)) is None


def test_search_space_limit(monkeypatch):
    big = identity_system(10)  # 10^10 psi_minus leaves, but 11 calls find the identity
    assert tukey_search(big, big).psi_minus == tuple(range(10))
    monkeypatch.setattr("cichon.finite.NODE_BUDGET", 10)
    with pytest.raises(SearchSpaceTooLarge):
        tukey_search(big, big)


@given(systems(max_x=6, max_y=6), systems(max_x=3, max_y=3), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_budgeted_calls_answer_or_refuse(R, R2, budget):
    """Under any budget each call gives the unbudgeted answer or refuses
    with its typed error; it never returns a different answer."""
    found = tukey_search(R, R2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cichon.finite.NODE_BUDGET", budget)
        for solve, want in ((d_num, d_num_brute(R)), (b_num, b_num_brute(R))):
            try:
                assert solve(R) == want
            except SizeLimit:
                pass
        try:
            assert tukey_search(R, R2) == found
        except (SizeLimit, SearchSpaceTooLarge):
            pass


def test_too_deep_a_search_is_refused():
    """Both searches take one stack frame per level; one deeper than the
    interpreter allows is a typed refusal, not a RecursionError."""
    n = 300
    every = FinSys(n, 1, (1,) * n)  # d = 1, b = TOP: no refutation
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(n)
    try:
        with pytest.raises(SizeLimit):
            d_num(identity_system(n))
        with pytest.raises(SearchSpaceTooLarge):
            tukey_search(every, identity_system(1))
    finally:
        sys.setrecursionlimit(limit)


def test_search_is_exhaustive_small():
    # against brute force over all psi pairs on tiny instances
    rng = random.Random(5)
    from itertools import product as iproduct
    for _ in range(60):
        R, R2 = rand_system(rng, 2, 2), rand_system(rng, 2, 2)
        found = tukey_search(R, R2)
        exists = False
        for minus in iproduct(range(R2.x_size), repeat=R.x_size):
            for plus in iproduct(range(R.y_size), repeat=R2.y_size):
                from cichon.finite import TukeyMorphism
                if TukeyMorphism(minus, plus).validates(R, R2):
                    exists = True
        assert (found is not None) == exists
        if found is not None:
            assert found.validates(R, R2)


def connects_brute(R, R2) -> bool:
    """Is there a connection R -> R2?  Every psi_minus, each answered by
    some psi_plus(y2) that bounds every x sent into y2's cone."""
    from itertools import product as iproduct
    for minus in iproduct(range(R2.x_size), repeat=R.x_size):
        if all(any(all(R.rel(x, y) for x in range(R.x_size) if R2.rel(minus[x], y2))
                   for y in range(R.y_size))
               for y2 in range(R2.y_size)):
            return True
    return False


@pytest.mark.parametrize("small,large", [((5, 2), (6, 3)), ((6, 3), (7, 3))])
def test_search_guard_counts_psi_minus_only(small, large):
    # psi_plus is derived, so only |X'|^|X| leaves are enumerated: both
    # searches run at the default limit (|Y|^|Y'| alone is 6^22 and 22^29)
    R, R2 = ideal_systems(*small)[1], ideal_systems(*large)[1]
    found = tukey_search(R, R2)
    assert (found is not None) == connects_brute(R, R2)
    if found is not None:
        assert found.validates(R, R2)
    assert (found is None) == (small == (5, 2))


@given(systems(max_x=3, max_y=3), systems(max_x=3, max_y=3))
@settings(max_examples=60, deadline=None)
def test_morphism_consequences(R, R2):
    m = tukey_search(R, R2)
    if m is None:
        return
    assert b_num(R2) <= b_num(R)
    assert d_num(R) <= d_num(R2)
    # the swapped pair is a connection between the duals
    assert swap(m).validates(dual(R2), dual(R))


def test_compose_morphisms():
    R1, R2, R3 = identity_system(2), identity_system(3), identity_system(4)
    m1, m2 = tukey_search(R1, R2), tukey_search(R2, R3)
    assert compose(m1, m2).validates(R1, R3)


# -- ideals ------------------------------------------------------------------

def test_ideal_systems_values():
    i_sys, c_sys = ideal_systems(3, 2)
    assert b_num(c_sys) == 2 and d_num(c_sys) == 3
    assert b_num(i_sys) == 2 and d_num(i_sys) == 3


def test_ideal_k_equals_n():
    _, c_sys = ideal_systems(4, 4)  # 15 members, above the default guard
    assert d_num(c_sys) == 2


def test_ideal_bad_parameters():
    with pytest.raises(BadParameters):
        ideal_systems(3, 0)
    with pytest.raises(BadParameters):
        ideal_systems(3, 4)
    with pytest.raises(BadParameters, match=r"need 2 <= k <= n"):
        ideal_systems(3, 1)  # [3]^{<1} is {∅}, which holds no singleton


def test_ideal_validation():
    with pytest.raises(BadParameters):
        FinIdeal(2, (0b01, 0b10, 0b11))  # missing empty set breaks closure
    ok = FinIdeal.from_sets(2, [(0, 1)])
    assert 0 in ok.members


def test_finsys_input_checks():
    with pytest.raises(BadParameters, match="^row count does not match x_size$"):
        FinSys(2, 2, (0b01,))
    with pytest.raises(BadParameters, match="^row mask exceeds y_size$"):
        FinSys(1, 2, (0b100,))
    with pytest.raises(BadParameters, match="^ragged relation matrix$"):
        FinSys.from_matrix([[1, 0], [1]])


def test_finideal_input_checks():
    with pytest.raises(BadParameters, match="^ground set must be non-empty$"):
        FinIdeal(0, (0,))
    with pytest.raises(BadParameters, match=r"^singleton \{1\} missing from ideal$"):
        FinIdeal(2, (0, 0b01))
    with pytest.raises(BadParameters, match="^member exceeds ground set$"):
        FinIdeal(1, (0, 0b01, 0b10))
    with pytest.raises(BadParameters, match="^ideal is not downward closed$"):
        FinIdeal(3, (0, 0b001, 0b010, 0b100, 0b111))


def test_from_sets_closes_downward():
    ideal = FinIdeal.from_sets(3, [(0, 1, 2)])
    assert ideal.members == (0, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)


def test_min_cover_of_nothing_is_zero():
    assert min_cover(0, []) == 0


def test_trivial_ideal_morphisms_give_figure1():
    # C_I <= I and dual(C_I) <= I, so add <= non, add <= cov, cov <= cof, non <= cof
    from cichon.finite import TukeyMorphism
    for n, k in ((3, 2), (4, 2), (4, 3)):
        ideal = small_sets_ideal(n, k)
        i_sys, c_sys = systems_of_ideal(ideal)
        members = ideal.members
        # canonical connection C_I -> I: x maps to {x}, responses unchanged
        minus = tuple(members.index(1 << x) for x in range(n))
        plus = tuple(range(len(members)))
        assert TukeyMorphism(minus, plus).validates(c_sys, i_sys)
        # canonical connection dual(C_I) -> I: identity and a point avoiding K
        minus2 = tuple(range(len(members)))
        plus2 = tuple(next(x for x in range(n) if not m >> x & 1) for m in members)
        assert TukeyMorphism(minus2, plus2).validates(dual(c_sys), i_sys)
        add, cof = b_num(i_sys), d_num(i_sys)
        non, cov = b_num(c_sys), d_num(c_sys)
        assert add <= non <= cof and add <= cov <= cof
    # the exhaustive search also finds both on the smallest instance
    i_sys, c_sys = ideal_systems(3, 2)
    assert tukey_search(c_sys, i_sys) is not None
    assert tukey_search(dual(c_sys), i_sys) is not None


def test_small_bounded_characterization():
    # R embeds into C_[n]^{<k} iff every subset of size < k is bounded
    rng = random.Random(9)
    for _ in range(40):
        ys = rng.randint(1, 3)
        R = FinSys(4, ys, tuple(rng.getrandbits(ys) for _ in range(4)))
        for k in (2, 3):
            _, c_sys = ideal_systems(4, k)
            found = tukey_search(R, c_sys)
            assert (found is not None) == bounded_below(R, k)


# -- preorders ---------------------------------------------------------------

def test_preorder_directed():
    sys, directed = from_preorder([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    assert directed
    assert b_num(sys) == TOP and d_num(sys) == 1


def test_antichain_not_directed():
    _, directed = from_preorder([[1, 0], [0, 1]])
    assert not directed


def test_two_chains_common_top():
    # 0 <= 2, 1 <= 2, chains meet at the top
    sys, directed = from_preorder([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    assert directed and d_num(sys) == 1


def test_empty_matrix_is_bad_parameters():
    with pytest.raises(BadParameters, match="carriers must be non-empty"):
        FinSys.from_matrix([])
    with pytest.raises(BadParameters, match="carriers must be non-empty"):
        from_preorder([])


def test_not_preorder_rejected():
    with pytest.raises(NotPreorder, match="^relation must be square$"):
        from_preorder([[1, 1], [1]])
    with pytest.raises(NotPreorder):
        from_preorder([[0, 0], [0, 1]])
    with pytest.raises(NotPreorder):
        from_preorder([[1, 1, 0], [0, 1, 1], [0, 0, 1]])  # not transitive


def test_finite_directed_preorders_have_top_b():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 4)
        # random preorder via reachability of a random relation
        rel = [[i == j for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.4:
                    rel[i][j] = True
        # transitive closure
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
        sys, directed = from_preorder(rel)
        if directed:
            assert b_num(sys) == TOP


# -- text formats ------------------------------------------------------------

def test_finsys_round_trip():
    R = FinSys.from_matrix([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    assert parse_finsys(format_finsys(R)) == R


def test_finsys_parse_errors():
    with pytest.raises(BadParameters):
        parse_finsys("")
    with pytest.raises(BadParameters):
        parse_finsys("2 2\n10\n")
    with pytest.raises(BadParameters):
        parse_finsys("1 2\nxy\n")


def test_finideal_round_trip():
    I = small_sets_ideal(4, 3)
    assert parse_finideal(format_finideal(I)) == I
    i_sys, c_sys = systems_of_ideal(I)
    assert b_num(c_sys) == 3 and d_num(c_sys) == 2


def test_finideal_blank_member_line_is_the_empty_set():
    assert parse_finideal("2\n\n0 1\n") == FinIdeal.from_sets(2, [(0, 1)])
    assert parse_finideal("2\n  \n") == FinIdeal.from_sets(2, [])


def test_non_ascii_digits_are_bad_parameters(tmp_path, capsys):
    """'³'.isdigit() holds but int('³') fails: only ASCII digits count."""
    from cichon.cli import main
    with pytest.raises(BadParameters):
        parse_finsys("³ 1\n1\n1\n1\n")
    for text in ("²\n0\n", "2\n0 ¹\n"):
        with pytest.raises(BadParameters):
            parse_finideal(text)
    bad = tmp_path / "sup.sys"
    bad.write_text("³ 1\n1\n1\n1\n", encoding="utf-8")
    assert main(["finite", "d", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
