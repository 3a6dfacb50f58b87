"""Each cardinal a model file names is checked at its own statement's line:
a context statement's names as it is read, every other block's once that
block has parsed."""

import pytest

from cichon.textfmt import ParseError, UnresolvedName, parse


def raises(error, text):
    with pytest.raises(error) as err:
        parse(text)
    return str(err.value)


@pytest.mark.parametrize("stmt", ["lt aleph1 lamx", "le lamx lam", "assume pow(lam,lamx)=lam",
                                  "assume inaccessible(lamx,aleph1)", "assume succ(lam)=lamx"])
def test_undeclared_name_in_the_context_names_its_line(stmt):
    text = f"context {{\n  card lam regular;\n  {stmt};\n}}\n"
    assert raises(UnresolvedName, text) == "line 3: cardinal 'lamx' is not declared"


def test_a_name_is_declared_before_it_is_used():
    text = "context {\n  lt aleph1 lam;\n  card lam regular;\n}\n"
    assert raises(UnresolvedName, text) == "line 2: cardinal 'lam' is not declared"
    assert parse("context { card lam regular; }\ncontext { lt aleph1 lam; }\n")


@pytest.mark.parametrize("text,line", [
    ("context {\n  card lam;\n  card lam regular;\n}\n", 3),
    ("context { card lam; }\nrecipe r { length lam; }\ncontext {\n  card lam;\n}\n", 4),
])
def test_a_second_card_is_an_error_at_its_line(text, line):
    assert raises(ParseError, text) == f"line {line}: cardinal 'lam' declared twice"


def test_the_builtin_cardinals_may_be_declared_again():
    ctx = parse("context { card aleph1 regular; card c regular; card c; }\n").ctx()
    assert ctx.is_regular("c") and ctx.names == ["aleph0", "aleph1", "c"]


def test_an_empty_length_factor_is_a_bad_name():
    text = "context { card lam5 regular; }\nrecipe r {\n  length lam5*;\n}\n"
    assert raises(ParseError, text) == "line 3: bad name ''"


def test_an_undeclared_name_is_reported_at_its_statement():
    text = "context { card lam regular; }\nrecipe r {\n  length lam;\n  cc mu;\n}\n"
    assert raises(UnresolvedName, text) == "line 4: cardinal 'mu' is not declared"


def test_the_context_is_checked_before_the_blocks_above_it():
    text = "recipe r { length mu; }\ncontext {\n  card lam;\n  card lam;\n}\n"
    assert raises(ParseError, text) == "line 4: cardinal 'lam' declared twice"


def test_an_order_contradiction_names_the_last_context_line():
    text = "context {\n  card lam regular;\n  lt lam aleph1;\n  lt aleph1 lam;\n}\n"
    assert raises(UnresolvedName, text).startswith("line 4: strict cycle through ")
