import os

import pytest

from cichon.builtins import BUILTINS, builtin
from cichon.textfmt import (MODELS, ParseError, RecipeFile, UnresolvedName,
                            builtin_file, parse, render_file)


def test_round_trip_all_builtins():
    assert len(BUILTINS) == 13
    for name in BUILTINS:
        rf = builtin_file(name)
        text = render_file(rf, rf.ctx())
        assert parse(text) == rf, name
        with open(os.path.join(MODELS, f"{name}.rcp")) as fh:
            assert fh.read() == text, name  # the checked-in file is canonical


def test_parse_context_statements():
    rf = parse("""
    # a comment
    context {
      card lam regular;
      card mu;
      lt aleph1 lam;  le mu lam;
      assume pow(lam,aleph0)=lam;
      assume pow_lt(lam,aleph1)=lam;
      assume inaccessible(lam,aleph1);
      assume succ(mu)=lam;
    }
    """)
    ctx = rf.ctx()
    assert ctx.is_regular("lam") and not ctx.is_regular("mu")
    assert ctx.has_pow("lam", "aleph0")
    assert ctx.has_pow_lt("lam", "aleph1")
    assert ctx.has_inaccessible("lam", "aleph1")
    assert ctx.succ_of("mu") == "lam"
    assert ctx.lt("mu", "lam") is True  # succ implies strict order


def test_parse_recipe_block():
    rf = parse("""
    context { card lam5 regular; card lam4 regular; card lam1 regular;
              lt aleph1 lam1; lt lam1 lam4; lt lam4 lam5;
              assume pow_lt(lam5,lam1)=lam5; }
    recipe demo {
      length lam5*lam4;
      cc aleph1;
      slot evdiff cofinal;
      slot loc_sub(lam1) bookkeeping R1 upto lam1;
    }
    """)
    r = rf.recipes["demo"]
    assert r.length == ("lam5", "lam4")
    assert r.slots[0].cofinal and r.slots[0].iterand.name == "evdiff"
    assert r.slots[1].bookkeeping == ("Lc", "lam1")  # R1 alias resolves


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("context {\n  card lam regular;\n  bogus statement;\n}\n")
    assert "line 3" in str(err.value)
    with pytest.raises(UnresolvedName) as err1:
        parse("recipe r {\n length lam;\n}\n")  # undeclared cardinal
    assert "lam" in str(err1.value) and "line 2" in str(err1.value)
    with pytest.raises(ParseError) as err2:
        parse("plan p {\n  chain q 9 (a, b, c);\n}\n")
    assert "line 2" in str(err2.value)


def test_unresolved_name_with_location():
    with pytest.raises(UnresolvedName) as err:
        parse("context { card lam regular; }\nrecipe r { length mu; slot cohen; }\n")
    assert "mu" in str(err.value)


def test_plan_block_round_trip():
    rf = builtin_file("cichon_max")
    text = render_file(rf, rf.ctx())
    assert "chain d 4 (lam4d, succ(th4m), th4);" in text
    rf2 = parse(text)
    assert rf2.plans["cichon_max"] == rf.plans["cichon_max"]
    assert rf2.assignments["cichon_max_bottom"] == rf.assignments["cichon_max_bottom"]


def test_plan_missing_chain_errors():
    with pytest.raises(ParseError):
        parse("""
        context { card lamc; }
        plan p { base gksmax(a,b,c,d,e); }
        """)


def test_assignment_unknown_entry():
    with pytest.raises(ParseError):
        parse("context { card lam regular; }\nassign a { bogus = lam; }\n")


def test_recipe_without_length():
    with pytest.raises(ParseError):
        parse("context { card lam regular; }\nrecipe r { cc aleph1; }\n")


@pytest.mark.parametrize("kind", ["recipe", "plan", "assign"])
def test_second_block_of_one_kind_and_name_is_rejected(kind):
    rf = builtin_file("mod1" if kind == "recipe" else "cichon_max")
    text = render_file(rf, rf.ctx())
    name = {"recipe": "mod1", "plan": "cichon_max", "assign": "cichon_max_bottom"}[kind]
    start = text.index(f"{kind} {name} {{")
    block = text[start:text.index("}", start) + 2]
    if kind == "plan":  # the first block's succ(th4m) must not reach this one
        block = block.replace("(lam4d, succ(th4m), th4)", "(lam4d, th3, th4)")
    with pytest.raises(ParseError) as err:
        parse(text + block)
    assert f"line {text.count(chr(10)) + 1}:" in str(err.value)
    assert f"duplicate {kind} block {name}" in str(err.value)
    assert parse(text + block.replace(f"{kind} {name} ", f"{kind} other ")) is not None


def test_context_blocks_still_concatenate():
    rf = parse("context { card lam regular; }\ncontext { lt aleph1 lam; }\n")
    assert rf.ctx().lt("aleph1", "lam") is True


def test_axiom_block():
    rf = builtin_file("gksmax")
    assert rf.axioms == {"gksmax": ("lam1", "lam2", "lam3", "lam4", "lam5")}
    assert not rf.recipes and not rf.plans and not rf.assignments
    assert "axiom gksmax {\n  cards lam1, lam2, lam3, lam4, lam5;\n}\n" in render_file(rf)
    spaced = parse("context { card a regular; card b regular; lt aleph1 a; lt a b; }\n"
                   "axiom gksmax {\n  cards a ,b,a,  b,b ;\n}\n")
    assert spaced.axioms == {"gksmax": ("a", "b", "a", "b", "b")}


@pytest.mark.parametrize("block,error,msg", [
    ("axiom foo { cards lam1; }", ParseError, "unknown axiom model 'foo'"),
    ("axiom kst { cards lam1, lam2; }", ParseError, "kst takes 5 cardinals"),
    ("axiom bcm { }", ParseError, "axiom bcm has no cards"),
    ("axiom gksmax { length lam1; }", ParseError, "unknown axiom statement"),
    ("axiom gksmax { cards lam1, lam2, lam3, lam4,; }", ParseError, "bad name ''"),
    ("axiom gksmax { cards lam1, lam2, lam3, lam4, mu; }", UnresolvedName,
     "'mu' is not declared"),
    ("axiom gksmax { cards lam1, lam2, lam3, lam4, lam5; } " * 2, ParseError,
     "duplicate axiom block gksmax"),
], ids=["unknown-model", "arity", "no-cards", "other-statement", "empty-name",
        "undeclared", "second-block"])
def test_axiom_block_errors(block, error, msg):
    text = render_file(RecipeFile(context=builtin_file("gksmax").context))
    with pytest.raises(error) as err:
        parse(text + block + "\n")
    assert str(err.value).startswith(f"line {text.count(chr(10)) + 1}: ")
    assert msg in str(err.value)


@pytest.mark.parametrize("name,old,new", [
    ("mod1", "length lam5*lam4;", "length lam5*lam4;\n  length lam5;"),
    ("mod1", "cc aleph1;", "cc aleph1;\n  cc lam1;"),
    ("mod1", "bookkeeping Lc upto lam1;", "bookkeeping Lc upto lam1 bookkeeping Cn upto lam2;"),
    ("cichon_max", "base gksmax(th1,th2,th3,th4,thinf);",
     "base gksmax(th1,th2,th3,th4,thinf);\n  base gksmax(th1,th2,th3,th4,th4);"),
    ("cichon_max", "addN = lam1b;", "addN = lam1b;\n  addN = lam2b;"),
    ("gksmax", "cards lam1, lam2, lam3, lam4, lam5;",
     "cards lam1, lam2, lam3, lam4, lam5;\n  cards lam1, lam2, lam3, lam4, lam4;"),
    ("cichon_max", "final (lamc);", "final (lamc);\n  final (lamc);"),
    ("cichon_max", "chain d 4 (lam4d, succ(th4m), th4);",
     "chain d 4 (lam4d, succ(th4m), th4);\n  chain d 4 (lam4d, succ(th4m), th4);"),
], ids=["length", "cc", "bookkeeping", "base", "assigned-entry", "cards", "final", "chain"])
def test_repeated_single_valued_statement_is_rejected(name, old, new):
    """A second statement that would override the first is an error naming
    its own line, never a silent override."""
    rf = builtin_file(name)
    text = render_file(rf, rf.ctx()).replace(old, new, 1)
    second = text.index(new) + len(new)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value).startswith(f"line {text.count(chr(10), 0, second) + 1}: ")
    assert "given twice" in str(err.value)


def test_builtin_file_takes_only_shipped_names():
    for name in ("../models/mod1", "mod1.rcp", "", "nope"):
        with pytest.raises(KeyError, match="no builtin named"):
            builtin_file(name)
