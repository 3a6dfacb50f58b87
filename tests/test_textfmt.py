import os

import pytest

from cichon.builtins import BUILTINS, builtin
from cichon.cards import CardContext
from cichon.textfmt import (MODELS, ParseError, RecipeFile, UnresolvedName,
                            builtin_file, builtin_index, derive, parse, render_file)


def test_round_trip_all_builtins():
    assert len(BUILTINS) == 13
    for name in BUILTINS:
        rf = builtin_file(name)
        text = render_file(rf)
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


_CARDS = "context {\n" + "".join(f"  card n{i} regular;\n" for i in range(2999))


@pytest.mark.parametrize("tail,line,msg", [
    ("  card bad extra words;\n}\n", 3001, "bad card declaration 'card bad extra words'"),
    ("}\n\nrecipe {\n}\n", 3003, "recipe block needs a name"),
    ("}\n\n  # a comment\nrecipe r {\n  length n1;\n", 3004, "unterminated recipe block"),
    ("}\n\nbogus;\n", 3003, "expected a block header, got 'bogus;'"),
], ids=["statement", "no-name", "unterminated", "no-header"])
def test_errors_in_a_long_context_name_their_line(tail, line, msg):
    with pytest.raises(ParseError) as err:
        parse(_CARDS + tail)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {msg}"


def test_unresolved_name_with_location():
    with pytest.raises(UnresolvedName) as err:
        parse("context { card lam regular; }\nrecipe r { length mu; slot cohen; }\n")
    assert "mu" in str(err.value)


def test_plan_block_round_trip():
    rf = builtin_file("cichon_max")
    text = render_file(rf)
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


@pytest.mark.parametrize("edit", ["swap", "drop"])
def test_plan_steps_out_of_order_fail_at_the_header(edit):
    rf = builtin_file("cichon_max")
    text = render_file(rf)
    d4, b4 = "  chain d 4 (lam4d, succ(th4m), th4);\n", "  chain b 4 (lam4b, th4m, th4m);\n"
    assert d4 + b4 in text
    text = text.replace(d4 + b4, b4 + d4 if edit == "swap" else d4)
    header = text[:text.index("plan cichon_max {")].count("\n") + 1
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == header
    assert "plan cichon_max needs its steps in the order chain d 4, chain b 4" in str(err.value)


def test_assignment_unknown_entry():
    with pytest.raises(ParseError):
        parse("context { card lam regular; }\nassign a { bogus = lam; }\n")


def test_recipe_without_length():
    with pytest.raises(ParseError):
        parse("context { card lam regular; }\nrecipe r { cc aleph1; }\n")


@pytest.mark.parametrize("kind", ["recipe", "plan", "assign", "model"])
def test_second_block_of_one_kind_and_name_is_rejected(kind):
    """'model': a recipe block named like the file's plan.  In one file a
    name names one recipe, axiom model or plan."""
    rf = builtin_file("mod1" if kind == "recipe" else "cichon_max")
    text = render_file(rf)
    if kind == "model":
        kind, name, block = "recipe", "cichon_max", "recipe cichon_max {\n  length lam4d;\n}\n"
        want = "recipe cichon_max reuses the name of plan cichon_max"
    else:
        name = {"recipe": "mod1", "plan": "cichon_max", "assign": "cichon_max_bottom"}[kind]
        start = text.index(f"{kind} {name} {{")
        block = text[start:text.index("}", start) + 2]
        if kind == "plan":  # the first block's succ(th4m) must not reach this one
            block = block.replace("(lam4d, succ(th4m), th4)", "(lam4d, th3, th4)")
        want = f"duplicate {kind} block {name}"
    with pytest.raises(ParseError) as err:
        parse(text + block)
    assert f"line {text.count(chr(10)) + 1}:" in str(err.value)
    assert want in str(err.value)
    assert parse(text + block.replace(f"{kind} {name} ", f"{kind} other ")) is not None


def test_builtin_record_reads_its_file():
    """The fields of a builtin that the benchmark reads are its file's:
    `kind` names the one model table holding it, and the entry is that
    table's."""
    for name, b in BUILTINS.items():
        rf = builtin_file(name)
        tables = {"recipe": rf.recipes, "axiom": rf.axioms, "plan": rf.plans}
        assert [kind for kind, table in tables.items() if name in table] == [b.kind], name
        entries = {"recipe": b.recipe, "axiom": b.axiom_cards, "plan": b.plan}
        assert entries == {kind: table.get(name) for kind, table in tables.items()}, name
        assert b.file == rf and b.context == rf.context and b.ctx() is b.file.ctx(), name


def test_no_name_is_defined_by_two_shipped_files():
    """Each shipped file, parsed in full, defines its own model and its
    assignments; no other file defines any of them, and the index maps
    each to its file."""
    defined = {}
    for f in sorted(f for f in os.listdir(MODELS) if f.endswith(".rcp")):
        with open(os.path.join(MODELS, f)) as fh:
            rf = parse(fh.read())
        names = [n for table in (rf.recipes, rf.axioms, rf.plans, rf.assignments) for n in table]
        assert f[:-len(".rcp")] in names, f
        for n in names:
            assert n not in defined, f"{n} in {defined.get(n)} and {f}"
            defined[n] = f[:-len(".rcp")]
    assert builtin_index() == defined
    assert len(defined) == 14 and defined["cichon_max_bottom"] == "cichon_max"
    assert {n: stem for n, stem in defined.items() if n in BUILTINS} == {n: n for n in BUILTINS}
    assert builtin_file("cichon_max_bottom") == builtin_file("cichon_max")


def test_a_plan_renders_its_successor_closures_from_its_own_context():
    """A file made by hand, with a plan and no kept context, re-sugars the
    d-chain closure from the context it builds, and parses back equal."""
    shipped = builtin_file("cichon_max")
    rf = RecipeFile(shipped.context, plans=dict(shipped.plans))
    text = render_file(rf)
    assert "  chain d 4 (lam4d, succ(th4m), th4);\n" in text
    assert "  chain b 4 (lam4b, th4m, th4m);\n" in text
    assert parse(text) == rf


def test_a_file_without_a_plan_renders_without_a_context(monkeypatch):
    """Files made by hand, holding a recipe, an axiom model or an
    assignment, render without building a context."""
    mod1, gksmax, cmax = (builtin_file(n) for n in ("mod1", "gksmax", "cichon_max"))
    files = [RecipeFile(mod1.context, recipes=dict(mod1.recipes)),
             RecipeFile(gksmax.context, axioms=dict(gksmax.axioms)),
             RecipeFile(cmax.context, assignments=dict(cmax.assignments))]
    built = []
    monkeypatch.setattr(CardContext, "__init__", lambda self, *a, **k: built.append(a))
    texts = [render_file(rf) for rf in files]
    assert built == []
    monkeypatch.undo()
    assert texts[:2] == [render_file(mod1), render_file(gksmax)]
    assert parse(texts[2]).assignments == cmax.assignments


def test_derive_refuses_a_name_no_model_has():
    rf = builtin_file("cichon_max")
    for name in ("cichon_max_bottom", "nothing"):  # an assignment is no model
        with pytest.raises(KeyError, match=name):
            derive(rf, name)


def test_a_file_builds_its_context_once(monkeypatch):
    """`parse` builds the context, and every derive of the file, or of a
    builtin, runs on the one its file keeps."""
    text = render_file(builtin_file("mod1"))
    built = []
    real = CardContext.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(CardContext, "__init__", counting)
    rf = parse(text)
    assert len(built) == 1
    derive(rf, "mod1")
    for name in ("mod1", "gksmax", "cichon_max"):
        builtin(name).derive()
    assert len(built) == 1 and rf.ctx() is rf.ctx()


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
    text = render_file(rf).replace(old, new, 1)
    second = text.index(new) + len(new)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value).startswith(f"line {text.count(chr(10), 0, second) + 1}: ")
    assert "given twice" in str(err.value)


def test_builtin_file_takes_only_shipped_names():
    for name in ("../models/mod1", "mod1.rcp", "", "nope"):
        with pytest.raises(KeyError, match="no builtin named"):
            builtin_file(name)
