import json
import os
import random
import subprocess
import sys

import pytest

from cichon.builtins import builtin
from cichon.cards import CardContext
from cichon.cli import main
from cichon.facts import check_trace
from cichon.finite import FinSys, d_num_brute, format_finsys, ideal_systems
from cichon.textfmt import MODELS, builtin_file, render_file

SRC = os.path.dirname(os.path.dirname(os.path.abspath(MODELS)))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_derive_builtin_cohen(capsys):
    code, out, _ = run(capsys, "derive", "--recipe", "cohen")
    assert code == 0
    lines = dict(ln.split() for ln in out.strip().splitlines())
    assert lines["add(N)"] == "aleph1" and lines["cov(M)"] == "lam"
    assert len(lines) == 11


def test_derive_from_file(tmp_path, capsys):
    path = tmp_path / "mod1.rcp"
    rf = builtin_file("mod1")
    path.write_text(render_file(rf))
    code, out, _ = run(capsys, "derive", str(path), "--recipe", "mod1")
    assert code == 0 and "cof(N)  lam5" in out


def test_derive_trace_validates(capsys):
    code, out, _ = run(capsys, "derive", "--recipe", "mod1", "--trace")
    assert code == 0
    trace = [ln for ln in out.splitlines() if "  [" in ln]
    ctx = builtin("mod1").ctx()
    assert check_trace(ctx, trace) == len(trace)


def test_derive_dot_and_json(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    js = tmp_path / "out.json"
    code, _, _ = run(capsys, "derive", "--recipe", "mod1",
                     "--dot", str(dot), "--json", str(js))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and text.count("[label=") == 11
    data = json.loads(js.read_text())
    assert data["constellation"]["b"] == {"lo": "lam3", "hi": "lam3"}
    assert any(f["rule"] == "forge:preEUB" for f in data["facts"])


def test_contradicting_successor_exits_2(tmp_path, capsys):
    rf = builtin_file("mod1")
    text = render_file(rf)
    for decl, msg in (("assume succ(lam1)=lam2; assume succ(lam1)=lam3;",
                       "succ(lam1) is declared as both lam2 and lam3"),
                      ("assume succ(lam1)=lam3;", "lam2 lies strictly between lam1")):
        path = tmp_path / "succ.rcp"
        path.write_text(text.replace("  assume pow_lt", f"  {decl}\n  assume pow_lt"))
        code, out, err = run(capsys, "derive", str(path), "--recipe", "mod1")
        assert code == 2 and out == "" and msg in err


def test_derive_missing_assumption_exits_1(tmp_path, capsys):
    rf = builtin_file("mod1")
    text = render_file(rf).replace("  assume pow_lt(lam5,lam3)=lam5;\n", "")
    path = tmp_path / "broken.rcp"
    path.write_text(text)
    code, _, err = run(capsys, "derive", str(path), "--recipe", "mod1")
    assert code == 1
    assert "pow_lt(lam5,lam3)" in err


def test_derive_unknown_recipe_exits_2(capsys):
    code, _, err = run(capsys, "derive", "--recipe", "missing")
    assert code == 2 and "missing" in err


def test_derive_syntax_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.rcp"
    path.write_text("context { card lam regular\n")
    code, _, err = run(capsys, "derive", str(path), "--recipe", "x")
    assert code == 2


def test_intersect_builtin(capsys):
    code, out, _ = run(capsys, "intersect", "--plan", "cichon_max", "--tables")
    assert code == 0
    assert "-- 1.2 --" in out
    assert "cof(N)  lam1d" in out
    # snapshot 1.2 row 4 pins b=lam4b d=lam4d
    block = out.split("-- 1.2 --")[1].split("--")[0]
    row4 = next(ln for ln in block.splitlines() if ln.strip().startswith("4"))
    assert "lam4b" in row4 and "lam4d" in row4


def test_intersect_malformed_plan_exits_nonzero(tmp_path, capsys):
    rf = builtin_file("cichon_max")
    text = render_file(rf)
    text = text.replace("chain d 4 (lam4d, succ(th4m), th4);",
                        "chain d 4 (lam4d, succ(th4m), th3);")
    path = tmp_path / "bad_plan.rcp"
    path.write_text(text)
    code, _, err = run(capsys, "intersect", str(path), "--plan", "cichon_max")
    assert code == 1


def test_finite_subcommands(tmp_path, capsys):
    cones = tmp_path / "cones3.sys"
    cones.write_text("3 3\n101\n110\n011\n")
    le3 = tmp_path / "le3.sys"
    le3.write_text("3 3\n111\n011\n001\n")
    id2 = tmp_path / "id2.sys"
    id2.write_text("2 2\n10\n01\n")
    id3 = tmp_path / "id3.sys"
    id3.write_text("3 3\n100\n010\n001\n")

    code, out, _ = run(capsys, "finite", "d", str(cones))
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "finite", "b", str(le3))
    assert code == 0 and out.strip() == "inf"
    code, out, _ = run(capsys, "finite", "search", str(id2), str(id3))
    assert code == 0 and "psi_minus" in out and "psi_plus" in out
    code, out, _ = run(capsys, "finite", "search", str(id3), str(id2))
    assert code == 1 and out.strip() == "none"
    code, out, _ = run(capsys, "finite", "dual", str(le3))
    assert code == 0 and out.splitlines()[0] == "3 3"
    code, out, _ = run(capsys, "finite", "product", str(id2), str(id2))
    assert code == 0 and out.splitlines()[0] == "4 4"


def test_finite_past_the_budget_exits_2(tmp_path, capsys, monkeypatch):
    # d(id3) = 3 takes a two-node cover search; `none` keeps exit 1
    id3 = tmp_path / "id3.sys"
    id3.write_text("3 3\n100\n010\n001\n")
    monkeypatch.setattr("cichon.finite.NODE_BUDGET", 1)
    code, out, err = run(capsys, "finite", "d", str(id3))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_finite_calls_the_benchmark_may_refuse(tmp_path, capsys):
    """The two `cli` benchmark calls whose refusal it forgives, on inputs
    drawn the same way: both are answered."""
    rng = random.Random(7)
    rows = tuple(sum(1 << j for j in range(16) if rng.random() < 0.5) for _ in range(16))
    dense = tmp_path / "rand16.sys"
    dense.write_text(format_finsys(FinSys(16, 16, rows)))
    code, out, _ = run(capsys, "finite", "d", str(dense))
    assert code == 0 and out.strip() == str(d_num_brute(FinSys(16, 16, rows)))
    c5_2, c6_3 = tmp_path / "c5_2.sys", tmp_path / "c6_3.sys"
    c5_2.write_text(format_finsys(ideal_systems(5, 2)[1]))
    c6_3.write_text(format_finsys(ideal_systems(6, 3)[1]))
    code, out, _ = run(capsys, "finite", "search", str(c5_2), str(c6_3))
    assert code == 1 and out.strip() == "none"


def test_finite_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("nonsense\n")
    code, _, err = run(capsys, "finite", "d", str(bad))
    assert code == 2


def test_check_builtin_assignment(capsys):
    code, out, _ = run(capsys, "check", "--assign", "cichon_max_bottom")
    assert code == 0 and out.strip() == "ok"


def test_check_violations_exit_1(tmp_path, capsys):
    rf = builtin_file("cichon_max")
    text = render_file(rf).replace("covN = lam2b;", "covN = lam1d;")
    path = tmp_path / "bad_assign.rcp"
    path.write_text(text)
    code, out, _ = run(capsys, "check", str(path), "--assign", "cichon_max_bottom")
    assert code == 1 and "arrow" in out


def test_check_incomplete_assignment_exits_2(tmp_path, capsys):
    path = tmp_path / "incomplete.rcp"
    path.write_text("context { card lam regular; lt aleph1 lam; }\n"
                    "assign a { addN = lam; }\n")
    code, _, err = run(capsys, "check", str(path), "--assign", "a")
    assert code == 2 and "covN" in err


def test_intersect_json_has_tables(tmp_path, capsys):
    js = tmp_path / "plan.json"
    code, _, _ = run(capsys, "intersect", "--plan", "cichon_max", "--json", str(js))
    assert code == 0
    data = json.loads(js.read_text())
    labels = [t["label"] for t in data["tables"]]
    assert labels == ["start", "1.1", "1.2", "2.1", "2.2",
                      "3.1", "3.2", "4.1", "4.2", "final"]
    row4 = data["tables"][2]["rows"][3]
    assert row4 == {"system": 4, "below": ["lam4b", "lam4d"],
                    "b": "lam4b", "d": "lam4d"}
    assert data["product_bounds"]["4"] == "prod(lam4d,lam4b)"


def test_derive_axiom_model_from_its_file(capsys):
    """The shipped file prints what the builtin prints, trace included."""
    path = os.path.join(MODELS, "gksmax.rcp")
    code, from_file, _ = run(capsys, "derive", path, "--recipe", "gksmax", "--trace")
    assert code == 0 and "cov(N)  lam2" in from_file
    assert run(capsys, "derive", "--recipe", "gksmax", "--trace") == (0, from_file, "")


def test_builtins_are_found_from_any_cwd(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    p = subprocess.run([sys.executable, "-S", "-m", "cichon", "derive", "--recipe", "gksmax"],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert len(p.stdout.strip().splitlines()) == 11


@pytest.mark.parametrize("argv", [
    ["derive", "--recipe", "../x"],
    ["derive", "--recipe", "../models/mod1"],
    ["intersect", "--plan", "../cichon_max"],
    ["check", "--assign", "models/cichon_max_bottom"],
])
def test_builtin_name_is_never_a_path(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "no builtin named" in err


@pytest.mark.parametrize("argv,msg", [
    (["derive", "--recipe", "cichon_max"], "builtin cichon_max has no recipe or axiom 'cichon_max'"),
    (["intersect", "--plan", "gksmax"], "builtin gksmax has no plan 'gksmax'"),
    (["check", "--assign", "mod1"], "builtin mod1 has no assignment 'mod1'"),
])
def test_builtin_of_the_wrong_kind_exits_2(capsys, argv, msg):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and msg in err


def test_repeated_statement_exits_2(tmp_path, capsys):
    rf = builtin_file("mod1")
    path = tmp_path / "twice.rcp"
    path.write_text(render_file(rf).replace("  cc aleph1;\n", "  length lam5;\n"))
    code, out, err = run(capsys, "derive", str(path), "--recipe", "mod1")
    assert code == 2 and out == "" and "line 16: length given twice" in err


@pytest.mark.parametrize("step,label", [
    ("  final (lamc);\n", "final"),
    ("  chain d 4 (lam4d, succ(th4m), th4);\n", "chain d 4"),
], ids=["final", "chain"])
def test_repeated_plan_step_exits_2(tmp_path, capsys, step, label):
    rf = builtin_file("cichon_max")
    text = render_file(rf)
    at = text.index(step) + len(step)
    path = tmp_path / "twice.rcp"
    path.write_text(text[:at] + step + text[at:])
    code, out, err = run(capsys, "intersect", str(path), "--plan", "cichon_max")
    line = text.count("\n", 0, at) + 1
    assert code == 2 and out == "" and f"line {line}: {label} given twice" in err


def test_only_builtin_lookups_parse_the_model_files(tmp_path):
    """A fresh interpreter: importing the CLI, deriving from a file, the
    finite oracle, and the name of a builtin model or of a shipped
    assignment all leave cichon.builtins unimported."""
    rf = builtin_file("mod1")
    (tmp_path / "mod1.rcp").write_text(render_file(rf))
    (tmp_path / "id2.sys").write_text("2 2\n10\n01\n")
    code = """if True:
        import sys
        from cichon.cli import main
        assert "cichon.builtins" not in sys.modules
        assert main(["derive", "mod1.rcp", "--recipe", "mod1"]) == 0
        assert main(["finite", "d", "id2.sys"]) == 0
        assert "cichon.builtins" not in sys.modules
        assert main(["derive", "--recipe", "cohen"]) == 0
        assert "cichon.builtins" not in sys.modules
        assert main(["check", "--assign", "cichon_max_bottom"]) == 0
        assert "cichon.builtins" not in sys.modules
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    p = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr


@pytest.mark.parametrize("argv", [["derive", "--recipe", "cohen"],
                                  ["intersect", "--plan", "cichon_max"],
                                  ["check", "--assign", "cichon_max_bottom"]])
def test_a_builtin_model_builds_one_context(monkeypatch, capsys, argv):
    """A builtin model's or assignment's name parses the one shipped file
    that defines it."""
    builds, init = [], CardContext.__init__

    def counted(self, declarations):
        builds.append(declarations)
        init(self, declarations)
    monkeypatch.setattr(CardContext, "__init__", counted)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and len(builds) == 1


def test_finite_zero_size_header_exits_2(tmp_path, capsys):
    for header in ("0 0", "0 3", "2 0"):
        bad = tmp_path / "empty.sys"
        bad.write_text(header + "\n")
        code, out, err = run(capsys, "finite", "d", str(bad))
        assert code == 2 and out == "" and err.startswith("error: ") and "positive" in err


@pytest.mark.parametrize("argv", [
    ["derive", "--recipe", "cohen", "--dot"],
    ["derive", "--recipe", "cohen", "--json"],
    ["intersect", "--plan", "cichon_max", "--json"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "out")
    code, _, err = run(capsys, *argv, path)
    assert code == 2 and err.startswith(f"error: cannot write {path}")


def test_non_utf8_input_exits_2(tmp_path, capsys):
    rcp, sys_ = tmp_path / "latin1.rcp", tmp_path / "latin1.sys"
    rcp.write_bytes("context { card lam\xe9; }\n".encode("latin-1"))
    sys_.write_bytes(b"2 2\n10\n0\xff\n")
    for path, argv in ((rcp, ["derive", str(rcp), "--recipe", "cohen"]),
                       (sys_, ["finite", "d", str(sys_)])):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("op,files", [("d", 2), ("b", 2), ("dual", 2), ("product", 1),
                                      ("search", 3)])
def test_finite_wrong_file_count_exits_2(tmp_path, capsys, op, files):
    id2 = tmp_path / "id2.sys"
    id2.write_text("2 2\n10\n01\n")
    code, out, err = run(capsys, "finite", op, *[str(id2)] * files)
    assert code == 2 and out == "" and f"error: finite {op} takes" in err


@pytest.mark.parametrize("edit", ["swap", "drop"])
def test_intersect_plan_out_of_order_exits_2(tmp_path, capsys, edit):
    rf = builtin_file("cichon_max")
    text = render_file(rf)
    d4, b4 = "  chain d 4 (lam4d, succ(th4m), th4);\n", "  chain b 4 (lam4b, th4m, th4m);\n"
    text = text.replace(d4 + b4, b4 + d4 if edit == "swap" else d4)
    path = tmp_path / "order.rcp"
    path.write_text(text)
    code, out, err = run(capsys, "intersect", str(path), "--plan", "cichon_max")
    header = text[:text.index("plan cichon_max {")].count("\n") + 1
    assert code == 2 and out == "" and f"line {header}: plan cichon_max needs its steps" in err
