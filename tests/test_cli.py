import json

from cichon.builtins import builtin
from cichon.cli import main
from cichon.facts import check_trace
from cichon.textfmt import builtin_file, render_file


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
    path.write_text(render_file(rf, rf.ctx()))
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
    text = render_file(rf, rf.ctx())
    for decl, msg in (("assume succ(lam1)=lam2; assume succ(lam1)=lam3;",
                       "succ(lam1) is declared as both lam2 and lam3"),
                      ("assume succ(lam1)=lam3;", "lam2 lies strictly between lam1")):
        path = tmp_path / "succ.rcp"
        path.write_text(text.replace("  assume pow_lt", f"  {decl}\n  assume pow_lt"))
        code, out, err = run(capsys, "derive", str(path), "--recipe", "mod1")
        assert code == 2 and out == "" and msg in err


def test_derive_missing_assumption_exits_1(tmp_path, capsys):
    rf = builtin_file("mod1")
    text = render_file(rf, rf.ctx()).replace("  assume pow_lt(lam5,lam3)=lam5;\n", "")
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
    text = render_file(rf, rf.ctx())
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
    text = render_file(rf, rf.ctx()).replace("covN = lam2b;", "covN = lam1d;")
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
