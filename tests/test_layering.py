"""Layering guards.

`cichon.builtins` fills its table from every shipped model file at import,
so no other module of the package may import it.  `textfmt.builtin_file` is
the one map from a shipped name to its file.

`diagram.py` holds its records as `NamedTuple`s and imports no
`dataclasses`: a step towards a CLI call that does not load that module,
which costs more to import than `cichon.finite` itself (ROADMAP item 3).

Only `cards.py` and `submodel.py` name `IncomparableNames`: `cards` raises
it and reports it for an ordinal, a submodel step reports the undecided
pool.  Every other extreme asks `CardContext.greatest` or `least`, which
answer None where the order does not settle one, so no extreme elsewhere
needs a `try`."""

import ast
import glob
import os

import cichon

PACKAGE = os.path.dirname(os.path.abspath(cichon.__file__))


def _imports_builtins(node) -> bool:
    """Whether NODE is an import, in a module of cichon, that loads cichon.builtins."""
    if isinstance(node, ast.Import):
        return any(a.name == "cichon.builtins" or a.name.startswith("cichon.builtins.")
                   for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    if node.level:  # relative to the package, which has no subpackages
        base = ".".join(["cichon"] + [m for m in [node.module] if m])
    else:
        base = node.module or ""
    return (base == "cichon.builtins" or base.startswith("cichon.builtins.")
            or (base == "cichon" and any(a.name == "builtins" for a in node.names)))


def offenders(paths) -> list[str]:
    out = []
    for path in paths:
        if os.path.basename(path) == "builtins.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        out += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                if _imports_builtins(node)]
    return out


def test_only_builtins_imports_builtins():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert len(paths) > 5
    assert offenders(paths) == []


def test_the_guard_sees_every_spelling(tmp_path):
    spellings = ["from . import builtins", "from . import cards, builtins as b",
                 "from .builtins import BUILTINS", "import cichon.builtins",
                 "import cichon.builtins as cb", "from cichon import builtins",
                 "from cichon.builtins import builtin",
                 "def f():\n    from . import builtins"]
    for i, text in enumerate(spellings):
        (tmp_path / f"m{i}.py").write_text(text + "\n")
    (tmp_path / "ok.py").write_text("import builtins\nfrom . import cards\n"
                                    "from .textfmt import builtin_file\n")
    (tmp_path / "builtins.py").write_text("from . import builtins\n")
    found = offenders(sorted(tmp_path.glob("*.py")))
    assert sorted(found) == sorted(f"m{i}.py:{1 + t.count(chr(10))}"
                                   for i, t in enumerate(spellings))


def test_diagram_imports_no_dataclasses():
    path = os.path.join(PACKAGE, "diagram.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(
                 a.name.split(".")[0] == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and not node.level
             and (node.module or "").split(".")[0] == "dataclasses"]
    assert found == []


RAISERS = ("cards.py", "submodel.py")


def _names_incomparable(node) -> bool:
    """Whether NODE imports, catches or otherwise names IncomparableNames."""
    return (isinstance(node, ast.alias) and node.name.split(".")[-1] == "IncomparableNames"
            or isinstance(node, ast.Name) and node.id == "IncomparableNames"
            or isinstance(node, ast.Attribute) and node.attr == "IncomparableNames")


def incomparable_offenders(paths) -> list[str]:
    out = []
    for path in paths:
        if os.path.basename(path) in RAISERS:
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        out += sorted({f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                       if _names_incomparable(node)})
    return out


def test_only_cards_and_submodel_name_incomparable_names():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert {os.path.basename(p) for p in paths} >= set(RAISERS)
    assert incomparable_offenders(paths) == []


def test_the_incomparable_guard_sees_every_spelling(tmp_path):
    spellings = {  # text -> the line that names it
        "from .cards import IncomparableNames": 1,
        "from .cards import CardContext, IncomparableNames as Undecided": 1,
        "from cichon.cards import IncomparableNames": 1,
        "from . import cards\ntry:\n    pass\nexcept cards.IncomparableNames:\n    pass": 4,
        "import cichon.cards\nx = cichon.cards.IncomparableNames": 2,
        "try:\n    pass\nexcept (ValueError, IncomparableNames):\n    pass": 3}
    for i, text in enumerate(spellings):
        (tmp_path / f"m{i}.py").write_text(text + "\n")
    (tmp_path / "ok.py").write_text("from .cards import CardContext, IncomparableFactors\n"
                                    "x = 'IncomparableNames'\n")
    for name in RAISERS:
        (tmp_path / name).write_text("from .cards import IncomparableNames\n")
    found = incomparable_offenders(sorted(tmp_path.glob("*.py")))
    assert found == [f"m{i}.py:{line}" for i, line in enumerate(spellings.values())]
