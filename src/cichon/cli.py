"""Command-line entry point.

    cichon derive    [FILE] --recipe NAME [--trace] [--dot PATH] [--json PATH]
    cichon intersect [FILE] --plan NAME [--tables] [--trace] [--json PATH]
    cichon finite    {b,d,dual,product,search} FILE [FILE]
    cichon check     [FILE] --assign NAME

NAME is looked up in FILE or, without FILE, in the shipped model file
that defines it (src/cichon/models/: cohen random evdiff hechler loc mod1
mod2 mod3 mod5 gksmax kst bcm cichon_max, and cichon_max's assignment
cichon_max_bottom).  `derive` runs a recipe or an axiom model.

Exit codes: 0 success, 1 derivation failures or constraint violations,
2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diagram, finite, forge, submodel, textfmt
from .cards import CardError
from .facts import FactDB, FactError
from .systems import ExprError, render


class CliInputError(Exception):
    pass


def _load_file(path: str) -> textfmt.RecipeFile:
    try:
        with open(path) as fh:
            return textfmt.parse(fh.read())
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    except (textfmt.ParseError, textfmt.UnresolvedName, CardError) as exc:
        raise CliInputError(f"{path}: {exc}") from None


def _lookup(file, name: str, *tables: str):
    """NAME's entry in the first of the RecipeFile tables that has it, and
    the file: FILE, or without one the shipped model file defining NAME."""
    if file:
        rf = _load_file(file)
    else:
        from . import builtins  # parses every shipped model file
        try:
            rf, file = builtins.file_defining(name), f"builtin {name}"
        except KeyError as exc:
            raise CliInputError(exc.args[0]) from None
    for table in tables:
        if name in getattr(rf, table):
            return rf, table, getattr(rf, table)[name]
    raise CliInputError(f"{file} has no {' or '.join(t[:-1] for t in tables)} {name!r}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from None


def _emit_json(path: str, db: FactDB, cons, extra: dict | None = None) -> None:
    payload = {
        "constellation": {k: {"lo": iv.lo, "hi": iv.hi} for k, iv in cons.items()},
        "facts": [
            {"lhs": render(f.lhs), "rhs": render(f.rhs), "rule": f.rule,
             "premises": list(f.premises), "note": f.note}
            for f in db.facts
        ],
    }
    if extra:
        payload.update(extra)
    _write(path, json.dumps(payload, indent=2) + "\n")


def cmd_derive(args) -> int:
    rf, table, entry = _lookup(args.file, args.recipe, "recipes", "axioms")
    if table == "recipes":
        model = forge.run_recipe(rf.ctx(), entry)
    else:
        model = forge.axiom_model(rf.ctx(), args.recipe, entry)
    print(diagram.format_constellation(model.constellation), end="")
    if args.trace:
        print()
        for line in model.db.trace_lines():
            print(line)
    if args.dot:
        _write(args.dot, diagram.to_dot(model.constellation))
    if args.json:
        _emit_json(args.json, model.db, model.constellation)
    return 0


def cmd_intersect(args) -> int:
    rf, _, plan = _lookup(args.file, args.plan, "plans")
    ctx = rf.ctx()
    result = submodel.run_plan(ctx, plan)
    if args.tables:
        print(submodel.format_tables(ctx, plan, result.log))
    print(diagram.format_constellation(result.constellation), end="")
    if args.trace:
        print()
        for line in result.db.trace_lines():
            print(line)
    if args.json:
        extra = {
            "tables": submodel.tables_as_dicts(ctx, result.log),
            "product_bounds": {str(i): render(lam)
                               for i, lam in sorted(result.log.product_bounds.items())},
        }
        _emit_json(args.json, result.db, result.constellation, extra)
    return 0


def _ext(v) -> str:
    return "inf" if v == finite.TOP else str(v)


def cmd_finite(args) -> int:
    def load(path):
        try:
            with open(path) as fh:
                return finite.parse_finsys(fh.read())
        except OSError as exc:
            raise CliInputError(f"cannot read {path}: {exc}") from None
        except finite.BadParameters as exc:
            raise CliInputError(f"{path}: {exc}") from None

    op = args.op
    if op in ("b", "d"):
        R = load(args.files[0])
        print(_ext(finite.b_num(R) if op == "b" else finite.d_num(R)))
        return 0
    if op == "dual":
        print(finite.format_finsys(finite.dual(load(args.files[0]))), end="")
        return 0
    if len(args.files) != 2:
        raise CliInputError(f"finite {op} takes two system files")
    R, R2 = load(args.files[0]), load(args.files[1])
    if op == "product":
        print(finite.format_finsys(finite.product(R, R2)), end="")
        return 0
    morphism = finite.tukey_search(R, R2)
    if morphism is None:
        print("none")
        return 1
    print("psi_minus:", " ".join(str(v) for v in morphism.psi_minus))
    print("psi_plus: ", " ".join(str(v) for v in morphism.psi_plus))
    return 0


def cmd_check(args) -> int:
    rf, _, assignment = _lookup(args.file, args.assign, "assignments")
    try:
        violations = diagram.check_assignment(rf.ctx(), assignment)
    except diagram.DiagramError as exc:
        raise CliInputError(str(exc)) from None
    if not violations:
        print("ok")
        return 0
    for v in violations:
        print(v)
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cichon",
                                 description="Tukey-order constellations of Cichon's diagram")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="run a forcing recipe or axiom model")
    d.add_argument("file", nargs="?", help="recipe file (omit to use a builtin)")
    d.add_argument("--recipe", required=True)
    d.add_argument("--trace", action="store_true")
    d.add_argument("--dot", metavar="PATH")
    d.add_argument("--json", metavar="PATH")
    d.set_defaults(fn=cmd_derive)

    i = sub.add_parser("intersect", help="run a submodel-intersection plan")
    i.add_argument("file", nargs="?")
    i.add_argument("--plan", required=True)
    i.add_argument("--tables", action="store_true")
    i.add_argument("--trace", action="store_true")
    i.add_argument("--json", metavar="PATH")
    i.set_defaults(fn=cmd_intersect)

    f = sub.add_parser("finite", help="exact finite relational-system oracle")
    f.add_argument("op", choices=("b", "d", "dual", "product", "search"))
    f.add_argument("files", nargs="+", metavar="FILE")
    f.set_defaults(fn=cmd_finite)

    c = sub.add_parser("check", help="check an assignment against the diagram")
    c.add_argument("file", nargs="?")
    c.add_argument("--assign", required=True)
    c.set_defaults(fn=cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliInputError, CardError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except finite.SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (forge.ForgeError, submodel.SubmodelError, FactError,
            diagram.DiagramError, finite.FiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
