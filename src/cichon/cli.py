"""Command-line entry point.

    cichon derive    [FILE] --recipe NAME [--trace] [--dot PATH] [--json PATH]
    cichon intersect [FILE] --plan NAME [--tables] [--trace] [--json PATH]
    cichon finite    {b,d,dual,product,search} FILE [FILE]
    cichon check     [FILE] --assign NAME

NAME is looked up in FILE or, without FILE, in the shipped model file
under src/cichon/models/ that defines it (`textfmt.builtin_file`).
`derive` runs a recipe or an axiom model.

Exit codes: 0 success, 1 derivation failures, constraint violations or
no connection found, 2 malformed input or a finite instance past the
search budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diagram, finite, forge, submodel, textfmt
from .cards import CardError
from .facts import FactError
from .systems import ExprError, render


class CliInputError(Exception):
    pass


def _read(path: str, parse, errors):
    """The file at PATH, parsed by PARSE.  A file that cannot be read as
    UTF-8 text, or that PARSE refuses with one of ERRORS, is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except errors as exc:
        raise CliInputError(f"{path}: {exc}") from None


def _lookup(file, name: str, *tables: str):
    """The file, FILE or without one the shipped model file defining NAME,
    and NAME's entry in the first of the RecipeFile tables that has it."""
    if file:
        rf = _read(file, textfmt.parse, (textfmt.ParseError, textfmt.UnresolvedName))
    else:
        try:
            rf, file = textfmt.builtin_file(name), f"builtin {name}"
        except KeyError as exc:
            raise CliInputError(exc.args[0]) from None
    for table in tables:
        if name in getattr(rf, table):
            return rf, getattr(rf, table)[name]
    raise CliInputError(f"{file} has no {' or '.join(t[:-1] for t in tables)} {name!r}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from None


def _emit_json(path: str, model: forge.DerivedModel) -> None:
    cons = model.constellation
    payload = {
        "constellation": {k: {"lo": iv.lo, "hi": iv.hi} for k, iv in cons.items()},
        "facts": [
            {"lhs": render(f.lhs), "rhs": render(f.rhs), "rule": f.rule,
             "premises": list(f.premises), "note": f.note}
            for f in model.db.facts
        ],
    }
    if model.log is not None:
        payload["tables"] = submodel.tables_as_dicts(model.db.ctx, model.log)
        payload["product_bounds"] = {str(i): render(lam)
                                     for i, lam in sorted(model.log.product_bounds.items())}
    _write(path, json.dumps(payload, indent=2) + "\n")


def _report(args, model: forge.DerivedModel) -> int:
    """Print the constellation, and the trace under --trace; then write the
    --dot and --json files asked for.  A plan's JSON carries its tables."""
    print(diagram.format_constellation(model.constellation), end="")
    if args.trace:
        print()
        for line in model.db.trace_lines():
            print(line)
    if getattr(args, "dot", None):  # `intersect` has no --dot
        _write(args.dot, diagram.to_dot(model.constellation))
    if args.json:
        _emit_json(args.json, model)
    return 0


def cmd_derive(args) -> int:
    rf, _ = _lookup(args.file, args.recipe, "recipes", "axioms")
    return _report(args, textfmt.derive(rf, args.recipe))


def cmd_intersect(args) -> int:
    rf, plan = _lookup(args.file, args.plan, "plans")
    model = textfmt.derive(rf, args.plan)
    if args.tables:
        print(submodel.format_tables(rf.ctx(), plan, model.log))
    return _report(args, model)


def _ext(v) -> str:
    return "inf" if v == finite.TOP else str(v)


_FINITE_FILES = {"b": 1, "d": 1, "dual": 1, "product": 2, "search": 2}  # op -> files


def cmd_finite(args) -> int:
    op, n = args.op, _FINITE_FILES[args.op]
    if len(args.files) != n:
        raise CliInputError(f"finite {op} takes {n} system file{'s' if n > 1 else ''}")
    systems = [_read(path, finite.parse_finsys, finite.BadParameters) for path in args.files]
    if op in ("b", "d"):
        print(_ext(finite.b_num(*systems) if op == "b" else finite.d_num(*systems)))
        return 0
    if op in ("dual", "product"):
        R = finite.dual(*systems) if op == "dual" else finite.product(*systems)
        print(finite.format_finsys(R), end="")
        return 0
    morphism = finite.tukey_search(*systems)
    if morphism is None:
        print("none")
        return 1
    print("psi_minus:", " ".join(str(v) for v in morphism.psi_minus))
    print("psi_plus: ", " ".join(str(v) for v in morphism.psi_plus))
    return 0


def cmd_check(args) -> int:
    rf, assignment = _lookup(args.file, args.assign, "assignments")
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
    f.add_argument("op", choices=tuple(_FINITE_FILES))
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
    except (CliInputError, CardError, ExprError, finite.FiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (forge.ForgeError, submodel.SubmodelError, FactError,
            diagram.DiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
