"""The one text format every model is stated in: context, recipe, axiom,
plan and assign blocks.  Users write it, and the builtins are shipped in it
(`models/NAME.rcp`, read by `builtin_file`).

Line-oriented and whitespace-insensitive within blocks; `#` starts a
comment.  Shape:

    context {
      card lam5 regular;
      lt aleph1 lam1;
      le lam1 lam2;
      assume pow_lt(lam5,lam3)=lam5;
      assume pow(lam,aleph0)=lam;
      assume inaccessible(lam4,aleph1);
      assume succ(th4m)=th4;
    }
    recipe mod1 {
      length lam5*lam4;
      cc aleph1;
      slot evdiff cofinal;
      slot loc_sub(lam1) bookkeeping Lc upto lam1;
    }
    axiom gksmax {
      cards lam1, lam2, lam3, lam4, lam5;
    }
    plan cichon_max {
      base gksmax(th1,th2,th3,th4,thinf);
      chain d 4 (lam4d, succ(th4m), th4);
      chain b 4 (lam4b, th4m, th4m);
      final (lamc);
    }
    assign bottom { addN = lam1b; ...; c = lamc; }

Context blocks concatenate.  Any other block is given once per kind and
name, and a single-valued statement (`length`, `cc`, `base`, `cards`, a
slot's `bookkeeping`, an assigned entry) once per block: a repeat is a
ParseError, never an override; so is a repeated plan step (a second
`final`, or a second `chain d 4`).  An axiom block is named after one of
the construction models in `forge.AXIOMS` and lists as many cardinals as
its entry's arity.

`parse` produces a RecipeFile whose rendering parses back to an equal
value (round-trip stability is part of the test suite).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Optional

from .cards import ALEPH1, CardContext, CardError
from .diagram import ENTRIES
from .forge import AXIOMS, ForgeError, Recipe, Slot, iterand
from .submodel import ChainSpec, Plan
from .systems import ATOM_ALIASES, PRS_ATOMS


class ParseError(Exception):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class UnresolvedName(Exception):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


@dataclass
class RecipeFile:
    context: tuple = ()                      # declaration list for CardContext
    recipes: dict = field(default_factory=dict)
    axioms: dict = field(default_factory=dict)    # model name -> its cardinals
    plans: dict = field(default_factory=dict)
    assignments: dict = field(default_factory=dict)

    def ctx(self) -> CardContext:
        return CardContext(self.context)


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _check_name(tok: str, line: int) -> str:
    if not _NAME.match(tok):
        raise ParseError(f"bad name {tok!r}", line)
    return tok


def _first(current, what: str, line: int) -> None:
    """A single-valued statement given twice is an error, never an override."""
    if current is not None:
        raise ParseError(f"{what} given twice", line)


def _atom(tok: str, line: int) -> str:
    atom = ATOM_ALIASES.get(tok, tok)
    if atom not in PRS_ATOMS:
        raise ParseError(f"unknown system atom {tok!r}", line)
    return atom


_HEADER = re.compile(r"(context|recipe|axiom|plan|assign)\b\s*([A-Za-z0-9_]*)\s*\{")


def _blocks(text: str):
    """Yield (kind, name, header line, [(line, statement)]);
    whitespace-insensitive."""
    src = "\n".join(ln.split("#", 1)[0] for ln in text.splitlines())

    def lineof(p: int) -> int:
        return src.count("\n", 0, p) + 1

    pos = 0
    while True:
        m = re.compile(r"\S").search(src, pos)
        if m is None:
            return
        h = _HEADER.match(src, m.start())
        if h is None:
            raise ParseError(f"expected a block header, got {src[m.start():m.start() + 30]!r}",
                             lineof(m.start()))
        kind, name = h.group(1), h.group(2)
        if kind != "context" and not name:
            raise ParseError(f"{kind} block needs a name", lineof(m.start()))
        if kind == "context" and name:
            raise ParseError("context block takes no name", lineof(m.start()))
        end = src.find("}", h.end())
        if end == -1:
            raise ParseError(f"unterminated {kind} block", lineof(h.start()))
        body: list[tuple[int, str]] = []
        cursor = h.end()
        for part in src[h.end():end].split(";"):
            stmt = " ".join(part.split())
            if stmt:
                lead = len(part) - len(part.lstrip())
                body.append((lineof(cursor + lead), stmt))
            cursor += len(part) + 1
        yield kind, name, lineof(m.start()), body
        pos = end + 1


_ASSUME = re.compile(
    r"(pow_lt|pow)\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)\s*=\s*([A-Za-z0-9_]+)$"
    r"|(inaccessible)\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)$"
    r"|(succ)\(\s*([A-Za-z0-9_]+)\s*\)\s*=\s*([A-Za-z0-9_]+)$")


def _parse_context(body) -> tuple:
    decls = []
    for line, stmt in body:
        toks = stmt.split()
        if toks[0] == "card":
            if len(toks) == 2:
                decls.append(("card", _check_name(toks[1], line), False))
            elif len(toks) == 3 and toks[2] == "regular":
                decls.append(("card", _check_name(toks[1], line), True))
            else:
                raise ParseError(f"bad card declaration {stmt!r}", line)
        elif toks[0] in ("le", "lt"):
            if len(toks) != 3:
                raise ParseError(f"bad order declaration {stmt!r}", line)
            decls.append((toks[0], toks[1], toks[2]))
        elif toks[0] == "assume":
            m = _ASSUME.match(stmt[len("assume"):].strip())
            if not m:
                raise ParseError(f"bad assumption {stmt!r}", line)
            if m.group(1):  # pow_lt / pow
                kind, a, b, res = m.group(1), m.group(2), m.group(3), m.group(4)
                if res != a:
                    raise ParseError(f"assumption must have the form {kind}({a},{b})={a}", line)
                decls.append((kind, a, b))
            elif m.group(5):
                decls.append(("inaccessible", m.group(6), m.group(7)))
            else:
                decls.append(("succ", m.group(9), m.group(10)))
        else:
            raise ParseError(f"unknown context statement {stmt!r}", line)
    return tuple(decls)


_SLOT = re.compile(r"([a-z_]+)(?:\(\s*([A-Za-z0-9_]+)\s*\))?$")


def _parse_recipe(name, body) -> Recipe:
    length = cc = None
    slots = []
    for line, stmt in body:
        toks = stmt.split()
        if toks[0] == "length":
            if len(toks) != 2:
                raise ParseError(f"bad length {stmt!r}", line)
            _first(length, "length", line)
            length = tuple(t.strip() for t in toks[1].split("*"))
        elif toks[0] == "cc":
            if len(toks) != 2:
                raise ParseError(f"bad cc {stmt!r}", line)
            _first(cc, "cc", line)
            cc = toks[1]
        elif toks[0] == "slot":
            rest = toks[1:]
            if not rest:
                raise ParseError("slot needs a class", line)
            m = _SLOT.match(rest[0])
            if not m:
                raise ParseError(f"bad slot class {rest[0]!r}", line)
            try:
                cls = iterand(m.group(1), m.group(2))
            except ForgeError as exc:
                raise ParseError(str(exc), line) from None
            cofinal = False
            bookkeeping = None
            rest = rest[1:]
            while rest:
                if rest[0] == "cofinal":
                    cofinal = True
                    rest = rest[1:]
                elif rest[0] == "bookkeeping":
                    if len(rest) < 4 or rest[2] != "upto":
                        raise ParseError("bookkeeping needs '<atom> upto <cardinal>'", line)
                    _first(bookkeeping, "bookkeeping", line)
                    bookkeeping = (_atom(rest[1], line), rest[3])
                    rest = rest[4:]
                else:
                    raise ParseError(f"unknown slot flag {rest[0]!r}", line)
            slots.append(Slot(cls, cofinal=cofinal, bookkeeping=bookkeeping))
        else:
            raise ParseError(f"unknown recipe statement {stmt!r}", line)
    if length is None:
        raise ParseError(f"recipe {name} has no length", body[0][0] if body else 0)
    return Recipe(name, length=length, cc=cc or ALEPH1, slots=tuple(slots))


def _parse_axiom(name, header, body) -> tuple[str, ...]:
    if name not in AXIOMS:
        raise ParseError(f"unknown axiom model {name!r} (expected one of "
                         f"{', '.join(AXIOMS)})", header)
    cards = None
    for line, stmt in body:
        toks = stmt.split(None, 1)
        if toks[0] != "cards" or len(toks) != 2:
            raise ParseError(f"unknown axiom statement {stmt!r}", line)
        _first(cards, "cards", line)
        cards = tuple(_check_name(t.strip(), line) for t in toks[1].split(","))
        if len(cards) != AXIOMS[name].arity:
            raise ParseError(f"{name} takes {AXIOMS[name].arity} cardinals", line)
    if cards is None:
        raise ParseError(f"axiom {name} has no cards", header)
    return cards


_CHAIN = re.compile(
    r"chain\s+([db])\s+([1-4])\s*\(\s*([A-Za-z0-9_]+)\s*,"
    r"\s*(succ\(\s*[A-Za-z0-9_]+\s*\)|[A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)$")
_BASE = re.compile(r"base\s+gksmax\(\s*([A-Za-z0-9_,\s]+)\)$")
_FINAL = re.compile(r"final\s*\(\s*([A-Za-z0-9_]+)\s*\)$")


def _parse_plan(name, body) -> tuple[Plan, list[tuple[int, str]]]:
    """Returns the plan plus deferred succ(x) closures to resolve in context."""
    base = None
    steps = []
    final_width = None
    succ_fixups = []  # (step position, inner name, line)
    for line, stmt in body:
        if stmt.startswith("base"):
            m = _BASE.match(stmt)
            if not m:
                raise ParseError(f"bad base {stmt!r}", line)
            names = tuple(t.strip() for t in m.group(1).split(","))
            if len(names) != 5:
                raise ParseError("base gksmax takes five cardinals", line)
            _first(base, "base", line)
            base = names
        elif stmt.startswith("chain"):
            m = _CHAIN.match(stmt)
            if not m:
                raise ParseError(f"bad chain {stmt!r}", line)
            kind, idx, length, closure, width = m.groups()
            if any((s.kind, s.index) == (kind, int(idx)) for s in steps):
                raise ParseError(f"chain {kind} {idx} given twice", line)
            if closure.startswith("succ("):
                inner = closure[len("succ("):-1].strip()
                succ_fixups.append((len(steps), inner, line))
                closure = inner  # placeholder until resolved
            steps.append(ChainSpec(kind, int(idx), length, closure, width))
        elif stmt.startswith("final"):
            m = _FINAL.match(stmt)
            if not m:
                raise ParseError(f"bad final {stmt!r}", line)
            _first(final_width, "final", line)
            final_width = m.group(1)
            steps.append(ChainSpec("final", None, None, ALEPH1, final_width))
        else:
            raise ParseError(f"unknown plan statement {stmt!r}", line)
    if base is None or final_width is None:
        raise ParseError(f"plan {name} needs a base and a final step",
                         body[0][0] if body else 0)
    return Plan(name, base=base, steps=tuple(steps), final_width=final_width), succ_fixups


def _parse_assign(name, body) -> dict:
    out = {}
    for line, stmt in body:
        m = re.match(r"([A-Za-z]+)\s*=\s*([A-Za-z0-9_]+)$", stmt)
        if not m:
            raise ParseError(f"bad assignment line {stmt!r}", line)
        key = m.group(1)
        if key not in ENTRIES:
            raise ParseError(f"unknown entry {key!r} (expected one of {', '.join(ENTRIES)})", line)
        _first(out.get(key), key, line)
        out[key] = m.group(2)
    return out


def parse(text: str) -> RecipeFile:
    rf = RecipeFile()
    plan_fixups = []
    block_lines = {}
    for kind, name, header, body in _blocks(text):
        if (kind, name) in block_lines and kind != "context":
            raise ParseError(f"duplicate {kind} block {name}", header)
        block_lines[(kind, name)] = body[0][0] if body else 1
        if kind == "context":
            rf.context = rf.context + _parse_context(body)
        elif kind == "recipe":
            rf.recipes[name] = _parse_recipe(name, body)
        elif kind == "axiom":
            rf.axioms[name] = _parse_axiom(name, header, body)
        elif kind == "plan":
            plan, fixups = _parse_plan(name, body)
            rf.plans[name] = plan
            plan_fixups.append((name, fixups))
        else:
            rf.assignments[name] = _parse_assign(name, body)

    try:
        ctx = rf.ctx()
    except CardError as exc:
        raise UnresolvedName(str(exc), 1) from None

    def need(tok, line):
        if not ctx.has(tok):
            raise UnresolvedName(f"cardinal {tok!r} is not declared", line)

    for name, recipe in rf.recipes.items():
        line = block_lines[("recipe", name)]
        for f in recipe.length:
            need(f, line)
        need(recipe.cc, line)
        for slot in recipe.slots:
            if slot.iterand.size_bound is not None:
                need(slot.iterand.size_bound, line)
            if slot.bookkeeping is not None:
                need(slot.bookkeeping[1], line)
    for name, cards in rf.axioms.items():
        for c in cards:
            need(c, block_lines[("axiom", name)])
    for name, fixups in plan_fixups:
        plan = rf.plans[name]
        line = block_lines[("plan", name)]
        for tok in plan.base + (plan.final_width,):
            need(tok, line)
        steps = list(plan.steps)
        for pos, inner, fline in fixups:
            need(inner, fline)
            target = ctx.succ_of(inner)
            if target is None:
                raise UnresolvedName(f"succ({inner}) is not declared", fline)
            s = steps[pos]
            steps[pos] = ChainSpec(s.kind, s.index, s.length, target, s.width)
        for s in steps:
            if s.length is not None:
                need(s.length, line)
            need(s.closure, line), need(s.width, line)
        rf.plans[name] = Plan(plan.name, plan.base, tuple(steps), plan.final_width)
    for name, assignment in rf.assignments.items():
        line = block_lines[("assign", name)]
        for v in assignment.values():
            need(v, line)
    return rf


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_file(rf: RecipeFile, ctx: Optional[CardContext] = None) -> str:
    out = ["context {"]
    for decl in rf.context:
        if decl[0] == "card":
            out.append(f"  card {decl[1]}" + (" regular;" if decl[2] else ";"))
        elif decl[0] in ("le", "lt"):
            out.append(f"  {decl[0]} {decl[1]} {decl[2]};")
        elif decl[0] in ("pow", "pow_lt"):
            out.append(f"  assume {decl[0]}({decl[1]},{decl[2]})={decl[1]};")
        elif decl[0] == "inaccessible":
            out.append(f"  assume inaccessible({decl[1]},{decl[2]});")
        elif decl[0] == "succ":
            out.append(f"  assume succ({decl[1]})={decl[2]};")
    out.append("}")
    for name, r in rf.recipes.items():
        out.append(f"recipe {name} {{")
        out.append(f"  length {'*'.join(r.length)};")
        out.append(f"  cc {r.cc};")
        for s in r.slots:
            parts = [f"slot {s.iterand.token()}"]
            if s.cofinal:
                parts.append("cofinal")
            if s.bookkeeping is not None:
                parts.append(f"bookkeeping {s.bookkeeping[0]} upto {s.bookkeeping[1]}")
            out.append("  " + " ".join(parts) + ";")
        out.append("}")
    for name, cards in rf.axioms.items():
        out += [f"axiom {name} {{", f"  cards {', '.join(cards)};", "}"]
    for name, p in rf.plans.items():
        out.append(f"plan {name} {{")
        out.append(f"  base gksmax({','.join(p.base)});")
        for s in p.steps:
            if s.kind == "final":
                out.append(f"  final ({s.width});")
            else:
                closure = s.closure
                if ctx is not None:
                    # re-sugar declared successor closures on the d-chains
                    for a in ctx.names:
                        if ctx.succ_of(a) == closure and s.kind == "d":
                            closure = f"succ({a})"
                            break
                out.append(f"  chain {s.kind} {s.index} ({s.length}, {closure}, {s.width});")
        out.append("}")
    for name, a in rf.assignments.items():
        out.append(f"assign {name} {{")
        for k in ENTRIES:
            if k in a:
                out.append(f"  {k} = {a[k]};")
        out.append("}")
    return "\n".join(out) + "\n"


MODELS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "models")
BUILTIN_NAMES = tuple(sorted(f[:-len(".rcp")] for f in os.listdir(MODELS) if f.endswith(".rcp")))


def builtin_file(name: str) -> RecipeFile:
    """The shipped model file `models/NAME.rcp`, parsed.  NAME is matched
    against the shipped names, never joined into a path unchecked."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"no builtin named {name!r}; have {list(BUILTIN_NAMES)}")
    with open(os.path.join(MODELS, f"{name}.rcp")) as fh:
        return parse(fh.read())
