"""The one text format every model is stated in: context, recipe, axiom,
plan and assign blocks.  Users write it; the builtins ship in it, and this
module alone maps a shipped name to its file (`builtin_file`).

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

`parse` reads the context blocks first: they concatenate, wherever they
sit, into the one CardContext the rest is read against.  A cardinal must be
declared by a `card` statement before any statement uses it, and only once
(aleph0, aleph1 and c may be re-declared, to mark them regular).  Every
other block is then parsed in file order; the cardinals it names are
checked as soon as it has parsed, each at its own statement's line, so a
syntax error in a block wins over an undeclared name in it.  A chain's
`succ(x)` is resolved when the chain is read.

Any other block is given once per kind and name, and a name names one
recipe, axiom or plan; a single-valued statement (`length`, `cc`, `base`,
`cards`, a slot's `bookkeeping`, an assigned entry) once per block: a
repeat is a ParseError, never an override; so is a repeated plan step (a
second `final`, or a second `chain d 4`).  A plan's steps come in
`submodel.STEP_ORDER`; any other order, or a missing chain, is a
ParseError at the plan's header.  An axiom block is named after one of
the construction models in `forge.AXIOMS` and lists as many cardinals as
its entry's arity.

`parse` produces a RecipeFile whose rendering parses back to an equal
value (round-trip stability is part of the test suite) and keeps the
CardContext it built; `derive(rf, name)` runs the model NAME on it.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

from . import forge, submodel
from .cards import ALEPH0, ALEPH1, CONTINUUM, CardContext, CardError
from .diagram import ENTRIES
from .forge import AXIOMS, DerivedModel, ForgeError, Recipe, Slot, iterand
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
    _ctx: Optional[CardContext] = field(default=None, compare=False, repr=False)

    def ctx(self) -> CardContext:
        """The context `parse` built (for a file made by hand, built once here)."""
        if self._ctx is None:
            self._ctx = CardContext(self.context)
        return self._ctx

    def kind_of(self, name: str) -> Optional[str]:
        """'recipe', 'axiom' or 'plan': the table holding the model NAME, if any."""
        tables = {"recipe": self.recipes, "axiom": self.axioms, "plan": self.plans}
        return next((kind for kind, table in tables.items() if name in table), None)


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
_NONBLANK = re.compile(r"\S")


def _blocks(text: str):
    """Yield (kind, name, header line, [(line, statement)]);
    whitespace-insensitive."""
    src = "\n".join(ln.split("#", 1)[0] for ln in text.splitlines())
    line, at = 1, 0  # the line of position `at`; lineof only moves it forward

    def lineof(p: int) -> int:
        nonlocal line, at
        line += src.count("\n", at, p)
        at = p
        return line

    pos = 0
    while True:
        m = _NONBLANK.search(src, pos)
        if m is None:
            return
        header = lineof(m.start())
        h = _HEADER.match(src, m.start())
        if h is None:
            raise ParseError(f"expected a block header, got {src[m.start():m.start() + 30]!r}",
                             header)
        kind, name = h.group(1), h.group(2)
        if kind != "context" and not name:
            raise ParseError(f"{kind} block needs a name", header)
        if kind == "context" and name:
            raise ParseError("context block takes no name", header)
        end = src.find("}", h.end())
        if end == -1:
            raise ParseError(f"unterminated {kind} block", header)
        body: list[tuple[int, str]] = []
        cursor = h.end()
        for part in src[h.end():end].split(";"):
            stmt = " ".join(part.split())
            if stmt:
                lead = len(part) - len(part.lstrip())
                body.append((lineof(cursor + lead), stmt))
            cursor += len(part) + 1
        yield kind, name, header, body
        pos = end + 1


_ASSUME = re.compile(
    r"(pow_lt|pow)\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)\s*=\s*([A-Za-z0-9_]+)$"
    r"|(inaccessible)\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)$"
    r"|(succ)\(\s*([A-Za-z0-9_]+)\s*\)\s*=\s*([A-Za-z0-9_]+)$")


def _need(known, tok: str, line: int) -> None:
    if tok not in known:
        raise UnresolvedName(f"cardinal {tok!r} is not declared", line)


def _parse_context(body, declared: set) -> list:
    """The block's declarations; `declared` holds the names declared so far
    and gains this block's.  A name must be declared before it is used."""
    decls = []
    for line, stmt in body:
        toks = stmt.split()
        if toks[0] == "card":
            if len(toks) < 2 or toks[2:] not in ([], ["regular"]):
                raise ParseError(f"bad card declaration {stmt!r}", line)
            decl = ("card", _check_name(toks[1], line), len(toks) == 3)
            if decl[1] in declared and decl[1] not in (ALEPH0, ALEPH1, CONTINUUM):
                raise ParseError(f"cardinal {decl[1]!r} declared twice", line)
            declared.add(decl[1])
        elif toks[0] in ("le", "lt"):
            if len(toks) != 3:
                raise ParseError(f"bad order declaration {stmt!r}", line)
            decl = tuple(toks)
        elif toks[0] == "assume":
            m = _ASSUME.match(stmt[len("assume"):].strip())
            if not m:
                raise ParseError(f"bad assumption {stmt!r}", line)
            if m.group(1):  # pow_lt / pow
                kind, a, b, res = m.group(1), m.group(2), m.group(3), m.group(4)
                if res != a:
                    raise ParseError(f"assumption must have the form {kind}({a},{b})={a}", line)
                decl = (kind, a, b)
            elif m.group(5):
                decl = ("inaccessible", m.group(6), m.group(7))
            else:
                decl = ("succ", m.group(9), m.group(10))
        else:
            raise ParseError(f"unknown context statement {stmt!r}", line)
        if decl[0] != "card":
            for tok in decl[1:]:
                _need(declared, tok, line)
        decls.append(decl)
    return decls


_SLOT = re.compile(r"([a-z_]+)(?:\(\s*([A-Za-z0-9_]+)\s*\))?$")


def _parse_recipe(name, header, body, uses) -> Recipe:
    length = cc = None
    slots = []
    for line, stmt in body:
        toks = stmt.split()
        if toks[0] == "length":
            if len(toks) != 2:
                raise ParseError(f"bad length {stmt!r}", line)
            _first(length, "length", line)
            length = tuple(_check_name(t, line) for t in toks[1].split("*"))
            uses += [(t, line) for t in length]
        elif toks[0] == "cc":
            if len(toks) != 2:
                raise ParseError(f"bad cc {stmt!r}", line)
            _first(cc, "cc", line)
            cc = toks[1]
            uses.append((cc, line))
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
            if m.group(2):
                uses.append((m.group(2), line))
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
                    uses.append((rest[3], line))
                    rest = rest[4:]
                else:
                    raise ParseError(f"unknown slot flag {rest[0]!r}", line)
            slots.append(Slot(cls, cofinal=cofinal, bookkeeping=bookkeeping))
        else:
            raise ParseError(f"unknown recipe statement {stmt!r}", line)
    if length is None:
        raise ParseError(f"recipe {name} has no length", header)
    return Recipe(name, length=length, cc=cc or ALEPH1, slots=tuple(slots))


def _parse_axiom(name, header, body, uses) -> tuple[str, ...]:
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
        uses += [(c, line) for c in cards]
    if cards is None:
        raise ParseError(f"axiom {name} has no cards", header)
    return cards


_CHAIN = re.compile(
    r"chain\s+([db])\s+([1-4])\s*\(\s*([A-Za-z0-9_]+)\s*,"
    r"\s*(?:succ\(\s*([A-Za-z0-9_]+)\s*\)|([A-Za-z0-9_]+))\s*,\s*([A-Za-z0-9_]+)\s*\)$")
_BASE = re.compile(r"base\s+gksmax\(\s*([A-Za-z0-9_,\s]+)\)$")
_FINAL = re.compile(r"final\s*\(\s*([A-Za-z0-9_]+)\s*\)$")


def _parse_plan(name, header, body, ctx, uses) -> submodel.Plan:
    base = None
    steps = []
    final_width = None
    for line, stmt in body:
        if stmt.startswith("base"):
            m = _BASE.match(stmt)
            if not m:
                raise ParseError(f"bad base {stmt!r}", line)
            names = tuple(_check_name(t.strip(), line) for t in m.group(1).split(","))
            if len(names) != 5:
                raise ParseError("base gksmax takes five cardinals", line)
            _first(base, "base", line)
            base = names
            uses += [(t, line) for t in base]
        elif stmt.startswith("chain"):
            m = _CHAIN.match(stmt)
            if not m:
                raise ParseError(f"bad chain {stmt!r}", line)
            kind, idx, length, succ_of, closure, width = m.groups()
            if any((s.kind, s.index) == (kind, int(idx)) for s in steps):
                raise ParseError(f"chain {kind} {idx} given twice", line)
            if succ_of is not None:
                _need(ctx.names, succ_of, line)
                closure = ctx.succ_of(succ_of)
                if closure is None:
                    raise UnresolvedName(f"succ({succ_of}) is not declared", line)
            uses += [(length, line), (closure, line), (width, line)]
            steps.append(submodel.ChainSpec(kind, int(idx), length, closure, width))
        elif stmt.startswith("final"):
            m = _FINAL.match(stmt)
            if not m:
                raise ParseError(f"bad final {stmt!r}", line)
            _first(final_width, "final", line)
            final_width = m.group(1)
            uses.append((final_width, line))
            steps.append(submodel.ChainSpec("final", None, None, ALEPH1, final_width))
        else:
            raise ParseError(f"unknown plan statement {stmt!r}", line)
    if base is None or final_width is None:
        raise ParseError(f"plan {name} needs a base and a final step", header)
    if tuple((s.kind, s.index) for s in steps) != submodel.STEP_ORDER:
        order = ", ".join(f"chain {k} {i}" if i else k for k, i in submodel.STEP_ORDER)
        raise ParseError(f"plan {name} needs its steps in the order {order}", header)
    return submodel.Plan(name, base=base, steps=tuple(steps))


def _parse_assign(body, uses) -> dict:
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
        uses.append((out[key], line))
    return out


def parse(text: str) -> RecipeFile:
    blocks = list(_blocks(text))
    declared = {ALEPH0, ALEPH1, CONTINUUM}
    context, end = [], 1
    for kind, _, header, body in blocks:
        if kind == "context":
            context += _parse_context(body, declared)
            end = body[-1][0] if body else header
    rf = RecipeFile(tuple(context))
    try:
        ctx = rf.ctx()
    except CardError as exc:  # an order or successor contradiction, found once all is read
        raise UnresolvedName(str(exc), end) from None
    tables = {"recipe": rf.recipes, "axiom": rf.axioms, "plan": rf.plans,
              "assign": rf.assignments}
    for kind, name, header, body in blocks:
        if kind == "context":
            continue
        if name in tables[kind]:
            raise ParseError(f"duplicate {kind} block {name}", header)
        if kind != "assign" and rf.kind_of(name):
            raise ParseError(f"{kind} {name} reuses the name of {rf.kind_of(name)} {name}", header)
        uses = []  # (cardinal, statement line) for each name the block reads
        if kind == "recipe":
            tables[kind][name] = _parse_recipe(name, header, body, uses)
        elif kind == "axiom":
            tables[kind][name] = _parse_axiom(name, header, body, uses)
        elif kind == "plan":
            tables[kind][name] = _parse_plan(name, header, body, ctx, uses)
        else:
            tables[kind][name] = _parse_assign(body, uses)
        for tok, line in uses:
            _need(declared, tok, line)  # the names of ctx
    return rf


def derive(rf: RecipeFile, name: str) -> DerivedModel:
    """Derive the recipe, axiom model or plan NAME on the file's context."""
    kind = rf.kind_of(name)
    if kind == "recipe":
        return forge.run_recipe(rf.ctx(), rf.recipes[name])
    if kind == "axiom":
        return forge.axiom_model(rf.ctx(), name, rf.axioms[name])
    if kind == "plan":
        return submodel.run_plan(rf.ctx(), rf.plans[name])
    raise KeyError(f"no recipe, axiom or plan named {name!r}")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_file(rf: RecipeFile) -> str:
    """The file's canonical text; only a plan reads the file's context."""
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
        ctx = rf.ctx()
        out.append(f"plan {name} {{")
        out.append(f"  base gksmax({','.join(p.base)});")
        for s in p.steps:
            if s.kind == "final":
                out.append(f"  final ({s.width});")
            else:  # a d-chain closure declared as succ(x) prints so
                closure = next((f"succ({a})" for a in ctx.names
                                if s.kind == "d" and ctx.succ_of(a) == s.closure), s.closure)
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


@functools.cache
def builtin_index() -> MappingProxyType:
    """Each name a shipped file defines (its model, named like the file, and
    its assignments) -> the file's stem; read from block headers, once."""
    index = {}
    for f in sorted(os.listdir(MODELS)):
        if f.endswith(".rcp"):
            with open(os.path.join(MODELS, f), encoding="utf-8") as fh:
                index.update((name, f[:-len(".rcp")])
                             for kind, name, _, _ in _blocks(fh.read()) if kind != "context")
    return MappingProxyType(index)


def builtin_file(name: str) -> RecipeFile:
    """The shipped file defining the model or assignment NAME, parsed.
    NAME is matched against the shipped names, never joined into a path."""
    index = builtin_index()
    if name not in index:
        raise KeyError(f"no builtin named {name!r}; have {sorted(index)}")
    with open(os.path.join(MODELS, f"{index[name]}.rcp"), encoding="utf-8") as fh:
        return parse(fh.read())
