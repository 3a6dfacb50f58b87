"""Symbolic relational-system expressions.

The expression language covers exactly the shapes the derivations use:

* the four Polish atoms ``Lc`` (localization slaloms), ``Cn`` (null-set
  avoidance), ``ww`` (eventual domination on Baire space), ``Mg`` (meager
  covering), aliased R1..R4;
* the meager/null sigma-ideals as directed orders (``idl(M)``, ``idl(N)``)
  and their covering systems (``cov(M)``, ``cov(N)``);
* ``C[x<t]`` and ``I[x<t]`` for the covering system and the ideal of
  subsets of size < t of a set of size x;
* regular cardinals as linear orders, ordinal products as iteration
  lengths, finite products, and duals.

Duals normalize (dual of dual cancels) and a one-factor ordinal product
normalizes to the cardinal itself, so expression equality is syntactic
equality after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .cards import CardContext

PRS_ATOMS = ("Lc", "Cn", "ww", "Mg")
ATOM_ALIASES = {"R1": "Lc", "R2": "Cn", "R3": "ww", "R4": "Mg",
                "Lc*": "Lc", "w^w": "ww"}


class ExprError(Exception):
    pass


@dataclass(frozen=True)
class Prs:
    """One of the four Polish relational systems of the diagram."""

    atom: str

    def __post_init__(self):
        if self.atom not in PRS_ATOMS:
            raise ExprError(f"unknown Prs atom {self.atom!r}")


@dataclass(frozen=True)
class IdealSys:
    """The meager or null sigma-ideal ordered by inclusion."""

    ideal: str  # 'M' or 'N'

    def __post_init__(self):
        if self.ideal not in ("M", "N"):
            raise ExprError(f"unknown ideal {self.ideal!r}")


@dataclass(frozen=True)
class CoverSys:
    """The covering system <X, I, in> of the meager or null ideal."""

    ideal: str

    def __post_init__(self):
        if self.ideal not in ("M", "N"):
            raise ExprError(f"unknown ideal {self.ideal!r}")


@dataclass(frozen=True)
class CIdeal:
    """C_{[X]^{<theta}} with |X| = index: the small-subset covering system."""

    index: str
    theta: str


@dataclass(frozen=True)
class Ideal:
    """[X]^{<theta} with |X| = index, ordered by inclusion."""

    index: str
    theta: str


@dataclass(frozen=True)
class Card:
    """A regular cardinal viewed as a linear order."""

    name: str


@dataclass(frozen=True)
class Ord:
    """An ordinal product iteration length as a linear order."""

    factors: tuple[str, ...]


@dataclass(frozen=True)
class Prod:
    parts: tuple["SysExpr", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ExprError("product needs at least two parts")


@dataclass(frozen=True)
class Dual:
    arg: "SysExpr"


SysExpr = Union[Prs, IdealSys, CoverSys, CIdeal, Ideal, Card, Ord, Prod, Dual]

R1 = Prs("Lc")
R2 = Prs("Cn")
R3 = Prs("ww")
R4 = Prs("Mg")


def prs(token: str) -> Prs:
    return Prs(ATOM_ALIASES.get(token, token))


def dual(e: SysExpr) -> SysExpr:
    """Normalizing dual constructor: dual(dual(e)) is e."""
    if isinstance(e, Dual):
        return e.arg
    return Dual(e)


def ord_expr(factors: tuple[str, ...]) -> SysExpr:
    """The ordinal product of the factors; one factor collapses to the
    cardinal itself."""
    if len(factors) == 1:
        return Card(factors[0])
    return Ord(factors)


def validate_expr(ctx: CardContext, e: SysExpr):
    """Check context-dependent invariants; raises ExprError."""
    if isinstance(e, (Prs, IdealSys, CoverSys)):
        return
    if isinstance(e, (CIdeal, Ideal)):
        ctx.check(e.index), ctx.check(e.theta)
        if ctx.leq(e.theta, e.index) is not True:
            raise ExprError(f"need theta <= index in {render(e)}")
        return
    if isinstance(e, Card):
        ctx.check(e.name)
        if not ctx.is_regular(e.name):
            raise ExprError(f"{e.name} is not flagged regular")
        return
    if isinstance(e, Ord):
        for f in e.factors:
            ctx.check(f)
            if not ctx.is_regular(f):
                raise ExprError(f"ordinal factor {f} is not regular")
        return
    if isinstance(e, Prod):
        for p in e.parts:
            validate_expr(ctx, p)
        return
    if isinstance(e, Dual):
        validate_expr(ctx, e.arg)
        return
    raise ExprError(f"unknown expression {e!r}")


def subexpressions(e: SysExpr):
    yield e
    if isinstance(e, Dual):
        yield from subexpressions(e.arg)
    elif isinstance(e, Prod):
        for p in e.parts:
            yield from subexpressions(p)


def render(e: SysExpr) -> str:
    """Compact parseable rendering used in traces, tables and DOT labels."""
    if isinstance(e, Prs):
        return e.atom
    if isinstance(e, IdealSys):
        return f"idl({e.ideal})"
    if isinstance(e, CoverSys):
        return f"cov({e.ideal})"
    if isinstance(e, CIdeal):
        return f"C[{e.index}<{e.theta}]"
    if isinstance(e, Ideal):
        return f"I[{e.index}<{e.theta}]"
    if isinstance(e, Card):
        return e.name
    if isinstance(e, Ord):
        return "ord(" + "*".join(e.factors) + ")"
    if isinstance(e, Prod):
        return "prod(" + ",".join(render(p) for p in e.parts) + ")"
    if isinstance(e, Dual):
        return f"dual({render(e.arg)})"
    raise ExprError(f"cannot render {e!r}")


class _Unparsed(Exception):
    """args: (message, position in the stripped text); parse_expr rewords
    it as the ExprError that quotes the caller's text."""


_NAME = re.compile(r"\w+")  # \w is exactly str.isalnum() or "_"


def _name(s: str, pos: int) -> tuple[str, int]:
    m = _NAME.match(s, pos)
    if m is None:
        raise _Unparsed("expected a name", pos)
    return m.group(), m.end()


def _expect(s: str, pos: int, ch: str) -> int:
    if not s.startswith(ch, pos):
        raise _Unparsed(f"expected {ch!r}", pos)
    return pos + len(ch)


def _parse(s: str, pos: int) -> tuple[SysExpr, int]:
    """The expression that starts at s[pos], and the position after it."""
    if s.startswith("dual(", pos):
        inner, pos = _parse(s, pos + 5)
        pos = _expect(s, pos, ")")
        return dual(inner), pos
    if s.startswith("prod(", pos):
        part, pos = _parse(s, pos + 5)
        parts = [part]
        while s.startswith(",", pos):
            part, pos = _parse(s, pos + 1)
            parts.append(part)
        pos = _expect(s, pos, ")")
        return Prod(tuple(parts)), pos
    if s.startswith("ord(", pos):
        n, pos = _name(s, pos + 4)
        names = [n]
        while s.startswith("*", pos):
            n, pos = _name(s, pos + 1)
            names.append(n)
        pos = _expect(s, pos, ")")
        return ord_expr(tuple(names)), pos
    if s.startswith(("idl(", "cov("), pos):
        kind = IdealSys if s[pos] == "i" else CoverSys
        n, pos = _name(s, pos + 4)
        pos = _expect(s, pos, ")")
        return kind(n), pos
    if s.startswith(("C[", "I["), pos):
        kind = CIdeal if s[pos] == "C" else Ideal
        idx, pos = _name(s, pos + 2)
        th, pos = _name(s, _expect(s, pos, "<"))
        pos = _expect(s, pos, "]")
        return kind(idx, th), pos
    n, pos = _name(s, pos)
    return (prs(n) if n in PRS_ATOMS or n in ATOM_ALIASES else Card(n)), pos


def parse_expr(text: str) -> SysExpr:
    """Inverse of :func:`render` (also accepts the R1..R4 aliases).

    Module-level functions pass the position along instead of closures
    sharing it: a nested function that calls itself is a reference cycle,
    and one cycle per call keeps the cyclic garbage collector running
    through every replay.
    """
    s = text.strip()
    try:
        out, pos = _parse(s, 0)
        if pos != len(s):
            raise _Unparsed("trailing input", pos)
    except _Unparsed as exc:
        msg, pos = exc.args
        raise ExprError(f"{msg} at {pos} in {text!r}") from None
    return out
