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
normalizes to the cardinal itself, so two expressions are equal exactly
when they are built from the same fields.  Each is built once: there is
one object per expression (see `SysExpr`), so equality is identity.  Each
object keeps its rendering, made when it is built, and its dual, found on
the first call of `dual`.
"""

from __future__ import annotations

import re

from .cards import CardContext

PRS_ATOMS = ("Lc", "Cn", "ww", "Mg")
ATOM_ALIASES = {"R1": "Lc", "R2": "Cn", "R3": "ww", "R4": "Mg",
                "Lc*": "Lc", "w^w": "ww"}


class ExprError(Exception):
    pass


_TABLE: dict[tuple, SysExpr] = {}  # (class, *fields) -> the one object with them
_store = object.__setattr__          # how a class writes its own slots, each once


class SysExpr:
    """The base of the nine expression classes: one object per expression.

    Construction looks ``(class, *fields)`` up in `_TABLE` and returns the
    object it finds there, so equal expressions are the same object, and
    equality and hashing are those of ``object``: identity.  Only on a miss
    does a class check its fields (`_check`) and render the object once
    (`_show`); a refused construction stores nothing.  Fields cannot be
    assigned; `dual` fills its slot once, on the first call.
    """

    __slots__ = ("_dual", "_text")
    _fields: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        e = _TABLE.get(key)
        if e is None:
            if len(fields) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
            cls._check(*fields)
            text = cls._show(*fields)
            e = object.__new__(cls)
            for name, value in zip(cls._fields + ("_dual", "_text"), fields + (None, text)):
                _store(e, name, value)
            _TABLE[key] = e
        return e

    @staticmethod
    def _check(*fields):
        """Raise ExprError on fields that make no expression of the class."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # pickle and copy give back the one object
        return type(self), tuple(getattr(self, n) for n in self._fields)


def _check_ideal(ideal):
    if ideal not in ("M", "N"):
        raise ExprError(f"unknown ideal {ideal!r}")


class Prs(SysExpr):
    """One of the four Polish relational systems of the diagram."""

    __slots__ = _fields = ("atom",)
    _show = "{}".format

    @staticmethod
    def _check(atom):
        if atom not in PRS_ATOMS:
            raise ExprError(f"unknown Prs atom {atom!r}")


class IdealSys(SysExpr):
    """The meager or null sigma-ideal ordered by inclusion."""

    __slots__ = _fields = ("ideal",)  # 'M' or 'N'
    _check, _show = staticmethod(_check_ideal), "idl({})".format


class CoverSys(SysExpr):
    """The covering system <X, I, in> of the meager or null ideal."""

    __slots__ = _fields = ("ideal",)
    _check, _show = staticmethod(_check_ideal), "cov({})".format


class CIdeal(SysExpr):
    """C_{[X]^{<theta}} with |X| = index: the small-subset covering system."""

    __slots__ = _fields = ("index", "theta")
    _show = "C[{}<{}]".format


class Ideal(SysExpr):
    """[X]^{<theta} with |X| = index, ordered by inclusion."""

    __slots__ = _fields = ("index", "theta")
    _show = "I[{}<{}]".format


class Card(SysExpr):
    """A regular cardinal viewed as a linear order."""

    __slots__ = _fields = ("name",)
    _show = "{}".format


class Ord(SysExpr):
    """An ordinal product iteration length as a linear order."""

    __slots__ = _fields = ("factors",)  # tuple[str, ...]
    _show = staticmethod(lambda factors: "ord(" + "*".join(factors) + ")")


class Prod(SysExpr):
    __slots__ = _fields = ("parts",)  # tuple[SysExpr, ...]
    _show = staticmethod(lambda parts: "prod(" + ",".join(map(render, parts)) + ")")

    @staticmethod
    def _check(parts):
        if len(parts) < 2:
            raise ExprError("product needs at least two parts")


class Dual(SysExpr):
    __slots__ = _fields = ("arg",)
    _show = staticmethod(lambda arg: f"dual({render(arg)})")


R1 = Prs("Lc")
R2 = Prs("Cn")
R3 = Prs("ww")
R4 = Prs("Mg")


def prs(token: str) -> Prs:
    return Prs(ATOM_ALIASES.get(token, token))


def dual(e: SysExpr) -> SysExpr:
    """Normalizing dual constructor: dual(dual(e)) is e.  Kept on the
    object, so each is looked up once."""
    d = e._dual
    if d is None:
        d = e.arg if type(e) is Dual else Dual(e)
        _store(e, "_dual", d)
    return d


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
    """Compact parseable rendering used in traces, tables and DOT labels,
    kept on the object since it was built."""
    return e._text


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
