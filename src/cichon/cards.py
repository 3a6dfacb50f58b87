"""Named symbolic cardinals with a declared order and arithmetic assumptions.

A context is a finite catalog of cardinal names (aleph0, aleph1 and the
continuum symbol ``c`` are always present), a reflexive-transitive order
with strictness marks, per-name regularity flags, and a bag of declared
arithmetic facts of the shapes

    pow_lt(a, b) = a      meaning a^{<b} = a
    pow(a, b) = a         meaning a^b = a
    inaccessible(a, b)    meaning a is b-inaccessible
    succ(a) = b           meaning b = a^+

Nothing is ever computed from cardinal arithmetic: assumptions are looked
up (with monotone weakening, e.g. a^{<b} = a yields a^{<b'} = a for
b' <= b), never derived.  Comparisons are tri-state: queries that the
declared order does not settle come back as ``None`` rather than failing.

Ordinal expressions are restricted to finite products of regular
cardinals, the only iteration lengths the engines ever build; their
cofinality is the last factor and their cardinality the largest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

ALEPH0 = "aleph0"
ALEPH1 = "aleph1"
CONTINUUM = "c"


class CardError(Exception):
    """Base class for cardinal-context errors."""


class DuplicateName(CardError):
    pass


class OrderCycle(CardError):
    pass


class UnknownName(CardError):
    pass


class NonRegularFactor(CardError):
    pass


class IncomparableFactors(CardError):
    pass


class IncomparableNames(CardError):
    pass


@dataclass(frozen=True)
class OrdinalExpr:
    """Left-to-right ordinal product of regular cardinals, e.g. lam5*lam4."""

    factors: tuple[str, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("ordinal expression needs at least one factor")

    def __str__(self):
        return "*".join(self.factors)


# Declarations are (kind, *args) tuples mirroring the context block of the
# file format: ('card', name, regular), ('le', a, b), ('lt', a, b),
# ('pow_lt', a, b), ('pow', a, b), ('inaccessible', a, b), ('succ', a, b).
Declaration = tuple


class CardContext:
    """Immutable catalog of named cardinals, built from an ordered declaration
    list (or with :class:`ContextBuilder`)."""

    def __init__(self, declarations: Sequence[Declaration]):
        self.declarations = tuple(declarations)
        self.names: list[str] = []
        self._regular: set[str] = set()
        self._pow_lt: set[tuple[str, str]] = set()
        self._pow: set[tuple[str, str]] = set()
        self._inaccessible: set[tuple[str, str]] = set()
        self._succ: dict[str, str] = {}
        le_edges: list[tuple[str, str]] = []
        lt_edges: list[tuple[str, str]] = []

        self._declare(ALEPH0, regular=True)
        self._declare(ALEPH1, regular=True)
        self._declare(CONTINUUM, regular=False)
        le_edges.append((ALEPH0, ALEPH1))
        lt_edges.append((ALEPH0, ALEPH1))
        le_edges.append((ALEPH1, CONTINUUM))
        self._pow.add((CONTINUUM, ALEPH0))  # c^aleph0 = c holds in ZFC

        for decl in declarations:
            kind = decl[0]
            if kind == "card":
                _, name, regular = decl
                if name in (ALEPH0, ALEPH1, CONTINUUM):
                    # re-declaring the built-ins only adjusts the regular flag
                    if regular:
                        self._regular.add(name)
                    continue
                self._declare(name, regular=regular)
            elif kind == "le":
                _, a, b = decl
                self._need(a), self._need(b)
                le_edges.append((a, b))
            elif kind == "lt":
                _, a, b = decl
                self._need(a), self._need(b)
                le_edges.append((a, b))
                lt_edges.append((a, b))
            elif kind == "pow_lt":
                _, a, b = decl
                self._need(a), self._need(b)
                self._pow_lt.add((a, b))
            elif kind == "pow":
                _, a, b = decl
                self._need(a), self._need(b)
                self._pow.add((a, b))
            elif kind == "inaccessible":
                _, a, b = decl
                self._need(a), self._need(b)
                self._inaccessible.add((a, b))
            elif kind == "succ":
                _, a, b = decl
                self._need(a), self._need(b)
                self._succ[a] = b
                le_edges.append((a, b))
                lt_edges.append((a, b))
            else:
                raise ValueError(f"unknown declaration kind {kind!r}")

        self._le = self._close(le_edges)
        self._lt = self._strict_close(le_edges, lt_edges)
        for name in self.names:
            if (name, name) in self._lt:
                raise OrderCycle(f"strict cycle through {name}")

    # -- construction helpers ------------------------------------------------

    def _declare(self, name: str, regular: bool):
        if name in self.names:
            raise DuplicateName(name)
        self.names.append(name)
        if regular:
            self._regular.add(name)

    def _need(self, name: str):
        if name not in self.names:
            raise UnknownName(name)

    def _close(self, edges):
        reach = {(n, n) for n in self.names}
        reach.update(edges)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(reach):
                for (c, d) in list(reach):
                    if b == c and (a, d) not in reach:
                        reach.add((a, d))
                        changed = True
        return frozenset(reach)

    def _strict_close(self, le_edges, lt_edges):
        le = self._close(le_edges)
        strict = set()
        for (u, v) in lt_edges:
            for a in self.names:
                for b in self.names:
                    if (a, u) in le and (v, b) in le:
                        strict.add((a, b))
        return frozenset(strict)

    # -- queries -------------------------------------------------------------

    def has(self, name: str) -> bool:
        return name in self.names

    def check(self, name: str):
        if name not in self.names:
            raise UnknownName(name)

    def is_regular(self, name: str) -> bool:
        self.check(name)
        return name in self._regular

    def leq(self, a: str, b: str) -> Optional[bool]:
        """True if a <= b is derivable, False if b < a is, else None."""
        self.check(a), self.check(b)
        if (a, b) in self._le:
            return True
        if (b, a) in self._lt:
            return False
        return None

    def lt(self, a: str, b: str) -> Optional[bool]:
        self.check(a), self.check(b)
        if (a, b) in self._lt:
            return True
        if (b, a) in self._le:
            return False
        return None

    def uncountable(self, name: str) -> bool:
        return self.leq(ALEPH1, name) is True

    def same(self, a: str, b: str) -> bool:
        """Equal as cardinals: identical or ordered both ways."""
        return a == b or (self.leq(a, b) is True and self.leq(b, a) is True)

    def succ_of(self, name: str) -> Optional[str]:
        self.check(name)
        return self._succ.get(name)

    def has_pow_lt(self, a: str, b: str) -> bool:
        """Is a^{<b} = a declared (up to weakening the exponent)?"""
        self.check(a), self.check(b)
        return any(x == a and self.leq(b, y) is True for (x, y) in self._pow_lt)

    def has_pow(self, a: str, b: str) -> bool:
        """Is a^b = a declared, directly or via a^{<b'} = a with b < b'?"""
        self.check(a), self.check(b)
        if any(x == a and self.leq(b, y) is True for (x, y) in self._pow):
            return True
        return any(x == a and self.lt(b, y) is True for (x, y) in self._pow_lt)

    def has_inaccessible(self, a: str, b: str) -> bool:
        self.check(a), self.check(b)
        return any(x == a and self.leq(b, y) is True for (x, y) in self._inaccessible)

    def regulars_between(self, lo: str, hi: str) -> list[str]:
        """Declared regular names mu with lo <= mu <= hi, in context order."""
        return [n for n in self.names
                if n in self._regular
                and self.leq(lo, n) is True and self.leq(n, hi) is True]

    def sorted_names(self, names: Iterable[str]) -> list[str]:
        """Sort by the declared order (ties broken by declaration order)."""
        pool = list(dict.fromkeys(names))
        for n in pool:
            self.check(n)

        def key(n):
            below = sum(1 for m in pool if self.leq(m, n) is True)
            return (below, self.names.index(n))

        return sorted(pool, key=key)

    def max_of(self, names: Iterable[str]) -> str:
        """The <=-maximum of a set of names; IncomparableNames if none dominates."""
        pool = list(dict.fromkeys(names))
        if not pool:
            raise ValueError("max of empty set")
        for cand in pool:
            if all(self.leq(other, cand) is True for other in pool):
                return cand
        raise IncomparableNames(f"no maximum among {pool}")

    def min_of(self, names: Iterable[str]) -> str:
        pool = list(dict.fromkeys(names))
        if not pool:
            raise ValueError("min of empty set")
        for cand in pool:
            if all(self.leq(cand, other) is True for other in pool):
                return cand
        raise IncomparableNames(f"no minimum among {pool}")

    # -- ordinal expressions ---------------------------------------------------

    def ordinal(self, factors: Sequence[str]) -> OrdinalExpr:
        for f in factors:
            self.check(f)
            if not self.is_regular(f):
                raise NonRegularFactor(f)
        return OrdinalExpr(tuple(factors))

    def cf(self, e: OrdinalExpr) -> str:
        """Cofinality of the product: the last (regular) factor."""
        for f in e.factors:
            if not self.is_regular(f):
                raise NonRegularFactor(f)
        return e.factors[-1]

    def card(self, e: OrdinalExpr) -> str:
        """Cardinality of the product: the largest factor."""
        try:
            return self.max_of(e.factors)
        except IncomparableNames as exc:
            raise IncomparableFactors(str(exc)) from None

    def trace(self, mu: str, model_width: str) -> str:
        """|mu ∩ N| for a model N of width model_width: min(mu, width)."""
        return self.min_of([mu, model_width])


class ContextBuilder:
    """Small fluent helper for assembling declaration lists in code."""

    def __init__(self):
        self.decls: list[Declaration] = []

    def card(self, name: str, regular: bool = False) -> "ContextBuilder":
        self.decls.append(("card", name, regular))
        return self

    def le(self, a: str, b: str) -> "ContextBuilder":
        self.decls.append(("le", a, b))
        return self

    def lt(self, a: str, b: str) -> "ContextBuilder":
        self.decls.append(("lt", a, b))
        return self

    def chain(self, names: Sequence[str], strict: bool = False) -> "ContextBuilder":
        for a, b in zip(names, names[1:]):
            (self.lt if strict else self.le)(a, b)
        return self

    def pow_lt(self, a: str, b: str) -> "ContextBuilder":
        self.decls.append(("pow_lt", a, b))
        return self

    def pow(self, a: str, b: str) -> "ContextBuilder":
        self.decls.append(("pow", a, b))
        return self

    def inaccessible(self, a: str, b: str) -> "ContextBuilder":
        self.decls.append(("inaccessible", a, b))
        return self

    def succ(self, a: str, b: str) -> "ContextBuilder":
        self.decls.append(("succ", a, b))
        return self

    def build(self) -> CardContext:
        return CardContext(self.decls)
