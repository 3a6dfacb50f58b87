"""Named symbolic cardinals with a declared order and arithmetic assumptions.

A context is a finite catalog of cardinal names (aleph0, aleph1 and the
continuum symbol ``c`` are always present), a reflexive-transitive order
with strictness marks, per-name regularity flags, and a bag of declared
arithmetic facts of the shapes

    pow_lt(a, b) = a      meaning a^{<b} = a
    pow(a, b) = a         meaning a^b = a
    inaccessible(a, b)    meaning a is b-inaccessible
    succ(a) = b           meaning b = a^+

A successor is checked against the order once it is closed: a second
succ(a) must name the same cardinal as the first, and no declared name may
lie strictly between a and a^+; either contradiction raises `BadSuccessor`.

Nothing is ever computed from cardinal arithmetic: assumptions are looked
up (with monotone weakening, e.g. a^{<b} = a yields a^{<b'} = a for
b' <= b), never derived.  Comparisons are tri-state: queries that the
declared order does not settle come back as ``None`` rather than failing.

The order is closed once, when the context is built.  Each name has its
position in context order, and row i of the closure is an ``int`` bitmask:
``_up[i]`` holds the names j with names[i] <= names[j] (one Warshall pass
over the le/lt/succ edges), and ``_strict[i]`` those with names[i] <= u < v
<= names[j] for a declared u < v.  Every order query tests bits of these
rows; a name whose ``_strict`` row holds itself is a strict cycle.

Ordinal expressions are restricted to finite products of regular
cardinals, the only iteration lengths the engines ever build, and are held
as their tuple of factors; their cofinality is the last factor and their
cardinality the largest one.
"""

from __future__ import annotations

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


class BadSuccessor(CardError):
    pass


# Declarations are (kind, *args) tuples mirroring the context block of the
# file format: ('card', name, regular), ('le', a, b), ('lt', a, b),
# ('pow_lt', a, b), ('pow', a, b), ('inaccessible', a, b), ('succ', a, b).
Declaration = tuple


class CardContext:
    """Immutable catalog of named cardinals, built from an ordered declaration
    list."""

    def __init__(self, declarations: Sequence[Declaration]):
        self.declarations = tuple(declarations)
        self.names: list[str] = []
        self._pos: dict[str, int] = {}
        self._regular: set[str] = set()
        # kind -> a -> [b, ...] for each declared kind(a, b)
        self._assumed: dict[str, dict[str, list[str]]] = {
            "pow_lt": {}, "pow": {CONTINUUM: [ALEPH0]},  # c^aleph0 = c holds in ZFC
            "inaccessible": {}}
        self._succ: dict[str, str] = {}

        self._declare(ALEPH0, regular=True)
        self._declare(ALEPH1, regular=True)
        self._declare(CONTINUUM, regular=False)
        # (i, j, strict): names[i] <= names[j], or < when strict
        edges = [(0, 1, True), (1, 2, False)]  # aleph0 < aleph1 <= c
        succs: list[tuple[str, str]] = []

        for decl in self.declarations:
            if len(decl) != 3:
                raise ValueError(f"bad declaration {decl!r}")
            kind, a, b = decl
            if kind == "card":
                if a in (ALEPH0, ALEPH1, CONTINUUM):
                    # re-declaring the built-ins only adjusts the regular flag
                    if b:
                        self._regular.add(a)
                    continue
                self._declare(a, regular=b)
                continue
            if kind not in ("le", "lt", "succ") and kind not in self._assumed:
                raise ValueError(f"unknown declaration kind {kind!r}")
            i, j = self.check(a), self.check(b)
            if kind in self._assumed:
                self._assumed[kind].setdefault(a, []).append(b)
                continue
            edges.append((i, j, kind != "le"))
            if kind == "succ":
                succs.append((a, b))

        # _up[i]: names j with names[i] <= names[j] (Warshall closure)
        n = len(self.names)
        up = [1 << i for i in range(n)]
        for i, j, _ in edges:
            up[i] |= 1 << j
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        # _strict[i]: names j with names[i] <= u < v <= names[j] for a declared u < v
        strict = [0] * n
        for u, v, is_strict in edges:
            if is_strict:
                for i in range(n):
                    if up[i] >> u & 1:
                        strict[i] |= up[v]
        self._up, self._strict = up, strict
        for i, name in enumerate(self.names):
            if strict[i] >> i & 1:
                raise OrderCycle(f"strict cycle through {name}")
        for a, b in succs:
            first = self._succ.setdefault(a, b)
            if not self.same(first, b):
                raise BadSuccessor(f"succ({a}) is declared as both {first} and {b}")
            i, j = self._pos[a], self._pos[b]
            for k, name in enumerate(self.names):
                if strict[i] >> k & 1 and strict[k] >> j & 1:
                    raise BadSuccessor(f"{name} lies strictly between {a} and succ({a})={b}")

    def _declare(self, name: str, regular: bool):
        if name in self._pos:
            raise DuplicateName(name)
        self._pos[name] = len(self.names)
        self.names.append(name)
        if regular:
            self._regular.add(name)

    # -- queries -------------------------------------------------------------

    def has(self, name: str) -> bool:
        return name in self._pos

    def check(self, name: str) -> int:
        """Position of a declared name in context order."""
        try:
            return self._pos[name]
        except KeyError:
            raise UnknownName(name) from None

    def is_regular(self, name: str) -> bool:
        self.check(name)
        return name in self._regular

    def leq(self, a: str, b: str) -> Optional[bool]:
        """True if a <= b is derivable, False if b < a is, else None."""
        i, j = self.check(a), self.check(b)
        if self._up[i] >> j & 1:
            return True
        if self._strict[j] >> i & 1:
            return False
        return None

    def lt(self, a: str, b: str) -> Optional[bool]:
        i, j = self.check(a), self.check(b)
        if self._strict[i] >> j & 1:
            return True
        if self._up[j] >> i & 1:
            return False
        return None

    def uncountable(self, name: str) -> bool:
        return self.leq(ALEPH1, name) is True

    def same(self, a: str, b: str) -> bool:
        """Equal as cardinals: identical or ordered both ways."""
        return a == b or (self.leq(a, b) is True and self.leq(b, a) is True)

    def canon(self, name: str) -> str:
        """The first declared name equal to `name` as a cardinal."""
        j = self.check(name)
        return next(n for i, n in enumerate(self.names)
                    if self._up[i] >> j & 1 and self._up[j] >> i & 1)

    def succ_of(self, name: str) -> Optional[str]:
        self.check(name)
        return self._succ.get(name)

    def _assumes(self, kind: str, a: str, b: str, strict: bool = False) -> bool:
        """Is kind(a, y) declared for some y >= b (y > b when strict)?"""
        self.check(a), self.check(b)
        above = self.lt if strict else self.leq
        return any(above(b, y) is True for y in self._assumed[kind].get(a, ()))

    def has_pow_lt(self, a: str, b: str) -> bool:
        """Is a^{<b} = a declared (up to weakening the exponent)?"""
        return self._assumes("pow_lt", a, b)

    def has_pow(self, a: str, b: str) -> bool:
        """Is a^b = a declared, directly or via a^{<b'} = a with b < b'?"""
        return self._assumes("pow", a, b) or self._assumes("pow_lt", a, b, strict=True)

    def has_inaccessible(self, a: str, b: str) -> bool:
        return self._assumes("inaccessible", a, b)

    def regulars_between(self, lo: str, hi: str) -> list[str]:
        """Declared regular names mu with lo <= mu <= hi, in context order."""
        i, j = self.check(lo), self.check(hi)
        return [n for k, n in enumerate(self.names)
                if n in self._regular and self._up[i] >> k & 1 and self._up[k] >> j & 1]

    def sorted_names(self, names: Iterable[str]) -> list[str]:
        """Sort by the declared order (ties broken by declaration order)."""
        pool = [self.check(n) for n in dict.fromkeys(names)]

        def key(j):
            return (sum(1 for i in pool if self._up[i] >> j & 1), j)

        return [self.names[j] for j in sorted(pool, key=key)]

    def _extreme(self, names: Iterable[str], upper: bool) -> str:
        pool = list(dict.fromkeys(names))
        if not pool:
            raise ValueError(f"{'max' if upper else 'min'} of empty set")
        pos = [self.check(n) for n in pool]
        for cand, j in zip(pool, pos):
            if all((self._up[i] >> j if upper else self._up[j] >> i) & 1 for i in pos):
                return cand
        raise IncomparableNames(f"no {'maximum' if upper else 'minimum'} among {pool}")

    def max_of(self, names: Iterable[str]) -> str:
        """The <=-maximum of a set of names; IncomparableNames if none dominates."""
        return self._extreme(names, upper=True)

    def min_of(self, names: Iterable[str]) -> str:
        return self._extreme(names, upper=False)

    # -- ordinal expressions ---------------------------------------------------

    def ordinal(self, factors: Sequence[str]) -> tuple[str, ...]:
        """The factors of a left-to-right ordinal product of regular
        cardinals, e.g. lam5*lam4, checked."""
        if not factors:
            raise ValueError("ordinal expression needs at least one factor")
        for f in factors:
            self.check(f)
            if not self.is_regular(f):
                raise NonRegularFactor(f)
        return tuple(factors)

    def cf(self, factors: tuple[str, ...]) -> str:
        """Cofinality of the product: the last (regular) factor."""
        for f in factors:
            if not self.is_regular(f):
                raise NonRegularFactor(f)
        return factors[-1]

    def card(self, factors: tuple[str, ...]) -> str:
        """Cardinality of the product: the largest factor."""
        try:
            return self.max_of(factors)
        except IncomparableNames as exc:
            raise IncomparableFactors(str(exc)) from None

    def trace(self, mu: str, model_width: str) -> str:
        """|mu ∩ N| for a model N of width model_width: min(mu, width)."""
        return self.min_of([mu, model_width])

