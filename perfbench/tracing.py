"""In-memory spans around the calls into each cichon layer.

A traced run wraps library functions at the module attribute their caller
looks up (``forge.close``, ``submodel.constellation``, ...), so nested
calls get spans of their own and every layer gets a self time: the span's
duration minus the time its child spans cover.  Nothing inside ``src/`` is
edited; ``install`` patches attributes and returns a function that puts
the originals back.  An untraced run installs nothing.

Counts are recorded at the same boundaries.  Counting work runs inside a
``bench.counters`` span, so it is charged to the benchmark and not to the
layer that happens to be open around it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.sums: dict[str, float] = defaultdict(float)
        self.samples: dict[str, int] = defaultdict(int)
        self.seed_sizes: dict[int, int] = {}
        self._stack: list[list] = []          # [key, start, child seconds]

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def push(self, key: str):
        self._stack.append([key, _clock(), 0.0])

    def pop(self):
        key, start, child = self._stack.pop()
        dur = _clock() - start
        self.self_s[key] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, key: str):
        self.push(key)
        try:
            yield
        finally:
            self.pop()

    def call(self, key: str, fn, *args, **kwargs):
        self.push(key)
        try:
            return fn(*args, **kwargs)
        finally:
            self.pop()

    def count(self, name: str, value: float):
        """Add one sample of a count; reported as the mean per sample."""
        self.sums[name] += value
        self.samples[name] += 1

    def mean(self, name: str) -> float:
        n = self.samples.get(name, 0)
        return self.sums[name] / n if n else 0.0

    def merge(self, self_s: dict, sums: dict, samples: dict):
        """Fold in the totals a traced child process wrote out.  The child ran
        inside the open span, so its spanned time counts as that span's child."""
        for k, v in self_s.items():
            self.self_s[k] += v
        if self._stack:
            self._stack[-1][2] += sum(self_s.values())
        for k, v in sums.items():
            self.sums[k] += v
        for k, v in samples.items():
            self.samples[k] += v

    def totals(self) -> dict:
        return {"self_s": dict(self.self_s), "sums": dict(self.sums),
                "samples": dict(self.samples)}


def _plain(tr: Tracer, key: str, fn):
    def wrapper(*args, **kwargs):
        return tr.call(key, fn, *args, **kwargs)
    return wrapper


def _counted(tr: Tracer, key: str, fn, counter):
    def wrapper(*args, **kwargs):
        out = tr.call(key, fn, *args, **kwargs)
        with tr.span("bench.counters"):
            counter(args, out)
        return out
    return wrapper


def install(tr: Tracer) -> Callable[[], None]:
    """Wrap the layer entry points; returns the function that unwraps them."""
    from cichon import builtins, cards, diagram, facts, finite, forge, submodel, textfmt

    patched: list[tuple[object, str, object]] = []

    def patch(owner, name: str, wrapper):
        patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # cards: every way the library and the benchmark build a context
    def names(args, ctx):
        tr.count("cards.names", len(ctx.names))
    for owner in (cards, builtins, textfmt):
        patch(owner, "CardContext", _counted(tr, "cards.build", owner.CardContext, names))

    # forge / submodel: rule application; the calls below nest inside them
    for owner in (forge, builtins):
        patch(owner, "run_recipe", _plain(tr, "forge", owner.run_recipe))
        patch(owner, "axiom_model", _plain(tr, "forge", owner.axiom_model))
    patch(submodel, "run_plan", _plain(tr, "submodel", submodel.run_plan))

    def seeded(args, db):
        tr.seed_sizes[id(db)] = len(db.facts)

    def closed(fn):
        def close(db_, *args, **kwargs):
            facts_in = len(db_.facts)
            out = tr.call("facts.close", fn, db_, *args, **kwargs)
            caller = tr.current()
            with tr.span("bench.counters"):
                tr.count("facts.close.facts_in", facts_in)
                tr.count("facts.close.facts_out", len(db_.facts))
                tr.count("facts.close.universe", len(db_.universe()))
                added = facts_in - tr.seed_sizes.pop(id(db_), facts_in)
                tr.count("submodel.plan_facts" if caller == "submodel"
                         else "forge.rule_facts", added)
            return out
        return close

    def pinned(args, cons):
        tr.count("diagram.pinned", sum(1 for iv in cons.values() if iv.pinned))

    for owner in (forge, submodel):
        patch(owner, "base_facts", _counted(tr, "facts.seed", owner.base_facts, seeded))
        patch(owner, "close", closed(owner.close))
        patch(owner, "constellation",
              _counted(tr, "diagram.constellation", owner.constellation, pinned))
    patch(submodel, "intrinsic_bounds", _plain(tr, "diagram.bounds", submodel.intrinsic_bounds))
    patch(diagram, "check_assignment", _plain(tr, "diagram.check", diagram.check_assignment))

    # facts: replay of a derived database and of its rendered trace
    def lines(args, out):
        tr.count("facts.trace_lines", len(out))
    patch(facts, "verify", _plain(tr, "facts.verify", facts.verify))
    patch(facts.FactDB, "trace_lines",
          _counted(tr, "facts.render_trace", facts.FactDB.trace_lines, lines))
    patch(facts, "check_trace", _plain(tr, "facts.check_trace", facts.check_trace))
    patch(facts, "parse_trace", _plain(tr, "facts.parse_trace", facts.parse_trace))

    # finite: solvers, search and constructions
    def cells(args, out):
        R = args[0]
        tr.count("finite.cells", R.x_size * R.y_size)

    def leaves(args, out):
        R, R2 = args[0], args[1]
        tr.count("finite.psi_minus_leaves", R2.x_size ** R.x_size)

    patch(finite, "d_num", _counted(tr, "finite.d_num", finite.d_num, cells))
    patch(finite, "b_num", _counted(tr, "finite.b_num", finite.b_num, cells))
    patch(finite, "tukey_search",
          _counted(tr, "finite.tukey_search", finite.tukey_search, leaves))
    for name in ("ideal_systems", "dual", "parse_finsys"):
        patch(finite, name, _plain(tr, "finite.construct", getattr(finite, name)))

    # textfmt: the file format
    patch(textfmt, "parse", _plain(tr, "textfmt.parse", textfmt.parse))
    patch(textfmt, "render_file", _plain(tr, "textfmt.render", textfmt.render_file))

    def uninstall():
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
    return uninstall
