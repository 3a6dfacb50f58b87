"""Chain-intersection engine: collapsing the left-side model to ten values.

Starting from the left-side construction (every system pinned between
theta_i and theta_inf), the plan intersects the forcing with a descending
sequence of directed systems of elementary submodels.  The engine tracks,
per system, the set of regular cardinals known to embed below it plus its
unbounding and dominating numbers, and replays the intersection steps:

* a step leaves a state untouched when the model is wide enough to
  contain a dominating family (d and every below-cardinal at most the
  width);
* otherwise each below-cardinal above the width collapses onto the chain
  length (the chain is cofinal in the too-large regular), the dominating
  number drops to the trace of the old one in the model, and the
  unbounding number drops to the closure degree of the union model;
* on the b-step of system i the generic bounds fail to meet and the
  two-directed-systems product bound takes over, pinning (b, d) to the
  step lengths and recording the product Lambda_i.

Every pin requires the lower and upper bounds to meet exactly; a gap is
an error carrying both bounds.  The run emits the product-bound and
regular-embedding facts into a database whose constellation is the
bottom-row assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cards import ALEPH0, ALEPH1, CardContext, IncomparableNames
from .diagram import constellation, intrinsic_bounds
from .facts import base_facts, close, replays_source
from .forge import AXIOMS, DerivedModel, ForgeError, MissingAssumption
from .systems import PRS_ATOMS, Card, Prod, Prs, render


class SubmodelError(Exception):
    pass


class Unpinned(SubmodelError):
    pass


class PlanOrderViolation(SubmodelError):
    pass


# (kind, index) of a plan's steps: a d-chain then a b-chain from level 4
# down to level 1, then the final step
STEP_ORDER = (("d", 4), ("b", 4), ("d", 3), ("b", 3),
              ("d", 2), ("b", 2), ("d", 1), ("b", 1), ("final", None))


@dataclass(frozen=True)
class ChainSpec:
    kind: str                  # 'd' | 'b' | 'final'
    index: Optional[int]       # 1..4, None for final
    length: Optional[str]      # chain order type; None for final
    closure: str               # closure degree of each model in the chain
    width: str                 # |N_t|

    def label(self) -> str:
        if self.kind == "final":
            return "final"
        return f"{5 - self.index}.{1 if self.kind == 'd' else 2}"


@dataclass(frozen=True)
class SysState:
    below: frozenset[str]      # regulars embedding below the system
    b: str
    d: str

    def check(self, ctx: CardContext):
        for mu in self.below:
            if ctx.leq(self.b, mu) is not True or ctx.leq(mu, self.d) is not True:
                raise SubmodelError(f"below-cardinal {mu} escapes [{self.b},{self.d}]")
        if ctx.leq(self.b, self.d) is not True:
            raise SubmodelError(f"b={self.b} above d={self.d}")


@dataclass(frozen=True)
class Plan:
    name: str
    base: tuple[str, str, str, str, str]   # theta_1..theta_4, theta_inf
    steps: tuple[ChainSpec, ...]
    final_width: str                       # the continuum target

    def d_length(self, i: int) -> str:
        return next(s.length for s in self.steps if s.kind == "d" and s.index == i)

    def b_length(self, i: int) -> str:
        return next(s.length for s in self.steps if s.kind == "b" and s.index == i)


@dataclass(frozen=True)
class Snapshot:
    label: str
    states: tuple[SysState, SysState, SysState, SysState]
    notes: tuple[str, ...]


@dataclass
class TableLog:
    snapshots: list[Snapshot]
    product_bounds: dict[int, Prod]


# ---------------------------------------------------------------------------
# initialization and stepping
# ---------------------------------------------------------------------------

def init_from_gksmax(ctx: CardContext, base: Sequence[str]) -> list[SysState]:
    """Start-of-run states: below = regulars in [theta_i, theta_inf]."""
    base = tuple(base)
    for name in base:
        if not ctx.has(name):
            raise MissingAssumption(f"context does not declare {name}")
    miss = AXIOMS["gksmax"].construct(ctx, base)[0]
    if miss:
        raise MissingAssumption("; ".join(miss))
    tinf = base[4]
    states = []
    for i in range(1, 5):
        below = frozenset(ctx.regulars_between(base[i - 1], tinf))
        states.append(SysState(below, base[i - 1], tinf))
    return states


def step(states: Sequence[SysState], c: ChainSpec, ctx: CardContext
         ) -> tuple[list[SysState], list[str]]:
    """One intersection step; returns the new states and engine notes."""
    out: list[SysState] = []
    notes: list[str] = []
    for pos, st in enumerate(states):
        sysno = pos + 1
        small_enough = (ctx.leq(st.d, c.width) is True
                        and all(ctx.leq(m, c.width) is True for m in st.below))
        if small_enough:
            out.append(st)  # the model contains a dominating family
            continue
        if c.kind == "final":
            raise Unpinned(
                f"final width {c.width} does not dominate system {sysno} (d={st.d})")

        stays, collapsed = [], False
        for mu in sorted(st.below, key=ctx.check):
            q = ctx.leq(mu, c.width)
            if q is True:
                stays.append(mu)
            elif ctx.lt(c.width, mu) is True:
                # the chain is cofinal in the too-large regular: mu -> length
                # (needs b(mu) = mu > width, which mu > width gives)
                collapsed = True
            else:
                raise Unpinned(f"cannot compare {mu} with width {c.width}")
        below2 = set(stays)
        if collapsed:
            below2.add(c.length)

        try:
            degree = ctx.min_of([c.closure, c.length])
            naive = ctx.min_of([st.b, c.closure])
            b_lo = ctx.min_of([st.b, degree])
            b_hi = ctx.min_of(below2)
            d_hi = ctx.trace(st.d, c.width)
            d_lo = ctx.max_of(below2)
        except IncomparableNames as exc:
            raise Unpinned(f"system {sysno}: {exc}") from None
        if naive != b_lo:
            notes.append(
                f"system {sysno}: union closure read as min({c.closure},{c.length})={degree}"
                f" (raw closure would give b>={naive})")

        if not ctx.same(b_lo, b_hi):
            raise Unpinned(
                f"system {sysno}: b bounds do not meet (lower {b_lo}, upper {b_hi})")
        if ctx.same(d_lo, d_hi):
            d2 = d_lo
        elif c.kind == "b" and c.index == sysno:
            # two-directed-systems bound: d(S cap N) <= d(Lambda_i) = max(below)
            d2 = d_lo
            notes.append(
                f"system {sysno}: product bound pins d={d2} (trace bound was {d_hi})")
        else:
            raise Unpinned(
                f"system {sysno}: d bounds do not meet (lower {d_lo}, upper {d_hi})")
        st2 = SysState(frozenset(below2), b_lo, d2)
        st2.check(ctx)
        out.append(st2)
    return out, notes


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def plan_diagnostics(ctx: CardContext, p: Plan) -> list[str]:
    """Canonical-shape and hypothesis checks ((H1)-(H6) analogues)."""
    diags: list[str] = []
    got = tuple((s.kind, s.index) for s in p.steps)
    if got != STEP_ORDER:
        raise PlanOrderViolation(f"steps {got} are not the canonical order {STEP_ORDER}")

    for name in p.base + (p.final_width,):
        if not ctx.has(name):
            diags.append(f"context does not declare {name}")
            return diags
    diags += AXIOMS["gksmax"].construct(ctx, p.base)[0]

    widths = [s.width for s in p.steps[:-1]]
    for a, b in zip(widths, widths[1:]):
        if ctx.lt(b, a) is not True:
            diags.append(f"widths must strictly decrease: need {b} < {a}")
    final = p.steps[-1]
    if final.closure != ALEPH1:
        diags.append("final step must be sigma-closed (closure aleph1)")
    if final.width != p.final_width:
        diags.append("final width must be the continuum target")
    if not ctx.has_pow(p.final_width, ALEPH0):
        diags.append(f"needs pow({p.final_width},aleph0)={p.final_width} declared")

    for s in p.steps[:-1]:
        if not (ctx.is_regular(s.length) and ctx.uncountable(s.length)):
            diags.append(f"chain length {s.length} must be regular uncountable")
        if ctx.lt(s.length, s.width) is not True:
            diags.append(f"chain length {s.length} must sit below the width {s.width}")
        theta_minus = next(t.width for t in p.steps
                           if t.kind == "b" and t.index == s.index)
        if s.kind == "d":
            if ctx.succ_of(theta_minus) != s.closure:
                diags.append(
                    f"d-chain {s.index}: closure {s.closure} must be succ({theta_minus})")
            if not ctx.has_pow(s.width, theta_minus):
                diags.append(
                    f"d-chain {s.index}: needs pow({s.width},{theta_minus})={s.width}")
        else:
            if s.closure != s.width:
                diags.append(f"b-chain {s.index}: closure and width must both be theta^-")
            if not ctx.has_pow_lt(s.width, s.width):
                diags.append(
                    f"b-chain {s.index}: needs pow_lt({s.width},{s.width})={s.width}")
    return diags


def product_expr(p: Plan, i: int) -> Prod:
    """Lambda_i: the product of the chain lengths from level i up."""
    parts = []
    for j in range(i, 5):
        parts += [Card(p.d_length(j)), Card(p.b_length(j))]
    return Prod(tuple(parts))


def run_steps(ctx: CardContext, p: Plan) -> TableLog:
    """Check the plan's hypotheses and run its intersection steps, pinning
    each b-step's system to its product bound."""
    diags = plan_diagnostics(ctx, p)
    if diags:
        raise MissingAssumption("; ".join(diags))

    states = init_from_gksmax(ctx, p.base)
    log = TableLog([Snapshot("start", tuple(states), ())], {})
    for spec in p.steps:
        states, notes = step(states, spec, ctx)
        log.snapshots.append(Snapshot(spec.label(), tuple(states), tuple(notes)))
        if spec.kind == "b":
            lam = product_expr(p, spec.index)
            bI, dI = intrinsic_bounds(ctx, lam)
            st = states[spec.index - 1]
            if not (bI.pinned and dI.pinned
                    and ctx.same(bI.lo, st.b) and ctx.same(dI.lo, st.d)):
                raise Unpinned(
                    f"product bound {render(lam)} gives ({bI},{dI}), "
                    f"state has ({st.b},{st.d})")
            log.product_bounds[spec.index] = lam
    return log


def plan_facts(ctx: CardContext, log: TableLog) -> list[tuple]:
    """(lhs, rhs, rule, params, note) for the facts a finished run emits."""
    out = []
    final_states = log.snapshots[-1].states
    for i in range(1, 5):
        R = Prs(PRS_ATOMS[i - 1])
        out.append((R, log.product_bounds[i], "plan:product-bound", (i,),
                    "the intersected system embeds into the product of the chain lengths"))
        for mu in sorted(final_states[i - 1].below, key=ctx.check):
            out.append((Card(mu), R, "plan:regular-below", (i, mu),
                        "the chain lengths stay Tukey-below the intersected system"))
    return out


def run_plan(ctx: CardContext, p: Plan) -> DerivedModel:
    """Run the plan, add the facts it emits to the base facts of its final
    width, and close: a `DerivedModel` with no rule labels, whose `log`
    holds the intersection tables and product bounds."""
    log = run_steps(ctx, p)
    db = base_facts(ctx, p.final_width)
    db.meta["plan"] = p
    for lhs, rhs, rule, params, note in plan_facts(ctx, log):
        db.add(lhs, rhs, rule, params=params, note=note)
    close(db)
    return DerivedModel(db, constellation(db), (), log)


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _compress(scale: list[str], members: list[str]) -> list[str]:
    """Render maximal contiguous runs inside the base scale as [lo,hi]."""
    out = []
    in_scale = [m for m in members if m in scale]
    rest = [m for m in members if m not in scale]
    i = 0
    while i < len(in_scale):
        j = i
        while (j + 1 < len(in_scale)
               and scale.index(in_scale[j + 1]) == scale.index(in_scale[j]) + 1):
            j += 1
        if j > i:
            out.append(f"[{in_scale[i]},{in_scale[j]}]")
        else:
            out.append(in_scale[i])
        i = j + 1
    return out + rest


def tables_as_dicts(ctx: CardContext, log: TableLog) -> list[dict]:
    """Machine-readable snapshots: sorted below-sets plus the pinned pair."""
    out = []
    for snap in log.snapshots:
        rows = []
        for i in (1, 2, 3, 4):
            st = snap.states[i - 1]
            rows.append({"system": i, "below": ctx.sorted_names(st.below),
                         "b": st.b, "d": st.d})
        out.append({"label": snap.label, "rows": rows, "notes": list(snap.notes)})
    return out


def format_tables(ctx: CardContext, p: Plan, log: TableLog) -> str:
    scale = ctx.regulars_between(p.base[0], p.base[4])
    blocks = []
    for snap in tables_as_dicts(ctx, log):
        rows = [(str(r["system"]), ", ".join(_compress(scale, r["below"])),
                 r["b"], r["d"]) for r in reversed(snap["rows"])]
        w1 = max(len(r[1]) for r in rows)
        w2 = max(len(r[2]) for r in rows)
        lines = [f"-- {snap['label']} --",
                 f"{'i':>1}  {'below':<{w1}}  {'b':<{w2}}  d"]
        for r in rows:
            lines.append(f"{r[0]:>1}  {r[1]:<{w1}}  {r[2]:<{w2}}  {r[3]}")
        for note in snap["notes"]:
            lines.append(f"   note: {note}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# replay entries
# ---------------------------------------------------------------------------

replays_source("plan", "plan:product-bound", "plan:regular-below",
               rerun=lambda ctx, p: plan_facts(ctx, run_steps(ctx, p)),
               errors=(ForgeError, SubmodelError))
