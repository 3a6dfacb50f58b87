"""The two closed-loop workloads.

A workload turns (seed, round number) into a list of operations, each a
call into cichon's public functions on generated inputs.  One client runs
them in order; an operation starts when the previous one has returned.
An operation may be followed by a replay operation that re-checks its
answer with the library's own checker.  Answers are checked against
`reference` after the timed phase.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import reference as ref

REFUSED = "refused"
# Every child interpreter runs without `site`: cichon needs nothing from
# site-packages, and the .pth hooks a host installs there are not its cost.
PYTHON = (sys.executable, "-S")


@dataclass
class Op:
    kind: str                                    # "op" or "replay"
    label: str
    data: Any                                    # the generated input, for the digest
    fn: Callable[[], Any]
    check: Callable[[Any], Optional[str]]        # None if right, REFUSED, or what is wrong
    keep: Callable[[Any], Any] = lambda out: out     # what is kept for checking
    then: Optional[Callable[[Any], Optional["Op"]]] = None


def _rng(seed: int, *path) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed,) + path))


def _pinned(cons) -> dict[str, str]:
    return {k: (iv.lo if iv.pinned else str(iv)) for k, iv in cons.items()}


def _expect(want):
    def check(got):
        return None if got == want else f"got {got!r}, want {want!r}"
    return check


class Workload:
    name = ""
    rounds_digested = 4

    def __init__(self, seed: int, tmp: Path, env: dict):
        self.seed, self.tmp, self.env = seed, tmp, env
        self.tracer = None
        self.files: dict[str, str] = {}         # generated input files, by name
        self._answers: dict = {}                # expected answers, computed once

    def expected(self, key, compute):
        """The reference answer for key; the same input recurs across rounds."""
        if key not in self._answers:
            self._answers[key] = compute()
        return self._answers[key]

    def setup(self):
        """Everything before the first timed op: inputs, digest, warm-up."""
        self.prepare()
        self.input_digest = self.digest()
        self.warm_up()

    def prepare(self):
        pass

    def warm_up(self):
        pass

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, text in sorted(self.files.items()):
            h.update(f"{name}\n{text}".encode())
        for r in range(self.rounds_digested):
            for op in self.round(r):
                h.update(repr(op.data).replace(str(self.tmp), "").encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# symbolic chain: builtins
# ---------------------------------------------------------------------------

def _replay(ctx, model) -> Op:
    """facts.verify, then the rendered trace through facts.check_trace."""
    from cichon import facts

    def fn():
        facts.verify(model.db)
        lines = model.db.trace_lines()
        return facts.check_trace(ctx, lines), len(lines), len(model.db.facts)

    def check(out):
        checked, lines, n_facts = out
        if checked != lines or lines != n_facts:
            return f"checked {checked} of {lines} trace lines, db has {n_facts}"
        return None
    return Op("replay", "replay", None, fn, check)


def _derive_op(label, data, build, want) -> Op:
    from cichon import cards

    def fn():
        ctx = cards.CardContext(data[0])
        return ctx, build(ctx)
    return Op("op", label, data, fn, _expect(want),
              keep=lambda out: _pinned(out[1].constellation),
              then=lambda out: _replay(*out))


def _run_chain(op: Op):
    """Run an op and its replay untimed (warm-up); raise if either is wrong."""
    while op is not None:
        out = op.fn()
        problem = op.check(op.keep(out))
        if problem:
            raise RuntimeError(f"warm-up {op.label}: {problem}")
        op = op.then(out) if op.then else None


# A round runs the warm-ups once and every other builtin twice.  The warm-ups
# cost about half of the cheapest other model, so with one of each p50 would
# sit in the gap between the two groups, where it moves with every change in
# how noisy the machine is; with 5 of 21 it falls inside the band of models.
WARM_UPS = ("cohen", "random", "evdiff", "hechler", "loc")


class Builtins(Workload):
    """The 13 builtins, in seed-shuffled rounds."""
    name = "builtins"

    def prepare(self):
        from cichon import builtins, forge, submodel
        self.specs = {}
        for name, b in builtins.BUILTINS.items():
            if b.kind == "recipe":
                data = (b.context, b.recipe)
                build = lambda ctx, r=b.recipe: forge.run_recipe(ctx, r)
            elif b.kind == "axiom":
                data = (b.context, b.axiom_cards)
                build = lambda ctx, n=name, c=b.axiom_cards: forge.axiom_model(ctx, n, c)
            else:
                data = (b.context, b.plan)
                build = lambda ctx, p=b.plan: submodel.run_plan(ctx, p)
            self.specs[name] = (data, build)

    def warm_up(self):
        for name in ("mod1", "gksmax", "cichon_max"):
            _run_chain(self._op(name))

    def _op(self, name: str) -> Op:
        data, build = self.specs[name]
        return _derive_op(name, data, build, ref.CONSTELLATIONS[name])

    def round(self, r):
        names = sorted(self.specs) + sorted(set(self.specs) - set(WARM_UPS))
        _rng(self.seed, "builtins", r).shuffle(names)
        return [self._op(n) for n in names]


# ---------------------------------------------------------------------------
# cli: one subprocess at a time
# ---------------------------------------------------------------------------

RECIPE_FILES = ("cohen", "random", "evdiff", "hechler", "loc", "mod1", "mod2", "mod3", "mod5")
GUARD_MESSAGES = ("exceed", " > ")      # SizeLimit and SearchSpaceTooLarge texts


def _dense(rng, x: int, y: int, p: float) -> tuple:
    return x, y, tuple(sum(1 << j for j in range(y) if rng.random() < p) for _ in range(x))


def _covering(n: int, k: int) -> tuple:
    """C[n<k] built independently of cichon, for checking."""
    members = ref.small_sets(n, k)
    return n, len(members), tuple(sum(1 << j for j, m in enumerate(members) if m >> x & 1)
                                  for x in range(n))


@dataclass
class Proc:
    code: int
    out: str
    err: str


def _finsys_text(x: int, y: int, rows) -> str:
    lines = [f"{x} {y}"] + ["".join("1" if r >> j & 1 else "0" for j in range(y)) for r in rows]
    return "\n".join(lines) + "\n"


def _refused(p: Proc) -> bool:
    return p.code == 1 and any(m in p.err for m in GUARD_MESSAGES)


class Cli(Workload):
    """README commands and file-based calls, each a fresh `python -m cichon`.

    Every call that prints a trace is followed by an in-process replay of
    that trace through facts.check_trace."""
    name = "cli"
    rounds_digested = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.peak_rss_kb = 0
        self.n_children = 0

    def prepare(self):
        from cichon import builtins, textfmt
        rng = _rng(self.seed, "cli")
        self.tmp.mkdir(parents=True, exist_ok=True)
        for name in RECIPE_FILES + ("cichon_max",):
            self._write(f"{name}.rcp", textfmt.render_file(textfmt.builtin_file(name)))
        self.systems = {
            "cones3": (3, 3, (0b101, 0b011, 0b110)),
            "id2": (2, 2, (0b01, 0b10)),
            "id3": (3, 3, (0b001, 0b010, 0b100)),
            "rand10": _dense(rng, 10, 10, 0.5),
            # default-guard calls the seed refuses although they solve at once
            "rand16": _dense(rng, 16, 16, 0.5),
            "c5_2": _covering(5, 2),
            "c6_3": _covering(6, 3),
        }
        for name, system in self.systems.items():
            self._write(f"{name}.sys", _finsys_text(*system))
        self.contexts = {name: builtins.builtin(name).ctx()
                         for name in RECIPE_FILES + ("cichon_max",)}

    def warm_up(self):
        proc = self._spawn(["-c", "import cichon.cli"])
        if proc.code != 0:
            raise RuntimeError(f"warm-up import failed: {proc.err}")

    def _write(self, name: str, text: str):
        (self.tmp / name).write_text(text)
        self.files[name] = text

    # -- children -----------------------------------------------------------

    def _argv(self, args: list[str], spans: Path) -> list[str]:
        """The command; under tracing, cichon runs inside child.py."""
        if self.tracer is None or args == ["-c", "pass"]:
            return [*PYTHON, *args]
        child = str(Path(__file__).with_name("child.py"))
        if args[:2] == ["-m", "cichon"]:
            return [*PYTHON, child, "cli", str(spans), *args[2:]]
        return [*PYTHON, child, "import", str(spans)]

    def _spawn(self, args: list[str]) -> Proc:
        """Run one child to completion; its own peak RSS comes from wait4."""
        tag = self.tmp / f"p{self.n_children}"
        out_path, err_path, spans = (tag.with_suffix(x) for x in (".out", ".err", ".spans"))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            p = subprocess.Popen(self._argv(args, spans), stdout=out, stderr=err,
                                 stdin=subprocess.DEVNULL, env=self.env, cwd=self.tmp)
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.n_children += 1
        proc = Proc(p.returncode, out_path.read_text(), err_path.read_text())
        out_path.unlink()
        err_path.unlink()
        if self.tracer is not None and spans.exists():
            self.tracer.merge(**json.loads(spans.read_text()))
            spans.unlink()
        return proc

    # -- checks -------------------------------------------------------------

    @staticmethod
    def _ok(want_code: int, want_out: Optional[str] = None):
        def check(p: Proc):
            if p.code != want_code:
                return f"exit {p.code}, want {want_code}: {p.err.strip()[-200:]}"
            if want_out is not None and p.out.strip() != want_out:
                return f"printed {p.out.strip()[:200]!r}, want {want_out!r}"
            return None
        return check

    @classmethod
    def _constellation(cls, want: dict):
        def check(p: Proc):
            got = ref.parse_constellation(p.out)
            return cls._ok(0)(p) or (None if got == want else f"constellation {got}, want {want}")
        return check

    def _json_check(self, want: dict):
        def check(kept):
            p, text = kept
            problem = self._ok(0)(p)
            if problem:
                return problem
            data = json.loads(text)
            got = {k: iv["lo"] for k, iv in data["constellation"].items() if iv["lo"] == iv["hi"]}
            return None if got == want else f"json constellation {got}, want {want}"
        return check

    def _dot_check(self, want: dict):
        labels = {v: k for k, v in ref.DISPLAY.items()}

        def check(kept):
            p, text = kept
            problem = self._ok(0)(p)
            if problem:
                return problem
            missing = [e for e, v in want.items() if f'label="{labels[e]}\\n{v}"' not in text]
            return f"dot file lacks {missing}" if missing else None
        return check

    def _finite_check(self, system: str, solver, refusable: bool = False):
        """`refusable` only for the named default-guard calls."""
        def check(p: Proc):
            if refusable and _refused(p):
                return REFUSED
            want = self.expected((system, solver), lambda: solver(*self.systems[system]))
            return self._ok(0, str(want))(p)
        return check

    def _search_check(self, a: str, b: str, refusable: bool = False):
        R, R2 = self.systems[a], self.systems[b]

        def check(p: Proc):
            if refusable and _refused(p):
                return REFUSED
            if not self.expected((a, b), lambda: ref.connects(R, R2)):
                return self._ok(1, "none")(p)
            problem = self._ok(0)(p)
            if problem:
                return problem
            minus, plus = (tuple(int(v) for v in line.split(":")[1].split())
                           for line in p.out.splitlines()[:2])
            return None if ref.is_connection(R, R2, minus, plus) else "not a connection"
        return check

    # -- operations -----------------------------------------------------------

    def _op(self, label: str, args: list[str], check, traced_as: Optional[str] = None,
            writes: Optional[Path] = None) -> Op:
        """One child; with `traced_as`, the printed trace is then replayed;
        with `writes`, the file it wrote is kept for the check."""
        keep = (lambda p: p) if writes is None else (lambda p: (p, writes.read_text()))
        then = None
        if traced_as is not None:
            def then(p: Proc):
                from cichon import facts
                lines = p.out.split("\n\n", 1)[-1].splitlines()
                ctx = self.contexts[traced_as]
                return Op("replay", f"replay {traced_as}", None,
                          lambda: facts.check_trace(ctx, lines),
                          _expect(sum(1 for line in lines if line.strip())))
        return Op("op", label, args, lambda: self._spawn(args), check, keep=keep, then=then)

    def _cichon(self, label, argv, check, traced_as=None, writes=None) -> Op:
        return self._op(label, ["-m", "cichon"] + argv, check, traced_as, writes)

    def round(self, r):
        C = ref.CONSTELLATIONS
        t = self.tmp
        ops = [
            self._op("interp", ["-c", "pass"], self._ok(0, "")),
            self._op("import", ["-c", "import cichon.cli"], self._ok(0, "")),
            # the README commands
            self._cichon("derive cohen", ["derive", "--recipe", "cohen"],
                         self._constellation(C["cohen"])),
            self._cichon("derive mod1 --trace", ["derive", "--recipe", "mod1", "--trace"],
                         self._constellation(C["mod1"]), "mod1"),
            self._cichon("derive mod1 --dot", ["derive", "--recipe", "mod1", "--dot",
                                               str(t / "mod1.dot")],
                         self._dot_check(C["mod1"]), writes=t / "mod1.dot"),
            self._cichon("intersect --tables", ["intersect", "--plan", "cichon_max", "--tables"],
                         self._constellation(C["cichon_max"])),
            self._cichon("check", ["check", "--assign", "cichon_max_bottom"], self._ok(0, "ok")),
            self._cichon("finite d cones3", ["finite", "d", str(t / "cones3.sys")],
                         self._finite_check("cones3", ref.d_value)),
            self._cichon("finite search id2 id3",
                         ["finite", "search", str(t / "id2.sys"), str(t / "id3.sys")],
                         self._search_check("id2", "id3")),
            # the other finite subcommands
            self._cichon("finite dual cones3", ["finite", "dual", str(t / "cones3.sys")],
                         self._ok(0, _finsys_text(*ref.dual_system(*self.systems["cones3"]))
                                  .strip())),
            self._cichon("finite product id2 cones3",
                         ["finite", "product", str(t / "id2.sys"), str(t / "cones3.sys")],
                         self._ok(0, _finsys_text(*ref.product_system(
                             self.systems["id2"], self.systems["cones3"])).strip())),
            # rendered files
            self._cichon("intersect file --trace",
                         ["intersect", str(t / "cichon_max.rcp"), "--plan", "cichon_max",
                          "--trace"],
                         self._constellation(C["cichon_max"]), "cichon_max"),
            self._cichon("check file", ["check", str(t / "cichon_max.rcp"), "--assign",
                                        "cichon_max_bottom"], self._ok(0, "ok")),
            self._cichon("finite b rand10", ["finite", "b", str(t / "rand10.sys")],
                         self._finite_check("rand10", ref.b_value)),
            # default guards the seed trips on instances that solve at once
            self._cichon("finite d rand16", ["finite", "d", str(t / "rand16.sys")],
                         self._finite_check("rand16", ref.d_value, refusable=True)),
            self._cichon("finite search c5_2 c6_3",
                         ["finite", "search", str(t / "c5_2.sys"), str(t / "c6_3.sys")],
                         self._search_check("c5_2", "c6_3", refusable=True)),
        ]
        json_out = t / "recipe.json"
        for i, name in enumerate(RECIPE_FILES):
            argv = ["derive", str(t / f"{name}.rcp"), "--recipe", name, "--trace"]
            if i == r % len(RECIPE_FILES):
                ops.append(self._cichon(f"derive file {name} --json", argv + ["--json", str(json_out)],
                                        self._json_check(C[name]), name, json_out))
            else:
                ops.append(self._cichon(f"derive file {name}", argv,
                                        self._constellation(C[name]), name))
        _rng(self.seed, "cli", r).shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Builtins, Cli)}
