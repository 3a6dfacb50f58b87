"""Benchmark of the cichon calculator: two seeded, closed-loop workloads.

    python3 perfbench/run.py --workload {builtins,cli} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the code under test is `src/cichon`
of the checkout that holds this file.  The run re-executes itself under a
pinned environment (`python -S`, PYTHONPATH, a bytecode cache under
`.bench_build/`, PYTHONHASHSEED=0), measures set-up time as the median of
SETUP_REPEATS fresh `--setup-only` processes, runs whole rounds of
operations for at least S seconds and until MIN_OPS ops and MIN_OPS
replays have been timed, checks every answer against `reference`, and
prints a report whose last line is one JSON object.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run spends S/2 seconds untraced and S/2 traced (same inputs) and reports
the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
sys.pycache_prefix = str(BUILD / "pycache")     # keep the checkout free of __pycache__
SETUP_REPEATS = 9
MIN_OPS = 100        # op and replay samples a timed run needs, so p90 has 10 beyond it
clock = time.perf_counter

# span key -> per-layer metric; each is self time in ms per operation
SPAN_METRICS = {
    "cards.build": "cards.build_ms",
    "forge": "forge.self_ms",
    "submodel": "submodel.self_ms",
    "facts.seed": "facts.seed_ms",
    "facts.close": "facts.close_ms",
    "facts.verify": "facts.verify_ms",
    "facts.render_trace": "facts.render_trace_ms",
    "facts.parse_trace": "facts.parse_trace_ms",
    "facts.check_trace": "facts.check_trace_ms",
    "diagram.constellation": "diagram.constellation_ms",
    "diagram.bounds": "diagram.bounds_ms",
    "diagram.check": "diagram.check_ms",
    "finite.construct": "finite.construct_ms",
    "finite.d_num": "finite.d_num_ms",
    "finite.b_num": "finite.b_num_ms",
    "finite.tukey_search": "finite.tukey_search_ms",
    "textfmt.parse": "textfmt.parse_ms",
    "cli.derive": "cli.derive_ms",
    "cli.intersect": "cli.intersect_ms",
    "cli.check": "cli.check_ms",
    "cli.finite": "cli.finite_ms",
    "bench.counters": "bench.counters_ms",
    "bench.op": "bench.unspanned_ms",
}
# counts recorded at span boundaries; each is a mean per recorded call
COUNT_METRICS = ("cards.names", "forge.rule_facts", "submodel.plan_facts",
                 "facts.close.facts_in", "facts.close.facts_out", "facts.close.universe",
                 "facts.trace_lines", "diagram.pinned", "finite.cells",
                 "finite.psi_minus_leaves")


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
               PYTHONHASHSEED="0",
               PERFBENCH_PINNED="1")
    return env


def parse_args(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit (used to time set-up in a fresh process)")
    return ap.parse_args(argv)


@dataclass
class Phase:
    latencies: list = field(default_factory=list)      # seconds, kind "op"
    replays: list = field(default_factory=list)        # seconds, kind "replay"
    records: list = field(default_factory=list)        # (label, check, kept answer, error)
    labels: list = field(default_factory=list)         # label of each "op" latency
    wall: float = 0.0
    rounds: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies) + len(self.replays)


def run_phase(wl, seconds: float, tracer=None, min_ops: int = 0) -> Phase:
    """Whole rounds, one op at a time, until `seconds` have passed and at
    least `min_ops` ops and `min_ops` replays have been timed.

    Generating a round's inputs is excluded from the wall time."""
    ph = Phase()
    start = clock()
    generating = 0.0
    while True:
        g0 = clock()
        ops = wl.round(ph.rounds)
        generating += clock() - g0
        for op in ops:
            while op is not None:
                error = out = None
                t0 = clock()
                if tracer is not None:
                    tracer.push("bench.op")
                try:
                    out = op.fn()
                except Exception as exc:      # a failed op is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.pop()
                elapsed = clock() - t0
                if op.kind == "op":
                    ph.latencies.append(elapsed)
                    ph.labels.append(op.label)
                else:
                    ph.replays.append(elapsed)
                if error is not None:
                    ph.records.append((op.label, None, None, error))
                    break
                ph.records.append((op.label, op.check, op.keep(out), None))
                op = op.then(out) if op.then else None
        ph.rounds += 1
        if (clock() - start >= seconds
                and min(len(ph.latencies), len(ph.replays)) >= min_ops):
            break
    ph.wall = clock() - start - generating
    return ph


def check_answers(records) -> tuple[int, int, list[str]]:
    from workloads import REFUSED
    failed, refused, problems = 0, 0, []
    for label, check, kept, error in records:
        verdict = error if error is not None else check(kept)
        if verdict is None:
            continue
        if verdict == REFUSED:
            refused += 1
            continue
        failed += 1
        if len(problems) < 5:
            problems.append(f"{label}: {verdict}")
    return failed, refused, problems


def quantiles_ms(samples) -> tuple[float, float]:
    """(p50, p90) in ms."""
    q = statistics.quantiles(samples, n=10)
    return q[4] * 1e3, q[8] * 1e3


def time_setup(args) -> float:
    """Seconds from spawning a fresh process to its first timed op being ready."""
    from workloads import PYTHON
    cmd = [*PYTHON, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = clock()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = clock() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return elapsed


def warm_bytecode():
    """Compile the package into the pinned cache so no child pays for it."""
    from workloads import PYTHON
    subprocess.run([*PYTHON, "-c", "import cichon.cli"], check=True)


def end_to_end(wl, ph: Phase, setup_s: float) -> dict:
    p50, p90 = quantiles_ms(ph.latencies)
    r50, r90 = quantiles_ms(ph.replays)
    if wl.name == "cli":
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_ops_s": (ph.ops / ph.wall, "ops/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "replay_p50_ms": (r50, "ms"),
        "replay_p90_ms": (r90, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tr, setup_tr, plain: Phase, traced: Phase) -> dict:
    ops = traced.ops
    out = {m: (tr.self_s.get(k, 0.0) * 1e3 / ops, "ms") for k, m in SPAN_METRICS.items()}
    out["textfmt.render_ms"] = (setup_tr.self_s.get("textfmt.render", 0.0) * 1e3, "ms")
    for name in COUNT_METRICS:
        out[name] = (tr.mean(name), "count")
    interp = [t for t, label in zip(traced.latencies, traced.labels) if label == "interp"]
    out["cli.interp_ms"] = (statistics.median(interp) * 1e3 if interp else 0.0, "ms")
    out["cli.import_ms"] = (tr.mean("cli.import_ms"), "ms")
    total = sum(traced.latencies) + sum(traced.replays)
    out["bench.op_ms"] = (total * 1e3 / ops, "ms")
    out["bench.trace_overhead_ms"] = (quantiles_ms(traced.latencies)[0]
                                      - quantiles_ms(plain.latencies)[0], "ms")
    return out


def measure(args, tmp: Path) -> int:
    from tracing import Tracer, install
    from workloads import WORKLOADS

    warm_bytecode()
    wl = WORKLOADS[args.workload](args.seed, tmp, dict(os.environ))
    setup_tr = Tracer()
    if args.trace:
        uninstall = install(setup_tr)
        try:
            wl.setup()
        finally:
            uninstall()
        plain = run_phase(wl, args.seconds / 2)
        tr = Tracer()
        wl.tracer = tr
        uninstall = install(tr)
        try:
            traced = run_phase(wl, args.seconds / 2, tracer=tr)
        finally:
            uninstall()
        phases = (plain, traced)
    else:
        # half the set-up processes before the timed phase and half after,
        # so that their median does not rest on one stretch of machine speed
        setups = [time_setup(args) for _ in range(SETUP_REPEATS // 2)]
        wl.setup()
        phases = (run_phase(wl, args.seconds, min_ops=MIN_OPS),)
        setups += [time_setup(args) for _ in range(SETUP_REPEATS - len(setups))]
        setup_s = statistics.median(setups)

    checked = [check_answers(ph.records) for ph in phases]
    failed = sum(c[0] for c in checked)
    refused = sum(c[1] for c in checked)
    attempted = sum(len(ph.records) for ph in phases)
    for c in checked:
        for p in c[2]:
            print(f"wrong: {p}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tr, setup_tr, plain, traced)
        metrics["cli.guard_refusals"] = (checked[-1][1] / traced.rounds, "count")
    else:
        metrics = end_to_end(wl, phases[0], setup_s)

    main_phase = phases[-1]
    print(f"workload={wl.name} seed={args.seed} inputs_sha256={wl.input_digest} "
          f"trace={args.trace} rounds={main_phase.rounds} ops={main_phase.ops} "
          f"(op latency samples {len(main_phase.latencies)}, replay samples "
          f"{len(main_phase.replays)})")
    print(f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6g} "
          f"guard_refusals={refused} children={getattr(wl, 'n_children', 0)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main() -> int:
    if not (ROOT / "src" / "cichon" / "__init__.py").is_file():
        print(f"error: no cichon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args()
    if os.environ.get("PERFBENCH_PINNED") != "1":
        from workloads import PYTHON
        BUILD.mkdir(parents=True, exist_ok=True)
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [*PYTHON, script, *sys.argv[1:]], pinned_env())
    tmp = BUILD / f"run-{os.getpid()}"
    try:
        if args.setup_only:
            from workloads import WORKLOADS
            WORKLOADS[args.workload](args.seed, tmp, dict(os.environ)).setup()
            return 0
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
