"""The per-layer benchmark harness wraps library functions by name
(`perfbench/tracing.py`).  A refactor that renames or drops one of those
names would break `perfbench/run.py --trace 1`, and one that calls a layer
through a name the harness does not wrap would leave that layer at 0 ms,
without any other test noticing.  This installs the harness, runs every
layer under it and takes it down again in a fresh interpreter, so a
half-done install cannot leak into other tests."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every span key `tracing.install` records
LAYERS = ("cards.build", "forge", "submodel", "facts.seed", "facts.close",
          "diagram.constellation", "diagram.bounds", "diagram.check",
          "facts.verify", "facts.render_trace", "facts.check_trace", "facts.parse_trace",
          "finite.d_num", "finite.b_num", "finite.tukey_search", "finite.construct",
          "textfmt.parse", "textfmt.render")


def test_tracing_installs_and_uninstalls():
    code = """if True:
        import tracing
        from cichon import builtins, diagram, facts, finite, forge, submodel, textfmt
        originals = (forge.run_recipe, submodel.run_plan, submodel.close)
        tr = tracing.Tracer()
        uninstall = tracing.install(tr)
        assert submodel.run_plan is not originals[1]

        def replay(model):
            facts.verify(model.db)
            facts.check_trace(model.db.ctx, model.db.trace_lines())

        mod1, gksmax, cmax = (builtins.builtin(n) for n in ("mod1", "gksmax", "cichon_max"))
        replay(forge.run_recipe(mod1.ctx(), mod1.recipe))
        replay(forge.axiom_model(gksmax.ctx(), gksmax.name, gksmax.axiom_cards))
        replay(submodel.run_plan(cmax.ctx(), cmax.plan))

        rf = textfmt.parse(textfmt.render_file(textfmt.builtin_file("cichon_max")))
        assert diagram.check_assignment(rf.ctx(), builtins.FIG16_BOTTOM) == []

        R = finite.parse_finsys("3 3\\n101\\n011\\n110\\n")
        assert (finite.d_num(R), finite.b_num(R)) == (2, 3)
        assert finite.tukey_search(R, finite.ideal_systems(3, 2)[1]) is not None

        uninstall()
        assert (forge.run_recipe, submodel.run_plan, submodel.close) == originals
        for key, seconds in tr.self_s.items():
            print(key, seconds)
    """
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench"))
    p = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=path),
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    self_s = {key: float(s) for key, s in (line.split() for line in p.stdout.splitlines())}
    assert [key for key in LAYERS if not self_s.get(key, 0) > 0] == []
    assert set(self_s) == set(LAYERS) | {"bench.counters"}
