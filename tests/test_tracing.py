"""The per-layer benchmark harness wraps library functions by name
(`perfbench/tracing.py`).  A refactor that renames or drops one of those
names would break `perfbench/run.py --trace 1` without any other test
noticing; this installs the harness and takes it down again in a fresh
interpreter, so a half-done install cannot leak into other tests."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracing_installs_and_uninstalls():
    code = """if True:
        import tracing
        from cichon import forge, submodel
        originals = (forge.run_recipe, submodel.run_plan, submodel.close)
        uninstall = tracing.install(tracing.Tracer())
        assert submodel.run_plan is not originals[1]
        uninstall()
        assert (forge.run_recipe, submodel.run_plan, submodel.close) == originals
    """
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench"))
    p = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=path),
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
