"""Byte-identity gate: what the 13 builtins derive does not depend on the
hash seed, and does not change unless a change means it to.

`dump` writes, for every builtin, every field of every fact, the trace
lines, the `DerivedModel.trace` labels, the constellation, and for a plan
its tables and product bounds.  The test runs it in three fresh
``python -S`` interpreters under ``PYTHONHASHSEED`` 0, 1 and 2 and compares
the SHA-256 of each dump with `DIGEST`.

When a change is meant to alter the facts, their order or any of the
above, regenerate the constant with

    PYTHONPATH=src PYTHONHASHSEED=0 python -S tests/test_identity.py

and say in the change which outputs moved and why.
"""

import hashlib
import json
import os
import subprocess
import sys

DIGEST = "a370d16ff6dbd5062ca07d7c01be267944fd1f0b07fe91ec41dd98645a8fbb20"

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def dump() -> str:
    from cichon import submodel
    from cichon.builtins import BUILTINS
    from cichon.diagram import ENTRIES
    from cichon.systems import render

    out = []
    for name in sorted(BUILTINS):
        b = BUILTINS[name]
        out.append(f"== {name} ({b.kind})")
        if b.kind == "plan":
            ctx = b.ctx()
            model = submodel.run_plan(ctx, b.plan)
            labels = ()
        else:
            model = b.derive()
            labels = model.trace
        db = model.db
        out += [repr(f) for f in db.facts]
        out += db.trace_lines()
        out += [f"label {t}" for t in labels]
        out += [f"{k} {model.constellation[k].lo!r} {model.constellation[k].hi!r}"
                for k in ENTRIES]
        if b.kind == "plan":
            out.append(submodel.format_tables(ctx, b.plan, model.log))
            out.append(json.dumps(submodel.tables_as_dicts(ctx, model.log)))
            out += [f"bound {i} {render(lam)}"
                    for i, lam in sorted(model.log.product_bounds.items())]
    return "\n".join(out) + "\n"


def digest() -> str:
    return hashlib.sha256(dump().encode()).hexdigest()


def test_builtins_byte_identical_under_three_hash_seeds():
    procs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        procs.append(subprocess.Popen([sys.executable, "-S", os.path.abspath(__file__)],
                                      env=env, stdout=subprocess.PIPE, text=True))
    got = [p.communicate(timeout=300)[0].strip() for p in procs]
    assert all(p.returncode == 0 for p in procs)
    assert got == [DIGEST] * 3


if __name__ == "__main__":
    print(digest())
