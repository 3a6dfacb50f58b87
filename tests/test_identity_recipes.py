"""Byte-identity gate on recipes no builtin exercises: what a fixed, seeded
set of random recipes derives does not depend on the hash seed, and does
not change unless a change means it to.

`models` draws `test_forge._recipes` under a fixed hypothesis seed and
keeps the derivable ones (those `validate` accepts), each written as a
model file.  `dump` parses and derives each file and writes the file, the
repr of every fact, the trace lines and the constellation.  The test runs
`dump` in three fresh ``python -S`` interpreters under ``PYTHONHASHSEED``
0, 1 and 2 and compares the SHA-256 of each dump with `DIGEST`.
Expressions hash by identity, so any order that leaked from a set of them
into the output would show here as well as under `test_identity.py`.

When a change is meant to alter the facts, their order or any of the
above, regenerate the constant with

    PYTHONPATH=src:tests python -c 'import json, test_identity_recipes as t;
        print(json.dumps(t.models()))' |
    PYTHONPATH=src PYTHONHASHSEED=0 python -S tests/test_identity_recipes.py

and say in the change which outputs moved and why.
"""

import hashlib
import json
import os
import subprocess
import sys

DIGEST = "845be3c5ceafef3dda4cf4271bc2882cb01bf33d801f15042b7fa051a43029c9"
SEED, DRAWS = 20, 100

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def models() -> list[str]:
    """The derivable recipes among the first DRAWS seeded draws, as model files."""
    from hypothesis import HealthCheck, Phase, given, seed, settings
    from test_forge import _recipes

    from cichon.forge import validate
    from cichon.textfmt import RecipeFile, render_file

    cases = []

    @seed(SEED)
    @settings(database=None, max_examples=DRAWS, phases=[Phase.generate], deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(_recipes())
    def collect(case):
        cases.append(case)

    collect()
    return [render_file(RecipeFile(ctx.declarations, {r.name: r}))
            for ctx, r in cases if validate(ctx, r) == []]


def dump(texts) -> str:
    from cichon import textfmt
    from cichon.diagram import ENTRIES

    out = []
    for text in texts:
        rf = textfmt.parse(text)
        name, = rf.recipes
        model = textfmt.derive(rf, name)
        out.append(text)
        out += [repr(f) for f in model.db.facts]
        out += model.db.trace_lines()
        out += [f"{k} {model.constellation[k].lo!r} {model.constellation[k].hi!r}"
                for k in ENTRIES]
    return "\n".join(out) + "\n"


def test_random_recipes_byte_identical_under_three_hash_seeds():
    texts = models()
    assert len(texts) >= 20
    procs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        procs.append(subprocess.Popen([sys.executable, "-S", os.path.abspath(__file__)],
                                      env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True))
    got = [p.communicate(json.dumps(texts), timeout=300)[0].strip() for p in procs]
    assert all(p.returncode == 0 for p in procs)
    assert got == [DIGEST] * 3


if __name__ == "__main__":
    print(hashlib.sha256(dump(json.load(sys.stdin)).encode()).hexdigest())
