"""Garbage guard: deriving and replaying the builtins, and the finite
solvers, leave no reference cycles behind.

A cycle per call (a nested function that calls itself is one) lets the
cyclic collector run many times during one replay, and each full pass
walks the whole heap.  With collection disabled, `gc.collect()` after the
work returns the number of unreachable objects it found, which must be 0.
"""

import gc

from cichon import facts, finite
from cichon.builtins import BUILTINS


def _leftover(work) -> dict:
    """Run each (label, thunk) with the collector off; label -> cyclic garbage."""
    gc.collect()
    gc.disable()
    try:
        return {label: (thunk(), gc.collect())[1] for label, thunk in work}
    finally:
        gc.enable()


def test_builtins_derive_and_replay_leave_no_cycles():
    def replay(b):
        ctx = b.ctx()
        model = b.derive()
        facts.verify(model.db)
        facts.check_trace(ctx, model.db.trace_lines())

    work = [(name, lambda b=BUILTINS[name]: replay(b)) for name in sorted(BUILTINS)]
    assert _leftover(work) == {name: 0 for name in sorted(BUILTINS)}


def test_finite_solvers_leave_no_cycles():
    ident, le = finite.identity_system(4), finite.le_system(4)
    i_sys, c_sys = finite.ideal_systems(4, 2)
    work = [
        ("d_num", lambda: finite.d_num(c_sys)),
        ("b_num", lambda: finite.b_num(i_sys)),
        ("tukey found", lambda: finite.tukey_search(le, ident)),
        ("tukey refuted", lambda: finite.tukey_search(ident, le)),
    ]
    assert _leftover(work) == {label: 0 for label, _ in work}
