"""Ten simultaneous values by intersecting with chains of submodels.

Start from the left-side model (everything pinned between theta_i and
theta_inf), then repeatedly intersect the forcing with directed systems
of elementary submodels.  Each d-chain caps a dominating number, each
b-chain caps an unbounding number via the product bound, and the final
sigma-closed model fixes the continuum.  The engine replays the argument
step by step and emits the product-bound facts with justifications.
"""

from cichon.builtins import builtin
from cichon.diagram import check_assignment, format_constellation
from cichon.submodel import format_tables
from cichon.systems import render

b = builtin("cichon_max")
result = b.derive()
ctx = result.db.ctx

print("left-side model of the theta scale, collapsed step by step:")
print(format_tables(ctx, b.plan, result.log))

print("product bounds recorded on the way down:")
for i, lam in sorted(result.log.product_bounds.items()):
    print(f"  system {i}:  <= {render(lam)}")

print()
print("bottom-row constellation (ten values plus the continuum):")
print(format_constellation(result.constellation))

values = {k: iv.lo for k, iv in result.constellation.items()}
print("constraint check:", check_assignment(ctx, values) or "ok")
