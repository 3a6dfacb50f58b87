"""Everything is drivable from one text format (and the CLI).

The same block format declares cardinals and assumptions, describes
recipes and plans, and states assignments to check.  This script writes
a recipe file, runs it through the parser and the engine, and checks an
assignment against the diagram's constraints - mirroring what
`cichon derive` and `cichon check` do.
"""

from cichon.diagram import check_assignment, format_constellation
from cichon.textfmt import derive, parse

SOURCE = """
# a Hechler-style iteration with one bookkept localization thread
context {
  card th regular;
  card lam regular;
  lt aleph1 th;
  lt th lam;
  assume pow(lam,aleph0)=lam;
  assume pow_lt(lam,th)=lam;
}
recipe demo {
  length lam;
  cc aleph1;
  slot hechler cofinal;
  slot loc_sub(th) bookkeeping Lc upto th;
}
assign guess {
  addN = th; covN = aleph1; addM = lam; b = lam; covM = lam;
  nonM = lam; d = lam; cofM = lam; nonN = lam; cofN = lam; c = lam;
}
"""

rf = parse(SOURCE)
model = derive(rf, "demo")  # the recipe, axiom model or plan of that name
print("derived constellation:")
print(format_constellation(model.constellation))

violations = check_assignment(rf.ctx(), rf.assignments["guess"])
print("checking the stated assignment:")
for v in violations:
    print(" ", v)
if not violations:
    print("  ok")
