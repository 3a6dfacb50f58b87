"""The builtin models, one checked-in model file each under `models/`.

Each builtin is a context plus the recipe, axiom model or intersection plan
that reproduces one of the standard constellations: the five warm-up
iterations, the four many-values theorems, the three construction-heavy
left-side models, and the Cichon's-maximum plan with its bottom-row
assignment.  The files are written in the text format of `textfmt`, the
same one users write, and `BUILTINS` is filled from them at import; only
`textfmt` maps a name to its file.  `Builtin.derive` runs any of them
through `textfmt.derive`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import submodel
from .forge import DerivedModel, Recipe
from .textfmt import RecipeFile, builtin_file, builtin_index, derive
# not called here: perfbench/tracing.py wraps these three names in this module
from .forge import CardContext, axiom_model, run_recipe  # noqa: F401


@dataclass(frozen=True)
class Builtin:
    name: str
    kind: str                      # 'recipe' | 'axiom' | 'plan': the table of `file` holding it
    file: RecipeFile = field(compare=False, repr=False)
    context: tuple                 # the file's declaration list
    recipe: Optional[Recipe]
    axiom_cards: Optional[tuple[str, ...]]
    plan: Optional[submodel.Plan]

    def ctx(self) -> CardContext:
        return self.file.ctx()

    def derive(self) -> DerivedModel:
        """Run the model on its file's context; a plan's keeps its tables in `log`."""
        return derive(self.file, self.name)


BUILTINS = {name: Builtin(name, rf.kind_of(name), rf, rf.context, rf.recipes.get(name),
                          rf.axioms.get(name), rf.plans.get(name))
            for name in sorted(set(builtin_index().values())) for rf in (builtin_file(name),)}
FIG16_BOTTOM = dict(BUILTINS["cichon_max"].file.assignments["cichon_max_bottom"])


def builtin(name: str) -> Builtin:
    if name not in BUILTINS:
        raise KeyError(f"no builtin named {name!r}; have {sorted(BUILTINS)}")
    return BUILTINS[name]
