"""The builtin models, one checked-in model file each under `models/`.

Each builtin is a context plus the recipe, axiom model or intersection plan
that reproduces one of the standard constellations: the five warm-up
iterations, the four many-values theorems, the three construction-heavy
left-side models, and the Cichon's-maximum plan with its bottom-row
assignment.  The files are written in the text format of `textfmt`, the
same one users write, and `BUILTINS` is filled from them at import.
`Builtin.derive` runs any of them to one `forge.DerivedModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import submodel
from .cards import CardContext
from .forge import DerivedModel, Recipe, axiom_model, run_recipe
from .textfmt import BUILTIN_NAMES, RecipeFile, builtin_file


@dataclass(frozen=True)
class Builtin:
    name: str
    kind: str                      # 'recipe' | 'axiom' | 'plan'
    context: tuple                 # declaration list
    recipe: Optional[Recipe] = None
    axiom_cards: Optional[tuple[str, ...]] = None
    plan: Optional[submodel.Plan] = None
    assignments: tuple[tuple[str, dict], ...] = ()

    def ctx(self) -> CardContext:
        return CardContext(self.context)

    def derive(self) -> DerivedModel:
        """Run the recipe, the axiom model or the plan; a plan's model
        carries its tables in `log`."""
        ctx = self.ctx()
        if self.kind == "recipe":
            return run_recipe(ctx, self.recipe)
        if self.kind == "axiom":
            return axiom_model(ctx, self.name, self.axiom_cards)
        return submodel.run_plan(ctx, self.plan)


def _builtin(name: str, rf: RecipeFile) -> Builtin:
    """The model the file models/NAME.rcp defines under NAME."""
    kind = "recipe" if name in rf.recipes else "axiom" if name in rf.axioms else "plan"
    return Builtin(name, kind, rf.context, recipe=rf.recipes.get(name),
                   axiom_cards=rf.axioms.get(name), plan=rf.plans.get(name),
                   assignments=tuple(rf.assignments.items()))


_FILES = {name: builtin_file(name) for name in BUILTIN_NAMES}
BUILTINS = {name: _builtin(name, rf) for name, rf in _FILES.items()}
# every name a shipped file defines (its model and its assignments) -> the file
_DEFINED_IN = {n: rf for name, rf in _FILES.items() for n in (name, *rf.assignments)}
FIG16_BOTTOM = dict(_FILES["cichon_max"].assignments["cichon_max_bottom"])


def builtin(name: str) -> Builtin:
    if name not in BUILTINS:
        raise KeyError(f"no builtin named {name!r}; have {sorted(BUILTINS)}")
    return BUILTINS[name]


def file_defining(name: str) -> RecipeFile:
    """The parsed shipped model file that defines NAME, a model or an assignment."""
    if name not in _DEFINED_IN:
        raise KeyError(f"no builtin named {name!r}; have {sorted(_DEFINED_IN)}")
    return _DEFINED_IN[name]
