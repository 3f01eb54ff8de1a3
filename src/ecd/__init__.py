"""Evolutionary causal discovery: genetic-programming symbolic regression
plus perturbation-based impact analysis over the fitted expression tree.
Exports the names the README uses; the rest lives in the submodules."""

from .errors import EcdError, InvalidConfig
from .exprcore import to_dot
from .gpsr import GpConfig, evolve, model_from_document, preset
# The ris() entry point itself stays at ecd.ris.ris so the submodule name
# is not shadowed by the function.
from .ris import (
    BaselineSpec,
    Mode,
    PerturbationSpec,
    counterfactual,
    quartile_impact_table,
    simplify_by_impact,
)
from .synthbench import SynthConfig, generate, run_benchmark, structure_score

__version__ = "0.1.0"
