"""Evolutionary causal discovery: genetic-programming symbolic regression
plus perturbation-based impact analysis over the fitted expression tree."""

from .dataio import Dataset, RoleConfig, filter_rows, load_csv
from .errors import (
    EcdError,
    EmptyAfterFiltering,
    EmptyColumn,
    EmptyDataset,
    EmptyPopulation,
    InvalidConfig,
    InvalidPredicate,
    MalformedTree,
    MissingColumn,
    MissingVariable,
    NonFiniteBaseline,
    ParseError,
    UnknownNodeId,
)
from .exprcore import (
    DIV_EPSILON,
    ExpressionTree,
    Operator,
    const_node,
    dependency_set,
    evaluate,
    evaluate_batch,
    evaluate_nodes,
    op_node,
    pdiv,
    to_dot,
    tree_from_json,
    tree_to_json,
    var_node,
)
from .gpsr import (
    FitResult,
    GenerationStats,
    GpConfig,
    Individual,
    Termination,
    diversity,
    evolve,
    fitness,
    history_to_csv,
    model_document,
    model_from_document,
    preset,
)
# The ris() entry point itself stays at ecd.ris.ris so the submodule name
# is not shadowed by the function.
from .ris import (
    BaselineSpec,
    ImpactReport,
    Mode,
    PerturbationSpec,
    QuartileImpactTable,
    counterfactual,
    quartile_baselines,
    quartile_impact_table,
    simplify_by_impact,
)
from .synthbench import (
    GroundTruth,
    SynthConfig,
    generate,
    run_benchmark,
    structure_score,
)

__version__ = "0.1.0"
