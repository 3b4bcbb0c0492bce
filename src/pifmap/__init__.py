"""Physics-informed feature maps for interpretable regression.

Builds dimensionally consistent monomial features over named physical
quantities, fits standardized ridge models on them, ranks the monomials
greedily by contribution, and reproduces three bundled synthetic
experiments end to end (CLI: ``pifmap``).
"""

from .data import Dataset, Feature, FeatureSchema, read_csv, schema_of, write_csv
from .dimension import (
    BASE_UNITS,
    DIMENSIONLESS,
    Dimension,
    format_unit,
    parse_unit,
)
from .catalogs import CATALOG_NAMES, load_catalog
from .featuremap import (
    STANDARD_CONSTANTS,
    FeatureMapSpec,
    PhysicalConstant,
    destandardize,
    enumerate_monomials,
    evaluate_map,
    monomial_dimension,
    render_monomial,
    spec_from_dict,
    spec_to_dict,
)
from .metrics import ConfusionMatrix, SkillScores, confusion, mae, mse, skill_scores
from .ranking import RankingResult, greedy_select
from .regression import (
    DEFAULT_LAMBDA,
    RidgeModel,
    classify,
    fit_standardized,
    ridge_fit,
    ridge_predict,
    select_lambda,
    standardize_apply,
    standardize_fit,
)
from .synthdata import NoiseConfig, add_noise, gen_bernoulli, gen_binary, gen_pulsar

__version__ = "0.1.0"

__all__ = [
    "BASE_UNITS",
    "CATALOG_NAMES",
    "DEFAULT_LAMBDA",
    "DIMENSIONLESS",
    "ConfusionMatrix",
    "Dataset",
    "Dimension",
    "Feature",
    "FeatureMapSpec",
    "FeatureSchema",
    "NoiseConfig",
    "PhysicalConstant",
    "RankingResult",
    "RidgeModel",
    "STANDARD_CONSTANTS",
    "SkillScores",
    "add_noise",
    "classify",
    "confusion",
    "destandardize",
    "enumerate_monomials",
    "evaluate_map",
    "fit_standardized",
    "format_unit",
    "gen_bernoulli",
    "gen_binary",
    "gen_pulsar",
    "greedy_select",
    "load_catalog",
    "mae",
    "monomial_dimension",
    "mse",
    "parse_unit",
    "read_csv",
    "render_monomial",
    "ridge_fit",
    "ridge_predict",
    "schema_of",
    "select_lambda",
    "skill_scores",
    "spec_from_dict",
    "spec_to_dict",
    "standardize_apply",
    "standardize_fit",
    "write_csv",
    "__version__",
]
