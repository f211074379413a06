"""Two-sample Mendelian randomization under population heterogeneity.

Estimators that stay consistent when the SNP-exposure effects differ
between the treatment and outcome cohorts, plus a chi-square homogeneity
test, bootstrap inference, baseline MR methods, and a seeded Monte-Carlo
benchmark harness.
"""

from .bootstrap import BootstrapConfig, BootstrapResult, CiKind, bootstrap
from .errors import (
    DataError,
    DegenerateDesign,
    DegenerateGenotype,
    DegenerateInput,
    DuplicateSnpId,
    EmptyIntersection,
    MalformedRow,
    MissingColumn,
    MrHeteroError,
    TooManyFailures,
    VanishingDenominator,
)
from .estimators import (
    Method,
    MrEstimate,
    estimate,
    estimate_many,
    mr_wald,
    mr_wald_d,
    mr_wald_r,
)
from .heterogeneity import HetTestResult, chisq_sf, het_test
from .kernels import (
    IvStrength,
    WeightedPairs,
    divw,
    divw_variance,
    iv_strength_diagnostics,
    l1_origin,
    weighted_median_ratio,
    wls_intercept,
    wls_origin,
)
from .simulation import (
    GFunction,
    MethodPerformance,
    Pleiotropy,
    ReplicateTruth,
    ScenarioConfig,
    ScenarioSummary,
    run_scenario,
    simulate_replicate,
)
from .summary_data import (
    HarmonizationReport,
    HarmonizedTriple,
    SnpArrays,
    SnpRecord,
    TripleArrays,
    as_snp_arrays,
    as_triple_arrays,
    harmonize,
    marginal_regression,
    marginal_regressions,
    parse_summary_file,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "BootstrapResult",
    "CiKind",
    "DataError",
    "DegenerateDesign",
    "DegenerateGenotype",
    "DegenerateInput",
    "DuplicateSnpId",
    "EmptyIntersection",
    "GFunction",
    "HarmonizationReport",
    "HarmonizedTriple",
    "HetTestResult",
    "IvStrength",
    "MalformedRow",
    "Method",
    "MethodPerformance",
    "MissingColumn",
    "MrEstimate",
    "MrHeteroError",
    "Pleiotropy",
    "ReplicateTruth",
    "ScenarioConfig",
    "ScenarioSummary",
    "SnpArrays",
    "SnpRecord",
    "TooManyFailures",
    "TripleArrays",
    "VanishingDenominator",
    "WeightedPairs",
    "as_snp_arrays",
    "as_triple_arrays",
    "bootstrap",
    "chisq_sf",
    "divw",
    "divw_variance",
    "estimate",
    "estimate_many",
    "harmonize",
    "het_test",
    "iv_strength_diagnostics",
    "l1_origin",
    "marginal_regression",
    "marginal_regressions",
    "mr_wald",
    "mr_wald_d",
    "mr_wald_r",
    "parse_summary_file",
    "run_scenario",
    "simulate_replicate",
    "weighted_median_ratio",
    "wls_intercept",
    "wls_origin",
]
