"""The package's public names, pinned: adding or removing one is a deliberate edit here."""

import mrhetero

PUBLIC = [
    "BootstrapConfig", "BootstrapResult", "CiKind", "DataError", "DegenerateDesign",
    "DegenerateGenotype", "DegenerateInput", "DuplicateSnpId", "EmptyIntersection", "GFunction",
    "HarmonizationReport", "HarmonizedTriple", "HetTestResult", "IvStrength", "MalformedRow",
    "Method", "MethodPerformance", "MissingColumn", "MrEstimate", "MrHeteroError", "Pleiotropy",
    "ReplicateTruth", "ScenarioConfig", "ScenarioSummary", "SnpArrays", "SnpRecord",
    "TooManyFailures", "TripleArrays", "VanishingDenominator", "WeightedPairs", "as_snp_arrays",
    "as_triple_arrays", "bootstrap", "chisq_sf", "divw", "divw_variance",
    "estimate", "estimate_many", "harmonize", "het_test", "iv_strength_diagnostics", "l1_origin",
    "marginal_regression", "marginal_regressions", "mr_wald", "mr_wald_d", "mr_wald_r",
    "parse_summary_file", "run_scenario", "simulate_replicate", "weighted_median_ratio",
    "wls_intercept", "wls_origin",
]


def test_public_names_are_pinned_and_bound():
    assert sorted(mrhetero.__all__) == PUBLIC
    assert all(hasattr(mrhetero, name) for name in PUBLIC)
