"""The package's public names, pinned: adding or removing one is a deliberate edit here.

README's citations of the package are checked against it too.
"""

import importlib
import re
from pathlib import Path

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


def test_readme_cites_names_that_exist_and_constants_at_their_values():
    # Every backticked ``mrhetero.module[.Name]`` in README resolves, and a
    # cited UPPER_CASE constant's value is written, as f"{v:,}", in the
    # paragraph or list that cites it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cited = 0
    for block in re.split(r"\n\s*\n", readme):
        for module, name in re.findall(r"`mrhetero\.(\w+)(?:\.(\w+))?`", block):
            value = importlib.import_module(f"mrhetero.{module}")
            if name:
                value = getattr(value, name)
            if name.isupper():
                assert f"{value:,}" in block, f"mrhetero.{module}.{name} = {value:,}"
                cited += 1
    assert cited == 5  # MAX_P, MAX_N, MAX_REPLICATES, MAX_N_BOOT, MAX_THREADS
