"""Global test for cross-cohort differences in the SNP-exposure effects.

Compares the two exposure-association vectors SNP by SNP: under the null
that both cohorts share the same per-SNP effects (and given normal,
independent summary statistics), the sum of squared standardized
differences is chi-square with one degree of freedom per SNP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .summary_data import as_triple_arrays


@dataclass(frozen=True)
class HetTestResult:
    statistic: float
    df: int
    p_value: float
    per_snp: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "per_snp": list(self.per_snp),
        }


def het_test(triples) -> HetTestResult:
    """Chi-square homogeneity test of the two exposure-association vectors.

    Per-SNP contribution: ``(gamma_ou - gamma_tr)^2 / (se_ou^2 + se_tr^2)``.
    The global statistic is their sum, referred to a chi-square distribution
    with ``p`` degrees of freedom; the p-value is the upper tail.
    """
    a = as_triple_arrays(triples)
    with np.errstate(over="ignore"):  # a term beyond the float range is infinite
        contrib = (a.gamma_ou - a.gamma_tr) ** 2 / (a.se_gamma_ou**2 + a.se_gamma_tr**2)
    statistic = float(contrib.sum())
    df = len(a)
    return HetTestResult(
        statistic=statistic,
        df=df,
        p_value=chisq_sf(statistic, df),
        per_snp=tuple(float(c) for c in contrib),
    )


def chisq_sf(x: float, df: int) -> float:
    """Chi-square survival function ``P(X >= x)`` for ``X ~ chi2(df)``."""
    if not x >= 0.0:
        raise ValueError("x must be nonnegative")
    if not (isinstance(df, (int, np.integer)) and df >= 1):
        raise ValueError("df must be a positive integer")
    # Imported here so that commands without a het test never load SciPy.
    from scipy.special import chdtrc

    return float(chdtrc(df, x))
