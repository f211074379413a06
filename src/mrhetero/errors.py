"""Exception types shared across the package.

Every error carries a ``details`` mapping so front ends (notably the CLI)
can emit a single-line machine-readable record without string parsing.
"""

from __future__ import annotations


class DataError(Exception):
    """Base class of every package error: input data is missing, malformed,
    or unusable (CLI exit code 2). ``MrHeteroError`` is the same class."""

    def __init__(self, message: str = "", **details):
        super().__init__(message or self.__class__.__name__)
        self.details = details


MrHeteroError = DataError


class MissingColumn(DataError):
    def __init__(self, column: str):
        super().__init__(f"required column {column!r} not found in header", column=column)


class MalformedRow(DataError):
    def __init__(self, line: int, reason: str = ""):
        msg = f"malformed row at line {line}" + (f": {reason}" if reason else "")
        super().__init__(msg, line=line, reason=reason)


class DuplicateSnpId(DataError):
    def __init__(self, snp_id: str):
        super().__init__(f"duplicate SNP id {snp_id!r} within one file", snp_id=snp_id)


class EmptyIntersection(DataError):
    def __init__(self):
        super().__init__("no SNP survives harmonization across the three inputs")


class DegenerateInput(DataError):
    """Too few SNPs, replicates or methods for the requested computation."""


class DegenerateGenotype(DataError):
    """A genotype column is constant, so its marginal regression is undefined."""


class DegenerateDesign(DataError):
    """Regression design does not identify the requested parameters."""


class VanishingDenominator(DataError):
    """A ratio estimator's denominator is indistinguishable from zero (detail ``value``)."""


class TooManyFailures(DataError):
    """More than half of the bootstrap replicates failed."""

    def __init__(self, n_failed: int, n_boot: int):
        super().__init__(
            f"{n_failed} of {n_boot} bootstrap replicates failed",
            n_failed=n_failed,
            n_boot=n_boot,
        )
