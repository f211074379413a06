"""GWAS summary-statistics input handling.

Parses headered TSV files of per-SNP marginal association estimates,
aligns effect alleles across the three required inputs (treatment-cohort
exposure, outcome-cohort exposure, outcome-cohort outcome), and computes
marginal regression summaries from individual-level matrices, whole or in
row blocks, for the simulator.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateGenotype,
    DuplicateSnpId,
    EmptyIntersection,
    MalformedRow,
    MissingColumn,
)

#: Logical field -> default header name. Override any subset via the
#: ``columns`` argument of :func:`parse_summary_file`.
DEFAULT_COLUMNS = {
    "snp": "snp",
    "effect_allele": "effect_allele",
    "other_allele": "other_allele",
    "beta": "beta",
    "se": "se",
    "n": "n",
}

_PALINDROMIC_PAIRS = ({"A", "T"}, {"C", "G"})

#: The six numeric fields of a harmonized SNP, in row and column order.
_VALUES = ("gamma_tr", "se_gamma_tr", "gamma_ou", "se_gamma_ou", "capgamma_ou", "se_capgamma_ou")


@dataclass(frozen=True)
class SnpRecord:
    """One SNP's marginal association from a single study."""

    snp_id: str
    effect_allele: str
    other_allele: str
    beta: float
    se: float
    n: int | None = None

    def __post_init__(self):
        if not self.snp_id:
            raise ValueError("empty SNP id")
        if not self.effect_allele or not self.other_allele:
            raise ValueError("empty allele token")
        if self.effect_allele == self.other_allele:
            raise ValueError("effect and other allele are identical")
        if not math.isfinite(self.beta):
            raise ValueError("beta is not finite")
        if not (math.isfinite(self.se) and self.se > 0):
            raise ValueError("se must be a positive finite number")
        if self.n is not None and self.n <= 0:
            raise ValueError("n must be a positive count")


@dataclass(frozen=True)
class HarmonizedTriple:
    """One SNP's row of a :class:`TripleArrays`: its aligned statistics from all three inputs.

    Indexing or iterating a :class:`TripleArrays` yields these, and a library
    caller may pass a list of them wherever triples are accepted. After
    harmonization all three beta estimates refer to the same effect allele
    (the treatment file's orientation).
    """

    snp_id: str
    gamma_tr: float
    se_gamma_tr: float
    gamma_ou: float
    se_gamma_ou: float
    capgamma_ou: float
    se_capgamma_ou: float

    def __post_init__(self):
        _check_triple(self, every=bool)


def _check_triple(t, every=np.all) -> None:
    """Hold a :class:`HarmonizedTriple` or every row of a :class:`TripleArrays` to one rule:
    positive finite standard errors and finite estimates.

    The comparisons act elementwise on columns and reject NaN; ``every``
    reduces their result: ``bool`` for a row's floats, on which ``np.all``
    would make building a row over ten times slower.
    """
    for name in ("se_gamma_tr", "se_gamma_ou", "se_capgamma_ou"):
        v = getattr(t, name)
        if not every((v > 0) & (v < math.inf)):
            raise ValueError(f"{name} must be a positive finite number")
    for name in ("gamma_tr", "gamma_ou", "capgamma_ou"):
        if not every(abs(getattr(t, name)) < math.inf):
            raise ValueError(f"{name} is not finite")


@dataclass(frozen=True)
class HarmonizationReport:
    """Per-category SNP accounting for one harmonization pass.

    ``kept + dropped_mismatch + dropped_palindromic`` equals the size of the
    three-way id intersection; ``dropped_missing`` counts ids present in some
    but not all inputs.
    """

    kept: int
    flipped: int
    dropped_mismatch: int
    dropped_palindromic: int
    dropped_missing: int

    def to_json_dict(self) -> dict:
        return asdict(self)


class TripleArrays(Sequence):
    """Harmonized per-SNP summary statistics as seven aligned columns.

    The one internal representation: :func:`harmonize` and the simulator
    return it, and the estimators, the het test and the resampling loop read
    its NumPy columns. It also behaves as an immutable sequence of
    :class:`HarmonizedTriple` rows, each built on access.
    """

    __slots__ = ("snp_ids", *_VALUES)

    def __init__(self, snp_ids, gamma_tr, se_gamma_tr, gamma_ou, se_gamma_ou,
                 capgamma_ou, se_capgamma_ou):
        self.snp_ids = np.asarray(snp_ids, dtype=object)
        self.gamma_tr = np.asarray(gamma_tr, dtype=float)
        self.se_gamma_tr = np.asarray(se_gamma_tr, dtype=float)
        self.gamma_ou = np.asarray(gamma_ou, dtype=float)
        self.se_gamma_ou = np.asarray(se_gamma_ou, dtype=float)
        self.capgamma_ou = np.asarray(capgamma_ou, dtype=float)
        self.se_capgamma_ou = np.asarray(se_capgamma_ou, dtype=float)

    @classmethod
    def checked(cls, *columns) -> "TripleArrays":
        """Build as the constructor does, holding every row to :class:`HarmonizedTriple`'s rule."""
        arrays = cls(*columns)
        _check_triple(arrays)
        return arrays

    def take(self, indices) -> "TripleArrays":
        """Row subset (with repetition allowed), e.g. a bootstrap resample."""
        return TripleArrays(*(getattr(self, name)[indices] for name in self.__slots__))

    def __len__(self) -> int:
        return self.gamma_tr.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return HarmonizedTriple(self.snp_ids[i], *(float(getattr(self, name)[i]) for name in _VALUES))


def as_triple_arrays(triples) -> TripleArrays:
    """``triples`` as columns: a :class:`TripleArrays` as it is, rows copied once.

    The only place a sequence of :class:`HarmonizedTriple` rows, as a library
    caller may pass, becomes columns.
    """
    if isinstance(triples, TripleArrays):
        return triples
    rows = list(triples)
    return TripleArrays([t.snp_id for t in rows], *([getattr(t, name) for t in rows] for name in _VALUES))


def parse_summary_file(path, columns: dict | None = None, lenient: bool = False) -> list[SnpRecord]:
    """Read one tab-delimited summary-statistics file.

    Parameters
    ----------
    path : str or Path
        UTF-8 TSV file with one header row, which may start with a
        byte-order mark.
    columns : dict, optional
        Overrides for :data:`DEFAULT_COLUMNS` (logical name -> header name).
        The ``n`` column is optional; all others are required.
    lenient : bool
        When true, rows with unparseable fields are counted and dropped
        (a warning reports the count) instead of raising
        :class:`~mrhetero.errors.MalformedRow`.

    Raises
    ------
    MissingColumn, MalformedRow, DuplicateSnpId
    DataError
        The file is not UTF-8 text.
    """
    colmap = {**DEFAULT_COLUMNS, **(columns or {})}
    # ``utf-8-sig`` drops a byte-order mark that would otherwise prefix the
    # first header name.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            records, n_dropped = _read_records(csv.reader(fh, delimiter="\t"), colmap, lenient)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc.reason}", path=str(path)) from None
    if n_dropped:
        warnings.warn(f"dropped {n_dropped} malformed rows from {path}", stacklevel=2)
    return records


def _read_records(reader, colmap, lenient) -> tuple[list[SnpRecord], int]:
    header = next(reader, None)
    if header is None:
        raise MalformedRow(1, "file has no header row")
    names = [h.strip() for h in header]
    positions = {}
    for field in ("snp", "effect_allele", "other_allele", "beta", "se"):
        try:
            positions[field] = names.index(colmap[field])
        except ValueError:
            raise MissingColumn(colmap[field]) from None
    n_pos = names.index(colmap["n"]) if colmap["n"] in names else None

    records: list[SnpRecord] = []
    seen: set[str] = set()
    n_dropped = 0
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            record = _row_to_record(row, positions, n_pos)
        except (ValueError, IndexError, OverflowError) as exc:
            if lenient:
                n_dropped += 1
                continue
            raise MalformedRow(lineno, str(exc)) from exc
        if record.snp_id in seen:
            raise DuplicateSnpId(record.snp_id)
        seen.add(record.snp_id)
        records.append(record)
    return records, n_dropped


def _row_to_record(row, positions, n_pos) -> SnpRecord:
    n = None
    if n_pos is not None and n_pos < len(row):
        raw = row[n_pos].strip()
        if raw not in ("", "NA", "na", "nan", "."):
            n = int(float(raw))
    return SnpRecord(
        snp_id=row[positions["snp"]].strip(),
        effect_allele=row[positions["effect_allele"]].strip().upper(),
        other_allele=row[positions["other_allele"]].strip().upper(),
        beta=float(row[positions["beta"]]),
        se=float(row[positions["se"]]),
        n=n,
    )


def _index_unique(records: Sequence[SnpRecord]) -> dict[str, SnpRecord]:
    out: dict[str, SnpRecord] = {}
    for rec in records:
        if rec.snp_id in out:
            raise DuplicateSnpId(rec.snp_id)
        out[rec.snp_id] = rec
    return out


def _is_palindromic(rec: SnpRecord) -> bool:
    return {rec.effect_allele, rec.other_allele} in _PALINDROMIC_PAIRS


def _orientation(anchor: SnpRecord, other: SnpRecord) -> int | None:
    """+1 if alleles match the anchor's order, -1 if reversed, None otherwise."""
    if other.effect_allele == anchor.effect_allele and other.other_allele == anchor.other_allele:
        return 1
    if other.effect_allele == anchor.other_allele and other.other_allele == anchor.effect_allele:
        return -1
    return None


def harmonize(
    treatment: Sequence[SnpRecord],
    outcome_exposure: Sequence[SnpRecord],
    outcome: Sequence[SnpRecord],
    policy: str = "drop",
) -> tuple[TripleArrays, HarmonizationReport]:
    """Align the three inputs on shared SNPs and a common effect allele.

    The treatment file fixes the allele orientation. Records from the two
    outcome-cohort files with reversed allele order get their beta sign
    flipped; records matching neither orientation drop the SNP. Palindromic
    SNPs (A/T or C/G) are dropped under ``policy="drop"`` because strand
    cannot be resolved from betas alone; ``policy="keep"`` trusts the stated
    orientation.

    Returns the kept SNPs, in treatment-file order, as one validated
    :class:`TripleArrays`, and the accounting report.
    """
    if policy not in ("drop", "keep"):
        raise ValueError(f"palindromic policy must be 'drop' or 'keep', got {policy!r}")
    tr_ids = _index_unique(treatment)
    oug = _index_unique(outcome_exposure)
    ouG = _index_unique(outcome)
    union = set(tr_ids) | set(oug) | set(ouG)
    shared = set(tr_ids) & set(oug) & set(ouG)

    rows: list[tuple] = []
    flipped = mismatched = palindromic = 0
    for rec in treatment:  # treatment-file order keeps output deterministic
        sid = rec.snp_id
        if sid not in shared:
            continue
        if policy == "drop" and _is_palindromic(rec):
            palindromic += 1
            continue
        sign_g = _orientation(rec, oug[sid])
        sign_G = _orientation(rec, ouG[sid])
        if sign_g is None or sign_G is None:
            mismatched += 1
            continue
        if sign_g < 0 or sign_G < 0:
            flipped += 1
        g, G = oug[sid], ouG[sid]
        rows.append((sid, rec.beta, rec.se, sign_g * g.beta, g.se, sign_G * G.beta, G.se))
    if not rows:
        raise EmptyIntersection()
    triples = TripleArrays.checked(*zip(*rows))
    report = HarmonizationReport(
        kept=len(triples),
        flipped=flipped,
        dropped_mismatch=mismatched,
        dropped_palindromic=palindromic,
        dropped_missing=len(union) - len(shared),
    )
    return triples, report


def marginal_regression(z, y) -> tuple[float, float]:
    """Slope and standard error of the simple regression of ``y`` on ``z``.

    Returns the covariance/variance slope together with the usual OLS
    standard error ``sqrt(RSS / (n - 2) / sum((z - zbar)^2))`` from the fit
    with intercept. Requires ``n >= 3`` and a non-constant ``z``.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.ndim != 1 or z.shape != y.shape:
        raise ValueError("z and y must be 1-D vectors of equal length")
    beta, se = marginal_regressions(z[:, None], y)
    return float(beta[0]), float(se[0])


def marginal_regressions(Z, y) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise :func:`marginal_regression` for an ``n x p`` design matrix."""
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    beta, se = blocked_regressions([(Z, (y - y.mean())[:, None])])
    return beta[:, 0], se[:, 0]


def blocked_regressions(blocks) -> tuple[np.ndarray, np.ndarray]:
    """:func:`marginal_regressions` accumulated over row blocks.

    ``blocks`` yields ``(Z, Y)``: consecutive rows of an ``n x p`` design
    and of an ``n x k`` response. Each pair is reduced before the next is
    requested, so blocks may reuse one buffer. Returns the ``p x k`` slopes
    and standard errors of every response column on every design column.
    The sums are not centred: shift each design column by about its mean,
    and keep the responses' means small.
    """
    n, z, zz, zy, y, yy = 0, 0.0, 0.0, 0.0, 0.0, 0.0
    for Z, Y in blocks:
        n += Z.shape[0]
        z = z + Z.sum(axis=0)
        zz = zz + np.einsum("ij,ij->j", Z, Z)
        zy = zy + Z.T @ Y
        y = y + Y.sum(axis=0)
        yy = yy + np.einsum("ij,ij->j", Y, Y)
    if n < 3:
        raise ValueError("at least 3 observations required")
    ss = (zz - z**2 / n)[:, None]
    # A constant column leaves a rounding residue in ``ss`` that grows like
    # n * eps of its sum of squares (up to 0.64 n eps measured over 3,000
    # constants and n from 3 to 10^5); a single differing genotype among n
    # keeps the ratio near 1/n.
    if np.any(ss <= 4.0 * n * np.finfo(float).eps * zz[:, None]):
        raise DegenerateGenotype("one or more genotype columns are constant")
    szy = zy - np.outer(z, y) / n
    beta = szy / ss
    rss = np.maximum(yy - y**2 / n - beta * szy, 0.0)
    se = np.sqrt(rss / (n - 2) / ss)
    return beta, se
