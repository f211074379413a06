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
        for holds, message in _snp_rules(*SnpArrays._fields(self)):
            if not holds:
                raise ValueError(message)


def _snp_rules(snp_id, effect_allele, other_allele, beta, se, n):
    """The rule table of a :class:`SnpRecord`: each rule, in the order they are
    checked, as ``(holds, message)``.

    The fields are one row's values or whole :class:`SnpArrays` columns, with
    NaN for a missing ``n``; ``holds`` is elementwise, and false on a NaN
    ``beta`` or ``se``. Rules are yielded one at a time, so a row is held
    only to those up to the first it breaks.
    """
    yield snp_id != "", "empty SNP id"
    yield (effect_allele != "") & (other_allele != ""), "empty allele token"
    yield effect_allele != other_allele, "effect and other allele are identical"
    yield abs(beta) < math.inf, "beta is not finite"
    yield (se > 0) & (se < math.inf), "se must be a positive finite number"
    # NaN, a missing count, is the one value unequal to itself.
    yield (n > 0) | (n != n), "n must be a positive count"


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


class _Columns(Sequence):
    """Aligned NumPy columns, one per name in ``__slots__`` with the dtype at
    the same place in ``_DTYPES``, that also read as an immutable sequence of
    rows, each built on access.

    A subclass converts one row each way: ``_row`` builds row ``i`` and
    ``_fields`` gives a row's values in column order.
    """

    __slots__ = ()

    def __init__(self, *columns):
        for name, dtype, column in zip(self.__slots__, self._DTYPES, columns, strict=True):
            setattr(self, name, np.asarray(column, dtype=dtype))

    @classmethod
    def _from_rows(cls, rows):
        """``rows`` as columns: an instance as it is, a sequence of rows copied once."""
        if isinstance(rows, cls):
            return rows
        fields = [cls._fields(row) for row in rows]
        return cls(*(zip(*fields) if fields else [()] * len(cls.__slots__)))

    def take(self, indices):
        """Row subset, in the order of ``indices`` and with repetition allowed,
        e.g. a bootstrap resample."""
        return type(self)(*(getattr(self, name)[indices] for name in self.__slots__))

    def __len__(self) -> int:
        return getattr(self, self.__slots__[0]).shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._row(i)


class TripleArrays(_Columns):
    """Harmonized per-SNP summary statistics as seven aligned columns.

    The one internal representation: :func:`harmonize` and the simulator
    return it, and the estimators, the het test and the resampling loop read
    its NumPy columns. It also behaves as an immutable sequence of
    :class:`HarmonizedTriple` rows, each built on access.
    """

    __slots__ = ("snp_ids", *_VALUES)
    _DTYPES = (object,) + (float,) * len(_VALUES)

    @classmethod
    def checked(cls, *columns) -> "TripleArrays":
        """Build as the constructor does, holding every row to :class:`HarmonizedTriple`'s rule."""
        arrays = cls(*columns)
        _check_triple(arrays)
        return arrays

    def _row(self, i) -> HarmonizedTriple:
        return HarmonizedTriple(self.snp_ids[i], *(float(getattr(self, name)[i]) for name in _VALUES))

    @staticmethod
    def _fields(t: HarmonizedTriple) -> tuple:
        return (t.snp_id, *(getattr(t, name) for name in _VALUES))


class SnpArrays(_Columns):
    """One summary file's SNPs as six aligned columns.

    :func:`parse_summary_file` returns it and :func:`harmonize` reads its
    NumPy columns: ids and upper-case alleles as object arrays, ``beta``
    and ``se`` as floats, and ``n`` as floats with NaN for a missing sample
    size. It also behaves as an immutable sequence of :class:`SnpRecord`
    rows, each built on access.
    """

    __slots__ = ("snp_ids", "effect_allele", "other_allele", "beta", "se", "n")
    _DTYPES = (object, object, object, float, float, float)

    def _row(self, i) -> SnpRecord:
        n = float(self.n[i])
        return SnpRecord(self.snp_ids[i], self.effect_allele[i], self.other_allele[i],
                         float(self.beta[i]), float(self.se[i]), None if math.isnan(n) else int(n))

    @staticmethod
    def _fields(r: SnpRecord) -> tuple:
        return r.snp_id, r.effect_allele, r.other_allele, r.beta, r.se, math.nan if r.n is None else r.n


#: ``triples`` as columns: a :class:`TripleArrays` as it is, a sequence of
#: :class:`HarmonizedTriple` rows, as a library caller may pass, copied once.
as_triple_arrays = TripleArrays._from_rows

#: ``records`` as columns: a :class:`SnpArrays` as it is, :class:`SnpRecord` rows copied once.
as_snp_arrays = SnpArrays._from_rows


def parse_summary_file(path, columns: dict | None = None, lenient: bool = False) -> SnpArrays:
    """Read one tab-delimited summary-statistics file into a :class:`SnpArrays`.

    Parameters
    ----------
    path : str or Path
        UTF-8 TSV file with one header row, which may start with a
        byte-order mark. Lines end in LF, CRLF or CR. A cell may be quoted
        as the csv module reads it, but its quotes must close on the same
        line; blank lines are skipped.
    columns : dict, optional
        Overrides for :data:`DEFAULT_COLUMNS` (logical name -> header name),
        keyed by its six fields. The ``n`` column is optional; all others
        are required. An ``n`` cell that is empty, ``NA``, ``NaN`` or ``.``
        (in any case) is a missing sample size.
    lenient : bool
        When true, rows with unparseable fields, unclosed quotes or bytes
        that are not UTF-8 are counted and dropped (a warning reports the
        count) instead of raising.

    Raises
    ------
    MissingColumn, MalformedRow, DuplicateSnpId
    DataError
        A ``columns`` key is not a field of :data:`DEFAULT_COLUMNS`, or two
        fields map to one header name, both checked before the file is
        opened; or the header, or in strict mode a row, is not UTF-8 text,
        and the message names the line.

    In strict mode the first problem in file order decides the error.
    """
    for field in columns or ():
        if field not in DEFAULT_COLUMNS:
            raise DataError(
                f"unknown column field {field!r}; expected one of {', '.join(DEFAULT_COLUMNS)}",
                field=field,
            )
    colmap = {**DEFAULT_COLUMNS, **(columns or {})}
    fields = {}
    for field, name in colmap.items():
        if fields.setdefault(name, field) != field:
            raise DataError(f"column {name!r} is mapped to both {fields[name]!r} and {field!r}", column=name)
    # ``utf-8-sig`` drops a byte-order mark that would otherwise prefix the
    # first header name. Bytes that are not UTF-8 decode to lone surrogates,
    # so that the row holding them, not the whole file, is rejected.
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        text = fh.read()
    if not text:
        raise MalformedRow(1, "file has no header row")
    # Physical lines, split where iterating the file would split them; a
    # final line break ends the last line rather than starting an empty one.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()
    if not _is_utf8(lines[0]):
        raise DataError(f"{path}:1: header is not UTF-8 text", path=str(path))
    header = _cells(lines[0])
    if header is None:
        raise MalformedRow(1, _UNCLOSED)
    names = [h.strip() for h in header]
    positions = {}
    for field in ("snp", "effect_allele", "other_allele", "beta", "se"):
        try:
            positions[field] = names.index(colmap[field])
        except ValueError:
            raise MissingColumn(colmap[field]) from None
    n_pos = names.index(colmap["n"]) if colmap["n"] in names else None

    body, width = lines[1:], len(header)
    if '"' not in text and {line.count("\t") for line in body} == {width - 1}:
        # A regular file: every line holds the header's cell count, so one
        # split holds the cells row by row. It gives the same rows, errors
        # and drop counts as the line reader.
        flat = "\t".join(body).split("\t")
    else:
        # Each line read on its own, padded with empty cells or cut to the
        # header's width; an unclosed quote (None) reads as empty cells. An
        # empty required cell breaks a rule, so its row is rejected below.
        flat = [cell for row in map(_cells, body) for cell in ((row or []) + [""] * width)[:width]]
    # Column k is every width-th cell.
    table, bad = _columns([flat[k::width] for k in range(width)], positions, n_pos)
    if not _is_utf8(text):
        bad |= [not _is_utf8(line) for line in body]
    # Only the rejected rows are read again, cell by cell.
    rows = {i: _cells(body[i]) for i in np.flatnonzero(bad)}
    # A blank row (every cell whitespace) is skipped, not dropped. Each one
    # breaks a rule, so only the rejected rows need looking at.
    blank = np.zeros_like(bad)
    for i in np.flatnonzero(bad):
        blank[i] = rows[i] is not None and not "".join(rows[i]).strip()
    bad &= ~blank
    # Strict mode reads up to its first bad row.
    first = len(bad) if lenient or not bad.any() else int(np.argmax(bad))
    kept = np.flatnonzero(~(bad | blank)[:first])
    repeat = _first_repeat(table.snp_ids[kept])
    if repeat is not None:
        raise DuplicateSnpId(table.snp_ids[kept[repeat]])
    if first < len(bad):
        _reject(path, first + 2, body[first], rows[first], positions, n_pos)
    if bad.any():
        warnings.warn(f"dropped {int(bad.sum())} malformed rows from {path}", stacklevel=2)
    return table.take(kept) if len(kept) < len(bad) else table


_UNCLOSED = "a quoted cell does not close on its line"

#: ``n`` cells meaning "no sample size", compared after stripping and lower-casing.
_MISSING_N = frozenset(("", "na", "nan", "."))


def _cells(line: str) -> list[str] | None:
    """The cells of one physical line, read as the csv module reads a tab-delimited
    line; None when a quote opened on the line does not close on it."""
    if '"' not in line:
        return line.split("\t") if line else []
    # An unclosed quote runs on into the next line: offer an empty one, and
    # the reader returns a single record.
    records = list(csv.reader((line, ""), delimiter="\t"))
    return records[0] if len(records) == 2 else None


def _columns(cols, positions, n_pos) -> tuple[SnpArrays, np.ndarray]:
    """The cells ``cols`` (by column) as a :class:`SnpArrays`, and the mask of
    the rows that break a :class:`SnpRecord` rule, whose values are placeholders."""
    ids = np.array(list(map(str.strip, cols[positions["snp"]])), dtype=object)
    bad = np.zeros(len(ids), dtype=bool)
    effect, other = (np.array(list(map(str.upper, map(str.strip, cols[positions[f]]))), dtype=object)
                     for f in ("effect_allele", "other_allele"))
    beta = _floats(cols[positions["beta"]])
    se = _floats(cols[positions["se"]])
    n = np.full(len(ids), math.nan)
    if n_pos is not None:
        n = _floats(cols[n_pos])
        # A count must survive ``int(float(cell))``, which fails on
        # infinities and NaN; of the cells that may stand, only the
        # missing-value tokens read as NaN.
        unread = ~(abs(n) < math.inf)
        for i in np.flatnonzero(np.isnan(n)):
            unread[i] = cols[n_pos][i].strip().lower() not in _MISSING_N
        bad |= unread
        n = np.trunc(n)
    for holds, _ in _snp_rules(ids, effect, other, beta, se, n):
        bad |= ~holds
    return SnpArrays(ids, effect, other, beta, se, n), bad


def _floats(cells) -> np.ndarray:
    """``float`` of each cell, NaN where it raises."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.array([_float_or_nan(c) for c in cells], dtype=float)


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _is_utf8(text: str) -> bool:
    """False when ``text`` holds a surrogate that stands for a byte that was not UTF-8."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _first_repeat(ids) -> int | None:
    """Position of the first id that repeats an earlier one, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for i, sid in enumerate(ids):
        if sid in seen:
            return i
        seen.add(sid)


def _reject(path, lineno, line, row, positions, n_pos):
    """Raise the error of the first rejected row, naming its first unparseable
    cell or the first rule it breaks."""
    if not _is_utf8(line):
        raise DataError(f"{path}:{lineno}: row is not UTF-8 text", path=str(path))
    if row is None:
        raise MalformedRow(lineno, _UNCLOSED)
    # Each cell is parsed as for a SnpRecord field, so that one that does
    # not parse raises Python's own error.
    try:
        raw = row[n_pos].strip() if n_pos is not None and n_pos < len(row) else ""
        n = math.nan if raw.lower() in _MISSING_N else int(float(raw))
        snp_id, effect, other = (row[positions[f]].strip() for f in ("snp", "effect_allele", "other_allele"))
        beta, se = float(row[positions["beta"]]), float(row[positions["se"]])
    except (ValueError, IndexError, OverflowError) as exc:
        raise MalformedRow(lineno, str(exc)) from exc
    rules = _snp_rules(snp_id, effect.upper(), other.upper(), beta, se, n)
    raise MalformedRow(lineno, next(message for holds, message in rules if not holds))


#: Treatment allele pairs whose strand cannot be read from the betas.
_PALINDROMIC_PAIRS = (("A", "T"), ("T", "A"), ("C", "G"), ("G", "C"))


def _allele_signs(effect, other, at_effect, at_other) -> np.ndarray:
    """+1 where the alleles ``at_*`` match the anchor's order, -1 where reversed, 0 otherwise."""
    same = (at_effect == effect) & (at_other == other)
    reversed_ = (at_effect == other) & (at_other == effect)
    return np.where(same, 1.0, np.where(reversed_, -1.0, 0.0))


def _id_index(table: SnpArrays) -> dict:
    """Id -> row of ``table``; raises :class:`DuplicateSnpId` on the first repeated id."""
    index = dict(zip(table.snp_ids.tolist(), range(len(table))))
    if len(index) < len(table):
        raise DuplicateSnpId(table.snp_ids[_first_repeat(table.snp_ids)])
    return index


def harmonize(
    treatment: Sequence[SnpRecord],
    outcome_exposure: Sequence[SnpRecord],
    outcome: Sequence[SnpRecord],
    policy: str = "drop",
) -> tuple[TripleArrays, HarmonizationReport]:
    """Align the three inputs on shared SNPs and a common effect allele.

    Each input is a :class:`SnpArrays` or a sequence of :class:`SnpRecord`.
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
    tr, g, G = (as_snp_arrays(x) for x in (treatment, outcome_exposure, outcome))
    # One table given as both outcome-cohort inputs (by ``het-test``, or a
    # path given twice to ``analyze``) is indexed and joined once.
    index_tr, index_g = _id_index(tr), _id_index(g)
    index_G = index_g if G is g else _id_index(G)
    union = index_tr.keys() | index_g.keys() | index_G.keys()
    # Treatment rows (in file order) present in both outcome-cohort files,
    # and where each outcome-cohort file holds them.
    ids = tr.snp_ids.tolist()
    at_g = np.array([index_g.get(sid, -1) for sid in ids], dtype=np.intp)
    at_G = at_g if G is g else np.array([index_G.get(sid, -1) for sid in ids], dtype=np.intp)
    rows = np.flatnonzero((at_g >= 0) & (at_G >= 0))
    at_g, at_G = at_g[rows], at_G[rows]
    effect, other = tr.effect_allele[rows], tr.other_allele[rows]

    palindromic = np.zeros(len(rows), dtype=bool)
    if policy == "drop":
        for a, b in _PALINDROMIC_PAIRS:
            palindromic |= (effect == a) & (other == b)
    sign_g = _allele_signs(effect, other, g.effect_allele[at_g], g.other_allele[at_g])
    sign_G = _allele_signs(effect, other, G.effect_allele[at_G], G.other_allele[at_G])
    mismatched = ~palindromic & ((sign_g == 0) | (sign_G == 0))
    kept = ~palindromic & ~mismatched
    if not kept.any():
        raise EmptyIntersection()
    sign_g, sign_G, at_g, at_G = sign_g[kept], sign_G[kept], at_g[kept], at_G[kept]
    k = rows[kept]
    triples = TripleArrays.checked(
        tr.snp_ids[k], tr.beta[k], tr.se[k],
        sign_g * g.beta[at_g], g.se[at_g], sign_G * G.beta[at_G], G.se[at_G],
    )
    report = HarmonizationReport(
        kept=len(triples),
        flipped=int(((sign_g < 0) | (sign_G < 0)).sum()),
        dropped_mismatch=int(mismatched.sum()),
        dropped_palindromic=int(palindromic.sum()),
        dropped_missing=len(union) - len(rows),
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
    if len(Z) < 3:  # before the means, which warn on no rows
        raise ValueError("at least 3 observations required")
    beta, se = blocked_regressions([(Z - Z.mean(axis=0), (y - y.mean())[:, None])])
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
