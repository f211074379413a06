"""Property tests: the columnar parse and harmonize against per-row references.

Each reference is the row loop the package once ran: :func:`reference_parse`
builds one :class:`SnpRecord` per csv row, and :func:`reference_harmonize`
aligns one SNP at a time. The columnar code must raise the same error, or
give the same rows, drop counts and report, on every generated input.
"""

import csv
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrhetero import (
    DataError,
    DuplicateSnpId,
    EmptyIntersection,
    HarmonizationReport,
    MalformedRow,
    MissingColumn,
    SnpArrays,
    SnpRecord,
    as_snp_arrays,
    harmonize,
    parse_summary_file,
)
from mrhetero import summary_data
from mrhetero.summary_data import TripleArrays

FIELDS = ("snp", "effect_allele", "other_allele", "beta", "se", "n")
MISSING_N = ("", "na", "nan", ".")


def _is_utf8(cells) -> bool:
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def reference_parse(path, lenient=False) -> tuple[list[SnpRecord], int]:
    """One :class:`SnpRecord` per csv row; the kept records and the dropped count."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if header is None:
            raise MalformedRow(1, "file has no header row")
        if not _is_utf8(header):
            raise DataError(f"{path}:{reader.line_num}: header is not UTF-8 text", path=str(path))
        names = [h.strip() for h in header]
        pos = {}
        for field in FIELDS[:5]:
            if field not in names:
                raise MissingColumn(field)
            pos[field] = names.index(field)
        n_pos = names.index("n") if "n" in names else None
        records, seen, dropped = [], set(), 0
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if not _is_utf8(row):
                if lenient:
                    dropped += 1
                    continue
                raise DataError(f"{path}:{reader.line_num}: row is not UTF-8 text", path=str(path))
            try:
                n = None
                if n_pos is not None and n_pos < len(row):
                    raw = row[n_pos].strip()
                    if raw.lower() not in MISSING_N:
                        n = int(float(raw))
                rec = SnpRecord(row[pos["snp"]].strip(), row[pos["effect_allele"]].strip().upper(),
                                row[pos["other_allele"]].strip().upper(), float(row[pos["beta"]]),
                                float(row[pos["se"]]), n)
            except (ValueError, IndexError, OverflowError) as exc:
                if lenient:
                    dropped += 1
                    continue
                raise MalformedRow(lineno, str(exc)) from exc
            if rec.snp_id in seen:
                raise DuplicateSnpId(rec.snp_id)
            seen.add(rec.snp_id)
            records.append(rec)
    return records, dropped


def columnar_parse(path, lenient=False) -> tuple[list[SnpRecord], int]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = parse_summary_file(path, lenient=lenient)
    assert isinstance(table, SnpArrays)
    counts = [int(str(w.message).split()[1]) for w in caught if "malformed rows" in str(w.message)]
    return list(table), sum(counts)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return type(exc), str(exc), exc.details


def cells(valid, invalid):
    """Cell bytes, three times likelier valid than not, so that whole rows often parse."""
    return st.sampled_from(valid * 3 + invalid)


ID_CELLS = cells([b"rs1", b"rs2", b"rs3", b"rs4", b"rs5", b"rs6", b" rs7 ", b"r\xc3\xa9s"],
                 [b"", b"  ", b"rs\xe9"])
ALLELE_CELLS = cells([b"A", b"a", b"G", b" t ", b"C", b"AC"], [b"", b"\xff"])
NUMBER_CELLS = cells([b"0.1", b"-2e-3", b" 0.5 ", b"1_0", b"1e-300"],
                     [b"0", b"-1", b"inf", b"-inf", b"1e400", b"nan", b"x", b""])
N_CELLS = cells([b"1000", b"1", b"2.7", b"1e30", b"NA", b"na", b"NaN", b"nan", b".", b"", b" NA "],
                [b"0.5", b"0", b"-5", b"inf", b"1e400", b"+nan", b"x"])
LINE_ENDS = [b"\n", b"\r\n", b"\r"]

data_row = st.fixed_dictionaries({
    "snp": ID_CELLS,
    "effect_allele": ALLELE_CELLS,
    "other_allele": ALLELE_CELLS,
    "beta": NUMBER_CELLS,
    "se": NUMBER_CELLS,
    "n": N_CELLS,
})


@st.composite
def summary_files(draw) -> bytes:
    """Quote-free TSV bytes: a permuted header, then full, short and blank rows."""
    fields = list(draw(st.sampled_from([FIELDS, FIELDS[:5]])))
    order = draw(st.permutations(fields))
    lines = [b"\t".join(f.encode() for f in order)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["full", "full", "full", "short", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from([b"", b"  ", b"\t\t", b" \t "])))
            continue
        row = draw(data_row)
        cells = [row[f] for f in order]
        if kind == "short":
            cells = cells[:draw(st.integers(0, len(cells) - 1))]
        lines.append(b"\t".join(cells))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = b"".join(line + end for line, end in zip(lines, ends))
    if not draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text


#: A file of each irregular case: a blank line, a long row, a short row
#: and, last, an unclosed quote, which the row loop reads to the end of the file.
IRREGULAR = ("snp\teffect_allele\tother_allele\tbeta\tse\tn\n"
             "rs1\tA\tG\t0.1\t0.01\t1000\n"
             "\n"
             "rs2\tC\tT\t-0.2\t0.02\tNA\textra\n"
             "rs3\tA\tG\t0.1\n"
             '"rs4\tA\tG\t0.1\t0.01\t1000\n').encode()


@settings(max_examples=300, deadline=None)
@given(content=summary_files(), lenient=st.booleans())
@example(content=IRREGULAR, lenient=False)
@example(content=IRREGULAR, lenient=True)
def test_columnar_parse_matches_the_row_loop(content, lenient):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.tsv"
        path.write_bytes(content)
        assert outcome(columnar_parse, path, lenient) == outcome(reference_parse, path, lenient)


@st.composite
def regular_files(draw) -> bytes:
    """Quote-free TSV bytes with at least one row, every row holding the
    header's cell count: valid, invalid or whitespace-only cells, and maybe a
    column that no field reads."""
    fields = list(draw(st.sampled_from([FIELDS, FIELDS[:5], FIELDS + ("info",)])))
    order = draw(st.permutations(fields))
    lines = [b"\t".join(f.encode() for f in order)]
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(b"\t".join(draw(st.sampled_from([b"", b" ", b"  "])) for _ in order))
            continue
        row = {**draw(data_row), "info": draw(st.sampled_from([b"x", b"", b"\xe9"]))}
        lines.append(b"\t".join(row[f] for f in order))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = b"".join(line + end for line, end in zip(lines, ends))
    if not draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text


@settings(max_examples=300, deadline=None)
@given(content=regular_files(), lenient=st.booleans())
def test_one_split_parse_of_regular_files_matches_the_row_loop(content, lenient):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(summary_data, "_cells", wraps=summary_data._cells) as read_one_by_one:
        path = Path(tmp) / "panel.tsv"
        path.write_bytes(content)
        assert outcome(columnar_parse, path, lenient) == outcome(reference_parse, path, lenient)
        # Past the header, only the rows the row loop rejects or skips are
        # read one by one.
        header, *lines = (call.args[0] for call in read_one_by_one.call_args_list)
        for line in lines:
            single = Path(tmp) / "row.tsv"
            single.write_bytes(f"{header}\n{line}\n".encode("utf-8", "surrogateescape"))
            assert reference_parse(single, lenient=True)[0] == []


def test_empty_file_matches_the_row_loop(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_bytes(b"")
    assert outcome(columnar_parse, path) == outcome(reference_parse, path)


def reference_harmonize(treatment, outcome_exposure, outcome_, policy):
    """Today's per-SNP alignment, for :func:`harmonize` to match."""
    def index(records):
        out = {}
        for rec in records:
            if rec.snp_id in out:
                raise DuplicateSnpId(rec.snp_id)
            out[rec.snp_id] = rec
        return out

    def orientation(anchor, other):
        if (other.effect_allele, other.other_allele) == (anchor.effect_allele, anchor.other_allele):
            return 1
        if (other.effect_allele, other.other_allele) == (anchor.other_allele, anchor.effect_allele):
            return -1
        return None

    tr, oug, ouG = index(treatment), index(outcome_exposure), index(outcome_)
    shared = set(tr) & set(oug) & set(ouG)
    rows, flipped, mismatched, palindromic = [], 0, 0, 0
    for rec in treatment:
        if rec.snp_id not in shared:
            continue
        if policy == "drop" and {rec.effect_allele, rec.other_allele} in ({"A", "T"}, {"C", "G"}):
            palindromic += 1
            continue
        g, G = oug[rec.snp_id], ouG[rec.snp_id]
        sg, sG = orientation(rec, g), orientation(rec, G)
        if sg is None or sG is None:
            mismatched += 1
            continue
        flipped += sg < 0 or sG < 0
        rows.append((rec.snp_id, rec.beta, rec.se, sg * g.beta, g.se, sG * G.beta, G.se))
    if not rows:
        raise EmptyIntersection()
    report = HarmonizationReport(len(rows), flipped, mismatched, palindromic,
                                 len(set(tr) | set(oug) | set(ouG)) - len(shared))
    return TripleArrays.checked(*zip(*rows)), report


def comparable(result):
    """Rows, every column's bytes and the report; or the error."""
    if not isinstance(result, tuple) or not isinstance(result[0], TripleArrays):
        return result
    triples, report = result
    cols = [triples.snp_ids.tolist()] + [getattr(triples, name).tobytes()
                                         for name in TripleArrays.__slots__[1:]]
    return list(triples), cols, report


PAIRS = [("A", "G"), ("C", "T"), ("A", "T"), ("C", "G"), ("AC", "G"), ("T", "TA"), ("AT", "TA")]


@st.composite
def panels(draw):
    """Three files over a shared id pool: missing ids, flips, mismatches, palindromes."""
    p = draw(st.integers(1, 12))
    files = [[], [], []]
    for i in range(p):
        ea, oa = draw(st.sampled_from(PAIRS))
        if draw(st.booleans()):
            ea, oa = oa, ea
        for f in range(3):
            if draw(st.integers(0, 5)) == 0:
                continue  # missing from this file
            beta = draw(st.sampled_from([0.0, 0.05, -0.3, 1e-9, 2.5]))
            a1, a2 = ea, oa
            kind = draw(st.sampled_from(["same", "same", "flip", "mismatch"])) if f else "same"
            if kind == "flip":
                a1, a2, beta = oa, ea, -beta
            elif kind == "mismatch":
                a1, a2 = draw(st.sampled_from([pair for pair in PAIRS if set(pair) != {ea, oa}]))
            files[f].append((f"rs{i}", a1, a2, beta, draw(st.sampled_from([0.01, 0.2]))))
    for f in files:
        order = draw(st.permutations(range(len(f))))
        f[:] = [f[j] for j in order]
    return files


@settings(max_examples=200, deadline=None)
@given(files=panels(), policy=st.sampled_from(["drop", "keep"]))
def test_vectorised_harmonize_matches_the_per_snp_loop(files, policy):
    with tempfile.TemporaryDirectory() as tmp:
        tables = []
        for k, rows in enumerate(files):
            path = Path(tmp) / f"{k}.tsv"
            path.write_text("snp\teffect_allele\tother_allele\tbeta\tse\n"
                            + "".join("\t".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
            tables.append(parse_summary_file(path))
    records = [list(t) for t in tables]
    expected = comparable(outcome(reference_harmonize, *records, policy))
    assert comparable(outcome(harmonize, *tables, policy)) == expected
    assert comparable(outcome(harmonize, *records, policy)) == expected
    # het-test passes the outcome-exposure table as the outcome too.
    reused = comparable(outcome(reference_harmonize, records[0], records[1], records[1], policy))
    assert comparable(outcome(harmonize, tables[0], tables[1], tables[1], policy)) == reused


@pytest.mark.parametrize("dup", [0, 1, 2])
def test_duplicates_in_record_lists_raise_in_argument_order(dup):
    files = [[SnpRecord(f"rs{i}", "A", "G", 0.1, 0.01) for i in range(3)] for _ in range(3)]
    for f in range(dup, 3):
        files[f].append(SnpRecord(f"rs{f}", "A", "G", 0.2, 0.01))
    with pytest.raises(DuplicateSnpId) as exc:
        harmonize(*files)
    assert exc.value.details == {"snp_id": f"rs{dup}"}
    assert list(as_snp_arrays(files[0])) == files[0]


def test_table_rows_and_columns_agree():
    rows = [SnpRecord("rs1", "A", "G", 0.1, 0.01, 1000), SnpRecord("rs2", "C", "T", -0.2, 0.02)]
    table = as_snp_arrays(rows)
    assert list(table) == rows and table[1] == rows[1] and table[-1] == rows[1]
    assert table[:1] == rows[:1]
    assert table.take([1, 0])[0] == rows[1]
    assert np.isnan(table.n[1]) and table.n[0] == 1000.0
