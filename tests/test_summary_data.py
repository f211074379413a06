import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mrhetero import (
    DataError,
    DegenerateGenotype,
    DuplicateSnpId,
    EmptyIntersection,
    HarmonizedTriple,
    MalformedRow,
    MissingColumn,
    SnpRecord,
    as_triple_arrays,
    harmonize,
    marginal_regression,
    marginal_regressions,
    parse_summary_file,
)
from mrhetero.summary_data import TripleArrays, blocked_regressions

from conftest import wls_intercept_normal_equations


def write_tsv(path, rows, header="snp\teffect_allele\tother_allele\tbeta\tse\tn"):
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


class TestParse:
    def test_default_mapping(self, tmp_path):
        f = write_tsv(tmp_path / "a.tsv", ["rs1\tA\tG\t0.05\t0.01\t1000"])
        (rec,) = parse_summary_file(f)
        assert rec == SnpRecord("rs1", "A", "G", 0.05, 0.01, 1000)

    def test_zero_se_is_malformed(self, tmp_path):
        f = write_tsv(tmp_path / "a.tsv", ["rs1\tA\tG\t0.05\t0\t1000"])
        with pytest.raises(MalformedRow) as exc:
            parse_summary_file(f)
        assert exc.value.details["line"] == 2

    def test_duplicate_id(self, tmp_path):
        f = write_tsv(tmp_path / "a.tsv",
                      ["rs1\tA\tG\t0.05\t0.01\t1000", "rs1\tA\tG\t0.06\t0.01\t1000"])
        with pytest.raises(DuplicateSnpId):
            parse_summary_file(f)

    def test_missing_column(self, tmp_path):
        f = write_tsv(tmp_path / "a.tsv", ["rs1\tA\tG\t0.05\t1000"],
                      header="snp\teffect_allele\tother_allele\tbeta\tn")
        with pytest.raises(MissingColumn) as exc:
            parse_summary_file(f)
        assert exc.value.details["column"] == "se"

    def test_lenient_counts_and_drops(self, tmp_path):
        f = write_tsv(tmp_path / "a.tsv",
                      ["rs1\tA\tG\tnot_a_number\t0.01\t1000", "rs2\tA\tG\t0.05\t0.01\t1000"])
        with pytest.warns(UserWarning, match="dropped 1 malformed"):
            records = parse_summary_file(f, lenient=True)
        assert [r.snp_id for r in records] == ["rs2"]

    def test_strict_rejects_unparseable(self, tmp_path):
        f = write_tsv(tmp_path / "a.tsv", ["rs1\tA\tG\tx\t0.01\t1000"])
        with pytest.raises(MalformedRow):
            parse_summary_file(f)

    @pytest.mark.parametrize("n", ["inf", "-inf", "1e400"])
    def test_unrepresentable_sample_size(self, tmp_path, n):
        rows = [f"rs1\tA\tG\t0.05\t0.01\t{n}", "rs2\tA\tG\t0.05\t0.01\t1000"]
        f = write_tsv(tmp_path / "a.tsv", rows)
        with pytest.raises(MalformedRow) as exc:
            parse_summary_file(f)
        assert exc.value.details["line"] == 2
        with pytest.warns(UserWarning, match="dropped 1 malformed"):
            records = parse_summary_file(f, lenient=True)
        assert [r.snp_id for r in records] == ["rs2"]

    def test_column_remap_and_optional_n(self, tmp_path):
        f = write_tsv(tmp_path / "a.tsv", ["rs9\tt\tc\t-0.2\t0.05"],
                      header="rsid\tEA\tOA\tb\tstderr")
        (rec,) = parse_summary_file(
            f, columns={"snp": "rsid", "effect_allele": "EA", "other_allele": "OA",
                        "beta": "b", "se": "stderr"})
        assert rec.n is None
        assert rec.effect_allele == "T"  # normalized to upper case

    def test_identical_alleles_rejected(self):
        with pytest.raises(ValueError):
            SnpRecord("rs1", "A", "A", 0.1, 0.1)

    @pytest.mark.parametrize("fields, message", [
        (("", "A", "G", 0.1, 0.01, 100), "empty SNP id"),
        (("rs2", "A", "", 0.1, 0.01, 100), "empty allele token"),
        (("rs2", "C", "C", 0.1, 0.01, 100), "effect and other allele are identical"),
        (("rs2", "A", "G", math.inf, 0.01, 100), "beta is not finite"),
        (("rs2", "A", "G", 0.1, 0.0, 100), "se must be a positive finite number"),
        (("rs2", "A", "G", 0.1, 0.01, 0), "n must be a positive count"),
    ])
    def test_record_rules_match_the_parse_reason(self, tmp_path, fields, message):
        with pytest.raises(ValueError) as record:
            SnpRecord(*fields)
        assert str(record.value) == message
        rows = ["rs1\tA\tG\t0.1\t0.01\t100", "\t".join(map(str, fields)), "rs3\tC\tT\t0.1\t0.01\t100"]
        with pytest.raises(MalformedRow) as exc:
            parse_summary_file(write_tsv(tmp_path / "a.tsv", rows))
        assert exc.value.details == {"line": 3, "reason": message}

    def test_byte_order_mark_before_header(self, tmp_path):
        rows = ["rs1\tA\tG\t0.05\t0.01\t1000", "rs2\tC\tT\t-0.02\t0.02\t900"]
        plain = write_tsv(tmp_path / "plain.tsv", rows)
        bom = tmp_path / "bom.tsv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert list(parse_summary_file(bom)) == list(parse_summary_file(plain))

    @pytest.mark.parametrize("token", ["", "NA", "na", "Na", "nan", "NaN", "NAN", ".", " NaN "])
    def test_missing_sample_size_tokens_ignore_case(self, tmp_path, token):
        f = write_tsv(tmp_path / "a.tsv", [f"rs1\tA\tG\t0.05\t0.01\t{token}"])
        (rec,) = parse_summary_file(f)
        assert rec == SnpRecord("rs1", "A", "G", 0.05, 0.01, None)

    @pytest.mark.parametrize("n", ["+nan", "-NaN", "NaNa"])
    def test_nan_spellings_that_are_not_tokens_are_malformed(self, tmp_path, n):
        f = write_tsv(tmp_path / "a.tsv", ["rs1\tA\tG\t0.05\t0.01\t1", f"rs2\tA\tG\t0.05\t0.01\t{n}"])
        with pytest.raises(MalformedRow) as exc:
            parse_summary_file(f)
        assert exc.value.details["line"] == 3

    STRAY_QUOTE = ["rs1\tA\tG\t0.1\t0.01\t100", '"rs2\tA\tG\t0.1\t0.01\t100',
                   "rs3\tA\tG\t0.1\t0.01\t100", 'rs4"\tA\tG\t0.1\t0.01\t100',
                   "rs5\tA\tG\t0.1\t0.01\t100"]

    @pytest.mark.parametrize("closed", [True, False])
    def test_stray_quote_is_a_malformed_row_at_its_line(self, tmp_path, closed):
        rows = self.STRAY_QUOTE if closed else [r.replace('"', "") if r.startswith("rs4") else r
                                                for r in self.STRAY_QUOTE]
        f = write_tsv(tmp_path / "a.tsv", rows)
        with pytest.raises(MalformedRow) as exc:
            parse_summary_file(f)
        assert exc.value.details["line"] == 3

    @pytest.mark.parametrize("closed", [True, False])
    def test_lenient_drops_only_the_line_with_a_stray_quote(self, tmp_path, closed):
        rows = self.STRAY_QUOTE if closed else [r.replace('"', "") if r.startswith("rs4") else r
                                                for r in self.STRAY_QUOTE]
        f = write_tsv(tmp_path / "a.tsv", rows)
        with pytest.warns(UserWarning, match="dropped 1 malformed"):
            records = parse_summary_file(f, lenient=True)
        assert [r.snp_id for r in records] == ["rs1", "rs3", 'rs4"' if closed else "rs4", "rs5"]

    def test_fully_quoted_cells_read_as_plain_ones(self, tmp_path):
        rows = ["rs1\tA\tG\t0.05\t0.01\t1000", "rs2\tC\tT\t-0.02\t0.02\tNA"]
        plain = write_tsv(tmp_path / "plain.tsv", rows)
        quoted = write_tsv(tmp_path / "quoted.tsv",
                           ["\t".join(f'"{c}"' for c in r.split("\t")) for r in rows],
                           header='"snp"\t"effect_allele"\t"other_allele"\t"beta"\t"se"\t"n"')
        assert list(parse_summary_file(quoted)) == list(parse_summary_file(plain))

    LATIN1_ROW = (b"snp\teffect_allele\tother_allele\tbeta\tse\n"
                  b"rs1\tA\tG\t0.05\t0.01\n"
                  b"rs2\xe9\tA\tG\t0.05\t0.01\n"
                  b"rs3\tC\tT\t-0.02\t0.02\n")

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_lenient_drops_a_row_that_is_not_utf8(self, tmp_path, bom):
        f = tmp_path / "latin.tsv"
        f.write_bytes(bom + self.LATIN1_ROW)
        with pytest.warns(UserWarning, match="dropped 1 malformed"):
            records = parse_summary_file(f, lenient=True)
        assert [r.snp_id for r in records] == ["rs1", "rs3"]

    def test_strict_names_the_line_that_is_not_utf8(self, tmp_path):
        f = tmp_path / "latin.tsv"
        f.write_bytes(self.LATIN1_ROW)
        with pytest.raises(DataError) as exc:
            parse_summary_file(f)
        assert exc.value.details == {"path": str(f)}
        assert f"{f}:3:" in str(exc.value)

    @pytest.mark.parametrize("lenient", [False, True])
    def test_header_that_is_not_utf8_is_data_error(self, tmp_path, lenient):
        f = tmp_path / "latin.tsv"
        f.write_bytes(b"snp\xe9\teffect_allele\tother_allele\tbeta\tse\nrs1\tA\tG\t0.05\t0.01\n")
        with pytest.raises(DataError) as exc:
            parse_summary_file(f, lenient=lenient)
        assert exc.value.details == {"path": str(f)}
        assert f"{f}:1:" in str(exc.value)

    def test_non_utf8_file_is_data_error(self, tmp_path):
        f = tmp_path / "latin.tsv"
        f.write_bytes("snp\teffect_allele\tother_allele\tbeta\tse\nrs1\u00e9\tA\tG\t0.05\t0.01\n"
                      .encode("latin-1"))
        with pytest.raises(DataError) as exc:
            parse_summary_file(f)
        assert exc.value.details == {"path": str(f)}
        assert str(f) in str(exc.value)


def rec(sid, ea, oa, beta, se=0.01):
    return SnpRecord(sid, ea, oa, beta, se)


class TestHarmonize:
    def test_sign_flip_on_allele_swap(self):
        tr = [rec("rs1", "A", "G", 0.05)]
        oug = [rec("rs1", "G", "A", -0.04)]
        ouy = [rec("rs1", "A", "G", 0.01)]
        triples, report = harmonize(tr, oug, ouy)
        assert triples[0].gamma_ou == pytest.approx(0.04)
        assert report.flipped == 1 and report.kept == 1

    def test_mismatch_dropped(self):
        tr = [rec("rs1", "A", "G", 0.05), rec("rs2", "A", "G", 0.07)]
        oug = [rec("rs1", "A", "G", 0.04), rec("rs2", "C", "T", 0.07)]
        ouy = [rec("rs1", "A", "G", 0.01), rec("rs2", "C", "T", 0.02)]
        triples, report = harmonize(tr, oug, ouy)
        assert [t.snp_id for t in triples] == ["rs1"]
        assert report.dropped_mismatch == 1

    def test_identity_case(self):
        tr = [rec(f"rs{i}", "A", "G", 0.01 * i) for i in range(1, 4)]
        oug = [rec(f"rs{i}", "A", "G", 0.01 * i) for i in range(1, 4)]
        ouy = [rec(f"rs{i}", "A", "G", 0.02 * i) for i in range(1, 4)]
        triples, report = harmonize(tr, oug, ouy)
        assert report.kept == 3 and report.flipped == 0

    def test_palindromic_policies(self):
        tr = [rec("rs1", "A", "T", 0.05), rec("rs2", "C", "G", 0.05), rec("rs3", "A", "G", 0.05)]
        oug = [rec("rs1", "A", "T", 0.04), rec("rs2", "C", "G", 0.04), rec("rs3", "A", "G", 0.04)]
        ouy = [rec("rs1", "A", "T", 0.01), rec("rs2", "C", "G", 0.01), rec("rs3", "A", "G", 0.01)]
        triples, report = harmonize(tr, oug, ouy, policy="drop")
        assert [t.snp_id for t in triples] == ["rs3"]
        assert report.dropped_palindromic == 2
        triples, report = harmonize(tr, oug, ouy, policy="keep")
        assert report.kept == 3 and report.dropped_palindromic == 0

    def test_missing_counted_from_union(self):
        tr = [rec("rs1", "A", "G", 0.05), rec("rs2", "A", "G", 0.05)]
        oug = [rec("rs1", "A", "G", 0.04), rec("rs3", "A", "G", 0.04)]
        ouy = [rec("rs1", "A", "G", 0.01)]
        triples, report = harmonize(tr, oug, ouy)
        assert report.kept == 1 and report.dropped_missing == 2
        # accounting: categories within the intersection sum to its size
        assert report.kept + report.dropped_mismatch + report.dropped_palindromic == 1

    def test_returns_validated_columns(self):
        tr = [rec("rs1", "A", "G", 0.05), rec("rs2", "T", "C", -0.03)]
        oug = [rec("rs1", "G", "A", -0.04), rec("rs2", "T", "C", -0.02)]
        ouy = [rec("rs1", "A", "G", 0.01), rec("rs2", "C", "T", 0.05)]
        triples, _ = harmonize(tr, oug, ouy)
        assert isinstance(triples, TripleArrays)
        assert list(triples.snp_ids) == ["rs1", "rs2"]
        assert triples.gamma_ou.tolist() == [0.04, -0.02]
        assert triples.capgamma_ou.tolist() == [0.01, -0.05]

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersection):
            harmonize([rec("rs1", "A", "G", 0.1)], [rec("rs2", "A", "G", 0.1)],
                      [rec("rs3", "A", "G", 0.1)])

    def test_idempotent(self):
        tr = [rec("rs1", "A", "G", 0.05), rec("rs2", "T", "C", -0.03)]
        oug = [rec("rs1", "G", "A", -0.04), rec("rs2", "T", "C", -0.02)]
        ouy = [rec("rs1", "A", "G", 0.01), rec("rs2", "C", "T", 0.05)]
        triples, _ = harmonize(tr, oug, ouy)

        def as_records(field_beta, field_se):
            return [SnpRecord(t.snp_id, tr_rec.effect_allele, tr_rec.other_allele,
                              getattr(t, field_beta), getattr(t, field_se))
                    for t, tr_rec in zip(triples, tr)]

        again, report = harmonize(as_records("gamma_tr", "se_gamma_tr"),
                                  as_records("gamma_ou", "se_gamma_ou"),
                                  as_records("capgamma_ou", "se_capgamma_ou"))
        assert report.flipped == 0
        assert list(again) == list(triples)

    def test_sign_flip_symmetry(self):
        tr = [rec("rs1", "A", "G", 0.05), rec("rs2", "T", "C", -0.03)]
        oug = [rec("rs1", "A", "G", 0.04), rec("rs2", "T", "C", -0.02)]
        ouy = [rec("rs1", "A", "G", 0.01), rec("rs2", "T", "C", 0.05)]
        base, _ = harmonize(tr, oug, ouy)
        flipped_oug = [SnpRecord(r.snp_id, r.other_allele, r.effect_allele, -r.beta, r.se)
                       for r in oug]
        flipped, _ = harmonize(tr, flipped_oug, ouy)
        assert list(flipped) == list(base)


class TestMarginalRegression:
    def test_perfect_fit(self):
        beta, se = marginal_regression([0, 1, 2], [0, 1, 2])
        assert (beta, se) == (1.0, 0.0)

    def test_exact_affine(self):
        beta, se = marginal_regression([0, 1, 2, 1], [1, 3, 5, 3])
        assert (beta, se) == (2.0, 0.0)

    def test_matches_normal_equation_oracle(self, rng):
        z = rng.standard_normal(50)
        y = 0.7 * z + rng.standard_normal(50)
        beta, se = marginal_regression(z, y)
        slope_oracle, intercept_oracle = wls_intercept_normal_equations(z, y, np.ones(50))
        assert_allclose(beta, slope_oracle, rtol=0, atol=1e-10)
        # residual-based se against the explicit residual sum of squares
        resid = y - intercept_oracle - slope_oracle * z
        zc = z - z.mean()
        se_oracle = np.sqrt((resid @ resid) / 48 / (zc @ zc))
        assert_allclose(se, se_oracle, rtol=1e-10)

    def test_constant_genotype(self):
        with pytest.raises(DegenerateGenotype):
            marginal_regression([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("n", [7, 100_000])
    def test_constant_column_with_rounding_residue(self, n):
        # 0.1 is inexact, so the centred sum of squares is rounding noise
        # that grows with n rather than an exact zero
        y = np.arange(n, dtype=float)
        with pytest.raises(DegenerateGenotype):
            marginal_regression(np.full(n, 0.1), y)
        with pytest.raises(DegenerateGenotype):
            marginal_regressions(np.full((n, 1), 0.1), y)
        Z = np.ones((n, 3))
        Z[:, 1] = 0.1
        Z[0, 0] = Z[1, 2] = 2.0
        with pytest.raises(DegenerateGenotype):
            marginal_regressions(Z, y)

    def test_single_differing_genotype_is_not_constant(self):
        # centred sum of squares over column sum of squares is 1e-5 here
        n = 100_000
        z = np.ones(n)
        z[0] = 0.0
        y = np.random.default_rng(1).standard_normal(n)
        y[0] += 5.0
        beta, se = marginal_regression(z, y)
        assert math.isfinite(beta) and 0.0 < se < math.inf
        betas, _ = marginal_regressions(np.column_stack([z, z[::-1]]), y)
        assert np.isfinite(betas).all()

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-100, 100),
        b=st.floats(-50, 50),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
    )
    def test_affine_response_recovers_slope(self, a, b, seed, n):
        z = np.random.default_rng(seed).uniform(-5, 5, n)
        if np.ptp(z) < 1e-6:
            return
        beta, se = marginal_regression(z, a + b * z)
        scale = 1.0 + abs(a) + abs(b)
        assert abs(beta - b) < 1e-7 * scale
        assert se < 1e-6 * scale

    def test_vectorized_matches_scalar(self, rng):
        Z = rng.integers(0, 3, size=(60, 7)).astype(float)
        y = rng.standard_normal(60) + Z @ rng.uniform(0.1, 0.3, 7)
        betas, ses = marginal_regressions(Z, y)
        for j in range(7):
            b, s = marginal_regression(Z[:, j], y)
            assert_allclose(betas[j], b, rtol=1e-9)
            assert_allclose(ses[j], s, rtol=1e-9)


def _accumulate(Z, Y, rows):
    return blocked_regressions(
        (Z[start:start + rows], Y[start:start + rows]) for start in range(0, Z.shape[0], rows))


class TestBlockedRegressions:
    @pytest.mark.parametrize("rows", [2000, 333, 1])
    def test_blocks_match_marginal_regressions(self, rng, rows):
        # 333 rows leave a 2-row remainder block; genotypes are shifted by
        # 2 maf as the simulator shifts them
        n, p, maf = 2000, 9, 0.3
        Z = rng.binomial(2, maf, size=(n, p)) - 2 * maf
        Y = Z @ rng.uniform(0.05, 0.1, (p, 2)) + rng.standard_normal((n, 2))
        beta, se = _accumulate(Z, Y, rows)
        assert beta.shape == se.shape == (p, 2)
        for k in range(2):
            b, s = marginal_regressions(Z, Y[:, k])
            assert_allclose(beta[:, k], b, rtol=1e-12, atol=0)
            assert_allclose(se[:, k], s, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("maf", [0.3, 0.5])
    @pytest.mark.parametrize("genotype", [0, 1, 2])
    def test_constant_shifted_column(self, rng, maf, genotype):
        # at maf 0.5 the shift is exactly 1.0, so genotype 1 becomes a
        # column of exact zeros
        n = 100_000
        Z = rng.binomial(2, maf, size=(n, 3)) - 2 * maf
        Z[:, 1] = (genotype > 0) - 2 * maf + (genotype > 1)
        Y = rng.standard_normal((n, 2))
        with pytest.raises(DegenerateGenotype):
            _accumulate(Z, Y, 1310)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            _accumulate(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), 1)


class TestTripleArrays:
    def test_sequence_roundtrip(self):
        triples = [HarmonizedTriple("rs1", 0.1, 0.01, 0.2, 0.02, 0.05, 0.01),
                   HarmonizedTriple("rs2", -0.1, 0.02, -0.15, 0.01, -0.04, 0.02)]
        arrays = as_triple_arrays(triples)
        assert list(arrays) == triples
        assert len(arrays) == 2
        assert arrays[-1] == triples[1] and arrays[-2] == triples[0]
        assert arrays[:1] == triples[:1] and arrays[::-1] == triples[::-1] and arrays[5:] == []
        sub = arrays.take([1, 1, 0])
        assert sub[0] == triples[1] and sub[2] == triples[0]

    def test_positive_se_enforced(self):
        with pytest.raises(ValueError):
            HarmonizedTriple("rs1", 0.1, 0.0, 0.2, 0.02, 0.05, 0.01)

    @pytest.mark.parametrize("column, value, message", [
        (1, 0.0, "se_gamma_tr must be a positive finite number"),
        (3, -0.1, "se_gamma_ou must be a positive finite number"),
        (5, math.inf, "se_capgamma_ou must be a positive finite number"),
        (0, math.nan, "gamma_tr is not finite"),
        (4, -math.inf, "capgamma_ou is not finite"),
    ])
    def test_checked_columns_match_row_validation(self, column, value, message):
        columns = [np.array([0.1, -0.1]), np.array([0.01, 0.02]), np.array([0.2, -0.15]),
                   np.array([0.02, 0.01]), np.array([0.05, -0.04]), np.array([0.01, 0.02])]
        arrays = TripleArrays.checked(["rs1", "rs2"], *columns)
        assert list(arrays) == [HarmonizedTriple("rs1", *(float(c[0]) for c in columns)),
                                HarmonizedTriple("rs2", *(float(c[1]) for c in columns))]
        columns[column][1] = value
        row = [float(c[1]) for c in columns]
        with pytest.raises(ValueError, match=message):
            HarmonizedTriple("rs2", *row)
        with pytest.raises(ValueError, match=message):
            TripleArrays.checked(["rs1", "rs2"], *columns)


class TestRejectedInputs:
    def test_header_with_an_unclosed_quote(self, tmp_path):
        path = tmp_path / "in.tsv"
        write_tsv(path, ["rs1\tA\tG\t0.1\t0.01\t100"], header='snp\t"effect_allele\tother_allele\tbeta\tse\tn')
        with pytest.raises(MalformedRow) as info:
            parse_summary_file(path)
        reason = "a quoted cell does not close on its line"
        assert str(info.value) == f"malformed row at line 1: {reason}"
        assert info.value.details == {"line": 1, "reason": reason}

    def test_unknown_palindromic_policy(self):
        records = [SnpRecord("rs1", "A", "G", 0.1, 0.01)]
        with pytest.raises(ValueError) as info:
            harmonize(records, records, records, policy="flip")
        assert str(info.value) == "palindromic policy must be 'drop' or 'keep', got 'flip'"

    @pytest.mark.parametrize("z,y", [(np.ones((3, 2)), np.ones((3, 2))), (np.arange(4.0), np.arange(3.0))])
    def test_marginal_regression_of_other_shapes(self, z, y):
        with pytest.raises(ValueError) as info:
            marginal_regression(z, y)
        assert str(info.value) == "z and y must be 1-D vectors of equal length"
