import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mrhetero import (HarmonizedTriple, Method, SnpRecord, VanishingDenominator, cli, divw, harmonize,
                      parse_summary_file, simulation)
from mrhetero.cli import _parse_methods, _scenario_config, build_parser, main

BETA0 = -0.3
B_HET = 1.4


def write_inputs(tmp_path, p=12, seed=5, shift_ou=0.0):
    """Three consistent summary files with a known effect and slope."""
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(0.05, 0.12, p)
    se_tr = rng.uniform(0.008, 0.02, p)
    se_ou = rng.uniform(0.008, 0.02, p)
    se_cap = rng.uniform(0.008, 0.02, p)
    gamma_ou = B_HET * gamma + shift_ou * se_ou
    cap = BETA0 * gamma_ou
    alleles = [("A", "G"), ("T", "C"), ("C", "A"), ("G", "T")]

    def render(path, betas, ses):
        lines = ["snp\teffect_allele\tother_allele\tbeta\tse\tn"]
        for j in range(p):
            ea, oa = alleles[j % len(alleles)]
            lines.append(f"rs{j + 1}\t{ea}\t{oa}\t{betas[j]:.10f}\t{ses[j]:.10f}\t5000")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    return (
        render(tmp_path / "treatment.tsv", gamma, se_tr),
        render(tmp_path / "outcome_exposure.tsv", gamma_ou, se_ou),
        render(tmp_path / "outcome.tsv", cap, se_cap),
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestAnalyze:
    @pytest.mark.parametrize("ci_kind", ["normal", "percentile"])
    def test_output_independent_of_thread_count(self, tmp_path, capsys, monkeypatch, ci_kind):
        tr, oug, ouy = write_inputs(tmp_path, p=30, shift_ou=0.5)
        argv = ["analyze", "--treatment", tr, "--outcome-exposure", oug, "--outcome", ouy,
                "--methods", "MrWaldR,Ivw,Egger,WeightedMedian", "--boot", "150", "--seed", "7",
                "--ci-kind", ci_kind]
        outs = []
        for threads in ("1", "2", "5"):
            monkeypatch.setenv("MR_HETERO_THREADS", threads)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        assert len({e["se"] for e in json.loads(outs[0])["estimates"]}) == 4

    def test_json_document_shape(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path)
        code, out, err = run_cli(
            capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
            "--outcome", ouy, "--methods", "MrWald", "--boot", "80", "--seed", "4")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"het_test", "harmonization", "estimates"}
        (est,) = doc["estimates"]
        assert est["method"] == "MrWald"
        assert est["ci"][0] <= est["beta"] <= est["ci"][1]
        # noiseless construction: the point estimate is the true effect
        assert est["beta"] == pytest.approx(BETA0, abs=1e-6)

    def test_all_methods_run(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path)
        code, out, _ = run_cli(
            capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
            "--outcome", ouy, "--boot", "60", "--seed", "4", "--methods",
            "MrWald,MrWaldR,MrWaldD,Ivw,Divw,Egger,WeightedMedian")
        assert code == 0
        doc = json.loads(out)
        assert [e["method"] for e in doc["estimates"]] == [
            "MrWald", "MrWaldR", "MrWaldD", "Ivw", "Divw", "Egger", "WeightedMedian"]

    def test_missing_column_maps_to_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("snp\teffect_allele\tother_allele\tbeta\tn\nrs1\tA\tG\t0.1\t10\n")
        tr, oug, ouy = write_inputs(tmp_path)
        code, out, err = run_cli(
            capsys, "analyze", "--treatment", str(bad), "--outcome-exposure", oug,
            "--outcome", ouy)
        assert code == 2
        record = _strict_json(err.strip().splitlines()[-1])
        assert record == {"error": "MissingColumn",
                          "message": "required column 'se' not found in header",
                          "column": "se"}
        assert out == ""

    def test_unknown_method_maps_to_exit_2(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path)
        code, _, err = run_cli(
            capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
            "--outcome", ouy, "--methods", "Wizardry")
        assert code == 2
        assert _strict_json(err)["error"] == "DataError"

    @pytest.mark.parametrize("flag,value,message", [
        ("--boot", "1", "n_boot must be at least 2"),
        ("--level", "1.5", "level must be strictly between 0 and 1"),
        ("--boot", "100000000000000000000", "n_boot must be at most 1000000"),
    ])
    def test_bad_bootstrap_setting_maps_to_exit_2(self, tmp_path, capsys, flag, value, message):
        tr, oug, ouy = write_inputs(tmp_path)
        code, out, err = run_cli(
            capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
            "--outcome", ouy, flag, value)
        assert code == 2
        assert _strict_json(err) == {"error": "DataError", "message": message}
        assert out == ""

    def test_infinite_sample_size_maps_to_exit_2(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path)
        bad = tmp_path / "bad.tsv"
        bad.write_text("snp\teffect_allele\tother_allele\tbeta\tse\tn\n"
                       "rs1\tA\tG\t0.1\t0.01\tinf\n")
        code, _, err = run_cli(
            capsys, "analyze", "--treatment", str(bad), "--outcome-exposure", oug,
            "--outcome", ouy)
        assert code == 2
        assert _strict_json(err)["error"] == "MalformedRow"

    def test_missing_file_maps_to_exit_2(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path)
        code, _, err = run_cli(
            capsys, "analyze", "--treatment", str(tmp_path / "nope.tsv"),
            "--outcome-exposure", oug, "--outcome", ouy)
        assert code == 2
        record = _strict_json(err)
        assert record["error"] == "FileNotFound"
        assert "nope.tsv" in record["message"]

    def test_flags_are_checked_before_any_file_is_read(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path)
        code, out, err = run_cli(
            capsys, "analyze", "--treatment", str(tmp_path / "nope.tsv"),
            "--outcome-exposure", oug, "--outcome", ouy, "--boot", "1")
        assert code == 2
        assert _strict_json(err) == {"error": "DataError", "message": "n_boot must be at least 2"}
        assert out == ""

    def test_no_row_objects_on_the_analyze_path(self, tmp_path, capsys, monkeypatch):
        tr, oug, ouy = write_inputs(tmp_path, p=30, shift_ou=0.5)
        argv = ["analyze", "--treatment", tr, "--outcome-exposure", oug, "--outcome", ouy,
                "--methods", ",".join(m.value for m in Method), "--boot", "50", "--seed", "3"]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0

        def no_rows(self):
            raise RuntimeError("analyze built a HarmonizedTriple row")

        monkeypatch.setattr(HarmonizedTriple, "__post_init__", no_rows)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected

    def test_no_snp_records_on_the_analyze_path(self, tmp_path, capsys, monkeypatch):
        tr, oug, ouy = write_inputs(tmp_path, p=30, shift_ou=0.5)
        argv = ["analyze", "--treatment", tr, "--outcome-exposure", oug, "--outcome", ouy,
                "--methods", "MrWald,Egger", "--boot", "50", "--seed", "3"]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0

        def no_records(self):
            raise RuntimeError("analyze built a SnpRecord")

        monkeypatch.setattr(SnpRecord, "__post_init__", no_records)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected

    def test_tsv_round_trips_json_digits(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path)
        common = ["analyze", "--treatment", tr, "--outcome-exposure", oug,
                  "--outcome", ouy, "--methods", "MrWald,Divw", "--boot", "50",
                  "--seed", "2"]
        code, json_out, _ = run_cli(capsys, *common)
        assert code == 0
        code, tsv_out, _ = run_cli(capsys, *common, "--output-format", "tsv")
        assert code == 0
        doc = json.loads(json_out)
        rows = [line.split("\t") for line in tsv_out.strip().splitlines()
                if not line.startswith("#")]
        header, *body = rows
        assert header == ["method", "beta", "se", "ci_low", "ci_high", "level", "n_snps"]
        for est, row in zip(doc["estimates"], body):
            assert row[0] == est["method"]
            assert float(row[1]) == est["beta"]
            assert float(row[2]) == est["se"]
            assert [float(row[3]), float(row[4])] == est["ci"]

    def test_output_file(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path)
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
            "--outcome", ouy, "--methods", "MrWald", "--boot", "40",
            "--output", str(out_path))
        assert code == 0 and out == ""
        assert "estimates" in json.loads(out_path.read_text())

    def test_percentile_ci(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path, shift_ou=0.4)
        code, out, _ = run_cli(
            capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
            "--outcome", ouy, "--methods", "MrWald", "--boot", "120", "--seed", "6",
            "--ci-kind", "percentile")
        assert code == 0
        (est,) = json.loads(out)["estimates"]
        assert est["ci"][0] < est["ci"][1]

    @pytest.mark.parametrize("p,methods,error", [
        (1, "MrWald,Egger", "DegenerateInput"),
        (1, "Egger,MrWald", "DegenerateDesign"),
        (1, "Divw,MrWald", "DegenerateInput"),
        (2, "MrWald,Egger", "DegenerateDesign"),
        (2, "MrWald,Egger,Ivw", "DegenerateDesign"),
    ])
    def test_first_failing_method_in_order_sets_the_error(self, tmp_path, capsys, p, methods, error):
        # Methods share one bootstrap pass, but the error reported is still
        # that of the first method, in the order given, that fails alone: a
        # point estimate's error before its bootstrap's.
        tr, oug, ouy = write_inputs(tmp_path, p=p)
        code, out, err = run_cli(
            capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
            "--outcome", ouy, "--methods", methods, "--boot", "50")
        assert code == 2
        # The record states its message once, with no copy of it as a detail.
        message = {"DegenerateInput": "bootstrap needs at least 2 SNPs",
                   "DegenerateDesign": "at least 3 points required for the intercept fit"}[error]
        # Only MrWald's bootstrap and Egger's intercept fit fail here.
        method = {"DegenerateInput": "MrWald", "DegenerateDesign": "Egger"}[error]
        assert _strict_json(err) == {"error": error, "message": message, "method": method}
        assert out == ""


class TestHetTest:
    def test_identical_files_give_p_one(self, tmp_path, capsys):
        tr, _, _ = write_inputs(tmp_path)
        code, out, _ = run_cli(capsys, "het-test", "--treatment", tr,
                               "--outcome-exposure", tr)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"het_test"}
        assert doc["het_test"]["p_value"] == 1.0
        assert doc["het_test"]["statistic"] == 0.0

    def test_shifted_exposures_reject(self, tmp_path, capsys):
        # outcome-cohort exposures displaced by five standard errors
        rng = np.random.default_rng(11)
        gamma = rng.uniform(0.05, 0.12, 10)
        se = rng.uniform(0.008, 0.02, 10)
        header = "snp\teffect_allele\tother_allele\tbeta\tse"
        base = tmp_path / "base.tsv"
        shifted = tmp_path / "shifted.tsv"
        base.write_text(header + "\n" + "".join(
            f"rs{j}\tA\tG\t{gamma[j]:.10f}\t{se[j]:.10f}\n" for j in range(10)))
        shifted.write_text(header + "\n" + "".join(
            f"rs{j}\tA\tG\t{gamma[j] + 5 * se[j]:.10f}\t{se[j]:.10f}\n" for j in range(10)))
        code, out, _ = run_cli(capsys, "het-test", "--treatment", str(base),
                               "--outcome-exposure", str(shifted))
        assert code == 0
        assert json.loads(out)["het_test"]["p_value"] < 1e-6

    def test_large_panel_just_below_the_mean(self, tmp_path, capsys):
        # 10,000 SNPs each contributing 0.995: the statistic is 9,950 at df
        # 10,000, inside the range a 10k-SNP null panel usually reaches
        p, se = 10_000, 0.02
        gamma = np.random.default_rng(3).uniform(0.05, 0.12, p)
        shifted = gamma + math.sqrt(0.995 * 2 * se**2)
        header = "snp\teffect_allele\tother_allele\tbeta\tse"
        base = tmp_path / "base.tsv"
        other = tmp_path / "other.tsv"
        base.write_text(header + "\n" + "".join(
            f"rs{j}\tA\tG\t{gamma[j]:.17g}\t{se}\n" for j in range(p)))
        other.write_text(header + "\n" + "".join(
            f"rs{j}\tA\tG\t{shifted[j]:.17g}\t{se}\n" for j in range(p)))
        code, out, err = run_cli(capsys, "het-test", "--treatment", str(base),
                                 "--outcome-exposure", str(other))
        assert code == 0, err
        het = json.loads(out)["het_test"]
        assert het["df"] == p
        assert het["statistic"] == 9950.0
        assert het["p_value"] == 0.636616

    @pytest.mark.parametrize("with_outcome_exposure", [True, False])
    def test_outcome_file_is_not_an_option(self, tmp_path, capsys, with_outcome_exposure):
        # het-test reads the two exposure files only; "--outcome" must not be
        # read as an abbreviation of "--outcome-exposure" either.
        tr, oug, ouy = write_inputs(tmp_path)
        argv = ["het-test", "--treatment", tr, "--outcome", ouy]
        if with_outcome_exposure:
            argv += ["--outcome-exposure", oug]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_tsv_form(self, tmp_path, capsys):
        tr, _, _ = write_inputs(tmp_path)
        code, out, _ = run_cli(capsys, "het-test", "--treatment", tr,
                               "--outcome-exposure", tr, "--output-format", "tsv")
        assert code == 0
        lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
        assert set(lines) == {"statistic", "df", "p_value", "per_snp"}

    def test_unknown_column_field_is_usage_error(self, tmp_path, capsys):
        # a misspelt field used to be dropped and the default column read
        tr, oug, _ = write_inputs(tmp_path)
        code, out, err = run_cli(capsys, "het-test", "--treatment", tr,
                                 "--outcome-exposure", oug, "--columns", "bta=beta,snp=snp")
        assert code == 2 and out == ""
        record = _strict_json(err)
        assert record["error"] == "DataError"
        assert "'bta'" in record["message"]
        for field in ("snp", "effect_allele", "other_allele", "beta", "se", "n"):
            assert field in record["message"]

    @pytest.mark.parametrize("target", ["dir", "missing_parent"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, target):
        tr, oug, _ = write_inputs(tmp_path)
        path = tmp_path if target == "dir" else tmp_path / "no" / "such" / "out.json"
        code, out, err = run_cli(capsys, "het-test", "--treatment", tr,
                                 "--outcome-exposure", oug, "--output", str(path))
        assert code == 2 and out == ""
        record = _strict_json(err)
        assert record["error"] == "DataError"
        assert record["path"] == str(path) and str(path) in record["message"]


class TestUnreadableInput:
    """Input files that cannot be read or decoded are usage errors (exit 2)."""

    @staticmethod
    def argv(case, tmp_path):
        tr, oug, _ = write_inputs(tmp_path)
        bad = tmp_path / "bad"
        if case == "latin1_tsv":
            bad.write_bytes(b"snp\teffect_allele\tother_allele\tbeta\tse\n"
                            b"rs1\xe9\tA\tG\t0.05\t0.01\n")
        elif case == "latin1_config":
            bad.write_bytes(b'{"p": 10, "note": "caf\xe9"}')
        elif case == "long_integer_config":  # beyond Python's int-from-text digit limit
            bad.write_text('{"p": 1' + "0" * 5000 + "}")
        elif case.startswith("dir_"):
            bad.mkdir()
        het = ["het-test", "--treatment", str(bad), "--outcome-exposure", oug]
        sim = ["simulate", "--replicates", "2", "--p", "8", "--n", "400", "--boot", "20"]
        return str(bad), {
            "latin1_tsv": het,
            "dir_treatment": het,
            "dir_config": sim + ["--config", str(bad)],
            "dir_g_table": sim + ["--g", f"table:{bad}"],
            "latin1_config": sim + ["--config", str(bad)],
            "missing_config": sim + ["--config", str(bad)],
            "missing_g_table": sim + ["--g", f"table:{bad}"],
            "long_integer_config": sim + ["--config", str(bad)],
        }[case]

    @pytest.mark.parametrize("case", ["latin1_tsv", "dir_treatment", "dir_config",
                                      "dir_g_table", "latin1_config", "missing_config",
                                      "missing_g_table", "long_integer_config"])
    def test_exit_2_with_one_record_naming_the_file(self, tmp_path, capsys, case):
        path, argv = self.argv(case, tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        (line,) = err.strip().splitlines()
        record = _strict_json(line)
        assert record["message"]
        assert record["path"] == path


def test_lenient_het_test_drops_a_row_that_is_not_utf8(tmp_path, capsys):
    tr, oug, _ = write_inputs(tmp_path)
    lines = open(tr, "rb").read().splitlines(keepends=True)
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(b"".join(lines[:3] + [lines[3].replace(b"rs3", b"rs3\xe9")] + lines[4:]))
    without = tmp_path / "without.tsv"
    without.write_bytes(b"".join(lines[:3] + lines[4:]))
    het = ["het-test", "--lenient", "--outcome-exposure", oug, "--treatment"]
    code, out, err = run_cli(capsys, *het, str(latin1))
    assert code == 0
    assert [_strict_json(line) for line in err.splitlines()] == [
        {"warning": "UserWarning", "message": f"dropped 1 malformed rows from {latin1}"}]
    assert out == run_cli(capsys, *het, str(without))[1]


class TestSimulate:
    def test_deterministic_repeat(self, capsys):
        argv = ["simulate", "--scenario", "i", "--g", "identity", "--replicates", "10",
                "--seed", "7", "--p", "15", "--n", "600", "--boot", "30"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_g_shift_resolution(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "i", "--g", "shift", "--replicates", "2",
            "--p", "8", "--n", "400", "--boot", "20", "--seed", "1")
        assert code == 0
        g = json.loads(out)["config"]["g"]
        assert g == {"kind": "affine", "shift": 0.1, "scale": 0.5}

    def test_g_sine_resolution(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "i", "--g", "sine", "--replicates", "2",
            "--p", "8", "--n", "400", "--boot", "20", "--seed", "1")
        assert code == 0
        g = json.loads(out)["config"]["g"]
        assert g["kind"] == "sinusoid"
        assert g["amplitude"] == pytest.approx(0.2)
        assert g["frequency"] == pytest.approx(5 * math.pi, rel=1e-5)

    def test_g_table_resolution(self, tmp_path, capsys):
        table = tmp_path / "g.tsv"
        table.write_text("# comment\n0.0\t0.0\n0.1\t0.2\n")
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "i", "--g", f"table:{table}",
            "--replicates", "2", "--p", "8", "--n", "400", "--boot", "20", "--seed", "1")
        assert code == 0
        g = json.loads(out)["config"]["g"]
        assert g == {"kind": "tabulated", "knots": [[0.0, 0.0], [0.1, 0.2]]}

    def test_g_table_with_byte_order_mark(self, tmp_path, capsys):
        plain = tmp_path / "g.tsv"
        plain.write_text("0.0\t0.0\n0.1\t0.2\n")
        bom = tmp_path / "bom.tsv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = [run_cli(capsys, "simulate", "--scenario", "i", "--g", f"table:{path}",
                        "--replicates", "2", "--p", "8", "--n", "400", "--boot", "20",
                        "--seed", "1")[:2] for path in (plain, bom)]
        assert outs[0][0] == 0 and outs[1] == outs[0]

    @pytest.mark.parametrize("text", [
        "0.1\t0.0\n0.0\t0.2\n",  # decreasing
        "0.0\t0.0\n0.0\t0.2\n",  # repeated x
        "0.0\tnan\n0.1\t0.2\n",
        "0.0\t0.0\ninf\t0.2\n",
        "-inf\t0.0\n0.1\t0.2\n",
    ])
    def test_g_table_bad_knots_exit_2_naming_the_file(self, tmp_path, capsys, text):
        table = tmp_path / "g.tsv"
        table.write_text(text)
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", "i", "--g", f"table:{table}",
            "--replicates", "2", "--p", "8", "--n", "400", "--boot", "20", "--seed", "1")
        assert code == 2
        record = _strict_json(err)
        assert record["error"] == "DataError"
        assert record["path"] == str(table) and str(table) in record["message"]
        assert out == ""

    @pytest.mark.parametrize("knots", [[[0.1, 0.0], [0.0, 0.2]], [[0.0, float("nan")]]])
    def test_config_bad_knots_exit_2(self, tmp_path, capsys, knots):
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text(json.dumps({"g": {"kind": "tabulated", "knots": knots}}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2
        assert _strict_json(err)["error"] == "DataError"
        assert out == ""

    def test_more_contaminated_snps_than_snps_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--scenario", "iv", "--p", "3",
                                 "--replicates", "1", "--n", "300", "--boot", "10")
        assert code == 2
        record = _strict_json(err)
        assert record["error"] == "DataError"
        assert "n_contaminated" in record["message"] and "p" in record["message"]
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_beta0_exit_2(self, capsys, value):
        code, out, err = run_cli(capsys, "simulate", "--scenario", "i", f"--beta0={value}",
                                 "--replicates", "2", "--p", "5", "--n", "300", "--boot", "10")
        assert code == 2
        record = _strict_json(err)
        assert record["error"] == "DataError"
        assert "beta0 must be finite" in record["message"]
        assert out == ""

    @pytest.mark.parametrize("part,message", [
        ({"pleiotropy": {"kind": "balanced", "tau0": math.nan}}, "tau0 must be finite"),
        ({"pleiotropy": {"kind": "directional", "mu": math.inf}}, "mu must be finite"),
        ({"g": {"kind": "affine", "shift": math.nan, "scale": 1}}, "shift must be finite"),
        ({"g": {"kind": "affine", "shift": 0.1, "scale": -math.inf}}, "scale must be finite"),
        ({"g": {"kind": "sinusoid", "amplitude": math.nan, "frequency": 1}}, "amplitude must be finite"),
        ({"g": {"kind": "sinusoid", "amplitude": 0.1, "frequency": math.inf}}, "frequency must be finite"),
        ({"pleiotropy": {"kind": "idiosyncratic_multi", "n_contaminated": 2.5}},
         "n_contaminated must be an integer"),
        ({"pleiotropy": {"kind": "idiosyncratic_multi", "n_contaminated": True}},
         "n_contaminated must be an integer"),
        ({"g": 5}, "g must be a JSON object, got 5"),
        ({"pleiotropy": "none"}, "pleiotropy must be a JSON object, got 'none'"),
        ({"pleiotropy": {"kind": "balanced", "tau": 0.5}},
         "unknown pleiotropy keys for kind 'balanced': ['tau']"),
        ({"beta0": True}, "beta0 must be a number, got True"),
        ({"beta0": "0.5"}, "beta0 must be a number, got '0.5'"),
        ({"g": {"kind": "affine", "shift": "0.1", "scale": 1}}, "shift must be a number, got '0.1'"),
        ({"g": {"kind": "tabulated", "knots": [[0, 1], [1, True]]}}, "knots must be a number, got True"),
        ({"g": {"kind": "affine", "shift": 0.1}}, "'scale'"),
        ({"g": {"kind": "tabulated"}}, "'knots'"),
    ])
    def test_bad_config_parameter_exit_2_naming_it(self, tmp_path, capsys, part, message):
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text(json.dumps({**part, "p": 5, "n": 300, "n_replicates": 2}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg_path), "--boot", "10")
        assert code == 2
        record = _strict_json(err)
        assert record["error"] == "DataError"
        assert message in record["message"]
        assert out == ""

    def test_scenario_v_defaults_to_large_cohort(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "v", "--replicates", "2", "--p", "6",
            "--n", "500", "--boot", "20", "--seed", "1")
        assert code == 0
        cfg = json.loads(out)["config"]
        assert cfg["pleiotropy"] == {"kind": "directional", "mu": 0.05, "tau0": 0.02}
        assert cfg["n"] == 500  # explicit flag wins over the scenario default

    @pytest.mark.parametrize("scenario,pleiotropy", [
        ("i", {"kind": "none"}),
        ("ii", {"kind": "balanced", "tau0": 0.02}),
        ("iii", {"kind": "idiosyncratic_single", "mu": 0.1, "tau0": 0.02}),
        ("iv", {"kind": "idiosyncratic_multi", "mu": 0.1, "tau0": 0.02, "n_contaminated": 5}),
        ("v", {"kind": "directional", "mu": 0.05, "tau0": 0.02}),
    ])
    def test_scenario_pleiotropy_echo(self, capsys, scenario, pleiotropy):
        code, out, _ = run_cli(capsys, "simulate", "--scenario", scenario, "--replicates", "2",
                               "--p", "6", "--n", "300", "--boot", "10", "--seed", "1")
        assert code == 0
        assert f'"pleiotropy": {json.dumps(pleiotropy)},' in out

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text(json.dumps({"p": 10, "n": 500, "n_replicates": 3, "seed": 2}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--replicates", "2", "--boot", "20")
        assert code == 0
        cfg = json.loads(out)["config"]
        assert cfg["p"] == 10 and cfg["n_replicates"] == 2

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        plain = tmp_path / "scn.json"
        plain.write_text(json.dumps({"p": 10, "n": 500, "n_replicates": 2, "seed": 2}))
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = [run_cli(capsys, "simulate", "--config", str(path), "--boot", "20")[:2]
                for path in (plain, bom)]
        assert outs[0][0] == 0 and outs[1] == outs[0]

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2
        assert _strict_json(err)["error"] == "DataError"

    def test_bad_config_value_reports_its_reason(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--p", "0")
        assert code == 2
        record = _strict_json(err)
        assert record["error"] == "DataError"
        assert "p must be positive" in record["message"]
        assert out == ""

    @pytest.mark.parametrize("key,value", [("p", simulation.MAX_P + 1), ("n", simulation.MAX_N + 1),
                                           ("p", 10**15), ("n", 10**12),
                                           ("replicates", simulation.MAX_REPLICATES + 1),
                                           ("replicates", 10**12)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_size_above_its_maximum_exit_2(self, tmp_path, capsys, key, value, source):
        # Rejected with the config, before any replicate is generated.
        config_key = {"replicates": "n_replicates"}.get(key, key)
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text(json.dumps({config_key: value}))
        argv = [f"--{key}", str(value)] if source == "flag" else ["--config", str(cfg_path)]
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 2
        record = _strict_json(err)
        assert record["error"] == "DataError"
        assert f"{config_key} must be at most" in record["message"]
        assert out == ""

    def test_zero_beta0_writes_no_warning(self, capsys):
        # The relative metrics divide by beta0: they are infinite, printed as null.
        code, out, err = run_cli(capsys, "simulate", "--p", "5", "--n", "300", "--replicates", "2",
                                 "--boot", "10", "--beta0", "0", "--methods", "MrWald")
        assert code == 0
        assert err == ""
        assert _strict_json(out)["summary"]["methods"]["MrWald"]["bias_pct"] is None

    @pytest.mark.parametrize("flag,value", [("--boot", "1"), ("--level", "1.5")])
    def test_bad_bootstrap_setting_exit_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "simulate", "--scenario", "i", "--replicates", "1",
                                 "--p", "5", "--n", "300", flag, value)
        assert code == 2
        assert _strict_json(err)["error"] == "DataError"
        assert out == ""

    def test_boot_above_the_maximum_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--scenario", "i", "--replicates", "2",
                                 "--p", "5", "--n", "300", "--boot", "100000000000000000000")
        assert code == 2
        assert _strict_json(err) == {"error": "DataError", "message": "n_boot must be at most 1000000"}
        assert out == ""

    def test_bad_thread_count_exit_2_in_analyze(self, tmp_path, capsys, monkeypatch):
        tr, oug, ouy = write_inputs(tmp_path)
        monkeypatch.setenv("MR_HETERO_THREADS", "abc")
        code, out, err = run_cli(capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
                                 "--outcome", ouy, "--methods", "MrWald", "--boot", "20")
        assert code == 2
        assert _strict_json(err) == {
            "error": "DataError", "message": "MR_HETERO_THREADS must be an integer, got 'abc'"}
        assert out == ""

    def test_bad_thread_count_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MR_HETERO_THREADS", "abc")
        code, out, err = run_cli(capsys, "simulate", "--scenario", "i", "--replicates", "2",
                                 "--p", "5", "--n", "300", "--boot", "10")
        assert code == 2
        assert _strict_json(err) == {
            "error": "DataError", "message": "MR_HETERO_THREADS must be an integer, got 'abc'"}
        assert out == ""

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_thread_count_above_the_maximum_exit_2(self, tmp_path, capsys, monkeypatch, command):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", no_pool)
        # The package's name ``bootstrap`` is the function, not its module.
        monkeypatch.setattr(sys.modules["mrhetero.bootstrap"], "ThreadPoolExecutor", no_pool)
        monkeypatch.setenv("MR_HETERO_THREADS", "1000000")
        tr, oug, ouy = write_inputs(tmp_path)
        argv = {
            "simulate": ["--scenario", "i", "--replicates", "2", "--p", "5", "--n", "300"],
            "analyze": ["--treatment", tr, "--outcome-exposure", oug, "--outcome", ouy],
        }[command]
        code, out, err = run_cli(capsys, command, *argv, "--boot", "20")
        assert code == 2
        assert _strict_json(err) == {
            "error": "DataError", "message": "MR_HETERO_THREADS must be at most 256, got '1000000'"}
        assert out == ""

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text(json.dumps({"pp": 3}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2

    def test_tsv_matches_json(self, capsys):
        argv = ["simulate", "--scenario", "i", "--replicates", "3", "--p", "10",
                "--n", "500", "--boot", "25", "--seed", "3", "--methods", "MrWald,Divw"]
        code, json_out, _ = run_cli(capsys, *argv)
        code2, tsv_out, _ = run_cli(capsys, *argv, "--output-format", "tsv")
        assert code == code2 == 0
        summary = json.loads(json_out)["summary"]["methods"]
        lines = [line.split("\t") for line in tsv_out.strip().splitlines()]
        header = lines[0]
        assert header == ["metric", "MrWald", "Divw"]
        table = {row[0]: row[1:] for row in lines[1:]}
        for metric in ("bias_pct", "rmse_pct", "ci_length_pct", "coverage_pct"):
            for name, cell in zip(header[1:], table[metric]):
                assert float(cell) == summary[name][metric]


@pytest.mark.parametrize("command,argv,path,tsv_line", [
    ("het-test", ["--treatment", "huge.tsv", "--outcome-exposure", "plain.tsv"],
     ["het_test", "statistic"], "statistic\t"),
    ("simulate", ["--p", "1", "--n", "300", "--replicates", "2", "--boot", "10", "--methods", "MrWald"],
     ["summary", "methods", "MrWald", "bias_pct"], "bias_pct\t"),
], ids=["het-test", "simulate"])
def test_non_finite_values_print_as_null(tmp_path, capsys, monkeypatch, command, argv, path, tsv_line):
    # One SNP at beta 1e300, se 1e-300 makes the homogeneity statistic
    # infinite; a method failing on every replicate has no bias. Neither
    # writes a warning record.
    header = "snp\teffect_allele\tother_allele\tbeta\tse\n"
    (tmp_path / "huge.tsv").write_text(header + "rs1\tA\tG\t1e300\t1e-300\nrs2\tA\tG\t0.2\t0.01\n")
    (tmp_path / "plain.tsv").write_text(header + "rs1\tA\tG\t0.1\t0.01\nrs2\tA\tG\t0.22\t0.01\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, err) == (0, "")
    value = _strict_json(out)
    for key in path:
        value = value[key]
    assert value is None
    code, out, err = run_cli(capsys, command, *argv, "--output-format", "tsv")
    assert (code, err) == (0, "")
    assert tsv_line in out.split("\n")


@pytest.mark.parametrize("spelling,method", [
    ("mrwald", Method.MR_WALD),
    ("mr-wald", Method.MR_WALD),
    ("mrwaldr", Method.MR_WALD_R),
    ("mr-wald-r", Method.MR_WALD_R),
    ("mrwaldd", Method.MR_WALD_D),
    ("mr-wald-d", Method.MR_WALD_D),
    ("ivw", Method.IVW),
    ("divw", Method.DIVW),
    ("egger", Method.EGGER),
    ("weightedmedian", Method.WEIGHTED_MEDIAN),
    ("weighted-median", Method.WEIGHTED_MEDIAN),
    ("wmedian", Method.WEIGHTED_MEDIAN),
])
def test_method_spellings(spelling, method):
    assert _parse_methods(spelling) == [method]
    assert _parse_methods(spelling.upper()) == [method]


def _scipy_loaded_after(statement: str) -> str:
    code = f"import sys\n{statement}\nprint('scipy' in sys.modules, file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy_stats():
    # Importing SciPy costs about twice as much as the rest of the start-up;
    # only the het test needs it, for the chi-square tail.
    assert _scipy_loaded_after("import mrhetero.cli") == "False"
    assert _scipy_loaded_after(
        "from mrhetero.cli import main\n"
        "main(['simulate', '--scenario', 'i', '--replicates', '2', '--p', '5', '--n', '300',"
        " '--boot', '10', '--methods', 'MrWald,Divw'])") == "False"


def test_het_test_loads_scipy(tmp_path):
    tr, oug, _ = write_inputs(tmp_path)
    assert _scipy_loaded_after(
        "from mrhetero.cli import main\n"
        f"assert main(['het-test', '--treatment', {tr!r}, '--outcome-exposure', {oug!r}]) == 0"
    ) == "True"


def _record(capsys, *argv) -> dict:
    """The one exit-2 record ``argv`` writes, with nothing on stdout."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    return _strict_json(err)


class TestUsageChecks:
    """Each usage check of the CLI, with the exit-2 record it writes."""

    @pytest.mark.parametrize("flags,record", [
        (["--methods", " , "], {"message": "at least one method must be selected"}),
        (["--columns", "snp=rsid,beta"], {"message": "column override 'beta' is not of the form field=header"}),
    ])
    def test_analyze_flags(self, tmp_path, capsys, flags, record):
        tr, oug, ouy = write_inputs(tmp_path)
        argv = ["analyze", "--treatment", tr, "--outcome-exposure", oug, "--outcome", ouy, *flags]
        assert _record(capsys, *argv) == {"error": "DataError", **record}

    def test_unknown_g_specification(self, capsys):
        assert _record(capsys, "simulate", "--g", "cubic") == {
            "error": "DataError", "message": "unknown g specification 'cubic'", "g": "cubic"}

    @pytest.mark.parametrize("text,message", [
        ("# x\ty\n0.0\t0.0\n0.1 0.2 0.3\n", "{path}:3: expected two numeric columns"),
        ("0.0\n", "{path}:1: expected two numeric columns"),
        ("# only a comment\n\n", "g table file {path} contains no knots"),
    ])
    def test_g_table_without_two_columns_or_knots(self, tmp_path, capsys, text, message):
        table = tmp_path / "g.tsv"
        table.write_text(text)
        assert _record(capsys, "simulate", "--g", f"table:{table}") == {
            "error": "DataError", "message": message.format(path=table), "path": str(table)}

    @pytest.mark.parametrize("text", ["[1, 2]", '"p"', "3", "null"])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text(text)
        assert _record(capsys, "simulate", "--config", str(cfg_path)) == {
            "error": "DataError", "message": "config file must contain a JSON object"}

    def test_weighted_median_of_zero_total_weight(self, tmp_path, capsys):
        # Every outcome se is 1e170, so every SNP's variance overflows and
        # its weight is 0; the method fails with no RuntimeWarning record.
        tr, oug, ouy = write_inputs(tmp_path, p=30)
        header, *rows = (line.split("\t") for line in open(ouy).read().splitlines())
        rows = [[*row[:4], "1e170", *row[5:]] for row in rows]
        with open(ouy, "w") as fh:
            fh.write("".join("\t".join(row) + "\n" for row in [header, *rows]))
        argv = ["analyze", "--treatment", tr, "--outcome-exposure", oug, "--outcome", ouy,
                "--methods", "WeightedMedian"]
        assert _record(capsys, *argv) == {
            "error": "DegenerateDesign", "message": "the usable SNPs' inverse variances sum to zero",
            "method": "WeightedMedian"}


def _rewrite_column(path, column: int, cells) -> None:
    """Replace column ``column`` of the summary file at ``path`` with ``cells``, one per row."""
    header, *rows = (line.split("\t") for line in open(path).read().splitlines())
    rows = [[*row[:column], cell, *row[column + 1:]] for row, cell in zip(rows, cells)]
    with open(path, "w") as fh:
        fh.write("".join("\t".join(row) + "\n" for row in [header, *rows]))


class TestOneLineRule:
    """Every stdout and stderr line is strict JSON with floats at six significant figures."""

    def test_infinite_detail_prints_as_null(self, tmp_path, capsys):
        # One outcome se of 1e-300 makes Divw's weights, and so its
        # denominator, infinite.
        tr, oug, ouy = write_inputs(tmp_path, p=30)
        _rewrite_column(ouy, 4, ["1e-300"] + ["0.01"] * 29)
        code, out, err = run_cli(capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
                                 "--outcome", ouy, "--methods", "Divw")
        assert code == 2 and out == ""
        *_, record = [_strict_json(line) for line in err.splitlines()]
        assert record == {
            "error": "VanishingDenominator",
            "message": "debiased instrument strength is indistinguishable from zero",
            "value": None, "method": "Divw"}

    def test_finite_detail_has_six_significant_figures(self, tmp_path, capsys):
        # Each treatment se exceeds its beta by a relative 1e-14, so the
        # debiased strength is a small negative number of full precision.
        tr, oug, ouy = write_inputs(tmp_path, p=30)
        betas = [float(line.split("\t")[3]) for line in open(tr).read().splitlines()[1:]]
        _rewrite_column(tr, 4, [repr(b * (1 + 1e-14)) for b in betas])
        triples, _ = harmonize(*(parse_summary_file(path) for path in (tr, oug, ouy)))
        with pytest.raises(VanishingDenominator) as info:
            divw(triples)
        value = info.value.details["value"]
        assert float(f"{value:.6g}") != value
        assert _record(capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
                       "--outcome", ouy, "--methods", "Divw") == {
            "error": "VanishingDenominator",
            "message": "debiased instrument strength is indistinguishable from zero",
            "value": float(f"{value:.6g}"), "method": "Divw"}

    def test_json_het_test_formats_no_tsv_cell(self, tmp_path, capsys, monkeypatch):
        tr, oug, _ = write_inputs(tmp_path)
        argv = ["het-test", "--treatment", tr, "--outcome-exposure", oug]
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0

        def no_cells(v):
            raise AssertionError("a TSV cell was formatted")

        monkeypatch.setattr(cli, "_fmt_cell", no_cells)
        assert run_cli(capsys, *argv) == expected


def _rename_headers(path, names: dict) -> str:
    """A copy of the summary file at ``path`` with its header cells renamed by ``names``."""
    header, body = open(path).read().split("\n", 1)
    renamed = path.replace(".tsv", "_renamed.tsv")
    with open(renamed, "w") as fh:
        fh.write("\t".join(names.get(h, h) for h in header.split("\t")) + "\n" + body)
    return renamed


class TestAcceptedFlags:
    """Flags taken on their accepted path give the same bytes as their plain equivalent."""

    @pytest.mark.parametrize("names,columns", [
        ({"snp": "rsid", "effect_allele": "ea", "other_allele": "oa", "beta": "b", "se": "stderr", "n": "N"},
         "snp=rsid, effect_allele = ea,other_allele=oa,beta=b,se=stderr,n=N"),
        ({"snp": "rsid", "beta": "b"}, "snp=rsid,,beta=b"),
    ])
    @pytest.mark.parametrize("command", ["analyze", "het-test"])
    def test_columns_remap(self, tmp_path, capsys, names, columns, command):
        paths = write_inputs(tmp_path, p=20, shift_ou=0.5)
        renamed = [_rename_headers(path, names) for path in paths]
        outs = []
        for (tr, oug, ouy), extra in ((paths, []), (renamed, ["--columns", columns])):
            argv = [command, "--treatment", tr, "--outcome-exposure", oug, *extra]
            if command == "analyze":
                argv += ["--outcome", ouy, "--methods", "MrWaldR,Egger", "--boot", "60"]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            outs.append(out)
        assert outs[1] == outs[0]

    def test_empty_method_token_is_skipped(self, tmp_path, capsys):
        tr, oug, ouy = write_inputs(tmp_path)
        argv = ["analyze", "--treatment", tr, "--outcome-exposure", oug, "--outcome", ouy, "--boot", "60"]
        plain = run_cli(capsys, *argv, "--methods", "MrWald,Ivw")
        assert plain[0] == 0
        assert run_cli(capsys, *argv, "--methods", "MrWald,,Ivw") == plain

    def test_maf_flag_equals_the_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text(json.dumps({"maf": 0.4}))
        argv = ["simulate", "--scenario", "i", "--replicates", "3", "--p", "8", "--n", "400",
                "--boot", "20", "--seed", "2"]
        flag = run_cli(capsys, *argv, "--maf", "0.4")
        assert flag[0] == 0 and json.loads(flag[1])["config"]["maf"] == 0.4
        assert run_cli(capsys, *argv, "--config", str(cfg_path)) == flag

    def test_boot_seed(self, capsys):
        argv = ["simulate", "--scenario", "i", "--replicates", "4", "--p", "8", "--n", "400",
                "--boot", "30", "--seed", "5", "--methods", "MrWald,MrWaldR"]
        default = run_cli(capsys, *argv)
        assert default[0] == 0
        # The bootstrap seed defaults to the scenario seed.
        assert run_cli(capsys, *argv, "--boot-seed", "5") == default
        # Another seed draws other resamples, which leave the point estimates alone.
        code, out, _ = run_cli(capsys, *argv, "--boot-seed", "6")
        assert code == 0
        before, after = (json.loads(text)["summary"]["methods"] for text in (default[1], out))
        for name in ("MrWald", "MrWaldR"):
            for metric in ("bias_pct", "rmse_pct"):
                assert after[name][metric] == before[name][metric]
            assert after[name]["ci_length_pct"] != before[name]["ci_length_pct"]

    @pytest.mark.parametrize("argv,n", [
        (["--scenario", "v"], 100_000),
        (["--scenario", "v", "--n", "500"], 500),
        (["--scenario", "iv"], 10_000),
    ])
    def test_scenario_default_cohort_size(self, argv, n):
        # Only the config is built: no replicate is generated.
        args = build_parser().parse_args(["simulate", *argv])
        assert _scenario_config(args).n == n

    def test_scenario_default_yields_to_the_config_file(self, tmp_path):
        cfg_path = tmp_path / "scn.json"
        cfg_path.write_text(json.dumps({"n": 700}))
        args = build_parser().parse_args(["simulate", "--scenario", "v", "--config", str(cfg_path)])
        assert _scenario_config(args).n == 700


@pytest.mark.parametrize("lenient", [False, True])
def test_a_path_given_twice_is_read_once(tmp_path, capsys, monkeypatch, lenient):
    # The Egger diagnostic passes the outcome-exposure file as the outcome.
    tr, oug, _ = write_inputs(tmp_path, shift_ou=0.5)
    with open(oug, "a") as fh:
        fh.write("rs99\tA\tG\tbad\t0.01\t5000\n")
    copy = tmp_path / "copy.tsv"
    copy.write_text(open(oug).read())
    flags = ["--methods", "Egger", "--boot", "60", *(["--lenient"] if lenient else [])]
    code, out, _ = run_cli(capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug,
                           "--outcome", str(copy), *flags)
    reads = []
    monkeypatch.setattr(cli, "parse_summary_file",
                        lambda path, *args, **kw: reads.append(path) or parse_summary_file(path, *args, **kw))
    twice = run_cli(capsys, "analyze", "--treatment", tr, "--outcome-exposure", oug, "--outcome", oug, *flags)
    assert twice[:2] == (code, out) == ((0, out) if lenient else (2, ""))
    assert reads == [tr, oug]
    if lenient:
        record = {"warning": "UserWarning", "message": f"dropped 1 malformed rows from {oug}"}
    else:
        reason = "could not convert string to float: 'bad'"
        record = {"error": "MalformedRow", "message": f"malformed row at line 14: {reason}", "line": 14, "reason": reason}
    assert [_strict_json(line) for line in twice[2].splitlines()] == [record]
