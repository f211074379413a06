"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mrhetero.cli import main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Layer times the traced run's report gives in seconds.
REPORTED_IN_SECONDS = [
    "simulation.simulate_replicate.s", "simulation.simulate_replicate.self_s",
    "summary_data.marginal_regressions.s", "simulation.run_scenario.self_s",
    "bootstrap.bootstrap.s", "bootstrap.bootstrap.self_s", "estimators.point.self_s",
    "summary_data.parse_summary_file.s", "summary_data.harmonize.s", "summary_data.as_triple_arrays.s",
    "heterogeneity.het_test.s", "heterogeneity.chisq_sf.s", "cli.main.s", "cli.self_s",
    "trace.overhead_s", "trace.uncovered_s",
    *(f"estimators.estimate.{m}.s" for m in spans.METHODS),
    *(f"kernels.{k}.s" for k in spans.KERNELS),
]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def test_spec_lists_defined_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == [n for n in workloads.WORKLOADS if n in names] and len(names) >= 2


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    report = json.loads(report_line)["report"]
    if trace == "0":
        assert report["metrics"]["error_rate"] == {"value": 0.0, "unit": "fraction"}
    else:
        units = {k: v["unit"] for k, v in report["metrics"].items()}
        for name in REPORTED_IN_SECONDS:
            assert units[name] == "s", name
        for name in spans.KERNELS:
            assert units[f"kernels.{name}.call_p50_us"] == units[f"kernels.{name}.call_p99_us"] == "us"
    assert report["environment"]["src_lines"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "het-test-files-150k", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def analyze_run(tmp_path_factory):
    prepared = workloads.WORKLOADS["analyze-panel-10k"].prepare(7, tmp_path_factory.mktemp("a"), True)
    return prepared, _stdout(prepared.argv)


@pytest.fixture(scope="module")
def simulate_run(tmp_path_factory):
    prepared = workloads.WORKLOADS["sim-methods-10k"].prepare(7, tmp_path_factory.mktemp("s"), True)
    return prepared, _stdout(prepared.argv)


def _corrupt(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc) + "\n"


def test_correct_documents_pass(analyze_run, simulate_run):
    for prepared, text in (analyze_run, simulate_run):
        assert prepared.check(text) == []


@pytest.mark.parametrize("edit", [
    lambda d: d["estimates"][0].update(beta=-d["estimates"][0]["beta"]),
    lambda d: d["harmonization"].update(kept=d["harmonization"]["kept"] + 1),
    lambda d: d["harmonization"].update(flipped=d["harmonization"]["flipped"] - 1),
    lambda d: d["het_test"].update(df=d["het_test"]["df"] - 1),
    lambda d: d["het_test"]["per_snp"].__setitem__(3, d["het_test"]["per_snp"][3] * 1.001),
    lambda d: d["estimates"][2].update(se=float("inf")),
    lambda d: d["estimates"][4].update(beta=d["estimates"][4]["beta"] * (1 + 2e-5)),
])
def test_corrupted_analyze_document_fails(analyze_run, edit):
    prepared, text = analyze_run
    assert prepared.check(_corrupt(text, edit))


@pytest.mark.parametrize("edit", [
    lambda d: d["summary"]["methods"]["MrWald"].update(bias_pct=-d["summary"]["methods"]["MrWald"]["bias_pct"]),
    lambda d: d["summary"]["methods"]["Egger"].update(n_failed=1),
    lambda d: d["summary"]["methods"]["Divw"].update(rmse_pct=d["summary"]["methods"]["Divw"]["rmse_pct"] * 1.01),
    lambda d: d["config"].update(seed=d["config"]["seed"] + 1),
])
def test_corrupted_simulate_document_fails(simulate_run, edit):
    prepared, text = simulate_run
    assert prepared.check(_corrupt(text, edit))


def test_rounding_tolerance_is_six_significant_figures():
    assert checks._close(float(f"{1.2345675:.6g}"), 1.2345675)
    assert not checks._close(1.23458, 1.2345675)


@pytest.mark.parametrize("workload", ["sim-cohort-100k", "analyze-panel-10k", "het-test-files-150k"])
def test_traced_pass_prints_the_same_bytes(workload, tmp_path):
    prepared = workloads.WORKLOADS[workload].prepare(3, tmp_path, True)
    untraced = _stdout(prepared.argv)
    rec = spans.Recorder()
    with spans.instrumented(rec):
        traced = _stdout(prepared.argv)
    assert traced == untraced
    assert rec.spans
    # Instrumentation is removed on exit.
    rec.new_trace()
    assert _stdout(prepared.argv) == untraced and rec.spans == []
