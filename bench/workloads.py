"""The four benchmark workloads.

``BENCHMARK.json`` lists ``sim-cohort-100k`` and ``analyze-panel-10k``,
which between them reach every layer; the other two run the same way by
hand (``bench/README.md`` says why they are not listed).

Each workload is one CLI command, run as a closed loop (one caller; the next
pass starts when the previous one returns). Inputs come only from the seed:
the program receives the generated files and argv. Each workload puts most
of its time in a different layer, so a change to one layer shows on one
workload and predicts no change on another:

- sim-cohort-100k: ``simulate`` at the criterion-4 config (p=200,
  n=100k, directional pleiotropy, MrWaldD and MrWald, B=500). The genotype
  draw and ``marginal_regressions`` dominate and set peak memory.
- sim-methods-10k: ``simulate`` at the criterion-3 config (p=200, n=10k,
  five contaminated SNPs), all seven methods, B=500. Thousands of small-p
  bootstrap kernel calls, bound by interpreter overhead and the GIL.
- analyze-panel-10k: ``analyze`` on a 10k-SNP panel, all seven methods,
  B=1000. The bootstrap at large p; no data generator.
- het-test-files-150k: ``het-test`` on two 150k-row files. Parsing,
  harmonization and the CLI's rounding of 100k per-SNP values; no
  bootstrap and no data generator.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs

ALL_METHODS = ["MrWald", "MrWaldR", "MrWaldD", "Ivw", "Divw", "Egger", "WeightedMedian"]


@dataclass
class Prepared:
    """One workload instance: the command, its work units and its oracle."""

    argv: list[str]
    units: float  # work units per pass, the numerator of throughput_per_s
    check: Callable[[str], list[str]]  # problems with one pass's stdout


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    prepare: Callable[[int, Path, bool], Prepared]  # (seed, directory, tiny)


def _scenario(seed: int, directory: Path, tiny: bool, full: dict, methods: list[str],
              boot: int) -> Prepared:
    config = {
        "p": 200, "n": 10_000, "beta0": 0.5, "gamma_tr_low": 0.05, "gamma_tr_high": 0.1,
        "maf": 0.3, "g": {"kind": "identity"}, "seed": seed, **full,
    }
    if tiny:
        config.update(p=20, n=2_000, n_replicates=2)
        boot = 20
    path = directory / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    betas: list[dict] = []

    def check(text: str) -> list[str]:
        if not betas:
            betas.extend(_replicate_oracles(config))
        return checks.check_simulate(text, config, methods, betas)

    argv = ["simulate", "--config", str(path), "--methods", ",".join(methods), "--boot", str(boot)]
    return Prepared(argv, config["n_replicates"], check)


def _replicate_oracles(config: dict) -> list[dict[str, float]]:
    """Oracle estimates per replicate, on the program's own generated data."""
    from mrhetero import ScenarioConfig, as_triple_arrays, simulate_replicate

    cfg = ScenarioConfig.from_json_dict(config)

    def one(r: int) -> dict[str, float]:
        return checks.oracle_betas(as_triple_arrays(simulate_replicate(cfg, r)))

    with ThreadPoolExecutor(max_workers=int(os.environ.get("MR_HETERO_THREADS", "1"))) as pool:
        return list(pool.map(one, range(cfg.n_replicates)))


def _sim_cohort(seed: int, directory: Path, tiny: bool) -> Prepared:
    full = {"n": 100_000, "n_replicates": 4,
            "pleiotropy": {"kind": "directional", "mu": 0.05, "tau0": 0.02}}
    return _scenario(seed, directory, tiny, full, ["MrWaldD", "MrWald"], 500)


def _sim_methods(seed: int, directory: Path, tiny: bool) -> Prepared:
    full = {"n_replicates": 8,
            "pleiotropy": {"kind": "idiosyncratic_multi", "mu": 0.1, "tau0": 0.02, "n_contaminated": 5}}
    return _scenario(seed, directory, tiny, full, ALL_METHODS, 500)


def _analyze(seed: int, directory: Path, tiny: bool) -> Prepared:
    if tiny:
        spec, boot = inputs.PanelSpec(3, kept=60, palindromic=5, mismatch=4, missing=6), 30
    else:
        spec, boot = inputs.PanelSpec(3, kept=10_000, palindromic=600, mismatch=400, missing=500), 1000
    panel = inputs.write_panel(spec, seed, directory)
    tr, oug, ouy = panel.paths
    argv = ["analyze", "--treatment", tr, "--outcome-exposure", oug, "--outcome", ouy,
            "--methods", ",".join(ALL_METHODS), "--boot", str(boot), "--seed", str(seed)]
    bootstrapped = len(ALL_METHODS) - 1  # Divw reports its analytic variance
    return Prepared(argv, boot * bootstrapped,
                    lambda text: checks.check_analyze(text, panel, ALL_METHODS, boot))


def _het_test(seed: int, directory: Path, tiny: bool) -> Prepared:
    if tiny:
        spec = inputs.PanelSpec(2, kept=300, palindromic=30, mismatch=20, missing=20)
    else:
        spec = inputs.PanelSpec(2, kept=100_000, palindromic=30_000, mismatch=15_000, missing=10_000)
    panel = inputs.write_panel(spec, seed, directory)
    tr, oug = panel.paths
    argv = ["het-test", "--treatment", tr, "--outcome-exposure", oug]
    return Prepared(argv, panel.rows, lambda text: checks.check_het_test(text, panel))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-cohort-100k", "replicates", _sim_cohort),
        Workload("sim-methods-10k", "replicates", _sim_methods),
        Workload("analyze-panel-10k", "resamples x bootstrapped methods", _analyze),
        Workload("het-test-files-150k", "input rows", _het_test),
    )
}
