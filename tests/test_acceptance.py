"""End-to-end acceptance checks.

Each test prints one pass/fail line (visible with ``pytest -rA`` or ``-s``).
The scenario-level checks run the full benchmark harness at its production
sizes, so this module takes several minutes on a single core.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from mrhetero import (
    BootstrapConfig,
    GFunction,
    Method,
    Pleiotropy,
    ScenarioConfig,
    chisq_sf,
    het_test,
    l1_origin,
    mr_wald,
    mr_wald_r,
    run_scenario,
    wls_intercept,
    wls_origin,
)
from mrhetero.kernels import WeightedPairs
from mrhetero.summary_data import TripleArrays

from conftest import (
    chisq_sf_by_quadrature,
    grid_min_l1,
    make_triples,
    wls_intercept_normal_equations,
)

Z95 = 1.959963984540054


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


@pytest.mark.slow
def test_criterion_1_no_pleiotropy_identity_reproduction():
    cfg = ScenarioConfig(p=200, n=10_000, n_replicates=500, seed=101,
                         g=GFunction.identity(), pleiotropy=Pleiotropy.none())
    # Divw takes no bootstrap, and each method's bootstrap equals its
    # one-method call, so MrWald's numbers are those of MrWald alone.
    summary = run_scenario(cfg, [Method.MR_WALD, Method.DIVW], BootstrapConfig(n_boot=500, seed=1101))
    mw, dv = summary.methods["MrWald"], summary.methods["Divw"]
    ok = abs(mw.bias_pct - 0.1) <= 1.5 and abs(mw.coverage_pct - 94.2) <= 2.5
    report(
        "criterion 1",
        ok,
        f"no-pleiotropy identity: bias={mw.bias_pct:.2f}% (target 0.1 +/- 1.5), "
        f"coverage={mw.coverage_pct:.1f}% (target 94.2 +/- 2.5), rmse={mw.rmse_pct:.2f}%",
    )
    # The paper's efficiency claim under homogeneity: MrWald is no less
    # efficient than the classic debiased IVW. The bound c is set before any
    # run from the Monte Carlo error of a ratio at R = 500 replicates. For
    # near-normal errors the squared errors have relative variance 2, so an
    # RMSE (the root of their mean) has relative SE 1/sqrt(2R) = 3.2%. The
    # ratio of two RMSEs, taken as independent (the shared replicates
    # correlate them positively, which only shrinks the error), has relative
    # SE 1/sqrt(R) = 4.5%. So c = 1 - 3/sqrt(R) = 0.866: a true ratio of 1,
    # no gain, passes with probability about 0.1%. The mean CI length is a
    # mean of 500 lengths whose spread is far below that of squared errors,
    # so the same c bounds its ratio with more margin.
    c = 1 - 3 / np.sqrt(cfg.n_replicates)
    rmse_ratio, length_ratio = mw.rmse_pct / dv.rmse_pct, mw.ci_length_pct / dv.ci_length_pct
    report(
        "criterion 1 efficiency",
        rmse_ratio <= c and length_ratio <= c,
        f"MrWald / Divw: rmse ratio={rmse_ratio:.2f}, CI length ratio={length_ratio:.2f} (each <= {c:.3f})",
    )


@pytest.mark.slow
def test_criterion_2_heterogeneity_separates_ratio_from_divw():
    cfg = ScenarioConfig(p=200, n=10_000, n_replicates=500, seed=102,
                         g=GFunction.affine(0.1, 0.5), pleiotropy=Pleiotropy.none())
    summary = run_scenario(cfg, [Method.MR_WALD, Method.DIVW],
                           BootstrapConfig(n_boot=500, seed=1102))
    mw, dv = summary.methods["MrWald"], summary.methods["Divw"]
    ok = abs(mw.bias_pct) <= 1.5 and 12.0 <= dv.bias_pct <= 19.0 and dv.coverage_pct <= 50.0
    report(
        "criterion 2",
        ok,
        f"scaled-shift map: MrWald bias={mw.bias_pct:.2f}% (<=1.5), "
        f"Divw bias={dv.bias_pct:.2f}% (in [12,19]), Divw coverage={dv.coverage_pct:.1f}% (<=50)",
    )
    # The paper's claim that MrWald stays asymptotically normal under a
    # heterogeneous map: its 95% interval covers at its level. The bound is
    # set before any run from the Monte Carlo error of a coverage at R = 500
    # replicates. The share of R independent replicates whose interval
    # covers is binomial, with SE sqrt(0.95 * 0.05 / R) = 0.97 points at a
    # true 95%. The bound is 3 SEs, 2.92 points, so a correct interval
    # fails it with probability about 0.3%.
    half_width = 3 * np.sqrt(0.95 * 0.05 / cfg.n_replicates) * 100
    report(
        "criterion 2 coverage",
        abs(mw.coverage_pct - 95.0) <= half_width,
        f"scaled-shift map: MrWald coverage={mw.coverage_pct:.1f}% (95 +/- {half_width:.2f})",
    )


@pytest.mark.slow
def test_criterion_3_robust_variant_beats_divw_under_contamination():
    cfg = ScenarioConfig(p=200, n=10_000, n_replicates=500, seed=103,
                         g=GFunction.identity(),
                         pleiotropy=Pleiotropy.idiosyncratic_multi(0.1, 0.02, 5))
    summary = run_scenario(cfg, [Method.MR_WALD_R, Method.DIVW],
                           BootstrapConfig(n_boot=500, seed=1103))
    r, dv = summary.methods["MrWaldR"], summary.methods["Divw"]
    gap = r.coverage_pct - dv.coverage_pct
    ok = r.coverage_pct >= 90.0 and gap >= 10.0
    report(
        "criterion 3",
        ok,
        f"five contaminated SNPs: MrWaldR coverage={r.coverage_pct:.1f}% (>=90), "
        f"Divw coverage={dv.coverage_pct:.1f}%, gap={gap:.1f} (>=10)",
    )


@pytest.mark.slow
def test_criterion_4_directional_pleiotropy():
    cfg = ScenarioConfig(p=200, n=100_000, n_replicates=200, seed=104,
                         g=GFunction.identity(),
                         pleiotropy=Pleiotropy.directional(0.05, 0.02))
    summary = run_scenario(cfg, [Method.MR_WALD_D, Method.MR_WALD],
                           BootstrapConfig(n_boot=500, seed=1104))
    d, mw = summary.methods["MrWaldD"], summary.methods["MrWald"]
    ok = abs(d.bias_pct) <= 3.0 and d.coverage_pct >= 89.0 and mw.coverage_pct <= 5.0
    report(
        "criterion 4",
        ok,
        f"directional shift: MrWaldD bias={d.bias_pct:.2f}% (<=3), "
        f"coverage={d.coverage_pct:.1f}% (>=89); MrWald coverage={mw.coverage_pct:.1f}% (<=5)",
    )


def test_criterion_5_null_calibration_of_het_test():
    trials, p = 10_000, 50
    rng = np.random.default_rng(105)
    gamma = rng.uniform(0.05, 0.10, (trials, p))
    se_tr = rng.uniform(0.01, 0.03, (trials, p))
    se_ou = rng.uniform(0.01, 0.03, (trials, p))
    g_tr = gamma + se_tr * rng.standard_normal((trials, p))
    g_ou = gamma + se_ou * rng.standard_normal((trials, p))
    ids = np.array([f"s{j}" for j in range(p)], dtype=object)
    filler = np.full(p, 0.01)
    stats_t = np.empty(trials)
    pvals = np.empty(trials)
    for i in range(trials):
        res = het_test(TripleArrays(ids, g_tr[i], se_tr[i], g_ou[i], se_ou[i],
                                    filler, filler))
        stats_t[i] = res.statistic
        pvals[i] = res.p_value
    rejection = float((pvals < 0.05).mean())
    grid = np.sort(stats_t)
    cdf = stats.chi2.cdf(grid, p)
    n = float(trials)
    ks = float(np.max(np.maximum(np.arange(1, trials + 1) / n - cdf,
                                 cdf - np.arange(trials) / n)))
    ok = 0.04 <= rejection <= 0.06 and ks <= 0.02
    report(
        "criterion 5",
        ok,
        f"null calibration p=50: rejection@0.05={rejection:.4f} (in [0.04,0.06]), "
        f"KS distance={ks:.4f} (<=0.02)",
    )


def test_criterion_6_oracle_equivalence_suite():
    rng = np.random.default_rng(106)

    worst_l1 = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 16))
        x = rng.uniform(0.1, 2.0, p) * rng.choice([-1.0, 1.0], p)
        y = rng.uniform(-2.0, 2.0, p)
        w = rng.uniform(0.1, 2.0, p)
        got = l1_origin(WeightedPairs(x, y, w))
        worst_l1 = max(worst_l1, abs(got - grid_min_l1(x, y, w, step=1e-4)))

    worst_wls = 0.0
    for _ in range(100):
        p = int(rng.integers(3, 30))
        x = rng.standard_normal(p)
        y = rng.standard_normal(p)
        w = rng.uniform(0.1, 3.0, p)
        slope_o, intercept_o = wls_intercept_normal_equations(x, y, w)
        slope, intercept = wls_intercept(WeightedPairs(x, y, w))
        origin = wls_origin(WeightedPairs(x, y, w))
        origin_o = float((w * x * y).sum() / (w * x * x).sum())
        worst_wls = max(worst_wls, abs(slope - slope_o), abs(intercept - intercept_o),
                        abs(origin - origin_o))

    worst_sf = 0.0
    for _ in range(50):
        df = int(rng.integers(1, 120))
        x = float(df * rng.uniform(0.3, 2.5))
        worst_sf = max(worst_sf, abs(chisq_sf(x, df) - chisq_sf_by_quadrature(x, df)))

    ok = worst_l1 <= 1e-4 and worst_wls <= 1e-10 and worst_sf <= 1e-8
    report(
        "criterion 6",
        ok,
        f"oracle agreement: |l1 - grid|max={worst_l1:.2e} (<=1e-4), "
        f"|wls - normal eq|max={worst_wls:.2e} (<=1e-10), "
        f"|sf - quadrature|max={worst_sf:.2e} (<=1e-8)",
    )


def test_criterion_7_exact_cancellation_invariant():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 40))
        gamma_tr = rng.uniform(0.2, 2.0, p) * rng.choice([-1.0, 1.0], p)
        b = float(rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0]))
        beta0 = float(rng.uniform(-2.0, 2.0))
        gamma_ou = b * gamma_tr
        cap = beta0 * gamma_ou
        t = make_triples(gamma_tr, rng.uniform(0.01, 0.1, p),
                         gamma_ou, rng.uniform(0.01, 0.1, p),
                         cap, rng.uniform(0.01, 0.1, p))
        worst = max(worst, abs(mr_wald(t).beta - beta0), abs(mr_wald_r(t).beta - beta0))
    ok = worst <= 1e-12
    report("criterion 7", ok,
           f"noiseless proportional data: max |estimate - truth| = {worst:.2e} (<=1e-12)")


def test_criterion_8_cli_determinism_across_threads():
    argv = [sys.executable, "-m", "mrhetero", "simulate", "--scenario", "i",
            "--g", "identity", "--replicates", "10", "--seed", "7"]
    outputs = []
    for threads in ("1", "8", "1", "8"):
        env = {**os.environ, "MR_HETERO_THREADS": threads}
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = len(set(outputs)) == 1 and json.loads(outputs[0])
    report(
        "criterion 8",
        bool(ok),
        f"byte-identical simulate output across 2 runs x threads {{1,8}} "
        f"({len(outputs[0])} bytes)",
    )
