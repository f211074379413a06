"""Independent oracles for the documents the CLI prints.

The CLI rounds every float to 6 significant figures, which moves a value by
at most 5e-6 of itself; every comparison allows exactly that. Each check
returns a list of problems, empty when the document is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats

ROUNDING = 5e-6 * (1 + 1e-6)
ORACLE_METHODS = ("MrWald", "Ivw", "Divw", "Egger", "MrWaldD")


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= ROUNDING * abs(want)


def _round6(obj):
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _wls(x, y, w, intercept: bool) -> float:
    """Slope of the weighted least-squares fit, solved by normal equations."""
    X = np.column_stack([np.ones_like(x), x]) if intercept else x[:, None]
    XtW = X.T * w
    return float(np.linalg.solve(XtW @ X, XtW @ y)[-1])


def oracle_betas(c) -> dict[str, float]:
    """Point estimates of the oracle methods from harmonized columns ``c``."""
    g, gou, cap = c.gamma_tr, c.gamma_ou, c.capgamma_ou
    w_cap, w_ou = c.se_capgamma_ou**-2.0, c.se_gamma_ou**-2.0
    debiased_gram = np.sum(w_cap * g * g) - np.sum(w_cap * c.se_gamma_tr**2)
    return {
        "MrWald": _wls(g, cap, w_cap, False) / _wls(g, gou, w_ou, False),
        "Ivw": _wls(g, cap, w_cap, False),
        "Divw": float(np.linalg.solve([[debiased_gram]], [np.sum(w_cap * g * cap)])[0]),
        "Egger": _wls(g, cap, w_cap, True),
        "MrWaldD": _wls(g, cap, w_cap, True) / _wls(g, gou, w_ou, True),
    }


def _load(text: str, keys: set[str]) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not one JSON document: {exc}"]
    if not isinstance(doc, dict) or set(doc) != keys:
        return None, [f"document keys are not {sorted(keys)}"]
    return doc, []


def _check_het(het: dict, panel) -> list[str]:
    contrib = (panel.gamma_ou - panel.gamma_tr) ** 2 / (panel.se_gamma_ou**2 + panel.se_gamma_tr**2)
    statistic = math.fsum(contrib)
    df = len(contrib)
    problems = []
    if not _close(het.get("statistic"), statistic):
        problems.append(f"het statistic {het.get('statistic')} != {statistic}")
    if het.get("df") != df or isinstance(het.get("df"), bool):
        problems.append(f"het df {het.get('df')} != {df}")
    p = float(stats.chi2.sf(statistic, df))
    got_p = het.get("p_value")
    if not isinstance(got_p, (int, float)) or abs(got_p - p) > 1e-8 + ROUNDING * p:
        problems.append(f"het p_value {got_p} != chi2.sf {p}")
    per_snp = het.get("per_snp")
    if not isinstance(per_snp, list) or len(per_snp) != df:
        problems.append("het per_snp has the wrong length")
    else:
        got = np.asarray(per_snp, dtype=float)
        bad = np.flatnonzero(~(np.abs(got - contrib) <= ROUNDING * np.abs(contrib)))
        if bad.size:
            problems.append(f"{bad.size} per_snp values differ, first at {int(bad[0])}")
    return problems


def check_het_test(text: str, panel) -> list[str]:
    doc, problems = _load(text, {"het_test"})
    return problems or _check_het(doc["het_test"], panel)


def check_analyze(text: str, panel, methods: list[str], n_boot: int) -> list[str]:
    doc, problems = _load(text, {"het_test", "harmonization", "estimates"})
    if doc is None:
        return problems
    problems = _check_het(doc["het_test"], panel)
    if doc["harmonization"] != panel.report:
        problems.append(f"harmonization {doc['harmonization']} != planted {panel.report}")
    rows = doc["estimates"]
    if [e.get("method") for e in rows] != methods:
        return problems + [f"estimate rows {[e.get('method') for e in rows]} != {methods}"]
    want = oracle_betas(panel)
    for e in rows:
        name = e["method"]
        if name in want and not _close(e["beta"], want[name]):
            problems.append(f"{name} beta {e['beta']} != oracle {want[name]}")
        se, ci = e.get("se"), e.get("ci")
        if not (isinstance(se, (int, float)) and math.isfinite(se) and se > 0):
            problems.append(f"{name} se {se} is not finite and positive")
        if not (isinstance(ci, list) and len(ci) == 2 and all(map(math.isfinite, ci)) and ci[0] < ci[1]):
            problems.append(f"{name} ci {ci} is not a finite interval")
        if e.get("n_snps") != panel.report["kept"]:
            problems.append(f"{name} n_snps {e.get('n_snps')} != {panel.report['kept']}")
        if name != "Divw":
            failed = e.get("auxiliary", {}).get("bootstrap_failed")
            if not (isinstance(failed, (int, float)) and failed == int(failed) and 0 <= failed <= n_boot / 2):
                problems.append(f"{name} bootstrap_failed {failed} is not a count in [0, B/2]")
    return problems


def check_simulate(text: str, config: dict, methods: list[str], betas: list[dict[str, float]]) -> list[str]:
    """``betas[r]`` holds the oracle estimates of replicate ``r``."""
    doc, problems = _load(text, {"config", "summary"})
    if doc is None:
        return problems
    if doc["config"] != _round6(config):
        problems.append(f"config echo {doc['config']} != {_round6(config)}")
    summary = doc["summary"]
    R = config["n_replicates"]
    beta0 = config["beta0"]
    if summary.get("n_replicates") != R:
        problems.append(f"n_replicates {summary.get('n_replicates')} != {R}")
    if list(summary.get("methods", {})) != methods:
        return problems + [f"method rows {list(summary.get('methods', {}))} != {methods}"]
    for name, row in summary["methods"].items():
        if row["n_replicates_used"] + row["n_failed"] != R:
            problems.append(f"{name}: n_replicates_used + n_failed != {R}")
        if row["n_failed"]:
            problems.append(f"{name}: {row['n_failed']} replicates failed")
            continue
        if not (0.0 <= row["coverage_pct"] <= 100.0):
            problems.append(f"{name} coverage_pct {row['coverage_pct']} outside [0, 100]")
        if not (math.isfinite(row["ci_length_pct"]) and row["ci_length_pct"] > 0):
            problems.append(f"{name} ci_length_pct {row['ci_length_pct']} is not finite and positive")
        if name not in ORACLE_METHODS:
            for key in ("bias_pct", "rmse_pct"):
                if not math.isfinite(row[key]):
                    problems.append(f"{name} {key} is not finite")
            continue
        err = np.array([b[name] for b in betas]) - beta0
        want = {
            "bias_pct": float(err.mean() / beta0 * 100.0),
            "rmse_pct": float(np.sqrt((err**2).mean()) / beta0 * 100.0),
        }
        for key, value in want.items():
            if not _close(row[key], value):
                problems.append(f"{name} {key} {row[key]} != oracle {value}")
    return problems
