"""Seeded summary-statistics panels with planted harmonization categories.

A panel is two or three headered TSV files (treatment-cohort exposure,
outcome-cohort exposure and, for ``analyze``, outcome-cohort outcome) whose
SNPs fall into categories with known counts:

- kept: present in every file with compatible alleles;
- flipped: kept SNPs whose alleles are reversed (and beta negated) in at
  least one outcome-cohort file;
- mismatch: present everywhere, but one outcome-cohort file names an
  allele pair that is neither the treatment pair nor its reverse;
- palindromic: an A/T or C/G treatment pair (dropped under the default
  ``--palindromic drop`` policy);
- missing: present in some but not all files.

Effects follow the ``shift`` map of ``mrhetero simulate --g shift``,
``g(x) = (x + 0.1) / 2``, so the homogeneity statistic lands near 1.8 times
its degrees of freedom. Values are written with 17 significant digits, so
the program parses exactly the floats the oracles use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BETA0 = 0.3
_SAFE_PAIRS = (("A", "C"), ("A", "G"), ("C", "T"), ("G", "T"))
_PALINDROMIC_PAIRS = (("A", "T"), ("C", "G"))
_ALL_PAIRS = _SAFE_PAIRS + _PALINDROMIC_PAIRS
FLIP_SHARE = 0.25  # chance that an outcome-cohort file reverses a kept SNP


@dataclass(frozen=True)
class PanelSpec:
    """Category counts of one generated panel."""

    n_files: int  # 2 for het-test, 3 for analyze
    kept: int
    palindromic: int
    mismatch: int
    missing: int


@dataclass(frozen=True)
class Panel:
    """Paths of the written files and what the program should recover."""

    paths: tuple[str, ...]
    report: dict  # the harmonization report the program must print
    rows: int  # data rows over all files
    # Kept SNPs in treatment-file order, harmonized to the treatment alleles.
    gamma_tr: np.ndarray
    se_gamma_tr: np.ndarray
    gamma_ou: np.ndarray
    se_gamma_ou: np.ndarray
    capgamma_ou: np.ndarray
    se_capgamma_ou: np.ndarray


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_panel(spec: PanelSpec, seed: int, directory: Path) -> Panel:
    """Write the panel files for ``spec`` into ``directory``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(spec.n_files,)))
    n_ids = spec.kept + spec.palindromic + spec.mismatch + spec.missing
    category = np.repeat(
        np.array(["kept", "palindromic", "mismatch", "missing"]),
        [spec.kept, spec.palindromic, spec.mismatch, spec.missing],
    )
    rng.shuffle(category)

    # Treatment orientation: a safe pair except for planted palindromes.
    pair_idx = rng.integers(0, len(_SAFE_PAIRS), n_ids)
    pal_idx = rng.integers(0, len(_PALINDROMIC_PAIRS), n_ids)
    swap = rng.random(n_ids) < 0.5

    # Which files hold each id: all of them, or a nonempty proper subset.
    present = np.ones((n_ids, spec.n_files), dtype=bool)
    subset_codes = rng.integers(1, 2**spec.n_files - 1, n_ids)
    missing = category == "missing"
    for f in range(spec.n_files):
        present[missing, f] = (subset_codes[missing] >> f) & 1 == 1

    # One outcome-cohort file carries the bad pair of a mismatched SNP.
    bad_file = rng.integers(1, spec.n_files, n_ids)
    flips = rng.random((n_ids, spec.n_files)) < FLIP_SHARE
    flips[:, 0] = False

    x = rng.uniform(0.05, 0.10, n_ids)
    x_ou = (x + 0.1) / 2.0
    ses = rng.uniform(0.009, 0.014, (n_ids, 3))
    betas = np.column_stack([x, x_ou, BETA0 * x_ou]) + ses * rng.standard_normal((n_ids, 3))
    bad_pair_pick = rng.integers(0, len(_ALL_PAIRS) - 1, n_ids)

    lines: list[list[str]] = [[] for _ in range(spec.n_files)]
    kept_rows: list[int] = []
    flipped = 0
    for j in range(n_ids):
        cat = category[j]
        if cat == "palindromic":
            ea, oa = _PALINDROMIC_PAIRS[pal_idx[j]]
        else:
            ea, oa = _SAFE_PAIRS[pair_idx[j]]
        if swap[j]:
            ea, oa = oa, ea
        row_flipped = False
        for f in range(spec.n_files):
            if not present[j, f]:
                continue
            a1, a2, beta = ea, oa, betas[j, f]
            if f > 0 and cat == "mismatch" and f == bad_file[j]:
                others = [p for p in _ALL_PAIRS if set(p) != {ea, oa}]
                a1, a2 = others[bad_pair_pick[j]]
            elif f > 0 and cat == "kept" and flips[j, f]:
                a1, a2, beta = oa, ea, -beta
                row_flipped = True
            lines[f].append(f"rs{j + 1}\t{a1}\t{a2}\t{_fmt(beta)}\t{_fmt(ses[j, f])}\t50000")
        if cat == "kept":
            kept_rows.append(j)
            flipped += row_flipped

    # Shuffle each file's rows independently; the program keeps treatment
    # order, so the oracle arrays follow the treatment file.
    orders = [rng.permutation(len(rows)) for rows in lines]
    treatment_ids = [j for j in range(n_ids) if present[j, 0]]
    treatment_order = [treatment_ids[i] for i in orders[0]]
    kept_set = set(kept_rows)
    kept_in_order = np.array([j for j in treatment_order if j in kept_set], dtype=np.intp)

    header = "snp\teffect_allele\tother_allele\tbeta\tse\tn"
    paths = []
    for f, name in enumerate(("treatment", "outcome_exposure", "outcome")[: spec.n_files]):
        path = directory / f"{name}.tsv"
        body = "\n".join(lines[f][i] for i in orders[f])
        path.write_text(f"{header}\n{body}\n", encoding="utf-8")
        paths.append(str(path))

    # het-test reuses the outcome-exposure records as the outcome slot.
    outcome_col = 2 if spec.n_files == 3 else 1
    return Panel(
        paths=tuple(paths),
        report={
            "kept": spec.kept,
            "flipped": flipped,
            "dropped_mismatch": spec.mismatch,
            "dropped_palindromic": spec.palindromic,
            "dropped_missing": spec.missing,
        },
        rows=sum(len(rows) for rows in lines),
        gamma_tr=betas[kept_in_order, 0],
        se_gamma_tr=ses[kept_in_order, 0],
        gamma_ou=betas[kept_in_order, 1],
        se_gamma_ou=ses[kept_in_order, 1],
        capgamma_ou=betas[kept_in_order, outcome_col],
        se_capgamma_ou=ses[kept_in_order, outcome_col],
    )
