"""Regression primitives shared by the MR estimators.

All kernels are pure functions of their inputs and safe to call
concurrently. Closed forms are used throughout; the L1 slope reduces to a
weighted median of per-point ratios.

The ``counted_*`` forms evaluate a kernel of one fixed panel on many
bootstrap resamples at once. A resample is fully described by how many
copies of each SNP it holds, so every kernel is a function of count-weighted
per-SNP terms: the least-squares fits read count-weighted sums (one matrix
product per fit for a chunk of resamples), and the medians take cumulative
sums over ratios sorted once per panel, with the counts as multiplicities.
Each guard is the same predicate in both forms and is applied per resample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateDesign, VanishingDenominator
from .summary_data import as_triple_arrays

# Relative guard for ratio denominators; chosen scale-free so that unit
# changes in the inputs cannot alter which inputs are rejected.
REL_DENOM_TOL = 1e-12


@dataclass(frozen=True)
class WeightedPairs:
    """A weighted univariate regression problem: response ``y`` on ``x``."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if not (self.x.ndim == self.y.ndim == self.w.ndim == 1):
            raise ValueError("x, y, w must be 1-D")
        if not (self.x.shape == self.y.shape == self.w.shape):
            raise ValueError("x, y, w must have equal length")
        if self.p < 1:
            raise ValueError("at least one point required")
        if not np.all(self.w > 0):
            raise ValueError("all weights must be strictly positive")

    @property
    def p(self) -> int:
        return self.x.shape[0]


def wls_origin(d: WeightedPairs) -> float:
    """Weighted least-squares slope of the line through the origin.

    Minimizes ``sum_j w_j (y_j - beta * x_j)^2``; the closed form is
    ``sum(w x y) / sum(w x^2)``.
    """
    sxx = float(np.dot(d.w * d.x, d.x))
    if _all_regressors_zero(sxx):
        raise DegenerateDesign("all regressors are zero; origin slope is not identified")
    return float(np.dot(d.w * d.x, d.y)) / sxx


def _all_regressors_zero(sxx):
    """The origin fit's guard on its weighted sum of squares ``sum(w x^2)``."""
    return sxx <= 0.0


def _constant_design(sxx, raw):
    """The intercept fit's guard: centred ``sxx`` against uncentred ``sum(w x^2)``.

    Exactly-constant x leaves only rounding noise after centering.
    """
    return sxx <= 1e-28 * raw


def wls_intercept(d: WeightedPairs) -> tuple[float, float]:
    """Weighted least-squares fit of ``y = slope * x + intercept``.

    Requires at least 3 points so that slope, intercept, and a residual
    scale are all identified.
    """
    if d.p < 3:
        raise DegenerateDesign("at least 3 points required for the intercept fit")
    sw = float(d.w.sum())
    xm = float(np.dot(d.w, d.x)) / sw
    ym = float(np.dot(d.w, d.y)) / sw
    xc = d.x - xm
    sxx = float(np.dot(d.w * xc, xc))
    if _constant_design(sxx, float(np.dot(d.w * d.x, d.x))):
        raise DegenerateDesign("regressor is weighted-constant; slope is not identified")
    slope = float(np.dot(d.w * xc, d.y - ym)) / sxx
    return slope, ym - slope * xm


def _weighted_median(values: np.ndarray, masses: np.ndarray) -> float:
    """Minimizer of ``sum_j m_j |v_j - t|``; midpoint when the minimum is flat."""
    order = np.argsort(values)
    return _sorted_weighted_median(values[order], np.cumsum(masses[order]))


def _sorted_weighted_median(v: np.ndarray, cum: np.ndarray) -> float:
    """:func:`_weighted_median` of ascending ``v`` from its cumulative masses ``cum``.

    Points of zero mass (SNPs a resample does not hold) are skipped.
    """
    half = 0.5 * cum[-1]
    k = int(np.searchsorted(cum, half))
    if cum[k] == half:
        # The minimum is flat up to the next point with mass, if there is one.
        after = int(np.searchsorted(cum, half, side="right"))
        if after < v.shape[0]:
            return 0.5 * (float(v[k]) + float(v[after]))
    return float(v[k])


def _l1_terms(d: WeightedPairs):
    """Points with ``x != 0``, their ratios ``y/x`` and masses ``w |x|``."""
    nz = d.x != 0.0
    return nz, d.y[nz] / d.x[nz], d.w[nz] * np.abs(d.x[nz])


def l1_origin(d: WeightedPairs) -> float:
    """Slope through the origin under absolute-error loss.

    Minimizes ``sum_j w_j |y_j - beta * x_j|``. Points with ``x_j = 0``
    contribute a constant and are ignored; the rest rewrite the objective
    as ``sum_j w_j |x_j| * |y_j/x_j - beta|``, whose minimizer is the
    weighted median of the ratios. A flat minimizing interval resolves to
    its midpoint.
    """
    nz, ratios, masses = _l1_terms(d)
    if not np.any(nz):
        raise DegenerateDesign("all regressors are zero; origin slope is not identified")
    return _weighted_median(ratios, masses)


def weighted_median_ratio(triples) -> float:
    """Weighted median of the per-SNP ratio estimates.

    Each usable SNP contributes ``capgamma_ou / gamma_tr`` weighted by the
    inverse of its first-order (delta-method) variance. SNPs with a zero
    exposure association are dropped with a warning. The median is the
    standard interpolated one: cumulative weight fractions
    ``s_j = (cum_j - w_j/2) / total`` with linear interpolation at 0.5.
    """
    usable, ratios, w = _median_terms(as_triple_arrays(triples))
    n_dropped = int((~usable).sum())
    if n_dropped:
        warnings.warn(f"dropped {n_dropped} SNPs with zero exposure association", stacklevel=2)
    if not np.any(usable):
        raise DegenerateDesign("no SNP with a nonzero exposure association")
    order = np.argsort(ratios)
    r = ratios[order]
    ws = w[order]
    s = (np.cumsum(ws) - 0.5 * ws) / ws.sum()
    return float(np.interp(0.5, s, r))


def _median_terms(a):
    """SNPs with ``gamma_tr != 0``, their ratio estimates and inverse delta-method variances."""
    usable = a.gamma_tr != 0.0
    g = a.gamma_tr[usable]
    var = a.se_capgamma_ou[usable] ** 2 / g**2 + (
        a.capgamma_ou[usable] ** 2 * a.se_gamma_tr[usable] ** 2
    ) / g**4
    return usable, a.capgamma_ou[usable] / g, 1.0 / var


class CountedFit(NamedTuple):
    """One kernel of a fixed panel, evaluated on resamples given by their SNP counts.

    Called with a chunk's ``rows x p`` counts (as floats), it returns three
    per-row arrays: the kernel's value, whether the row passes the kernel's
    guards, and whether the count form resolves the row to rounding. A row
    it does not resolve is one the caller evaluates on the resample itself.
    ``reduce`` reads the counts and their products with the per-SNP
    ``terms`` (``p x k``). Each fit takes its own product, so its rounding
    does not depend on which other fits are evaluated with it.
    """

    terms: np.ndarray
    reduce: Callable

    def __call__(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.reduce(counts, counts @ self.terms)


def counted_wls_origin(d: WeightedPairs) -> CountedFit:
    """:func:`wls_origin` as a :class:`CountedFit`."""
    wx = d.w * d.x

    def reduce(counts, sums):
        sxy, sxx = sums.T
        return sxy / sxx, ~_all_regressors_zero(sxx), np.ones(len(sums), dtype=bool)

    return CountedFit(np.column_stack((wx * d.y, wx * d.x)), reduce)


def counted_wls_intercept(d: WeightedPairs) -> CountedFit:
    """The slope of :func:`wls_intercept` as a :class:`CountedFit`.

    The sums are taken about the panel's weighted means, so a resample's
    centred sum of squares is a small correction to its sum about them, not
    a difference of two large numbers. A row is left unresolved where that
    correction cancels more than two digits, or where the centred sum is
    within 12 orders of magnitude of the constant-design guard: there
    :func:`wls_intercept`'s own rounding of the mean decides the result.
    Like :func:`wls_intercept`, it needs resamples of at least 3 points.
    """
    xs = d.x - np.dot(d.w, d.x) / d.w.sum()
    ys = d.y - np.dot(d.w, d.y) / d.w.sum()
    wxs = d.w * xs

    def reduce(counts, sums):
        sw, sx, sy, sxx, sxy, raw = sums.T
        centred = sxx - sx * sx / sw
        slope = (sxy - sx * sy / sw) / centred
        return slope, ~_constant_design(centred, raw), (centred > 1e-2 * sxx) & (centred > 1e-16 * raw)

    return CountedFit(np.column_stack((d.w, wxs, d.w * ys, wxs * xs, wxs * ys, d.w * d.x * d.x)), reduce)


def counted_l1_origin(d: WeightedPairs) -> CountedFit:
    """:func:`l1_origin` as a :class:`CountedFit`."""
    return _counted_median(*_l1_terms(d), lambda v, m, cum: _sorted_weighted_median(v, cum))


def counted_weighted_median_ratio(triples) -> CountedFit:
    """:func:`weighted_median_ratio` as a :class:`CountedFit`, without the warning."""
    return _counted_median(*_median_terms(as_triple_arrays(triples)), _interpolated_median)


def _counted_median(used: np.ndarray, values: np.ndarray, masses: np.ndarray, median) -> CountedFit:
    """``median(v, m, cum)`` of the ``used`` SNPs' ``values`` and ``masses``, sorted once.

    Each resample reads the cumulative count-weighted masses in that order; a
    resample holding no used SNP fails.
    """
    order = np.argsort(values, kind="stable")
    snps, v, m = np.flatnonzero(used)[order], values[order], masses[order]

    def reduce(counts, sums):
        ok = sums[:, 0] > 0.0
        cum = np.take(counts, snps, axis=1)
        cum *= m
        np.cumsum(cum, axis=1, out=cum)
        return (np.array([median(v, m, cum[r]) if ok[r] else 0.0 for r in range(len(counts))]),
                ok, np.ones(len(counts), dtype=bool))

    return CountedFit(used.astype(float)[:, None], reduce)


def _interpolated_median(v: np.ndarray, w: np.ndarray, cum: np.ndarray) -> float:
    """``weighted_median_ratio``'s ``np.interp(0.5, s, r)`` for one resample.

    ``v`` ascending, ``w`` their weights and ``cum`` the cumulative weights
    of the copies the resample holds. Copies of one SNP share its ratio, so
    the interpolation only reads the positions of the first and the last
    copy of the SNP where the weight crosses one half and of its held
    neighbour on the side of the crossing.
    """
    total = cum[-1]
    j = int(np.searchsorted(cum, 0.5 * total))
    before = float(cum[j - 1]) if j else 0.0
    first = (before + 0.5 * w[j]) / total
    last = (cum[j] - 0.5 * w[j]) / total
    if first > 0.5 and before > 0.0:
        i = int(np.searchsorted(cum, before))  # the held SNP before j
        x0, y0, x1, y1 = (before - 0.5 * w[i]) / total, v[i], first, v[j]
    elif last < 0.5 and cum[j] < total:
        k = int(np.searchsorted(cum, cum[j], side="right"))  # the held SNP after j
        x0, y0, x1, y1 = last, v[j], (cum[j] + 0.5 * w[k]) / total, v[k]
    else:
        return float(v[j])
    return float((y1 - y0) / (x1 - x0) * (0.5 - x0) + y0)


def divw(triples) -> float:
    """Debiased inverse-variance weighted slope.

    Corrects weak-instrument bias by subtracting the exposure sampling
    variance from the squared exposure association in the denominator:
    ``sum(G g / sG^2) / sum((g^2 - s_tr^2) / sG^2)``.
    """
    a = as_triple_arrays(triples)
    w = a.se_capgamma_ou**-2
    num = float(np.dot(w * a.capgamma_ou, a.gamma_tr))
    den = float(np.dot(w, a.gamma_tr**2 - a.se_gamma_tr**2))
    scale = float(np.dot(w, a.gamma_tr**2))
    if den == 0.0 or abs(den) < REL_DENOM_TOL * scale:
        raise VanishingDenominator(
            "debiased instrument strength is indistinguishable from zero", value=den
        )
    return num / den


def divw_variance(triples, beta: float | None = None) -> float:
    """Plug-in asymptotic variance of the debiased IVW slope.

    Uses the debiased ``gamma_tr^2 - se_gamma_tr^2`` in place of the
    unobservable squared true association and the point estimate in place
    of the true effect.
    """
    a = as_triple_arrays(triples)
    if beta is None:
        beta = divw(triples)
    strength = (a.gamma_tr**2 - a.se_gamma_tr**2) / a.se_capgamma_ou**2
    noise = a.se_gamma_tr**2 / a.se_capgamma_ou**2
    num = float(np.sum(strength + noise + beta**2 * noise * (strength + 2.0 * noise)))
    den = float(np.sum(strength)) ** 2
    if den == 0.0:
        raise VanishingDenominator("debiased instrument strength is zero", value=0.0)
    return num / den


class IvStrength(NamedTuple):
    kappa_tr: float
    kappa_ou: float
    kappa_co: float


def iv_strength_diagnostics(triples) -> IvStrength:
    """Average instrument-strength diagnostics for the two cohorts.

    Plug-in estimates of the mean squared standardized associations, each
    debiased by its own noise contribution and floored at zero (the targets
    are squared quantities, so negative plug-ins are noise). ``kappa_co``
    averages the per-SNP geometric mean of the two.
    """
    a = as_triple_arrays(triples)
    k_tr = np.maximum((a.gamma_tr / a.se_gamma_tr) ** 2 - 1.0, 0.0)
    k_ou = np.maximum(
        (a.gamma_ou / a.se_gamma_tr) ** 2 - a.se_gamma_ou**2 / a.se_gamma_tr**2, 0.0
    )
    k_co = np.sqrt(k_tr * k_ou)
    return IvStrength(float(k_tr.mean()), float(k_ou.mean()), float(k_co.mean()))
