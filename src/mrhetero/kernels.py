"""Regression primitives shared by the MR estimators.

All kernels are pure functions of their inputs and safe to call
concurrently. Closed forms are used throughout; the L1 slope reduces to a
weighted median of per-point ratios.

The ``counted_*`` forms evaluate a kernel of one fixed panel on many
bootstrap resamples at once. A resample is fully described by how many
copies of each SNP it holds, so every kernel is a function of count-weighted
per-SNP terms: the least-squares fits read count-weighted sums (for a
chunk of resamples, columns of one matrix product shared by every fit), and
the medians take cumulative sums over ratios sorted once per panel, with the
counts as multiplicities, within a window around the panel's half-mass point.
Each guard is the same predicate in both forms and is applied per resample.
A count form decides only the guards it decides exactly, the origin fit's
all-zero regressor and the medians' resample holding no weight. It leaves
to the point estimator a row near the ratio or constant-design guard and a
median row whose crossing or neighbours fall outside the window. The
estimators' one product per chunk, and which rows go to the point
estimator, are described at ``estimators._counted_evaluator``.
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


def _vanishes(denominator, scale):
    """Whether ``|denominator|`` is at most ``REL_DENOM_TOL`` times its natural size ``scale``."""
    return abs(denominator) <= REL_DENOM_TOL * scale


# Half-width of the counted medians' window around the panel's half-mass
# point, in units of sqrt(sum m^2) (see _half_mass_window).
_WINDOW = 8.0


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
    # Centred against uncentred sum(w x^2): exactly-constant x leaves only
    # rounding noise after centering.
    if sxx <= 1e-28 * float(np.dot(d.w * d.x, d.x)):
        raise DegenerateDesign("regressor is weighted-constant; slope is not identified")
    slope = float(np.dot(d.w * xc, d.y - ym)) / sxx
    return slope, ym - slope * xm


def _weighted_median(values: np.ndarray, masses: np.ndarray) -> float:
    """Minimizer of ``sum_j m_j |v_j - t|``; midpoint when the minimum is flat.

    Points of zero mass are skipped.
    """
    order = np.argsort(values)
    v, cum = values[order], np.cumsum(masses[order])
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
    exposure association are dropped with a warning, and those whose
    variance overflows, so that their weight is zero, without one. The
    median is the standard interpolated one: cumulative weight fractions
    ``s_j = (cum_j - w_j/2) / total`` with linear interpolation at 0.5.
    """
    a = as_triple_arrays(triples)
    used, ratios, w = _median_terms(a)
    n_dropped = int((a.gamma_tr == 0.0).sum())
    if n_dropped:
        warnings.warn(f"dropped {n_dropped} SNPs with zero exposure association", stacklevel=2)
    if n_dropped == len(a):
        raise DegenerateDesign("no SNP with a nonzero exposure association")
    if not np.any(used):
        raise DegenerateDesign("the usable SNPs' inverse variances sum to zero")
    order = np.argsort(ratios)
    r = ratios[order]
    ws = w[order]
    s = (np.cumsum(ws) - 0.5 * ws) / ws.sum()
    return float(np.interp(0.5, s, r))


def _median_terms(a):
    """SNPs with ``gamma_tr != 0`` and a positive weight, their ratio estimates
    and weights, the inverse delta-method variances."""
    used = a.gamma_tr != 0.0
    g = a.gamma_tr[used]
    with np.errstate(over="ignore"):  # an infinite variance is a zero weight
        w = 1.0 / (a.se_capgamma_ou[used] ** 2 / g**2 + (
            a.capgamma_ou[used] ** 2 * a.se_gamma_tr[used] ** 2
        ) / (g * g) ** 2)  # not g**4: numpy's vectorised power is not exactly even in g
    used[used] = w > 0.0
    return used, a.capgamma_ou[used] / a.gamma_tr[used], w[w > 0.0]


class CountedFit(NamedTuple):
    """One kernel of a fixed panel, evaluated on resamples given by their SNP counts.

    ``terms`` are the per-SNP terms (``p x k``) whose count-weighted sums the
    kernel reads. ``reduce`` takes a chunk's ``rows x p`` counts (as floats)
    and the ``rows x k`` product of the counts with ``terms``, and returns
    three per-row arrays: the kernel's value, whether the row passes the
    kernel's guards, and whether the count form resolves the row to
    rounding; only a resolved row's guards are read. The caller evaluates
    any other row, such as a median row that its window does not resolve,
    on the resample itself. It takes the product, for the estimators one
    per chunk over the terms of every fit side by side.
    """

    terms: np.ndarray
    reduce: Callable


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
        return slope, np.ones(len(sums), dtype=bool), (centred > 1e-2 * sxx) & (centred > 1e-16 * raw)

    return CountedFit(np.column_stack((d.w, wxs, d.w * ys, wxs * xs, wxs * ys, d.w * d.x * d.x)), reduce)


def counted_l1_origin(d: WeightedPairs) -> CountedFit:
    """:func:`l1_origin` as a :class:`CountedFit`."""
    return _counted_median(*_l1_terms(d), _l1_medians)


def counted_weighted_median_ratio(triples) -> CountedFit:
    """:func:`weighted_median_ratio` as a :class:`CountedFit`, without the warning.

    So the estimators warn about zero-``gamma_tr`` SNPs once, for the full
    sample. A row this fit leaves unresolved goes to the point estimator,
    which warns again if the resample holds such a SNP; no test, benchmark
    or measured panel has produced one.
    """
    return _counted_median(*_median_terms(as_triple_arrays(triples)), _interpolated_medians)


def _counted_median(used: np.ndarray, values: np.ndarray, masses: np.ndarray, medians) -> CountedFit:
    """``medians`` of the ``used`` SNPs' ``values`` and ``masses``, sorted once.

    Each resample reads its cumulative count-weighted masses only over a
    window of sorted positions around the panel's half-mass point (see
    :func:`_half_mass_window`); two product columns give its mass before
    and after the window. ``medians`` finds the crossings and neighbours
    of the whole chunk at once. A row whose crossing or neighbours fall
    outside the window is left unresolved, for the point estimator. A
    resample holding no used SNP fails.
    """
    order = np.argsort(values, kind="stable")
    snps = np.flatnonzero(used)[order]
    # One leading pad entry, so that entry c of v[lo:hi + 1] belongs to
    # column c of the window's cumulative masses, whose column 0 is the mass
    # before the window. The pad itself is never read.
    v, m = np.r_[0.0, values[order]], np.r_[0.0, masses[order]]
    lo, hi = _half_mass_window(m[1:])
    outside = np.zeros((len(used), 2))
    outside[snps[:lo], 0] = m[1:lo + 1]
    outside[snps[hi:], 1] = m[hi + 1:]

    def reduce(counts, sums):
        ok = sums[:, 0] > 0.0
        cum = np.empty((len(counts), hi - lo + 1))
        cum[:, 0] = sums[:, 1]
        np.multiply(np.take(counts, snps[lo:hi], axis=1), m[lo + 1:hi + 1], out=cum[:, 1:])
        np.cumsum(cum, axis=1, out=cum)
        beta, resolved = medians(v[lo:hi + 1], m[lo:hi + 1], cum, cum[:, -1] + sums[:, 2])
        return np.where(ok, beta, 0.0), ok, resolved | ~ok

    return CountedFit(np.column_stack((used.astype(float), outside)), reduce)


def _half_mass_window(m: np.ndarray) -> tuple[int, int]:
    """Sorted positions ``[lo, hi)`` around the half-mass point of the masses ``m``.

    From the first position whose cumulative mass reaches half the total
    less ``_WINDOW * sqrt(sum m^2)`` to the first that reaches half the
    total plus it. A resample's mass below a position differs from the
    panel's by about ``sqrt(sum m^2) / 2``, so the window reaches about 16
    of those standard deviations to each side and all but vanishingly rare
    resamples cross one half inside. It covers about 16% of the positions
    at 10,000 SNPs and the whole panel below about 250.
    """
    if not len(m):
        return 0, 0
    cum = np.cumsum(m)
    half, reach = 0.5 * cum[-1], _WINDOW * float(np.sqrt(np.dot(m, m)))
    lo = int(np.searchsorted(cum, half - reach))
    return lo, min(int(np.searchsorted(cum, half + reach)) + 1, len(m))


def _search(cum: np.ndarray, x: np.ndarray, side: str = "left") -> np.ndarray:
    """``np.searchsorted`` of each row of ascending ``cum`` for that row's ``x``."""
    return np.count_nonzero(cum < x[:, None] if side == "left" else cum <= x[:, None], axis=1)


def _l1_medians(v: np.ndarray, m: np.ndarray, cum: np.ndarray, total: np.ndarray):
    """:func:`_weighted_median` of each resample, and whether its window resolves it.

    Column ``c`` of ``cum`` and entry ``c`` of the ascending ``v`` and the
    masses ``m`` belong to one sorted position: column 0 to the last before
    the window, so it holds the resample's mass before the window, and the
    rest to the window. ``total`` is each resample's total mass. A row is
    resolved when its crossing and flat-minimum partner lie in the window.
    """
    last = cum.shape[1] - 1
    half = 0.5 * total
    k, after = _search(cum, half), _search(cum, half, "right")
    resolved = (k >= 1) & (k <= last)
    k = np.clip(k, 1, last)
    flat = cum[np.arange(len(cum)), k] == half
    partner = flat & (after <= last)
    mid = 0.5 * (v[k] + v[np.minimum(after, last)])
    return np.where(partner, mid, v[k]), resolved & (partner | ~flat)


def _interpolated_medians(v: np.ndarray, w: np.ndarray, cum: np.ndarray, total: np.ndarray):
    """``weighted_median_ratio``'s ``np.interp(0.5, s, r)`` of each resample.

    Arguments and result as for :func:`_l1_medians`, with ``w`` the weights.
    Copies of one SNP share its ratio, so the interpolation only reads the
    positions of the first and the last copy of the SNP where the weight
    crosses one half and of its held neighbour on the side of the crossing.
    A row is resolved when the crossing and that neighbour lie in the window.
    """
    rows, last = np.arange(len(cum)), cum.shape[1] - 1
    j = _search(cum, 0.5 * total)
    resolved = (j >= 1) & (j <= last)
    j = np.clip(j, 1, last)
    at, before = cum[rows, j], cum[rows, j - 1]
    # Rows holding no used SNP have a zero total; the caller discards them.
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (before + 0.5 * w[j]) / total
        end = (at - 0.5 * w[j]) / total
        lower = (first > 0.5) & (before > 0.0)
        upper = ~lower & (end < 0.5) & (at < total)
        i = _search(cum, before)  # the held SNP before j
        k = _search(cum, at, "right")  # the held SNP after j
        resolved &= ~(lower & (i < 1)) & ~(upper & (k > last))
        i, k = np.clip(i, 1, last), np.minimum(k, last)
        x0 = np.where(lower, (before - 0.5 * w[i]) / total, end)
        y0 = np.where(lower, v[i], v[j])
        x1 = np.where(lower, first, (at + 0.5 * w[k]) / total)
        y1 = np.where(lower, v[j], v[k])
        interpolated = (y1 - y0) / (x1 - x0) * (0.5 - x0) + y0
    return np.where(lower | upper, interpolated, v[j]), resolved


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
    if _vanishes(den, scale):
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
