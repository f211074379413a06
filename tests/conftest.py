"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the code paths they check: scalar golden
section instead of the closed-form weighted slope, dense grid scans instead
of the weighted-median reduction, and adaptive quadrature of the density
instead of the incomplete-gamma recursions. :func:`oracle_mr_wald_variance`
needs the simulation's truth, which summary data do not carry.
:func:`influence_se` checks the bootstrap against a closed form that shares
neither its resample draws nor its summaries.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from mrhetero import HarmonizedTriple, VanishingDenominator
from mrhetero.kernels import REL_DENOM_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)


def make_triples(gamma_tr, se_gamma_tr, gamma_ou, se_gamma_ou, capgamma_ou, se_capgamma_ou):
    cols = [np.asarray(c, dtype=float) for c in
            (gamma_tr, se_gamma_tr, gamma_ou, se_gamma_ou, capgamma_ou, se_capgamma_ou)]
    return [
        HarmonizedTriple(f"rs{i + 1}", *[float(c[i]) for c in cols])
        for i in range(len(cols[0]))
    ]


def random_triples(rng, p, noise=0.0):
    """Random but valid triples; noise=0 gives exact proportional structure."""
    gamma_tr = rng.uniform(0.2, 1.0, p) * rng.choice([-1.0, 1.0], p)
    b = rng.uniform(0.5, 2.0)
    beta0 = rng.uniform(-1.5, 1.5)
    gamma_ou = b * gamma_tr + noise * rng.standard_normal(p)
    capgamma = beta0 * gamma_ou + noise * rng.standard_normal(p)
    return make_triples(
        gamma_tr,
        rng.uniform(0.05, 0.2, p),
        gamma_ou,
        rng.uniform(0.05, 0.2, p),
        capgamma,
        rng.uniform(0.05, 0.2, p),
    ), beta0, b


def golden_section_min(f, lo, hi, tol=1e-12):
    """Scalar minimization of a unimodal function on [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def grid_min_l1(x, y, w, step=1e-4, pad=1.0):
    """Dense grid minimizer of sum w_j |y_j - beta x_j|."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    w = np.asarray(w, float)
    nz = x != 0
    r = y[nz] / x[nz]
    lo, hi = r.min() - pad * step, r.max() + pad * step
    grid = np.arange(lo, hi + step, step)
    obj = np.abs(y[None, :] - grid[:, None] * x[None, :]) @ w
    return float(grid[int(np.argmin(obj))])


def wls_intercept_normal_equations(x, y, w):
    """Explicit 2x2 normal-equation solve for the weighted affine fit."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    w = np.asarray(w, float)
    A = np.array([[w.sum(), (w * x).sum()], [(w * x).sum(), (w * x * x).sum()]])
    b = np.array([(w * y).sum(), (w * x * y).sum()])
    intercept, slope = np.linalg.solve(A, b)
    return float(slope), float(intercept)


def chisq_sf_by_quadrature(x, df):
    """Upper chi-square tail by adaptive quadrature of the density."""
    a = 0.5 * df

    def density(t):
        return math.exp((a - 1.0) * math.log(t) - 0.5 * t - math.lgamma(a) - a * math.log(2.0))

    value, _err = integrate.quad(density, x, np.inf, limit=300)
    return value


def oracle_mr_wald_variance(gamma_tr, gamma_ou, se_gamma_tr, se_gamma_ou, sigma_u) -> float:
    """Asymptotic variance of the ratio-of-slopes estimator at known truth.

    Simulation-only: ``sigma_u`` is the standard deviation of the combined
    outcome-side residual, which is not estimable from summary data alone.
    """
    gamma_tr = np.asarray(gamma_tr, dtype=float)
    gamma_ou = np.asarray(gamma_ou, dtype=float)
    se_gamma_tr = np.asarray(se_gamma_tr, dtype=float)
    se_gamma_ou = np.asarray(se_gamma_ou, dtype=float)
    sigma_u = np.asarray(sigma_u, dtype=float)
    if not (gamma_tr.shape == gamma_ou.shape == se_gamma_tr.shape == se_gamma_ou.shape == sigma_u.shape):
        raise ValueError("all five vectors must have equal length")
    if np.any(se_gamma_tr <= 0) or np.any(se_gamma_ou <= 0):
        raise ValueError("standard errors must be strictly positive")
    num = float(np.sum((gamma_tr**2 + se_gamma_tr**2) * sigma_u**2 / se_gamma_ou**4))
    den = float(np.sum(gamma_tr * gamma_ou / se_gamma_ou**2))
    den_scale = float(np.sum(np.abs(gamma_tr * gamma_ou) / se_gamma_ou**2))
    if den == 0.0 or abs(den) < REL_DENOM_TOL * den_scale:
        raise VanishingDenominator("oracle variance denominator is zero", value=den)
    return num / den**2


def _slope_influence(x, y, w, intercept: bool):
    """A weighted slope of ``y`` on ``x`` as a function of means of per-SNP terms.

    Returns the slope, each SNP's first-order influence on it (the gradient
    dotted with the SNP's centred terms) and the same for the slope's
    denominator, the weighted sum of squares, centred for an intercept fit.
    """
    if intercept:
        t = np.column_stack((w, w * x, w * y, w * x * x, w * x * y))
        a, b, c, e, f = t.mean(axis=0)
        den = e - b * b / a
        slope = (f - b * c / a) / den
        grad = np.array([(b * c - slope * b * b) / a**2, (2.0 * slope * b - c) / a, -b / a, -slope, 1.0]) / den
        den_grad = np.array([(b / a) ** 2, -2.0 * b / a, 0.0, 1.0, 0.0])
    else:
        t = np.column_stack((w * x * x, w * x * y))
        den, sxy = t.mean(axis=0)
        slope = sxy / den
        grad = np.array([-slope, 1.0]) / den
        den_grad = np.array([1.0, 0.0])
    centred = t - t.mean(axis=0)
    return slope, centred @ grad, den, centred @ den_grad


def _z(value, influence) -> float:
    """``|value|`` over its infinitesimal-jackknife standard error."""
    return abs(value) / (math.sqrt(float(np.dot(influence, influence))) / len(influence))


def influence_se(method, a) -> tuple[float, float]:
    """Infinitesimal-jackknife SE of a smooth method's bootstrap over SNPs.

    MrWald, MrWaldD, Ivw and Egger are smooth functions ``f`` of the means
    of per-SNP terms ``t_j``. To first order the bootstrap over SNPs has
    variance ``sum_j (grad f . (t_j - mean t))^2 / p^2`` (Jaeckel 1972;
    Efron 1982), here with an analytic gradient. Returns that SE and the
    smallest influence z-score of the method's denominators: each fit's
    sum of squares and, for a ratio method, its exposure slope.
    """
    intercept = method in ("MrWaldD", "Egger")
    beta, influence, den, den_influence = _slope_influence(
        a.gamma_tr, a.capgamma_ou, a.se_capgamma_ou**-2, intercept)
    z = _z(den, den_influence)
    if method in ("MrWald", "MrWaldD"):
        slope, slope_influence, den, den_influence = _slope_influence(
            a.gamma_tr, a.gamma_ou, a.se_gamma_ou**-2, intercept)
        beta, influence = beta / slope, (influence - beta / slope * slope_influence) / slope
        z = min(z, _z(den, den_influence), _z(slope, slope_influence))
    elif method not in ("Ivw", "Egger"):
        raise ValueError(f"{method} is not a smooth function of means")
    return math.sqrt(float(np.dot(influence, influence))) / len(a), z
