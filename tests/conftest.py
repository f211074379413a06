"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the code paths they check: scalar golden
section instead of the closed-form weighted slope, dense grid scans instead
of the weighted-median reduction, and adaptive quadrature of the density
instead of the incomplete-gamma recursions. :func:`oracle_mr_wald_variance`
needs the simulation's truth, which summary data do not carry.
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
