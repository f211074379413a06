"""Property tests: invariances every estimate must keep on any valid panel.

Each example draws a panel from a hypothesis-chosen seed and size, so the
data stay in the estimators' valid range while hypothesis explores it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrhetero import (
    BootstrapConfig,
    CiKind,
    DegenerateDesign,
    Method,
    MrEstimate,
    TooManyFailures,
    VanishingDenominator,
    as_triple_arrays,
    bootstrap,
    estimate_many,
    estimators,
)
from mrhetero.estimators import point_estimator
from mrhetero.kernels import REL_DENOM_TOL, WeightedPairs, _half_mass_window, _median_terms, l1_origin
from mrhetero.summary_data import TripleArrays

from conftest import random_triples

# Methods whose fits pass through the origin or use per-SNP ratios, so an
# allele flip changes no floating-point operation's magnitude. MrWaldD and
# Egger fit an intercept, which is not sign-symmetric in the regressor.
FLIP_INVARIANT = [Method.MR_WALD, Method.MR_WALD_R, Method.IVW, Method.DIVW,
                  Method.WEIGHTED_MEDIAN]

panels = st.tuples(st.integers(0, 2**32 - 1), st.integers(5, 60))


def draw_panel(seed, p):
    rng = np.random.default_rng(seed)
    t, _, _ = random_triples(rng, p, noise=0.1)
    return rng, as_triple_arrays(t)


def columns(a: TripleArrays) -> list:
    return [a.snp_ids, a.gamma_tr, a.se_gamma_tr, a.gamma_ou, a.se_gamma_ou,
            a.capgamma_ou, a.se_capgamma_ou]


def same_outcome(x, y) -> bool:
    """Bitwise equal beta and se, or the same error type."""
    if isinstance(x, MrEstimate) and isinstance(y, MrEstimate):
        return (x.beta, x.se) == (y.beta, y.se)
    return type(x) is type(y)


@settings(max_examples=15, deadline=None)
@given(panel=panels, data=st.data())
def test_allele_flip_leaves_estimates_unchanged(panel, data):
    _, a = draw_panel(*panel)
    j = data.draw(st.integers(0, len(a) - 1))
    cols = [c.copy() for c in columns(a)]
    for k in (1, 3, 5):  # gamma_tr, gamma_ou, capgamma_ou: the effect allele swaps in all three files
        cols[k][j] = -cols[k][j]
    boot = BootstrapConfig(n_boot=40, seed=panel[0])
    before = estimate_many(FLIP_INVARIANT, a, boot)
    after = estimate_many(FLIP_INVARIANT, TripleArrays(*cols), boot)
    for m, x, y in zip(FLIP_INVARIANT, before, after):
        assert same_outcome(x, y), m


@settings(max_examples=15, deadline=None)
@given(panel=panels)
def test_snp_order_leaves_point_estimates_unchanged(panel):
    rng, a = draw_panel(*panel)
    shuffled = a.take(rng.permutation(len(a)))
    for m, x, y in zip(Method, estimate_many(list(Method), a), estimate_many(list(Method), shuffled)):
        assert type(x) is type(y), m
        if isinstance(x, MrEstimate):
            assert y.beta == pytest.approx(x.beta, rel=1e-12), m


# Methods whose beta is a slope of capgamma_ou on gamma_tr; the rest divide
# it by a slope of gamma_ou on gamma_tr.
SLOPE_ON_GAMMA_TR = {Method.IVW, Method.DIVW, Method.EGGER, Method.WEIGHTED_MEDIAN}

exponents = st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
# Where a panel sits relative to a guard's threshold, as a multiple of it:
# clear of the rounding noise of the construction on either side.
below = st.floats(0.5, 0.9)
above = st.floats(1.1, 2.0)


def triples_of(g, sg, go, sgo, G, sG) -> TripleArrays:
    return TripleArrays.checked([f"rs{j}" for j in range(len(g))], g, sg, go, sgo, G, sG)


def assert_units_do_not_matter(a: TripleArrays, ka: int, kb: int, kc: int) -> list:
    """Rescale gamma_tr by 2^ka, gamma_ou by 2^kb, capgamma_ou by 2^kc, each with its SE.

    Powers of two make every product and quotient exact, so each method must
    raise the same error type, or scale its beta exactly by the ratio of the
    units of its numerator and denominator slopes. Returns the outcomes on
    ``a`` in ``Method`` order.
    """
    cols = columns(a)
    scaled = TripleArrays(cols[0], *(c * 2.0**k for c, k in zip(cols[1:], (ka, ka, kb, kb, kc, kc))))
    before = estimate_many(list(Method), a)
    after = estimate_many(list(Method), scaled)
    for m, x, y in zip(Method, before, after):
        assert type(x) is type(y), m
        if isinstance(x, MrEstimate):
            k = kc - ka if m in SLOPE_ON_GAMMA_TR else kc - kb
            assert y.beta == x.beta * 2.0**k, m
    return before


@settings(max_examples=15, deadline=None)
@given(panel=panels, k=exponents)
def test_rescaled_units_scale_beta_exactly(panel, k):
    _, a = draw_panel(*panel)
    assert_units_do_not_matter(a, *k)


def near_ratio_guard(a: TripleArrays, u: float) -> TripleArrays:
    """``a`` with MrWald's denominator slope at ``u`` times the ratio guard's threshold.

    gamma_ou is made orthogonal to gamma_tr under the MrWald weights, plus u
    times the threshold slope along gamma_tr.
    """
    w = a.se_gamma_ou**-2
    r = a.gamma_ou - np.dot(w * a.gamma_tr, a.gamma_ou) / np.dot(w * a.gamma_tr, a.gamma_tr) * a.gamma_tr
    scale = np.max(np.abs(r)) / np.max(np.abs(a.gamma_tr))
    gamma_ou = r + u * REL_DENOM_TOL * scale * a.gamma_tr
    return triples_of(a.gamma_tr, a.se_gamma_tr, gamma_ou, a.se_gamma_ou, a.capgamma_ou,
                      a.se_capgamma_ou)


def near_constant_design(rng, a: TripleArrays, u: float) -> TripleArrays:
    """``a`` with Egger's regressor at ``u`` times the constant-design guard's threshold.

    gamma_tr = c (1 + h z) with h set so that the weighted variance of the
    regressor over its weighted mean square is u^2 times the guard's 1e-28.
    """
    w = a.se_capgamma_ou**-2
    z = rng.standard_normal(len(a))
    var = np.dot(w, (z - np.dot(w, z) / w.sum()) ** 2) / w.sum()
    gamma_tr = 0.3 * (1.0 + u * 1e-14 / np.sqrt(var) * z)
    return triples_of(gamma_tr, a.se_gamma_tr, a.gamma_ou, a.se_gamma_ou, a.capgamma_ou,
                      a.se_capgamma_ou)


@settings(max_examples=15, deadline=None)
@given(panel=panels, k=exponents, u=below | above)
def test_rescaling_keeps_the_ratio_guard_decision(panel, k, u):
    _, a = draw_panel(*panel)
    before = assert_units_do_not_matter(near_ratio_guard(a, u), *k)
    mr_wald = list(Method).index(Method.MR_WALD)
    assert isinstance(before[mr_wald], VanishingDenominator) == (u < 1.0)


@settings(max_examples=15, deadline=None)
@given(panel=panels, k=exponents, u=below | above)
def test_rescaling_keeps_the_constant_design_guard_decision(panel, k, u):
    rng, a = draw_panel(*panel)
    before = assert_units_do_not_matter(near_constant_design(rng, a, u), *k)
    egger = list(Method).index(Method.EGGER)
    assert isinstance(before[egger], DegenerateDesign) == (u < 1.0)


@settings(max_examples=15, deadline=None)
@given(panel=panels, k=exponents, u=below | above)
def test_rescaling_keeps_the_divw_guard_decision(panel, k, u):
    # se_gamma_tr^2 = gamma_tr^2 (1 - u 1e-12): the debiased strength is u
    # times the guard's threshold.
    _, a = draw_panel(*panel)
    se_gamma_tr = np.abs(a.gamma_tr) * np.sqrt(1.0 - u * REL_DENOM_TOL)
    near = triples_of(a.gamma_tr, se_gamma_tr, a.gamma_ou, a.se_gamma_ou, a.capgamma_ou,
                      a.se_capgamma_ou)
    before = assert_units_do_not_matter(near, *k)
    divw = list(Method).index(Method.DIVW)
    assert isinstance(before[divw], VanishingDenominator) == (u < 1.0)


# The bootstrapped methods; estimate_many evaluates them from resample counts.
BOOTSTRAPPED = [m for m in Method if m is not Method.DIVW]


def assert_counts_match_resamples(a: TripleArrays, seed: int, n_boot: int = 60) -> list:
    """``estimate_many`` against bootstrapping each point estimator on copied resamples.

    Every SE and CI bound must agree to 1e-12 relative, with the same failure
    count, for both CI kinds and on 1 and 3 threads. Returns the counted
    outcomes per CI kind.
    """
    outcomes = []
    for ci_kind in CiKind:
        boot = BootstrapConfig(n_boot=n_boot, seed=seed, ci_kind=ci_kind)
        counted = estimate_many(BOOTSTRAPPED, a, boot)
        for x, y in zip(estimate_many(BOOTSTRAPPED, a, boot, workers=3), counted):
            assert x == y if isinstance(x, MrEstimate) else (type(x), x.details) == (type(y), y.details)
        booted = [(m, e) for m, e in zip(BOOTSTRAPPED, counted) if not isinstance(e, DegenerateDesign | VanishingDenominator)]
        for m, e in booted:
            try:
                ref = bootstrap(point_estimator(m), a, boot, getattr(e, "beta", 0.0))
            except TooManyFailures as failed:
                assert isinstance(e, TooManyFailures) and e.details == failed.details, m
                continue
            assert e.auxiliary["bootstrap_failed"] == ref.n_failed, m
            assert e.se == pytest.approx(ref.se, rel=1e-12, abs=0.0), m
            # A bound near zero cancels (point - z se, or a quantile between
            # values of opposite sign): it is held to 1e-12 of the SE there.
            bounds = pytest.approx((ref.ci_low, ref.ci_high), rel=1e-12, abs=1e-12 * ref.se)
            assert (e.ci_low, e.ci_high) == bounds, m
        outcomes.append(counted)
    return outcomes


@settings(max_examples=15, deadline=None)
@given(panel=panels)
def test_counted_bootstrap_matches_copied_resamples(panel):
    _, a = draw_panel(*panel)
    assert_counts_match_resamples(a, seed=panel[0])


@settings(max_examples=10, deadline=None)
@given(panel=st.tuples(st.integers(0, 2**32 - 1), st.integers(1000, 2000)))
def test_counted_bootstrap_matches_copied_resamples_on_large_panels(panel):
    # Large enough that the counted medians read a window narrower than the panel.
    _, a = draw_panel(*panel)
    _, ratios, masses = _median_terms(a)
    lo, hi = _half_mass_window(masses[np.argsort(ratios, kind="stable")])
    assert hi - lo < len(a)
    assert_counts_match_resamples(a, seed=panel[0])


@settings(max_examples=10, deadline=None)
@given(panel=panels, u=below | above)
def test_counted_bootstrap_keeps_the_ratio_guard(panel, u):
    _, a = draw_panel(*panel)
    assert_counts_match_resamples(near_ratio_guard(a, u), seed=panel[0])


@settings(max_examples=10, deadline=None)
@given(panel=panels, u=below | above)
def test_counted_bootstrap_keeps_the_constant_design_guard(panel, u):
    rng, a = draw_panel(*panel)
    assert_counts_match_resamples(near_constant_design(rng, a, u), seed=panel[0])


def test_counted_bootstrap_keeps_the_constant_design_guard_per_replicate():
    # Near the threshold, resamples fall on both sides of the guard.
    rng, a = draw_panel(11, 40)
    (normal, _) = assert_counts_match_resamples(near_constant_design(rng, a, 1.1), seed=3, n_boot=200)
    failed = [e.auxiliary["bootstrap_failed"] for e in normal if e.method is Method.EGGER]
    assert 0 < failed[0] < 100


def test_unresolved_rows_call_the_point_estimator(monkeypatch):
    # Every Egger row is this near the guard; each is computed by the point
    # estimator on ``estimators``, where the traced benchmark wraps it.
    rng, a = draw_panel(11, 40)
    near = near_constant_design(rng, a, 1.1)
    boot = BootstrapConfig(n_boot=100, seed=3)
    expected = estimate_many([Method.EGGER], near, boot)
    calls = []
    monkeypatch.setattr(estimators, "point_estimator", lambda m: calls.append(m) or point_estimator(m))
    assert estimate_many([Method.EGGER], near, boot) == expected
    assert calls == [Method.EGGER] * 100


def test_counted_bootstrap_keeps_the_flat_l1_midpoint():
    # Equal dyadic masses w |x| on an even number of SNPs: every resample's
    # cumulative mass reaches exactly half, so the L1 slope is the midpoint
    # of two ratios whenever the two middle ratios differ.
    p = 16
    rng = np.random.default_rng(5)
    sign = rng.choice([-1.0, 1.0], p)
    gamma_ou = sign * rng.permutation(np.arange(1, p + 1)) / 32.0
    capgamma_ou = rng.permutation(np.arange(-p, p, 2) + 1) / 64.0
    se = np.full(p, 0.125)
    a = triples_of(0.5 * sign, se, gamma_ou, se, capgamma_ou, se)
    assert_counts_match_resamples(a, seed=4, n_boot=100)
    midpoints = 0
    for b in range(100):
        sample = a.take(np.random.default_rng(np.random.SeedSequence(4, spawn_key=(b,))).integers(0, p, p))
        slope = l1_origin(WeightedPairs(sample.gamma_tr, sample.capgamma_ou, np.ones(p)))
        midpoints += slope not in set(sample.capgamma_ou / sample.gamma_tr)
    assert midpoints > 0


def test_counted_bootstrap_fails_weighted_median_resamples_of_zero_weight():
    # Every SNP but two has an overflowing variance, so zero weight: about
    # 0.9^20 of the resamples hold no weight and must fail as their copies
    # do. Only WeightedMedian: the inverse-variance fits do not build here.
    _, a = draw_panel(12, 20)
    a.se_capgamma_ou[2:] = 1e170
    for ci_kind in CiKind:
        boot = BootstrapConfig(n_boot=200, seed=6, ci_kind=ci_kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (e,) = estimate_many([Method.WEIGHTED_MEDIAN], a, boot)
            assert estimate_many([Method.WEIGHTED_MEDIAN], a, boot, workers=3) == [e]
            ref = bootstrap(point_estimator(Method.WEIGHTED_MEDIAN), a, boot, e.beta)
        assert 0 < ref.n_failed < 100
        assert e.auxiliary["bootstrap_failed"] == ref.n_failed
        assert e.se == pytest.approx(ref.se, rel=1e-12, abs=0.0)
        assert (e.ci_low, e.ci_high) == pytest.approx((ref.ci_low, ref.ci_high), rel=1e-12, abs=1e-12 * ref.se)


@pytest.mark.filterwarnings("ignore:dropped 1 SNPs")
def test_counted_bootstrap_with_a_zero_exposure_association():
    _, a = draw_panel(8, 30)
    a.gamma_tr[7] = 0.0
    assert_counts_match_resamples(a, seed=8, n_boot=100)
