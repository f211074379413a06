import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mrhetero import (
    DegenerateDesign,
    VanishingDenominator,
    WeightedPairs,
    divw,
    divw_variance,
    iv_strength_diagnostics,
    l1_origin,
    weighted_median_ratio,
    wls_intercept,
    wls_origin,
)
from mrhetero import Method, estimators, kernels
from mrhetero.estimators import point_estimator
from mrhetero.summary_data import TripleArrays

from conftest import golden_section_min, grid_min_l1, make_triples, wls_intercept_normal_equations


def pairs(x, y, w=None):
    x = np.asarray(x, float)
    if w is None:
        w = np.ones_like(x)
    return WeightedPairs(x, np.asarray(y, float), np.asarray(w, float))


def reduced(fit, counts):
    """A counted fit's per-row results, from its own product with ``counts``."""
    return fit.reduce(counts, np.dot(counts, fit.terms))


class TestWlsOrigin:
    def test_exact_line(self):
        assert wls_origin(pairs([1, 2], [2, 4], [5, 7])) == 2.0

    def test_single_point_ratio(self):
        assert wls_origin(pairs([1], [-3], [9])) == -3.0

    def test_against_golden_section(self):
        d = pairs([1, 2], [1, 5])
        expected = golden_section_min(
            lambda b: float((d.w * (d.y - b * d.x) ** 2).sum()), -10, 10
        )
        assert_allclose(expected, 2.2, atol=1e-9)
        assert_allclose(wls_origin(d), 2.2, atol=1e-12)

    def test_random_instances_vs_golden_section(self, rng):
        for _ in range(20):
            p = rng.integers(2, 12)
            d = pairs(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p), rng.uniform(0.1, 3, p))
            if (d.w * d.x * d.x).sum() < 1e-3:
                continue
            expected = golden_section_min(
                lambda b: float((d.w * (d.y - b * d.x) ** 2).sum()), -50, 50
            )
            assert_allclose(wls_origin(d), expected, atol=1e-8)

    def test_degenerate(self):
        with pytest.raises(DegenerateDesign):
            wls_origin(pairs([0.0, 0.0], [1.0, 2.0]))


class TestWlsIntercept:
    def test_exact_affine(self):
        slope, intercept = wls_intercept(pairs([0, 1, 2], [3, 5, 7]))
        assert (slope, intercept) == (2.0, 3.0)

    def test_against_normal_equations(self, rng):
        x = rng.standard_normal(20)
        y = 1.5 * x - 0.3 + rng.standard_normal(20)
        w = rng.uniform(0.2, 2.0, 20)
        got = wls_intercept(pairs(x, y, w))
        assert_allclose(got, wls_intercept_normal_equations(x, y, w), atol=1e-10)

    def test_constant_response(self):
        slope, intercept = wls_intercept(pairs([0, 1, 3, 4], [2.5] * 4, [1, 2, 3, 4]))
        assert_allclose(slope, 0.0, atol=1e-12)
        assert_allclose(intercept, 2.5, rtol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DegenerateDesign):
            wls_intercept(pairs([0, 1], [0, 1]))

    def test_constant_regressor(self):
        with pytest.raises(DegenerateDesign):
            wls_intercept(pairs([2.0, 2.0, 2.0], [0.0, 1.0, 2.0]))


class TestL1Origin:
    def test_outlier_ignored(self):
        d = pairs([1, 1, 1], [1, 1, 10])
        assert grid_min_l1(d.x, d.y, d.w) == pytest.approx(1.0, abs=1e-4)
        assert l1_origin(d) == 1.0

    def test_zero_loss_line(self):
        x = np.array([0.5, -1.0, 2.0])
        assert l1_origin(pairs(x, 2 * x)) == 2.0

    def test_flat_interval_midpoint(self):
        d = pairs([1, 1], [0, 4])
        # the objective is constant (= 4) on [0, 4]
        grid = np.arange(-1, 5, 1e-3)
        obj = np.abs(d.y[None, :] - grid[:, None] * d.x[None, :]).sum(axis=1)
        flat = grid[np.isclose(obj, obj.min())]
        assert flat.min() == pytest.approx(0.0, abs=1e-2)
        assert flat.max() == pytest.approx(4.0, abs=1e-2)
        assert l1_origin(d) == 2.0

    def test_zero_x_terms_ignored(self):
        base = pairs([1, 2, 3], [1.2, 2.2, 3.6])
        padded = pairs([1, 2, 3, 0, 0], [1.2, 2.2, 3.6, 99.0, -5.0])
        assert l1_origin(base) == l1_origin(padded)

    def test_random_instances_vs_grid(self, rng):
        for _ in range(25):
            p = int(rng.integers(1, 16))
            x = rng.uniform(-2, 2, p)
            x[np.abs(x) < 0.05] = 0.2  # keep ratios well conditioned vs the grid step
            y = rng.uniform(-2, 2, p)
            w = rng.uniform(0.1, 2.0, p)
            got = l1_origin(pairs(x, y, w))
            assert abs(got - grid_min_l1(x, y, w)) <= 1e-4

    def test_all_zero_x(self):
        with pytest.raises(DegenerateDesign):
            l1_origin(pairs([0.0, 0.0], [1.0, 2.0]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.01, 100.0))
    def test_scale_equivariance(self, seed, c):
        r = np.random.default_rng(seed)
        p = int(r.integers(1, 10))
        x = r.uniform(0.1, 2, p) * r.choice([-1, 1], p)
        y = r.uniform(-2, 2, p)
        w = r.uniform(0.1, 2, p)
        base = l1_origin(pairs(x, y, w))
        assert l1_origin(pairs(x, c * y, w)) == pytest.approx(c * base, rel=1e-9, abs=1e-12)
        assert l1_origin(pairs(c * x, y, w)) == pytest.approx(base / c, rel=1e-9, abs=1e-12)
        assert wls_origin(pairs(x, c * y, w)) == pytest.approx(
            c * wls_origin(pairs(x, y, w)), rel=1e-9
        )
        assert wls_origin(pairs(c * x, y, w)) == pytest.approx(
            wls_origin(pairs(x, y, w)) / c, rel=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.001, 1000.0))
    def test_weight_scale_invariance(self, seed, c):
        r = np.random.default_rng(seed)
        p = int(r.integers(1, 10))
        x = r.uniform(0.1, 2, p) * r.choice([-1, 1], p)
        y = r.uniform(-2, 2, p)
        w = r.uniform(0.1, 2, p)
        assert l1_origin(pairs(x, y, c * w)) == pytest.approx(
            l1_origin(pairs(x, y, w)), rel=1e-9, abs=1e-12
        )

    def test_breakdown_vs_least_squares(self, rng):
        p = 11
        x = rng.uniform(0.5, 1.5, p)
        y = 1.3 * x + rng.normal(0, 0.05, p)
        w = np.ones(p)
        share = (w * np.abs(x)) / (w * np.abs(x)).sum()
        assert share.max() < 0.5
        r = y / x
        spread = r.max() - r.min()
        y_bad = y.copy()
        y_bad[3] += 1e6
        assert abs(l1_origin(pairs(x, y_bad, w)) - l1_origin(pairs(x, y, w))) <= spread
        assert abs(wls_origin(pairs(x, y_bad, w)) - wls_origin(pairs(x, y, w))) > 1e4

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedPairs(np.array([1.0]), np.array([1.0]), np.array([0.0]))


class TestWeightedMedianRatio:
    def test_constant_ratios(self):
        t = make_triples([0.1, 0.2, 0.4], [0.01] * 3, [0.1, 0.2, 0.4], [0.01] * 3,
                         [0.07, 0.14, 0.28], [0.01] * 3)
        assert weighted_median_ratio(t) == pytest.approx(0.7, rel=1e-12)

    def test_interpolated_median_equal_weights(self):
        # ratios 1, 2, 9 with equal delta-method weights: the cumulative
        # fractions are 1/6, 1/2, 5/6 and the interpolant at 1/2 is exactly 2.
        t = make_triples([0.1, 0.1, 0.1], [1e-9] * 3, [0.1] * 3, [0.01] * 3,
                         [0.1, 0.2, 0.9], [0.1] * 3)
        s = (np.cumsum([1, 1, 1]) - 0.5) / 3.0
        assert_allclose(s, [1 / 6, 1 / 2, 5 / 6])
        assert weighted_median_ratio(t) == pytest.approx(2.0, rel=1e-6)

    def test_zero_exposure_dropped_with_warning(self):
        full = make_triples([0.2, 0.3, 0.0], [0.01] * 3, [0.2, 0.3, 0.1], [0.01] * 3,
                            [0.1, 0.15, 5.0], [0.01] * 3)
        rest = full[:2]
        with pytest.warns(UserWarning, match="dropped 1 SNP"):
            got = weighted_median_ratio(full)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = weighted_median_ratio(rest)
        assert got == expected

    def test_weights_are_even_in_the_exposure_association(self, rng):
        # An allele flip negates gamma_tr and capgamma_ou; the terms must not
        # change in any bit, or the allele-flip invariance of the estimate fails.
        g, c = rng.uniform(0.2, 1.0, 2000), rng.uniform(-1.0, 1.0, 2000)
        se = rng.uniform(0.01, 0.1, (3, 2000))
        a, flipped = (TripleArrays([f"rs{j}" for j in range(2000)], s * g, se[0], g, se[1], s * c, se[2])
                      for s in (1.0, -1.0))
        for x, y in zip(kernels._median_terms(a), kernels._median_terms(flipped)):
            assert np.array_equal(x, y)

    def test_within_ratio_range(self, rng):
        for _ in range(20):
            p = int(rng.integers(1, 12))
            t = make_triples(rng.uniform(0.1, 1, p), rng.uniform(0.01, 0.1, p),
                             rng.uniform(-1, 1, p), rng.uniform(0.01, 0.1, p),
                             rng.uniform(-1, 1, p), rng.uniform(0.01, 0.1, p))
            a = np.array([x.capgamma_ou / x.gamma_tr for x in t])
            assert a.min() <= weighted_median_ratio(t) <= a.max()

    def test_snps_of_zero_weight_take_no_part(self):
        # The third SNP's variance overflows, so its weight is 0: it is left
        # out of the median, without a warning.
        full = make_triples([0.2, 0.3, 0.25], [0.01] * 3, [0.2, 0.3, 0.25], [0.01] * 3,
                            [0.1, 0.12, 0.11], [0.01, 0.02, 1e170])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weighted_median_ratio(full) == weighted_median_ratio(full[:2])

    def test_no_nonzero_exposure_association(self):
        t = make_triples([0.0] * 3, [0.01] * 3, [0.1] * 3, [0.01] * 3, [0.1] * 3, [0.01] * 3)
        with pytest.warns(UserWarning, match="^dropped 3 SNPs with zero exposure association$"):
            with pytest.raises(DegenerateDesign) as info:
                weighted_median_ratio(t)
        assert str(info.value) == "no SNP with a nonzero exposure association"


class TestCountedMedians:
    """The counted L1 and weighted-median fits on hand-made count rows.

    On a 2,000-SNP panel the fits read a window of sorted positions around
    the half-mass point. Each resolved row must equal the point kernel on
    the resample it stands for, with the same failures. A row whose
    crossing, flat-minimum partner or interpolation neighbour lies outside
    the window is unresolved, and the evaluator computes it with the point
    estimator.
    """

    P = 2000
    # The rows of ``rows`` that each fit leaves unresolved, in row order.
    OUTSIDE = ("lowest ratios only", "highest ratios only", "one huge count",
               "flat at the upper edge", "flat at the lower edge")
    UNRESOLVED = {"l1": OUTSIDE,
                  "weighted median": OUTSIDE + ("neighbour below the window", "neighbour above the window")}

    @pytest.fixture(scope="class")
    def panel(self):
        # Ratios in random order; every mass is exactly 1 (w = 1 / se^2 with
        # se = 1, x = gamma_tr = 1, and gamma_tr's own SE too small to
        # register), except one SNP of mass 4 (se = 1/2) in the middle.
        # MrWaldR's numerator fit is ``d`` with every weight divided by 4
        # (min(se_gamma_ou) / se_gamma_ou, with the heavy SNP's at 1/4), and
        # its denominator slope is 1 (every gamma_ou / gamma_tr is 1).
        rng = np.random.default_rng(17)
        ratio = rng.permutation(np.linspace(-3.0, 3.0, self.P))
        se = np.ones(self.P)
        order = np.argsort(ratio)
        heavy = order[self.P // 2]
        se[heavy] = 0.5
        ones = np.ones(self.P)
        a = TripleArrays.checked([f"rs{j}" for j in range(self.P)], ones, ones * 2.0**-30,
                                 ones, se**2, ratio, se)
        d = WeightedPairs(ones, ratio, se**-2)
        assert np.all(kernels._median_terms(a)[2] == se**-2)
        assert np.all(estimators._l1_outcome_fit(a).w * 4.0 == d.w)
        masses = (se**-2)[order]
        assert np.all(masses == np.where(order == heavy, 4.0, 1.0))
        lo, hi = kernels._half_mass_window(masses)
        assert 0 < lo < self.P // 2 < hi < self.P
        return a, d, order, lo, hi

    def rows(self, panel):
        """Count rows by name, each indexed by sorted position."""
        _, _, _, lo, hi = panel
        p = self.P
        rng = np.random.default_rng(3)
        middle = p // 2  # the heavy SNP
        window = np.zeros(p)
        window[lo:hi] = 1.0
        window_mass = (hi - lo - 1) + 4.0
        rows = {"resample": np.bincount(rng.integers(0, p, p), minlength=p).astype(float)}
        rows["lowest ratios only"] = np.r_[np.ones(100), np.zeros(p - 100)]
        rows["highest ratios only"] = np.r_[np.zeros(p - 100), np.ones(100)]
        huge = rows["resample"].copy()
        huge[0] += 5 * p
        rows["one huge count"] = huge
        # The crossing lands exactly on the last window position, and the
        # flat minimum's partner is the last SNP of the panel.
        upper = window.copy()
        upper[p - 1] = window_mass
        rows["flat at the upper edge"] = upper
        # The crossing is the first SNP, before the window; its partner is
        # the window's first position.
        lower = window.copy()
        lower[0] = window_mass
        rows["flat at the lower edge"] = lower
        inside = np.zeros(p)
        inside[lo + 10:lo + 20] = 1.0
        rows["flat inside"] = inside
        # One copy each of the heavy SNP and a SNP outside the window: the
        # weighted median interpolates towards the one outside.
        for name, k in (("neighbour below the window", 0), ("neighbour above the window", p - 1)):
            row = np.zeros(p)
            row[[k, middle]] = 1.0
            rows[name] = row
        rows["empty"] = np.zeros(p)
        return rows

    @pytest.mark.parametrize("fit", ["l1", "weighted median"])
    def test_rows_equal_the_point_kernel_on_their_resample(self, panel, fit):
        a, d, order, _, _ = panel
        rows = self.rows(panel)
        counts = np.zeros((len(rows), self.P))
        counts[:, order] = np.array(list(rows.values()))
        if fit == "l1":
            counted, point = kernels.counted_l1_origin(d), lambda s: l1_origin(
                WeightedPairs(s.gamma_tr, s.capgamma_ou, s.se_capgamma_ou**-2))
        else:
            counted, point = kernels.counted_weighted_median_ratio(a), weighted_median_ratio
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, passed, resolved = reduced(counted, counts)
        assert [name for name, r in zip(rows, resolved) if not r] == list(self.UNRESOLVED[fit])
        for name, row, value, ok, r in zip(rows, counts, values, passed, resolved):
            if not r:
                continue
            sample = a.take(np.repeat(np.arange(self.P), row.astype(int)))
            if not len(sample):
                assert not ok, name
                continue
            assert ok, name
            assert value == pytest.approx(point(sample), rel=1e-12, abs=0.0), name

    def indices(self, panel):
        """The resample indices of each row of ``rows``, by name."""
        order = panel[2]
        rows = self.rows(panel)
        counts = np.zeros((len(rows), self.P), dtype=int)
        counts[:, order] = np.array(list(rows.values()))
        return dict(zip(rows, (np.repeat(np.arange(self.P), row) for row in counts)))

    def test_unresolved_rows_take_the_point_estimator(self, panel, monkeypatch):
        # Each unresolved row is the point estimator on its resample, called
        # on ``estimators``, where the traced benchmark wraps it.
        a = panel[0]
        indices = self.indices(panel)
        calls = []
        monkeypatch.setattr(estimators, "point_estimator", lambda m: calls.append(m) or point_estimator(m))
        for m, fit in ((Method.MR_WALD_R, "l1"), (Method.WEIGHTED_MEDIAN, "weighted median")):
            resamples = [indices[name] for name in self.UNRESOLVED[fit]]
            calls.clear()
            values, ok = estimators._counted_evaluator([m], a)(resamples)
            assert calls == [m] * len(resamples)
            assert ok.all()
            assert list(values[0]) == [point_estimator(m)(a.take(r)) for r in resamples]

    def test_flat_l1_minimum_takes_the_midpoint_beyond_the_window(self, panel):
        # The counted L1 fit leaves these rows unresolved; the evaluator's
        # MrWaldR values are the midpoints of flat minima past the window.
        a, d, order, lo, hi = panel
        rows = self.rows(panel)
        names = ["flat at the upper edge", "flat at the lower edge"]
        counts = np.zeros((2, self.P))
        counts[:, order] = [rows[name] for name in names]
        assert not reduced(kernels.counted_l1_origin(d), counts)[2].any()
        ratios = np.sort(d.y)
        indices = self.indices(panel)
        values, ok = estimators._counted_evaluator([Method.MR_WALD_R], a)([indices[name] for name in names])
        assert ok.all()
        assert list(values[0]) == [0.5 * (ratios[hi - 1] + ratios[-1]), 0.5 * (ratios[0] + ratios[lo])]

    def test_large_panels_read_a_window(self, panel):
        _, _, _, lo, hi = panel
        assert hi - lo < self.P / 2
        assert kernels._half_mass_window(np.ones(200)) == (0, 200)

    def test_no_used_snp_fails_without_warnings(self):
        counts = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        zero_x = pairs([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        zero_tr = make_triples([0.0] * 3, [0.1] * 3, [0.1] * 3, [0.1] * 3, [0.1] * 3, [0.1] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit in (kernels.counted_l1_origin(zero_x), kernels.counted_weighted_median_ratio(zero_tr)):
                values, passed, resolved = reduced(fit, counts)
                assert not passed.any() and resolved.all()
                assert list(values) == [0.0, 0.0]


class TestDivw:
    def test_reduces_to_wls_origin_without_measurement_error(self):
        g = np.array([0.3, -0.5, 0.8])
        cap = np.array([0.2, -0.3, 0.5])
        se_cap = np.array([0.05, 0.07, 0.06])
        a = TripleArrays(["a", "b", "c"], g, np.zeros(3), g, se_cap, cap, se_cap)
        assert divw(a) == pytest.approx(
            wls_origin(pairs(g, cap, se_cap**-2.0)), rel=1e-12
        )

    def test_two_snp_exact_fraction_oracle(self):
        gt = [Fraction(3, 10), Fraction(1, 2)]
        se_tr = [Fraction(1, 10), Fraction(1, 5)]
        cap = [Fraction(1, 5), Fraction(2, 5)]
        se_cap = [Fraction(1, 20), Fraction(1, 10)]
        num = sum(c * g / s**2 for c, g, s in zip(cap, gt, se_cap))
        den = sum((g**2 - t**2) / s**2 for g, t, s in zip(gt, se_tr, se_cap))
        expected = float(num / den)
        t = make_triples([float(x) for x in gt], [float(x) for x in se_tr],
                         [0.1, 0.1], [0.01, 0.01],
                         [float(x) for x in cap], [float(x) for x in se_cap])
        assert divw(t) == pytest.approx(expected, rel=1e-13)

    def test_exact_cancellation_raises(self):
        t = make_triples([0.1, 0.2], [0.1, 0.2], [0.1, 0.2], [0.01, 0.01],
                         [0.05, 0.1], [0.02, 0.03])
        with pytest.raises(VanishingDenominator):
            divw(t)

    def test_variance_positive(self, rng):
        t = make_triples(rng.uniform(0.2, 0.5, 10), rng.uniform(0.01, 0.02, 10),
                         rng.uniform(0.2, 0.5, 10), rng.uniform(0.01, 0.02, 10),
                         rng.uniform(0.05, 0.3, 10), rng.uniform(0.01, 0.02, 10))
        assert divw_variance(t) > 0


class TestIvStrength:
    def test_pure_noise_floors_to_zero(self):
        t = make_triples([0.02, 0.03], [0.02, 0.03], [0.05, 0.05], [0.01, 0.01],
                         [0.01, 0.01], [0.01, 0.01])
        assert iv_strength_diagnostics(t).kappa_tr == 0.0

    def test_single_snp_arithmetic(self):
        t = make_triples([0.2], [0.1], [0.05], [0.01], [0.01], [0.01])
        assert iv_strength_diagnostics(t).kappa_tr == pytest.approx(3.0, rel=1e-12)

    def test_noiseless_symmetry(self):
        g = [0.3, 0.4, 0.5]
        t = make_triples(g, [0.1] * 3, g, [0.1] * 3, [0.1] * 3, [0.1] * 3)
        ks = iv_strength_diagnostics(t)
        assert ks.kappa_tr == pytest.approx(ks.kappa_ou, rel=1e-12)
        assert ks.kappa_co == pytest.approx(ks.kappa_tr, rel=1e-12)


class TestRejectedInputs:
    @pytest.mark.parametrize("x,y,w,message", [
        ([[1.0, 2.0]], [[1.0, 2.0]], [[1.0, 1.0]], "x, y, w must be 1-D"),
        ([1.0, 2.0], [1.0], [1.0, 1.0], "x, y, w must have equal length"),
        ([], [], [], "at least one point required"),
    ])
    def test_weighted_pairs(self, x, y, w, message):
        with pytest.raises(ValueError) as info:
            WeightedPairs(x, y, w)
        assert str(info.value) == message

    def test_divw_variance_of_zero_debiased_strength(self):
        # gamma_tr equals its se, so each debiased strength is exactly 0.
        t = make_triples([0.1, 0.2], [0.1, 0.2], [0.1, 0.2], [0.01] * 2, [0.05, 0.1], [0.01] * 2)
        with pytest.raises(VanishingDenominator) as info:
            divw_variance(t, beta=0.5)
        assert str(info.value) == "debiased instrument strength is zero"
        assert info.value.details == {"value": 0.0}
