import importlib
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mrhetero import (
    BootstrapConfig,
    CiKind,
    DegenerateDesign,
    DegenerateInput,
    Method,
    MrEstimate,
    VanishingDenominator,
    as_triple_arrays,
    estimate,
    estimate_many,
    mr_wald,
    mr_wald_d,
    mr_wald_r,
    weighted_median_ratio,
)
from mrhetero.estimators import _held_max
from mrhetero.kernels import l1_origin, WeightedPairs

from conftest import (
    make_triples,
    oracle_mr_wald_variance,
    random_triples,
    wls_intercept_normal_equations,
)


def noiseless(gamma_tr, b, beta0, se_tr=0.01, se_ou=0.02, se_cap=0.03):
    gamma_tr = np.asarray(gamma_tr, float)
    gamma_ou = b * gamma_tr
    cap = beta0 * gamma_ou
    p = len(gamma_tr)
    return make_triples(gamma_tr, [se_tr] * p, gamma_ou, [se_ou] * p, cap, [se_cap] * p)


class TestMrWald:
    def test_noiseless_homogeneous(self):
        t = noiseless([0.05, 0.08, 0.1], b=1.0, beta0=0.5)
        est = mr_wald(t)
        assert est.beta == pytest.approx(0.5, abs=1e-14)
        assert est.method is Method.MR_WALD
        assert est.n_snps == 3

    def test_noiseless_linear_heterogeneity_cancels(self):
        t = noiseless([0.05, 0.08, 0.1], b=1.5, beta0=0.7)
        est = mr_wald(t)
        assert est.beta == pytest.approx(0.7, abs=1e-13)
        assert est.auxiliary["denominator_slope"] == pytest.approx(1.5, rel=1e-12)
        assert est.auxiliary["numerator_slope"] == pytest.approx(1.05, rel=1e-12)

    def test_vanishing_denominator(self):
        t = make_triples([1.0, 1.0], [0.1, 0.1], [1.0, -1.0], [0.1, 0.1],
                         [0.5, 0.5], [0.1, 0.1])
        with pytest.raises(VanishingDenominator):
            mr_wald(t)

    def test_matches_full_weighted_form(self, rng):
        # ratio of the two complete weighted-slope expressions
        t, _, _ = random_triples(rng, 12, noise=0.05)
        a = np.array([[x.gamma_tr, x.gamma_ou, x.capgamma_ou,
                       x.se_gamma_ou, x.se_capgamma_ou] for x in t]).T
        gt, go, cap, se_o, se_c = a
        bb = (cap * gt / se_c**2).sum() / (gt**2 / se_c**2).sum()
        b = (go * gt / se_o**2).sum() / (gt**2 / se_o**2).sum()
        assert mr_wald(t).beta == pytest.approx(bb / b, rel=1e-12)

    def test_simplified_single_fraction_under_proportional_ses(self, rng):
        # with se_cap = k * se_ou the ratio collapses to one fraction
        gt = rng.uniform(0.05, 0.1, 15)
        go = 1.3 * gt + 0.01 * rng.standard_normal(15)
        cap = 0.5 * go + 0.01 * rng.standard_normal(15)
        se_o = rng.uniform(0.01, 0.05, 15)
        t = make_triples(gt, [0.01] * 15, go, se_o, cap, 2.5 * se_o)
        w = se_o**-2.0
        simplified = (w * gt * cap).sum() / (w * gt * go).sum()
        assert mr_wald(t).beta == pytest.approx(simplified, rel=1e-12)


class TestMrWaldR:
    def test_noiseless_proportional(self):
        t = noiseless([0.05, 0.07, 0.09, 0.11], b=-2.0, beta0=1.2)
        assert mr_wald_r(t).beta == pytest.approx(1.2, abs=1e-13)

    def test_contamination_leaves_estimate_unchanged(self, rng):
        gt = rng.uniform(0.05, 0.12, 10)
        t = noiseless(gt, b=1.4, beta0=0.5)
        arrays = np.array([[x.gamma_tr, x.se_gamma_tr, x.gamma_ou, x.se_gamma_ou,
                            x.capgamma_ou, x.se_capgamma_ou] for x in t])
        arrays[3, 4] += 0.1  # contaminate one outcome association
        bad = make_triples(*arrays.T)
        # weight share of the contaminated SNP stays below one half
        w = np.min(arrays[:, 3]) / arrays[:, 3] * np.abs(arrays[:, 0])
        assert (w / w.sum()).max() < 0.5
        clean_est = mr_wald_r(t).beta
        assert mr_wald_r(bad).beta == pytest.approx(clean_est, abs=1e-13)

    def test_weight_cross_pairing(self):
        # the exposure-on-exposure fit is weighted by the outcome-association
        # noise scale and vice versa; ratios are spread out so that the two
        # candidate weightings select different medians
        gt = np.array([0.05, 0.08, 0.10, 0.12])
        go = np.array([0.04, 0.14, 0.11, 0.24])
        cap = np.array([0.05, 0.03, 0.09, 0.05])
        se_ou = np.array([0.010, 0.020, 0.030, 0.040])
        se_cap = np.array([0.040, 0.030, 0.020, 0.010])
        t = make_triples(gt, [0.01] * 4, go, se_ou, cap, se_cap)
        est = mr_wald_r(t)
        w1 = se_cap.min() / se_cap
        w2 = se_ou.min() / se_ou
        den = l1_origin(WeightedPairs(gt, go, w1))
        num = l1_origin(WeightedPairs(gt, cap, w2))
        # the opposite pairing must disagree, otherwise this test proves nothing
        assert l1_origin(WeightedPairs(gt, go, w2)) != den
        assert l1_origin(WeightedPairs(gt, cap, w1)) != num
        assert est.auxiliary["denominator_slope"] == den
        assert est.auxiliary["numerator_slope"] == num

    def test_weight_swap_invariance_under_proportional_ses(self, rng):
        gt = rng.uniform(0.05, 0.1, 9)
        go = 0.8 * gt + 0.005 * rng.standard_normal(9)
        cap = 0.5 * go + 0.005 * rng.standard_normal(9)
        se_o = rng.uniform(0.01, 0.05, 9)
        k = 3.0
        t = make_triples(gt, [0.01] * 9, go, se_o, cap, k * se_o)
        est = mr_wald_r(t).beta
        # swapping the two weight vectors only rescales each fit's weights
        w1 = (k * se_o).min() / (k * se_o)
        w2 = se_o.min() / se_o
        den = l1_origin(WeightedPairs(gt, go, w2))
        num = l1_origin(WeightedPairs(gt, cap, w1))
        assert num / den == pytest.approx(est, rel=1e-12)


class TestMrWaldD:
    def test_noiseless_affine_with_directional_shift(self):
        gt = np.array([0.05, 0.07, 0.09, 0.12])
        b, beta0, mu = 1.5, 0.5, 0.04
        go = b * gt
        cap = mu + beta0 * b * gt
        t = make_triples(gt, [0.01] * 4, go, [0.02] * 4, cap, [0.03] * 4)
        est = mr_wald_d(t)
        assert est.beta == pytest.approx(beta0, abs=1e-12)
        assert est.auxiliary["numerator_intercept"] == pytest.approx(mu, abs=1e-12)
        assert est.auxiliary["denominator_intercept"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_intercept_fit_oracle(self, rng):
        gt = rng.uniform(0.05, 0.15, 5)
        go = 1.2 * gt + 0.01 * rng.standard_normal(5)
        cap = 0.03 + 0.5 * go + 0.01 * rng.standard_normal(5)
        se_o = rng.uniform(0.01, 0.04, 5)
        se_c = rng.uniform(0.01, 0.04, 5)
        t = make_triples(gt, [0.01] * 5, go, se_o, cap, se_c)
        num, _ = wls_intercept_normal_equations(gt, cap, se_c**-2.0)
        den, _ = wls_intercept_normal_equations(gt, go, se_o**-2.0)
        assert mr_wald_d(t).beta == pytest.approx(num / den, rel=1e-10)


class TestUnitEquivariance:
    @pytest.mark.parametrize("method", [Method.MR_WALD, Method.MR_WALD_R, Method.MR_WALD_D])
    def test_exposure_units_cancel(self, method, rng):
        t, _, _ = random_triples(rng, 8, noise=0.03)
        base = estimate(method, t).beta
        for c in (0.25, 7.0):
            scaled = make_triples(
                [c * x.gamma_tr for x in t], [c * x.se_gamma_tr for x in t],
                [x.gamma_ou for x in t], [x.se_gamma_ou for x in t],
                [x.capgamma_ou for x in t], [x.se_capgamma_ou for x in t])
            assert estimate(method, scaled).beta == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("method", list(Method))
    def test_outcome_units_scale_estimate(self, method, rng):
        t, _, _ = random_triples(rng, 8, noise=0.03)
        base = estimate(method, t).beta
        c = 3.5
        scaled = make_triples(
            [x.gamma_tr for x in t], [x.se_gamma_tr for x in t],
            [x.gamma_ou for x in t], [x.se_gamma_ou for x in t],
            [c * x.capgamma_ou for x in t], [c * x.se_capgamma_ou for x in t])
        assert estimate(method, scaled).beta == pytest.approx(c * base, rel=1e-9)


class TestEstimateComposition:
    def test_bootstrap_ci_attached(self, rng):
        t, _, _ = random_triples(rng, 25, noise=0.02)
        est = estimate(Method.MR_WALD, t, BootstrapConfig(n_boot=200, seed=5))
        assert est.se is not None and est.se > 0
        assert est.ci_low < est.beta < est.ci_high
        assert est.level == 0.95
        assert est.auxiliary["bootstrap_failed"] == 0.0

    def test_divw_uses_analytic_variance(self, rng):
        t, _, _ = random_triples(rng, 25, noise=0.02)
        est = estimate(Method.DIVW, t, BootstrapConfig(n_boot=50, seed=5))
        assert est.se == pytest.approx(np.sqrt(est.auxiliary["analytic_variance"]))
        width = est.ci_high - est.ci_low
        assert width == pytest.approx(2 * 1.959963984540054 * est.se, rel=1e-12)

    def test_json_document_shape(self, rng):
        t, _, _ = random_triples(rng, 10, noise=0.02)
        d = estimate(Method.EGGER, t, BootstrapConfig(n_boot=60, seed=1)).to_json_dict()
        assert set(d) == {"method", "beta", "se", "ci", "level", "n_snps", "auxiliary"}
        assert d["method"] == "Egger"
        assert isinstance(d["ci"], list) and len(d["ci"]) == 2
        assert "intercept" in d["auxiliary"]

    def test_point_estimate_has_no_ci(self, rng):
        t, _, _ = random_triples(rng, 10, noise=0.02)
        est = estimate(Method.WEIGHTED_MEDIAN, t)
        assert est.se is None and est.ci_low is None and est.ci_high is None


class TestEstimateMany:
    @pytest.mark.parametrize("ci_kind", list(CiKind))
    def test_equals_one_method_calls(self, rng, ci_kind):
        t, _, _ = random_triples(rng, 40, noise=0.05)
        boot = BootstrapConfig(n_boot=80, seed=6, ci_kind=ci_kind)
        assert estimate_many(list(Method), t, boot) == [estimate(m, t, boot) for m in Method]

    @pytest.mark.parametrize("ci_kind", list(CiKind))
    def test_threads_give_the_same_estimates(self, rng, ci_kind):
        t, _, _ = random_triples(rng, 40, noise=0.05)
        boot = BootstrapConfig(n_boot=90, seed=6, ci_kind=ci_kind)
        assert estimate_many(list(Method), t, boot, workers=3) == estimate_many(list(Method), t, boot)

    def test_one_resample_draw_per_replicate(self, rng, monkeypatch):
        boot_module = importlib.import_module("mrhetero.bootstrap")
        t, _, _ = random_triples(rng, 30, noise=0.05)
        calls = []
        replicate_rng = boot_module._replicate_rng
        monkeypatch.setattr(boot_module, "_replicate_rng",
                            lambda seed, b: calls.append(b) or replicate_rng(seed, b))
        methods = [m for m in Method if m is not Method.DIVW]
        out = estimate_many(methods, t, BootstrapConfig(n_boot=50, seed=2))
        assert len(methods) == 6 and all(isinstance(e, MrEstimate) for e in out)
        assert len(calls) == 50

    def test_held_max_reads_past_the_largest_64(self):
        values = np.arange(100.0)
        counts = np.ones((2, 100))
        counts[1, 36:] = 0.0  # holds none of the 64 largest values
        assert list(_held_max(counts, values, np.argsort(-values))) == [99.0, 35.0]

    def test_errors_returned_in_method_order(self, rng):
        boot = BootstrapConfig(n_boot=30, seed=1)
        one, _, _ = random_triples(rng, 1)
        out = estimate_many([Method.MR_WALD, Method.EGGER, Method.DIVW], one, boot)
        assert [type(e) for e in out] == [DegenerateInput, DegenerateDesign, MrEstimate]
        with pytest.raises(DegenerateInput):
            estimate(Method.MR_WALD, one, boot)
        with pytest.raises(DegenerateDesign):
            estimate(Method.EGGER, one, boot)

    def test_auxiliary_keys_of_every_method(self, rng):
        t, _, _ = random_triples(rng, 20, noise=0.02)
        out = estimate_many(list(Method), t, BootstrapConfig(n_boot=40, seed=3))
        ratio = ["numerator_slope", "denominator_slope"]
        assert {e.method: list(e.auxiliary) for e in out} == {
            Method.MR_WALD: [*ratio, "bootstrap_failed"],
            Method.MR_WALD_R: [*ratio, "bootstrap_failed"],
            Method.MR_WALD_D: [*ratio, "numerator_intercept", "denominator_intercept", "bootstrap_failed"],
            Method.IVW: ["bootstrap_failed"],
            Method.DIVW: ["analytic_variance"],
            Method.EGGER: ["intercept", "bootstrap_failed"],
            Method.WEIGHTED_MEDIAN: ["bootstrap_failed"],
        }

    def test_a_fit_that_does_not_build_leaves_other_methods_alone(self):
        # Every weight se_capgamma_ou**-2 underflows to 0, so the inverse-variance
        # outcome fit cannot be built; MrWaldR does not use it.
        t, _, _ = random_triples(np.random.default_rng(7), 30, noise=0.05)
        a = as_triple_arrays(t)
        a.se_capgamma_ou[:] = 1e170
        boot = BootstrapConfig(n_boot=60, seed=5)
        with pytest.raises(ValueError, match="all weights must be strictly positive"):
            estimate(Method.MR_WALD, a, boot)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = estimate(Method.MR_WALD_R, a, boot)
        assert e.beta == -1.2334612916359757
        assert e.se == pytest.approx(0.014656943303314553, rel=1e-12, abs=0.0)
        assert e.auxiliary["bootstrap_failed"] == 0.0

    def test_weighted_median_of_zero_total_weight_fails(self):
        # Every variance se_capgamma_ou**2 / gamma_tr**2 overflows, so every
        # inverse-variance weight is 0 and the median is not defined.
        t, _, _ = random_triples(np.random.default_rng(7), 30, noise=0.05)
        a = as_triple_arrays(t)
        a.se_capgamma_ou[:] = 1e170
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDesign, match="^the usable SNPs' inverse variances sum to zero$"):
                weighted_median_ratio(a)
            with pytest.raises(DegenerateDesign, match="^the usable SNPs' inverse variances sum to zero$"):
                estimate(Method.WEIGHTED_MEDIAN, a, BootstrapConfig(n_boot=60, seed=5))

    def test_without_bootstrap_gives_points(self, rng):
        t, _, _ = random_triples(rng, 10, noise=0.02)
        assert estimate_many(list(Method), t) == [estimate(m, t) for m in Method]


class TestMrEstimate:
    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, float("nan")])
    def test_level_outside_the_open_unit_interval(self, level):
        with pytest.raises(ValueError) as info:
            MrEstimate(method=Method.MR_WALD, beta=0.1, n_snps=3, level=level)
        assert str(info.value) == "level must be strictly between 0 and 1"


class TestOracleVariance:
    def test_single_snp_hand_value(self):
        v = oracle_mr_wald_variance([1.0], [1.0], [1.0], [1.0], [1.0])
        assert v == pytest.approx(2.0, rel=1e-14)

    def test_no_outcome_noise(self):
        v = oracle_mr_wald_variance([0.3, 0.4], [0.3, 0.4], [0.1, 0.1],
                                    [0.1, 0.1], [0.0, 0.0])
        assert v == 0.0

    def test_se_scaling_vs_fraction_oracle(self):
        gt = [Fraction(1, 4), Fraction(1, 2)]
        go = [Fraction(1, 5), Fraction(3, 5)]
        se_tr = [Fraction(1, 10), Fraction(1, 8)]
        se_ou = [Fraction(1, 9), Fraction(1, 7)]
        su = [Fraction(2, 10), Fraction(3, 10)]

        def exact(scale):
            num = sum((g**2 + s**2) * u**2 / (scale * o) ** 4
                      for g, s, o, u in zip(gt, se_tr, se_ou, su))
            den = sum(g * h / (scale * o) ** 2 for g, h, o in zip(gt, go, se_ou))
            return float(num / den**2)

        for scale in (Fraction(1), Fraction(2)):
            got = oracle_mr_wald_variance(
                [float(x) for x in gt], [float(x) for x in go],
                [float(x) for x in se_tr], [float(scale * x) for x in se_ou],
                [float(x) for x in su])
            assert got == pytest.approx(exact(scale), rel=1e-12)

    def test_vanishing_denominator(self):
        with pytest.raises(VanishingDenominator):
            oracle_mr_wald_variance([1.0, -1.0], [1.0, 1.0], [0.1, 0.1],
                                    [0.1, 0.1], [0.1, 0.1])
