import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mrhetero import chisq_sf, het_test

from conftest import chisq_sf_by_quadrature, make_triples


class TestHetTest:
    def test_zero_difference(self):
        t = make_triples([0.1, 0.2], [0.01, 0.02], [0.1, 0.2], [0.02, 0.01],
                         [0.05, 0.1], [0.01, 0.01])
        res = het_test(t)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.df == 2

    def test_single_snp_five_percent_point(self):
        # difference = 1.959964 * sqrt(se_ou^2 + se_tr^2) puts T at the
        # chi-square(1) 95th percentile
        se_tr, se_ou = 0.01, 0.02
        diff = 1.959964 * math.sqrt(se_tr**2 + se_ou**2)
        t = make_triples([0.1], [se_tr], [0.1 + diff], [se_ou], [0.05], [0.01])
        res = het_test(t)
        assert res.statistic == pytest.approx(3.8415, abs=1e-3)
        assert res.p_value == pytest.approx(0.05, abs=1e-4)

    def test_two_snp_closed_form(self):
        # T = 2 with df = 2: the tail is exp(-T/2) exactly
        se = math.sqrt(0.5)
        t = make_triples([0.0, 0.0], [se, se], [1.0, 1.0], [se, se], [0.1, 0.1], [0.1, 0.1])
        res = het_test(t)
        assert res.statistic == pytest.approx(2.0, rel=1e-12)
        assert res.p_value == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_statistic_is_sum_of_contributions(self, rng):
        t = make_triples(rng.uniform(-1, 1, 30), rng.uniform(0.01, 0.1, 30),
                         rng.uniform(-1, 1, 30), rng.uniform(0.01, 0.1, 30),
                         rng.uniform(-1, 1, 30), rng.uniform(0.01, 0.1, 30))
        res = het_test(t)
        assert_allclose(res.statistic, sum(res.per_snp), rtol=1e-10)
        assert all(c >= 0 for c in res.per_snp)

    def test_swap_symmetry(self, rng):
        gt, st_, go, so = (rng.uniform(-1, 1, 10), rng.uniform(0.01, 0.1, 10),
                           rng.uniform(-1, 1, 10), rng.uniform(0.01, 0.1, 10))
        cap, scap = rng.uniform(-1, 1, 10), rng.uniform(0.01, 0.1, 10)
        res = het_test(make_triples(gt, st_, go, so, cap, scap))
        swapped = het_test(make_triples(go, so, gt, st_, cap, scap))
        assert res.statistic == swapped.statistic
        assert res.p_value == swapped.p_value

    def test_json_shape(self):
        t = make_triples([0.1], [0.01], [0.12], [0.02], [0.05], [0.01])
        d = het_test(t).to_json_dict()
        assert set(d) == {"statistic", "df", "p_value", "per_snp"}


class TestChisqSf:
    def test_full_mass_at_zero(self):
        for df in (1, 2, 7, 50):
            assert chisq_sf(0.0, df) == 1.0

    def test_df2_closed_form(self):
        assert chisq_sf(2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_twenty_df_five_percent_point(self):
        assert chisq_sf(31.410, 20) == pytest.approx(0.05, abs=1e-4)

    @pytest.mark.parametrize("x,df", [
        (0.5, 1), (3.0, 1), (0.2, 4), (7.5, 4), (12.0, 10),
        (45.0, 30), (60.0, 50), (130.0, 100), (1.5, 8), (25.0, 25),
    ])
    def test_against_quadrature(self, x, df):
        assert chisq_sf(x, df) == pytest.approx(chisq_sf_by_quadrature(x, df), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(df=st.integers(1, 150), u=st.floats(0.5, 2.5))
    def test_strictly_decreasing_in_x(self, df, u):
        # probe where the distribution carries mass, so the decrease is
        # resolvable in double precision
        x = df * u
        bump = max(0.01, 0.05 * df)
        assert chisq_sf(x + bump, df) < chisq_sf(x, df)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chisq_sf(-1.0, 3)
        with pytest.raises(ValueError):
            chisq_sf(1.0, 0)
        with pytest.raises(ValueError):
            chisq_sf(float("nan"), 3)

    @pytest.mark.parametrize("x,df", [(9950.0, 10_000), (9999.0, 10_000), (19_500.0, 20_000)])
    def test_large_df_just_below_the_mean(self, x, df):
        # where the null statistic of a 10k-20k SNP panel usually lands
        assert chisq_sf(x, df) == pytest.approx(chisq_sf_by_quadrature(x, df), abs=1e-10)

    def test_small_sample_calibration(self):
        # mini null calibration; the acceptance suite runs the full-size one
        r = np.random.default_rng(7)
        trials, p = 2000, 20
        gamma = r.uniform(0.05, 0.1, (trials, p))
        se_tr = r.uniform(0.01, 0.03, (trials, p))
        se_ou = r.uniform(0.01, 0.03, (trials, p))
        g_tr = gamma + se_tr * r.standard_normal((trials, p))
        g_ou = gamma + se_ou * r.standard_normal((trials, p))
        stat = (((g_ou - g_tr) ** 2) / (se_tr**2 + se_ou**2)).sum(axis=1)
        pvals = np.array([chisq_sf(float(s), p) for s in stat])
        rate = (pvals < 0.05).mean()
        assert 0.03 <= rate <= 0.07
