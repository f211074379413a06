import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mrhetero import (
    BootstrapConfig,
    DegenerateGenotype,
    GFunction,
    Method,
    Pleiotropy,
    ScenarioConfig,
    TripleArrays,
    estimate,
    run_scenario,
    simulate_replicate,
    simulation,
)
from mrhetero.simulation import _draw_alpha, _draw_genotypes, thread_count
from mrhetero.summary_data import marginal_regressions


def small_cfg(**kw):
    defaults = dict(p=20, n=1500, n_replicates=4, seed=99)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestGFunction:
    def test_identity(self):
        g = GFunction.identity()
        assert_allclose(g([0.05, 0.2]), [0.05, 0.2])

    def test_affine_scaled_shift(self):
        g = GFunction.affine(0.1, 0.5)
        assert_allclose(g([0.05, 0.1]), [(0.05 + 0.1) / 2, (0.1 + 0.1) / 2])

    def test_sinusoid(self):
        g = GFunction.sinusoid(0.2, 5 * math.pi)
        x = np.array([0.05, 0.08])
        assert_allclose(g(x), np.sin(5 * math.pi * x) / 5)

    def test_tabulated_interpolates_and_clamps(self):
        g = GFunction.tabulated([(0.0, 1.0), (1.0, 3.0)])
        assert_allclose(g([0.5, -1.0, 2.0]), [2.0, 1.0, 3.0])

    def test_tabulated_requires_increasing_knots(self):
        with pytest.raises(ValueError):
            GFunction.tabulated([(0.0, 1.0), (0.0, 2.0)])

    @pytest.mark.parametrize("knots", [[(0.0, math.nan)], [(math.inf, 1.0)], [(0.0, 1.0), (-math.inf, 2.0)]])
    def test_tabulated_knots_must_be_finite(self, knots):
        with pytest.raises(ValueError, match="finite"):
            GFunction.tabulated(knots)

    def test_json_round_trip(self):
        pleiotropies = ("none", "balanced", "idiosyncratic_single", "idiosyncratic_multi", "directional")
        for obj in (GFunction.identity(), GFunction.affine(0.1, 0.5),
                    GFunction.sinusoid(0.2, 15.7), GFunction.tabulated([(0, 1), (1, 2)]),
                    *(getattr(Pleiotropy, kind)() for kind in pleiotropies)):
            assert type(obj).from_json_dict(obj.to_json_dict()) == obj
        for kind in pleiotropies:
            assert Pleiotropy.from_json_dict({"kind": kind}) == getattr(Pleiotropy, kind)()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(maf=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(gamma_tr_low=0.2, gamma_tr_high=0.1)
        with pytest.raises(ValueError):
            Pleiotropy(kind="weird")

    def test_more_contaminated_snps_than_snps_rejected(self):
        with pytest.raises(ValueError, match=r"n_contaminated \(5\) must not exceed p \(3\)"):
            ScenarioConfig(p=3, pleiotropy=Pleiotropy.idiosyncratic_multi(n_contaminated=5))
        ScenarioConfig(p=5, pleiotropy=Pleiotropy.idiosyncratic_multi(n_contaminated=5))

    @pytest.mark.parametrize("key", ["beta0", "gamma_tr_low", "gamma_tr_high"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_effects_must_be_finite(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            ScenarioConfig(**{key: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["mu", "tau0"])
    def test_pleiotropy_parameters_must_be_finite(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            Pleiotropy(kind="directional", **{key: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind,key", [("affine", "shift"), ("affine", "scale"),
                                          ("sinusoid", "amplitude"), ("sinusoid", "frequency")])
    def test_g_parameters_must_be_finite(self, kind, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            GFunction(kind=kind, **{key: value})

    @pytest.mark.parametrize("value", [2.5, True, "3", None])
    def test_contaminated_count_must_be_an_integer(self, value):
        d = {"kind": "idiosyncratic_multi", "n_contaminated": value}
        with pytest.raises(ValueError, match="n_contaminated must be an integer"):
            Pleiotropy.from_json_dict(d)

    @pytest.mark.parametrize("make,message", [
        (lambda: ScenarioConfig(beta0=True), "beta0 must be a number, got True"),
        (lambda: ScenarioConfig(maf="0.3"), "maf must be a number, got '0.3'"),
        (lambda: ScenarioConfig(p=2.5), "p must be an integer, got 2.5"),
        (lambda: ScenarioConfig(seed=None), "seed must be an integer, got None"),
        (lambda: GFunction.affine("0.1", 0.5), "shift must be a number, got '0.1'"),
        (lambda: GFunction.tabulated([(0, 1), (1, True)]), "knots must be a number, got True"),
        (lambda: GFunction.tabulated([(0, 1, 2)]), "knots must be a list of [x, y] pairs"),
        (lambda: GFunction.tabulated(5), "knots must be a list of [x, y] pairs"),
        (lambda: Pleiotropy.balanced(tau0=False), "tau0 must be a number, got False"),
        (lambda: Pleiotropy.directional(mu=10**400), "mu must be finite"),
        (lambda: Pleiotropy.idiosyncratic_multi(n_contaminated="3"), "n_contaminated must be an integer"),
        (lambda: GFunction(kind="identity", shift=5.0), "g kind 'identity' takes no shift, got 5.0"),
        (lambda: GFunction(kind="affine", shift=0.1, scale=0.5, knots=[(0, 1)]), "takes no knots"),
        (lambda: Pleiotropy(kind="none", mu=3.0), "pleiotropy kind 'none' takes no mu, got 3.0"),
        (lambda: Pleiotropy(kind="balanced", n_contaminated=2), "takes no n_contaminated, got 2"),
    ])
    def test_constructors_apply_the_json_typing_rule(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert message in str(info.value)

    @pytest.mark.parametrize("key,bound", [("p", simulation.MAX_P), ("n", simulation.MAX_N)])
    def test_sizes_have_a_maximum(self, key, bound):
        # Only configs are built here: no replicate is generated.
        assert getattr(ScenarioConfig(**{key: bound}), key) == bound
        with pytest.raises(ValueError, match=f"{key} must be at most {bound}, got {bound + 1}"):
            ScenarioConfig(**{key: bound + 1})

    def test_numbers_are_stored_as_floats(self):
        cfg = ScenarioConfig.from_json_dict(
            {"beta0": 1, "p": 4.0, "g": {"kind": "tabulated", "knots": [[0, 1]]},
             "pleiotropy": {"kind": "idiosyncratic_multi", "mu": 1, "n_contaminated": 2.0}})
        assert cfg.to_json_dict() == {
            **ScenarioConfig().to_json_dict(), "beta0": 1.0, "p": 4,
            "g": {"kind": "tabulated", "knots": [[0.0, 1.0]]},
            "pleiotropy": {"kind": "idiosyncratic_multi", "mu": 1.0, "tau0": 0.02, "n_contaminated": 2},
        }
        values = [cfg.beta0, cfg.pleiotropy.mu, *cfg.g.knots[0], cfg.p, cfg.pleiotropy.n_contaminated]
        assert [type(v) for v in values] == [float] * 4 + [int] * 2

    def test_integral_float_contaminated_count_accepted(self):
        d = {"kind": "idiosyncratic_multi", "n_contaminated": 3.0}
        assert Pleiotropy.from_json_dict(d).n_contaminated == 3

    def test_null_effect_allowed(self):
        assert ScenarioConfig(beta0=0.0).beta0 == 0.0

    def test_json_round_trip(self):
        cfg = ScenarioConfig(p=10, n=100, g=GFunction.affine(0.1, 0.5),
                             pleiotropy=Pleiotropy.directional(0.05, 0.02),
                             n_replicates=3, seed=8)
        assert ScenarioConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario config keys"):
            ScenarioConfig.from_json_dict({"pp": 10})


class TestGenotypes:
    def test_moments_match_binomial(self):
        # the draw is shifted by its mean 2 maf; each genotype frequency
        # must sit within 4 binomial standard errors over 10^6 cells
        rng = np.random.default_rng(4)
        z, spare = np.empty((2, 1000, 1000))
        for maf in (0.05, 0.3, 0.5):
            _draw_genotypes((rng, rng), maf, z, spare)
            levels = np.unique(z) + 2 * maf
            counts = np.rint(levels)
            assert levels.size <= 3 and set(counts) <= {0.0, 1.0, 2.0}
            assert_allclose(levels, counts, rtol=0, atol=1e-15)
            genotypes = np.rint(z + 2 * maf)
            for k, prob in enumerate(((1 - maf) ** 2, 2 * maf * (1 - maf), maf**2)):
                freq = np.count_nonzero(genotypes == k) / z.size
                assert abs(freq - prob) <= 4 * math.sqrt(prob * (1 - prob) / z.size)


def whole_matrix_replicate(cfg, r):
    """Reference generator: each cohort's genotypes drawn as two whole
    n x p uniform arrays and reduced by ``marginal_regressions``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,)))
    gamma_tr = rng.uniform(cfg.gamma_tr_low, cfg.gamma_tr_high, cfg.p)
    gamma_ou = cfg.g(gamma_tr)
    _, alpha = _draw_alpha(rng, cfg.pleiotropy, gamma_tr)

    def genotypes():
        z = (rng.random((cfg.n, cfg.p)) < cfg.maf).astype(float)
        return z + (rng.random((cfg.n, cfg.p)) < cfg.maf)

    Z = genotypes()
    d = Z @ gamma_tr + rng.standard_normal(cfg.n) + rng.standard_normal(cfg.n)
    columns = [*marginal_regressions(Z, d)]
    Z = genotypes()
    u = rng.standard_normal(cfg.n)
    d1 = Z @ gamma_ou + u + rng.standard_normal(cfg.n)
    y1 = cfg.beta0 * d1 + u + rng.standard_normal(cfg.n) + Z @ alpha
    return columns + [*marginal_regressions(Z, d1), *marginal_regressions(Z, y1)]


COLUMNS = ("gamma_tr", "se_gamma_tr", "gamma_ou", "se_gamma_ou", "capgamma_ou", "se_capgamma_ou")


class TestSimulateReplicate:
    def test_deterministic_in_seed_and_replicate(self):
        cfg = small_cfg()
        a = simulate_replicate(cfg, 2)
        b = simulate_replicate(cfg, 2)
        assert list(a) == list(b)
        c = simulate_replicate(cfg, 3)
        assert list(c) != list(a)

    def test_block_size_changes_no_output(self, monkeypatch):
        cfg = small_cfg(pleiotropy=Pleiotropy.directional(0.05, 0.02))
        whole = simulate_replicate(cfg, 1)
        assert isinstance(whole, TripleArrays)
        assert list(whole.snp_ids) == [f"snp{j:02d}" for j in range(1, cfg.p + 1)]
        # 7-row blocks: 214 full blocks and a 2-row remainder per cohort
        monkeypatch.setattr(simulation, "_BLOCK_CELLS", 7 * cfg.p)
        blocked = simulate_replicate(cfg, 1)
        for name in COLUMNS:
            assert_allclose(getattr(blocked, name), getattr(whole, name), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pleiotropy", [Pleiotropy.none(), Pleiotropy.directional(0.05, 0.02)])
    def test_matches_whole_matrix_draw(self, pleiotropy):
        # the blocks draw the same uniforms and normals as whole arrays would
        cfg = small_cfg(pleiotropy=pleiotropy)
        for r in range(3):
            got = simulate_replicate(cfg, r)
            for name, ref in zip(COLUMNS, whole_matrix_replicate(cfg, r)):
                assert_allclose(getattr(got, name), ref, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("maf", [0.3, 0.5])
    def test_constant_genotype_column_raises(self, maf):
        # three individuals leave some of 50 columns constant
        with pytest.raises(DegenerateGenotype):
            simulate_replicate(small_cfg(p=50, n=3, maf=maf), 0)

    def test_memory_bounded_by_block(self):
        # one n x p float64 array here is 153 MiB
        cfg = ScenarioConfig(p=200, n=100_000, pleiotropy=Pleiotropy.directional(0.05, 0.02))
        tracemalloc.start()
        try:
            simulate_replicate(cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_single_contaminated_snp_is_strongest(self):
        cfg = small_cfg(pleiotropy=Pleiotropy.idiosyncratic_single(0.1, 0.02))
        for r in range(3):
            _, truth = simulate_replicate(cfg, r, return_truth=True)
            j = int(np.argmax(truth.gamma_tr))
            assert truth.alpha_star[j] == 0.1
            assert np.count_nonzero(truth.alpha_star) == 1

    def test_five_contaminated_snps(self):
        cfg = small_cfg(pleiotropy=Pleiotropy.idiosyncratic_multi(0.1, 0.02, 5))
        _, truth = simulate_replicate(cfg, 0, return_truth=True)
        assert np.count_nonzero(truth.alpha_star) == 5
        assert set(np.unique(truth.alpha_star)) == {0.0, 0.1}

    def test_directional_mean_shift(self):
        cfg = small_cfg(p=400, pleiotropy=Pleiotropy.directional(0.05, 0.02))
        _, truth = simulate_replicate(cfg, 1, return_truth=True)
        assert abs(truth.alpha.mean() - 0.05) < 4 * 0.02 / math.sqrt(400)

    def test_estimates_unbiased_for_truth(self):
        # averaged over replicates, the summary statistics recover the
        # replicate-specific true associations
        cfg = small_cfg(p=15, n=2000, n_replicates=300)
        devs, ses = [], []
        for r in range(300):
            triples, truth = simulate_replicate(cfg, r, return_truth=True)
            g_hat = np.array([t.gamma_tr for t in triples])
            devs.append(g_hat - truth.gamma_tr)
            ses.append(np.array([t.se_gamma_tr for t in triples]))
        mean_dev = np.mean(devs, axis=0)
        mc_se = np.mean(ses, axis=0) / math.sqrt(300)
        assert np.all(np.abs(mean_dev) <= 3 * mc_se)

    def test_outcome_marginals_match_population_identity(self):
        # without pleiotropy the outcome association is beta0 times the
        # outcome-cohort exposure association, SNP by SNP
        cfg = small_cfg(p=25, n=20_000, seed=5)
        triples, truth = simulate_replicate(cfg, 0, return_truth=True)
        cap = np.array([t.capgamma_ou for t in triples])
        se_cap = np.array([t.se_capgamma_ou for t in triples])
        assert np.all(np.abs(cap - cfg.beta0 * truth.gamma_ou) <= 4.5 * se_cap)

    def test_gamma_ou_applies_g(self):
        cfg = small_cfg(g=GFunction.affine(0.1, 0.5))
        _, truth = simulate_replicate(cfg, 0, return_truth=True)
        assert_allclose(truth.gamma_ou, (truth.gamma_tr + 0.1) / 2)


class TestRunScenario:
    def test_reproducible_and_thread_invariant(self, monkeypatch):
        cfg = small_cfg(n_replicates=6)
        boot = BootstrapConfig(n_boot=40, seed=17)
        methods = [Method.MR_WALD, Method.DIVW]
        monkeypatch.setenv("MR_HETERO_THREADS", "1")
        assert thread_count() == 1
        s1 = run_scenario(cfg, methods, boot)
        monkeypatch.setenv("MR_HETERO_THREADS", "3")
        assert thread_count() == 3
        s2 = run_scenario(cfg, methods, boot)
        assert s1 == s2

    def test_metric_relations(self):
        cfg = small_cfg(n_replicates=8)
        summary = run_scenario(cfg, [Method.MR_WALD], BootstrapConfig(n_boot=40, seed=3))
        perf = summary.methods["MrWald"]
        assert perf.rmse_pct >= abs(perf.bias_pct)
        assert 0.0 <= perf.coverage_pct <= 100.0
        assert perf.n_replicates_used + perf.n_failed == cfg.n_replicates

    def test_method_failures_are_counted_not_raised(self):
        # two SNPs cannot support the intercept fits, so MrWaldD fails in
        # every replicate while MrWald still reports
        cfg = small_cfg(p=2, n_replicates=3)
        summary = run_scenario(cfg, [Method.MR_WALD, Method.MR_WALD_D],
                               BootstrapConfig(n_boot=20, seed=1))
        assert summary.methods["MrWaldD"].n_failed == 3
        assert math.isnan(summary.methods["MrWaldD"].bias_pct)
        assert summary.methods["MrWald"].n_failed == 0

    def test_method_order_deduplicated(self):
        cfg = small_cfg(n_replicates=2)
        summary = run_scenario(cfg, [Method.DIVW, Method.MR_WALD, Method.DIVW],
                               BootstrapConfig(n_boot=20, seed=1))
        assert list(summary.methods) == ["Divw", "MrWald"]

    def test_rmse_shrinks_with_scale(self):
        # consistency: growing both the panel and the cohorts shrinks the
        # ratio estimator's Monte-Carlo RMSE
        def error(cfg, r):
            return estimate(Method.MR_WALD, simulate_replicate(cfg, r)).beta - cfg.beta0

        rmses = []
        # The replicates are independent streams; map keeps them in order.
        with ThreadPoolExecutor(max_workers=thread_count()) as pool:
            for p, n in ((100, 5_000), (200, 10_000), (400, 20_000)):
                cfg = ScenarioConfig(p=p, n=n, n_replicates=300, seed=31)
                errs = list(pool.map(partial(error, cfg), range(cfg.n_replicates)))
                rmses.append(float(np.sqrt(np.mean(np.square(errs)))))
        assert rmses[0] > rmses[1] > rmses[2]


class TestThreadCount:
    def test_env_above_the_maximum_rejected(self, monkeypatch):
        monkeypatch.setenv("MR_HETERO_THREADS", str(simulation.MAX_THREADS))
        assert thread_count() == simulation.MAX_THREADS == 256
        monkeypatch.setenv("MR_HETERO_THREADS", "1000000")
        with pytest.raises(ValueError, match="MR_HETERO_THREADS must be at most 256, got '1000000'"):
            thread_count()

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MR_HETERO_THREADS", "7")
        assert thread_count() == 7
        monkeypatch.setenv("MR_HETERO_THREADS", "junk")
        with pytest.raises(ValueError):
            thread_count()
        monkeypatch.delenv("MR_HETERO_THREADS")
        assert thread_count() >= 1
