import importlib
import math
import time
import warnings

import numpy as np
import pytest

from mrhetero import (
    BootstrapConfig,
    CiKind,
    DegenerateInput,
    GFunction,
    Method,
    Pleiotropy,
    ScenarioConfig,
    TooManyFailures,
    VanishingDenominator,
    bootstrap,
    estimate_many,
    simulate_replicate,
)
from mrhetero import estimators
from mrhetero.bootstrap import MAX_N_BOOT, _evaluate_copy, _json_float, bootstrap_chunks, stream_seed, z_quantile
from mrhetero.estimators import point_estimator
from mrhetero.summary_data import TripleArrays, as_triple_arrays

from conftest import influence_se, random_triples


def replay_resample_indices(seed, b, p):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
    return rng.integers(0, p, size=p)


class TestBootstrap:
    def test_constant_estimator(self, rng):
        t, _, _ = random_triples(rng, 10)
        res = bootstrap(lambda tr: 3.25, t, BootstrapConfig(n_boot=100, seed=1))
        assert res.se == 0.0
        assert (res.ci_low, res.ci_high) == (3.25, 3.25)
        assert res.n_failed == 0

    def test_bit_identical_across_calls(self, rng):
        t, _, _ = random_triples(rng, 30, noise=0.05)

        def est(tr):
            a = as_triple_arrays(tr)
            return float(np.mean(a.capgamma_ou / a.gamma_tr))

        cfg = BootstrapConfig(n_boot=300, seed=42)
        r1 = bootstrap(est, t, cfg)
        r2 = bootstrap(est, t, cfg)
        assert r1 == r2

    def test_mean_estimator_matches_analytic_se(self, rng):
        p = 200
        values = rng.standard_normal(p) * 0.7 + 0.2
        t, _, _ = random_triples(rng, p)
        arrays = as_triple_arrays(t)
        arrays.gamma_tr[:] = values

        def mean_gamma(tr):
            return float(np.mean(as_triple_arrays(tr).gamma_tr))

        res = bootstrap(mean_gamma, arrays, BootstrapConfig(n_boot=2000, seed=11))
        analytic = values.std(ddof=1) / np.sqrt(p)
        assert abs(res.se - analytic) / analytic < 0.15

    def test_failures_counted_and_excluded(self, rng):
        t, _, _ = random_triples(rng, 8)
        arrays = as_triple_arrays(t)
        poison = arrays.snp_ids[0]

        def fragile(tr):
            a = as_triple_arrays(tr)
            # a resample that misses the first SNP fails (~35% of draws)
            if poison not in set(a.snp_ids):
                raise VanishingDenominator("poisoned resample")
            return float(a.gamma_tr.mean())

        cfg = BootstrapConfig(n_boot=200, seed=9)
        expected_failures = sum(
            poison not in set(arrays.take(replay_resample_indices(9, b, 8)).snp_ids)
            for b in range(200)
        )
        assert 0 < expected_failures <= 100
        res = bootstrap(fragile, t, cfg, point=0.0)
        assert res.n_failed == expected_failures

    def test_too_many_failures(self, rng):
        t, _, _ = random_triples(rng, 5)

        def always_fails(tr):
            raise VanishingDenominator("no luck")

        with pytest.raises(TooManyFailures) as raised:
            bootstrap(always_fails, t, BootstrapConfig(n_boot=50, seed=2), point=0.0)
        assert raised.value.details == {"n_failed": 50, "n_boot": 50}

    def test_needs_two_snps(self, rng):
        t, _, _ = random_triples(rng, 1)
        with pytest.raises(DegenerateInput):
            bootstrap(lambda tr: 0.0, t, BootstrapConfig(n_boot=10, seed=0))

    def test_percentile_ci_within_replicate_range(self, rng):
        t, _, _ = random_triples(rng, 20, noise=0.1)
        arrays = as_triple_arrays(t)

        def est(tr):
            a = as_triple_arrays(tr)
            return float(np.mean(a.capgamma_ou / a.gamma_tr))

        cfg = BootstrapConfig(n_boot=400, seed=3, ci_kind=CiKind.PERCENTILE)
        res = bootstrap(est, t, cfg)
        replayed = np.array([
            est(arrays.take(replay_resample_indices(3, b, 20))) for b in range(400)
        ])
        assert replayed.min() <= res.ci_low <= res.ci_high <= replayed.max()
        # reduction happens on the replicate-indexed vector: se must match
        # a sequential replay exactly
        assert res.se == replayed.std(ddof=1)

    def test_normal_ci_centered_on_full_sample_estimate(self, rng):
        t, _, _ = random_triples(rng, 20, noise=0.1)

        def est(tr):
            a = as_triple_arrays(tr)
            return float(np.mean(a.capgamma_ou / a.gamma_tr))

        point = est(as_triple_arrays(t))
        res = bootstrap(est, t, BootstrapConfig(n_boot=100, seed=8))
        assert (res.ci_low + res.ci_high) / 2 == pytest.approx(point, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(n_boot=1)
        with pytest.raises(ValueError):
            BootstrapConfig(level=1.0)
        with pytest.raises(ValueError):
            BootstrapConfig(seed=-1)

    def test_n_boot_has_a_maximum(self):
        assert BootstrapConfig(n_boot=MAX_N_BOOT).n_boot == MAX_N_BOOT
        with pytest.raises(ValueError, match=f"n_boot must be at most {MAX_N_BOOT}"):
            BootstrapConfig(n_boot=MAX_N_BOOT + 1)

    @pytest.mark.parametrize("key,value,message", [
        ("n_boot", 10.5, "n_boot must be an integer, got 10.5"),
        ("n_boot", True, "n_boot must be an integer, got True"),
        ("n_boot", "100", "n_boot must be an integer, got '100'"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("level", "0.9", "level must be a number, got '0.9'"),
        ("level", True, "level must be a number, got True"),
    ])
    def test_config_values_are_typed(self, key, value, message):
        with pytest.raises(ValueError) as info:
            BootstrapConfig(**{key: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float16(0.5), np.int64(3)])
    def test_numpy_scalars_are_accepted_without_a_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _json_float("x", value) == float(value)

    def test_float32_config_values_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert BootstrapConfig(level=np.float32(0.5)).level == 0.5
            assert ScenarioConfig(beta0=np.float32(0.5)).beta0 == 0.5

    @pytest.mark.parametrize("value", [10**400, -10**400, math.nan, np.float32(math.inf), np.float16(-math.inf)])
    def test_non_finite_numbers_are_rejected_without_a_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                _json_float("x", value)
        assert str(info.value) == f"x must be finite, got {value!r}"

    def test_integral_values_are_stored_as_ints(self):
        cfg = BootstrapConfig(n_boot=100.0, seed=np.uint64(2**64 - 1), level=np.float64(0.5))
        assert (cfg.n_boot, cfg.seed, cfg.level) == (100, 2**64 - 1, 0.5)
        assert [type(v) for v in (cfg.n_boot, cfg.seed, cfg.level)] == [int, int, float]

    def test_each_resample_is_drawn_once(self, rng, monkeypatch):
        # the package re-exports the function under the module's name
        boot_module = importlib.import_module("mrhetero.bootstrap")
        t, _, _ = random_triples(rng, 12, noise=0.05)
        draws = []
        replicate_rng = boot_module._replicate_rng
        monkeypatch.setattr(boot_module, "_replicate_rng",
                            lambda seed, b: draws.append(b) or replicate_rng(seed, b))
        bootstrap(lambda tr: 0.0, t, BootstrapConfig(n_boot=20, seed=1))
        assert draws == list(range(20))


def copy_evaluator(estimators, arrays):
    """A chunk evaluator calling each of ``estimators`` on each copied resample."""
    def evaluate(indices):
        values = np.zeros((len(estimators), len(indices)))
        ok = np.zeros(values.shape, dtype=bool)
        for r, row in enumerate(indices):
            sample = arrays.take(row)
            for k, estimator in enumerate(estimators):
                values[k, r], ok[k, r] = _evaluate_copy(estimator, sample)
        return values, ok

    return evaluate


class TestBootstrapChunks:
    @pytest.mark.parametrize("workers", [1, 2, 3, 64])
    def test_threads_give_the_same_results(self, rng, workers):
        t, _, _ = random_triples(rng, 8, noise=0.05)
        arrays = as_triple_arrays(t)
        poison = arrays.snp_ids[0]

        def fragile(tr):
            a = as_triple_arrays(tr)
            if poison not in set(a.snp_ids):
                raise VanishingDenominator("poisoned resample")
            return float(a.gamma_tr.mean())

        def always_fails(tr):
            raise VanishingDenominator("no luck")

        def ratio(tr):
            a = as_triple_arrays(tr)
            return float(np.mean(a.capgamma_ou / a.gamma_tr))

        for ci_kind in CiKind:
            cfg = BootstrapConfig(n_boot=250, seed=9, ci_kind=ci_kind)
            evaluate = copy_evaluator([fragile, always_fails, ratio], arrays)
            threaded = bootstrap_chunks(evaluate, len(arrays), cfg, [0.0] * 3, workers)
            alone = [bootstrap(est, t, cfg, point=0.0) for est in (fragile, ratio)]
            assert 0 < alone[0].n_failed < 250
            assert threaded[0::2] == alone
            assert isinstance(threaded[1], TooManyFailures)
            assert threaded[1].details == {"n_failed": 250, "n_boot": 250}

    def test_threads_raise_the_lowest_replicates_error(self, rng):
        t, _, _ = random_triples(rng, 8)
        arrays = as_triple_arrays(t)
        # two replicates in different chunks raise; the first must win
        bad = {b: tuple(arrays.take(replay_resample_indices(9, b, 8)).snp_ids) for b in (45, 130)}

        def strict(tr):
            ids = tuple(as_triple_arrays(tr).snp_ids)
            if ids == bad[45]:
                time.sleep(0.2)  # the later replicate's error is raised first
            if ids in bad.values():
                raise RuntimeError(ids)
            return 0.0

        cfg = BootstrapConfig(n_boot=200, seed=9)
        for workers in (1, 3):
            with pytest.raises(RuntimeError) as raised:
                bootstrap_chunks(copy_evaluator([strict], arrays), len(arrays), cfg, [0.0], workers)
            assert raised.value.args == (bad[45],)


class TestInfluenceOracle:
    """The counted bootstrap's SE against the infinitesimal jackknife (``influence_se``).

    The bound is fixed before any run. From B replicates of a nearly normal
    value, the sample SE has a relative SD of 1/sqrt(2B); four of them make
    a false alarm among four methods rarer than 3e-4. The bootstrap's own SE
    differs from the first-order one by second-order Taylor terms, O(1/p):
    for a denominator whose influence z-score is z, 1/(1 + d) with
    d ~ N(0, 1/z^2) has variance 1/z^2 (1 + 8/z^2), so an SE about 4/z^2
    above its linear part. A method has at most three denominators (two
    sums of squares and the exposure slope), and each z^2 grows as p, so
    12/z^2 of the weakest is allowed. Drawing p // 2 indices per resample
    would read about sqrt(2).
    """

    SMOOTH = [Method.MR_WALD, Method.MR_WALD_D, Method.IVW, Method.EGGER]

    def assert_matches_influence_se(self, a, n_boot):
        boot = BootstrapConfig(n_boot=n_boot, seed=5)
        for m, e in zip(self.SMOOTH, estimate_many(self.SMOOTH, a, boot)):
            se, z = influence_se(m, a)
            assert z >= 10.0, m  # every denominator strong: the allowance is at most 0.12
            assert abs(e.se / se - 1.0) <= 4.0 / math.sqrt(2 * n_boot) + 12.0 / z**2, m

    @staticmethod
    def bench_style_panel():
        # The benchmark's panel at p=10k: treatment betas in [0.05, 0.1]
        # under the shift map, ses in [0.009, 0.014].
        p = 10_000
        rng = np.random.default_rng(2)
        x = rng.uniform(0.05, 0.10, p)
        ses = rng.uniform(0.009, 0.014, (p, 3))
        b = np.column_stack([x, (x + 0.1) / 2.0, 0.15 * (x + 0.1)]) + ses * rng.standard_normal((p, 3))
        return TripleArrays.checked([f"rs{j}" for j in range(p)], b[:, 0], ses[:, 0], b[:, 1], ses[:, 1],
                                    b[:, 2], ses[:, 2])

    def test_bench_style_panel(self):
        self.assert_matches_influence_se(self.bench_style_panel(), 1000)

    def test_bench_style_panel_calls_no_point_estimator(self, monkeypatch):
        # Every resample of every method resolves from its counts, so a
        # narrower median window or a stricter deferral fails here rather
        # than only slowing the bootstrap.
        calls = []
        monkeypatch.setattr(estimators, "point_estimator", lambda m: calls.append(m) or point_estimator(m))
        out = estimate_many(list(Method), self.bench_style_panel(), BootstrapConfig(n_boot=1000, seed=5))
        assert all(e.se > 0.0 for e in out)
        assert calls == []

    def test_criterion_4_replicate(self):
        # Criterion 4's config at n=100k. At n=10k MrWaldD's denominator is
        # weak and its bootstrap is heavy-tailed, so that config is left out.
        cfg = ScenarioConfig(p=200, n=100_000, n_replicates=1, seed=104, g=GFunction.identity(),
                             pleiotropy=Pleiotropy.directional(0.05, 0.02))
        self.assert_matches_influence_se(simulate_replicate(cfg, 0), 2000)


class TestStreamSeed:
    def test_deterministic_and_distinct(self):
        a = stream_seed(123, 0)
        assert a == stream_seed(123, 0)
        assert a != stream_seed(123, 1)
        assert stream_seed(123, 0, domain=1) != a


class TestZQuantile:
    @pytest.mark.parametrize(
        "level", [0.8, 0.9, 0.95, 0.99] + [1.0 - 10.0**-k for k in range(1, 16)])
    def test_matches_scipy_ndtri(self, level):
        from scipy.special import ndtri

        assert z_quantile(level) == pytest.approx(float(ndtri(0.5 * (1.0 + level))), rel=1e-14)

    def test_level_just_below_one_gives_infinity(self):
        # 0.5 * (1 + level) rounds to 1.0 here, whose normal quantile is +inf
        assert z_quantile(math.nextafter(1.0, 0.0)) == math.inf
