"""Seeded Monte-Carlo harness for the estimator benchmark scenarios.

Generates two independent individual-level cohorts per replicate (one for
the treatment GWAS, one for the outcome GWAS), reduces each to marginal
summary statistics block by block, so no cohort's genotype matrix is ever
held whole, and aggregates estimator performance over replicates into
relative bias / RMSE / CI-length / coverage tables.

Replicate ``r`` of a scenario depends only on ``(config.seed, r)``;
replicates may run on any number of threads without changing a single bit
of the output.
"""

from __future__ import annotations

import copy
import inspect
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .bootstrap import BootstrapConfig, _apply_typing, _replicate_rng, stream_seed
from .errors import DataError, DegenerateInput
from .estimators import Method, estimate_many
from .summary_data import TripleArrays, blocked_regressions

# Not called here: the benchmark's traced run (bench/spans.py) wraps these
# names on this module by attribute.
from .estimators import estimate  # noqa: F401
from .summary_data import as_triple_arrays, marginal_regressions  # noqa: F401

THREADS_ENV_VAR = "MR_HETERO_THREADS"

#: Largest accepted ``MR_HETERO_THREADS``; a pool starts up to one thread per task.
MAX_THREADS = 256

#: Genotype cells drawn and reduced per row block: 2 MiB of float64, so a
#: replicate's memory is set by the block rather than by n (about 9 MiB at
#: n=100k and p=200, where the whole matrix took 324 MiB). The drawn values
#: do not depend on it; only the order of summation does.
_BLOCK_CELLS = 2**18

#: Largest accepted ``p``, beyond any instrument set: each thread's bootstrap
#: chunk holds a 20 x ``p`` count matrix, 160 MB at this bound.
MAX_P = 10**6

#: Largest accepted ``n``, beyond any GWAS cohort: a replicate holds several
#: length-``n`` float64 noise vectors, 80 MB each at this bound.
MAX_N = 10**7

#: Largest accepted ``n_replicates``, beyond any Monte-Carlo study: every
#: replicate's task is queued on the thread pool at once, about 2 KB each.
MAX_REPLICATES = 10**5


class _Kinded:
    """JSON form shared by the config classes whose ``kind`` picks their parameters.

    ``_KINDS`` names the kinds; the factory classmethod named after each kind
    takes the parameters its JSON object carries, in order, and holds their
    defaults, so a JSON object may leave out any parameter. ``_KEY`` is the
    scenario config key. A parameter its kind does not take must keep its
    dataclass default.
    """

    @classmethod
    def _params(cls, kind) -> tuple[str, ...]:
        if kind not in cls._KINDS:
            raise ValueError(f"unknown {cls._KEY} kind {kind!r}")
        return tuple(inspect.signature(getattr(cls, kind)).parameters)

    def __post_init__(self):
        taken = self._params(self.kind)
        _apply_typing(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in (*taken, "kind") and value != f.default:
                raise ValueError(f"{self._KEY} kind {self.kind!r} takes no {f.name}, got {value!r}")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, **{k: _json_value(getattr(self, k)) for k in self._params(self.kind)}}

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"{cls._KEY} must be a JSON object, got {d!r}")
        kind = d.get("kind")
        params = {k: v for k, v in d.items() if k != "kind"}
        unknown = set(params) - set(cls._params(kind))
        if unknown:
            raise ValueError(f"unknown {cls._KEY} keys for kind {kind!r}: {sorted(unknown)}")
        return getattr(cls, kind)(**params)


@dataclass(frozen=True)
class GFunction(_Kinded):
    """Map from treatment-cohort to outcome-cohort SNP-exposure effects."""

    kind: str
    shift: float = 0.0
    scale: float = 1.0
    amplitude: float = 0.0
    frequency: float = 0.0
    knots: tuple[tuple[float, float], ...] = ()

    _KEY = "g"
    _KINDS = ("identity", "affine", "sinusoid", "tabulated")

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "tabulated":
            if len(self.knots) < 1:
                raise ValueError("tabulated g needs at least one knot")
            xs = [x for x, _ in self.knots]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError("tabulated knots must be strictly increasing in x")

    @classmethod
    def identity(cls) -> "GFunction":
        return cls(kind="identity")

    @classmethod
    def affine(cls, shift: float, scale: float) -> "GFunction":
        """g(x) = (x + shift) * scale"""
        return cls(kind="affine", shift=shift, scale=scale)

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float) -> "GFunction":
        """g(x) = amplitude * sin(frequency * x)"""
        return cls(kind="sinusoid", amplitude=amplitude, frequency=frequency)

    @classmethod
    def tabulated(cls, knots) -> "GFunction":
        """Piecewise-linear interpolation through ``knots``, clamped at the ends."""
        return cls(kind="tabulated", knots=knots)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x.copy()
        if self.kind == "affine":
            return (x + self.shift) * self.scale
        if self.kind == "sinusoid":
            return self.amplitude * np.sin(self.frequency * x)
        return np.interp(x, *np.array(self.knots).T)


@dataclass(frozen=True)
class Pleiotropy(_Kinded):
    """Distribution of the per-SNP direct effects on the outcome."""

    kind: str
    mu: float = 0.0
    tau0: float = 0.0
    n_contaminated: int = 0

    _KEY = "pleiotropy"
    _KINDS = ("none", "balanced", "idiosyncratic_single", "idiosyncratic_multi", "directional")

    def __post_init__(self):
        super().__post_init__()
        if self.tau0 < 0:
            raise ValueError("tau0 must be nonnegative")
        if self.kind == "idiosyncratic_multi" and self.n_contaminated < 1:
            raise ValueError("idiosyncratic_multi needs n_contaminated >= 1")

    @classmethod
    def none(cls) -> "Pleiotropy":
        return cls(kind="none")

    @classmethod
    def balanced(cls, tau0: float = 0.02) -> "Pleiotropy":
        return cls(kind="balanced", tau0=tau0)

    @classmethod
    def idiosyncratic_single(cls, mu: float = 0.1, tau0: float = 0.02) -> "Pleiotropy":
        """One contaminated SNP: the one with the largest treatment-cohort effect."""
        return cls(kind="idiosyncratic_single", mu=mu, tau0=tau0)

    @classmethod
    def idiosyncratic_multi(cls, mu: float = 0.1, tau0: float = 0.02, n_contaminated: int = 5) -> "Pleiotropy":
        """``n_contaminated`` contaminated SNPs drawn without replacement per replicate."""
        return cls(kind="idiosyncratic_multi", mu=mu, tau0=tau0, n_contaminated=n_contaminated)

    @classmethod
    def directional(cls, mu: float = 0.05, tau0: float = 0.02) -> "Pleiotropy":
        return cls(kind="directional", mu=mu, tau0=tau0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one simulated benchmark scenario."""

    p: int = 200
    n: int = 10_000
    beta0: float = 0.5
    gamma_tr_low: float = 0.05
    gamma_tr_high: float = 0.10
    maf: float = 0.3
    g: GFunction = field(default_factory=GFunction.identity)
    pleiotropy: Pleiotropy = field(default_factory=Pleiotropy.none)
    n_replicates: int = 500
    seed: int = 0

    def __post_init__(self):
        _apply_typing(self)
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.p > MAX_P:
            raise ValueError(f"p must be at most {MAX_P}, got {self.p}")
        if self.n < 3:
            raise ValueError("n must be at least 3 to identify the marginal regressions")
        if self.n > MAX_N:
            raise ValueError(f"n must be at most {MAX_N}, got {self.n}")
        if not (0.0 < self.maf < 1.0):
            raise ValueError("maf must be strictly between 0 and 1")
        if not self.gamma_tr_low < self.gamma_tr_high:
            raise ValueError("gamma_tr_low must be below gamma_tr_high")
        if self.n_replicates < 1:
            raise ValueError("n_replicates must be positive")
        if self.n_replicates > MAX_REPLICATES:
            raise ValueError(f"n_replicates must be at most {MAX_REPLICATES}, got {self.n_replicates}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.pleiotropy.n_contaminated > self.p:
            raise ValueError(
                f"n_contaminated ({self.pleiotropy.n_contaminated}) must not exceed p ({self.p})"
            )

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScenarioConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown scenario config keys: {sorted(unknown)}")
        nested = {"g": GFunction, "pleiotropy": Pleiotropy}
        return cls(**{k: nested[k].from_json_dict(v) if k in nested else v for k, v in d.items()})


def _json_value(v):
    """A config field as JSON: nested configs as objects, knots as [x, y] arrays."""
    if isinstance(v, _Kinded):
        return v.to_json_dict()
    if isinstance(v, tuple):
        return [list(k) for k in v]
    return v


class ReplicateTruth(NamedTuple):
    """Population quantities behind one replicate's summary statistics."""

    gamma_tr: np.ndarray
    gamma_ou: np.ndarray
    alpha_star: np.ndarray
    alpha: np.ndarray


def _allele_streams(rng: np.random.Generator, cells: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Generators for a cohort's two allele draws of ``cells`` uniforms each.

    They start where ``rng`` would draw the first and the second full
    ``n x p`` array, and ``rng`` moves past both, so blocks drawn from them
    are the uniforms that whole-matrix draws would give. This holds because
    ``Generator.random`` takes one 64-bit output of the bit generator per
    float64.
    """
    first, second = copy.deepcopy(rng), copy.deepcopy(rng)
    second.bit_generator.advance(cells)
    rng.bit_generator.advance(2 * cells)
    return first, second


def _draw_genotypes(alleles, maf: float, out: np.ndarray, spare: np.ndarray) -> None:
    """Fill ``out`` with binomial(2, maf) genotypes minus their mean ``2 maf``.

    Additive coding 0/1/2: one allele indicator drawn by inverse CDF from
    each generator of ``alleles`` and summed. The shift keeps the block
    sums nearly centred.
    """
    first, second = alleles
    first.random(out=out)
    second.random(out=spare)
    np.less(out, maf, out=out)
    out += spare < maf
    out -= 2.0 * maf


def _cohort(alleles, maf: float, coef: np.ndarray, noise: np.ndarray):
    """Marginal regressions of the responses ``Z @ coef + noise`` on each SNP.

    Genotypes ``Z`` are drawn row by row into one reused block, and each
    block's responses and sums are formed before the next is drawn.
    """
    n, p = noise.shape[0], coef.shape[0]
    rows = max(1, _BLOCK_CELLS // p)
    block, spare = np.empty((2, min(rows, n), p))

    def blocks():
        for start in range(0, n, rows):
            z = block[: min(rows, n - start)]
            _draw_genotypes(alleles, maf, z, spare[: z.shape[0]])
            yield z, z @ coef + noise[start:start + z.shape[0]]

    return blocked_regressions(blocks())


def _draw_alpha(rng: np.random.Generator, model: Pleiotropy, gamma_tr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = gamma_tr.shape[0]
    star = np.zeros(p)
    if model.kind == "none":
        return star, np.zeros(p)
    if model.kind == "idiosyncratic_single":
        star[int(np.argmax(gamma_tr))] = model.mu
    elif model.kind == "idiosyncratic_multi":
        chosen = rng.choice(p, size=model.n_contaminated, replace=False)
        star[chosen] = model.mu
    elif model.kind == "directional":
        star[:] = model.mu
    return star, rng.normal(star, model.tau0)


def simulate_replicate(
    cfg: ScenarioConfig, r: int, return_truth: bool = False
) -> TripleArrays | tuple[TripleArrays, ReplicateTruth]:
    """Generate replicate ``r`` of a scenario as harmonized summary triples.

    Draw order within the replicate stream is fixed: per-SNP effects, then
    pleiotropic effects, then the treatment cohort, then the outcome cohort;
    within each cohort, two ``n x p`` arrays of allele uniforms, then its
    noise vectors. The same confounder enters both the exposure and the
    outcome of the outcome cohort, and both of that cohort's summary vectors
    come from the same sample, reproducing the dependence the estimators
    must tolerate.
    """
    rng = _replicate_rng(cfg.seed, r)
    gamma_tr = rng.uniform(cfg.gamma_tr_low, cfg.gamma_tr_high, cfg.p)
    gamma_ou = cfg.g(gamma_tr)
    alpha_star, alpha = _draw_alpha(rng, cfg.pleiotropy, gamma_tr)

    # Treatment cohort: exposure only.
    alleles = _allele_streams(rng, cfg.n * cfg.p)
    noise = rng.standard_normal(cfg.n) + rng.standard_normal(cfg.n)
    beta_tr, se_tr = _cohort(alleles, cfg.maf, gamma_tr[:, None], noise[:, None])

    # Outcome cohort: exposure d1 = Z gamma_ou + u + e_d and outcome
    # y1 = beta0 d1 + Z alpha + u + e_y from the same sample, with
    # confounder u.
    alleles = _allele_streams(rng, cfg.n * cfg.p)
    confounder = rng.standard_normal(cfg.n)
    d_noise = confounder + rng.standard_normal(cfg.n)
    y_noise = cfg.beta0 * d_noise + confounder + rng.standard_normal(cfg.n)
    coef = np.column_stack([gamma_ou, cfg.beta0 * gamma_ou + alpha])
    beta_ou, se_ou = _cohort(alleles, cfg.maf, coef, np.column_stack([d_noise, y_noise]))

    width = len(str(cfg.p))
    triples = TripleArrays.checked(
        [f"snp{j + 1:0{width}d}" for j in range(cfg.p)],
        beta_tr[:, 0], se_tr[:, 0], beta_ou[:, 0], se_ou[:, 0], beta_ou[:, 1], se_ou[:, 1],
    )
    if return_truth:
        return triples, ReplicateTruth(gamma_tr, gamma_ou, alpha_star, alpha)
    return triples


@dataclass(frozen=True)
class MethodPerformance:
    """One method's aggregate over the replicates of a scenario."""

    bias_pct: float
    rmse_pct: float
    ci_length_pct: float
    coverage_pct: float
    n_replicates_used: int
    n_failed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScenarioSummary:
    methods: dict[str, MethodPerformance]
    n_replicates: int

    def to_json_dict(self) -> dict:
        return {
            "n_replicates": self.n_replicates,
            "methods": {name: perf.to_json_dict() for name, perf in self.methods.items()},
        }


def thread_count() -> int:
    """Worker count for replicate execution; the env var caps and overrides."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env is None:
        return max(1, min(4, os.cpu_count() or 1))
    try:
        count = int(env)
    except ValueError:
        raise DataError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    if count > MAX_THREADS:
        raise DataError(f"{THREADS_ENV_VAR} must be at most {MAX_THREADS}, got {env!r}")
    return max(1, count)


def _replicate_results(cfg: ScenarioConfig, methods, boot: BootstrapConfig, r: int) -> dict:
    arrays = simulate_replicate(cfg, r)
    # Per-replicate bootstrap stream, derived on a branch of the bootstrap
    # seed disjoint from the data streams.
    boot_r = replace(boot, seed=stream_seed(boot.seed, r, domain=1))
    # Every error estimate_many returns is the method failing on this replicate.
    return {
        m: None if isinstance(est, DataError) else (est.beta, est.ci_low, est.ci_high)
        for m, est in zip(methods, estimate_many(methods, arrays, boot_r))
    }


def run_scenario(
    cfg: ScenarioConfig,
    methods: Sequence[Method],
    boot: BootstrapConfig,
) -> ScenarioSummary:
    """Run all replicates of a scenario and aggregate per-method performance.

    All four reported metrics are relative to the true effect and expressed
    in percent: mean error, root-mean-square error, mean CI length, and the
    share of replicates whose CI covers the truth. Replicates where a method
    fails are excluded for that method and counted.

    Methods are evaluated in the order given (duplicates removed); the
    result is bit-identical for a fixed ``(cfg, boot)`` regardless of thread
    count.
    """
    workers = thread_count()
    methods = list(dict.fromkeys(Method(m) for m in methods))
    if not methods:
        raise DegenerateInput("at least one method required")
    if cfg.n_replicates < 2:
        raise DegenerateInput("at least 2 replicates required")

    # map yields in order and cancels the replicates not yet started when one raises.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda r: _replicate_results(cfg, methods, boot, r), range(cfg.n_replicates)))

    summaries = {}
    for m in methods:
        rows = [res[m] for res in results if res[m] is not None]
        n_failed = cfg.n_replicates - len(rows)
        if not rows:
            summaries[m.value] = MethodPerformance(
                float("nan"), float("nan"), float("nan"), float("nan"), 0, n_failed
            )
            continue
        arr = np.asarray(rows, dtype=float)
        err = arr[:, 0] - cfg.beta0
        covered = (arr[:, 1] <= cfg.beta0) & (cfg.beta0 <= arr[:, 2])
        with np.errstate(divide="ignore", invalid="ignore"):  # inf or NaN at beta0 = 0
            summaries[m.value] = MethodPerformance(
                bias_pct=float(err.mean() / cfg.beta0 * 100.0),
                rmse_pct=float(np.sqrt((err**2).mean()) / cfg.beta0 * 100.0),
                ci_length_pct=float((arr[:, 2] - arr[:, 1]).mean() / cfg.beta0 * 100.0),
                coverage_pct=float(covered.mean() * 100.0),
                n_replicates_used=len(rows),
                n_failed=n_failed,
            )
    return ScenarioSummary(methods=summaries, n_replicates=cfg.n_replicates)
