"""Nonparametric bootstrap over SNPs.

The SNP triple is the resampling unit, which preserves the within-SNP
dependence between the outcome-cohort statistics. Replicate ``b`` draws its
resample indices from an independent child stream of the configured seed,
so results do not depend on execution order or thread count. Each resample
is drawn once and shared by every estimator bootstrapped together.

Replicates are drawn and evaluated in fixed chunks (:func:`bootstrap_chunks`).
An arbitrary estimator is called on a copy of each resample's rows
(:func:`bootstrap`); the built-in methods are evaluated on a whole chunk
from the resamples' SNP counts (:func:`resample_counts`).
"""

from __future__ import annotations

import enum
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDesign, DegenerateInput, TooManyFailures, VanishingDenominator
from .summary_data import as_triple_arrays

#: Estimator failures that a resample may legitimately trigger; they are
#: counted and excluded rather than aborting the whole call.
_RESAMPLE_FAILURES = (VanishingDenominator, DegenerateDesign)

#: Replicates per chunk: the unit of work of a thread and of a batched
#: evaluator. Small enough that a thread on a slower core takes fewer chunks;
#: results do not depend on it.
_CHUNK = 20

#: Largest ``n_boot`` a :class:`BootstrapConfig` accepts: its replicate
#: values take 8 MB per bootstrapped method. A larger count would take
#: hours, or fail to allocate, only after the inputs were read.
MAX_N_BOOT = 1_000_000


def _json_int(key: str, v) -> int:
    """An integer, or an integral float; booleans and anything else raise."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return int(v)


def _json_float(key: str, v) -> float:
    """A finite number as a float; booleans, strings and anything else raise."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{key} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{key} must be finite, got {v!r}")
    return x


def _json_knots(key: str, knots) -> tuple[tuple[float, float], ...]:
    """``[x, y]`` pairs, each value under the number rule."""
    try:
        pairs = [(x, y) for x, y in knots]
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a list of [x, y] pairs") from None
    return tuple((_json_float(key, x), _json_float(key, y)) for x, y in pairs)


# Each field's rule, by its annotation (a string under ``from __future__ import annotations``).
_TYPE_RULES = {"int": _json_int, "float": _json_float, "tuple[tuple[float, float], ...]": _json_knots}


def _apply_typing(obj) -> None:
    """Pass every field of the frozen dataclass ``obj`` that has a rule through it."""
    for f in fields(obj):
        rule = _TYPE_RULES.get(f.type)
        if rule is not None:
            object.__setattr__(obj, f.name, rule(f.name, getattr(obj, f.name)))


class CiKind(str, enum.Enum):
    NORMAL_APPROX = "NormalApprox"
    PERCENTILE = "Percentile"


@dataclass(frozen=True)
class BootstrapConfig:
    n_boot: int = 1000
    seed: int = 0
    ci_kind: CiKind = CiKind.NORMAL_APPROX
    level: float = 0.95

    def __post_init__(self):
        _apply_typing(self)
        if self.n_boot < 2:
            raise ValueError("n_boot must be at least 2")
        if self.n_boot > MAX_N_BOOT:
            raise ValueError(f"n_boot must be at most {MAX_N_BOOT}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must be strictly between 0 and 1")
        object.__setattr__(self, "ci_kind", CiKind(self.ci_kind))


class BootstrapResult(NamedTuple):
    se: float
    ci_low: float
    ci_high: float
    n_failed: int


def stream_seed(seed: int, index: int, domain: int = 0) -> int:
    """Derive an independent 64-bit child seed for ``(seed, index, domain)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, domain))
    return int(ss.generate_state(1, np.uint64)[0])


def _replicate_rng(seed: int, b: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))


def bootstrap(
    estimator: Callable,
    triples,
    cfg: BootstrapConfig,
    point: float | None = None,
) -> BootstrapResult:
    """Bootstrap standard error and confidence interval of ``estimator``.

    Parameters
    ----------
    estimator : callable
        Maps a :class:`~mrhetero.summary_data.TripleArrays` to a real number.
    triples : TripleArrays or sequence of HarmonizedTriple
        The full sample; must contain at least 2 SNPs.
    cfg : BootstrapConfig
        Replication count, seed, CI construction, and level.
    point : float, optional
        Precomputed full-sample estimate (used as the center of the
        normal-approximation CI); computed from ``estimator`` when absent.

    Returns
    -------
    BootstrapResult
        Sample standard deviation over successful replicates, CI bounds,
        and the number of excluded (failed) replicates.

    Raises
    ------
    DegenerateInput
        Fewer than 2 SNPs.
    TooManyFailures
        More than half of the replicates failed, or fewer than 2 succeeded.

    Any other exception ``estimator`` raises propagates: the one from the
    lowest replicate.
    """
    arrays = as_triple_arrays(triples)
    if len(arrays) < 2:
        raise DegenerateInput("bootstrap needs at least 2 SNPs")
    if point is None:
        point = float(estimator(arrays))

    def evaluate(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        values, ok = zip(*(_evaluate_copy(estimator, arrays.take(row)) for row in rows))
        return np.array([values]), np.array([ok])

    (result,) = bootstrap_chunks(evaluate, len(arrays), cfg, [point])
    if isinstance(result, TooManyFailures):
        raise result
    return result


def _evaluate_copy(estimator: Callable, sample) -> tuple[float, bool]:
    """``estimator`` on a copied resample, and whether it succeeded."""
    try:
        return float(estimator(sample)), True
    except _RESAMPLE_FAILURES:
        return 0.0, False


def bootstrap_chunks(
    evaluate: Callable[[list[np.ndarray]], tuple[np.ndarray, np.ndarray]],
    p: int,
    cfg: BootstrapConfig,
    points: Sequence[float],
    workers: int = 1,
) -> list[BootstrapResult | TooManyFailures]:
    """The resampling loop of every bootstrap, over any chunk evaluator.

    Replicates are drawn in chunks of ``_CHUNK``, each row from its own
    stream, and ``evaluate`` maps a chunk's rows (the ``p`` resample indices
    each stream returns) to the values of every estimator on every row and
    the mask of rows on which each succeeded (both ``len(points) x
    rows``). Chunks run on ``workers`` threads; their
    boundaries are fixed, so the results do not depend on ``workers``. An
    exception ``evaluate`` raises propagates from the lowest chunk.
    """
    if p < 2:
        raise DegenerateInput("bootstrap needs at least 2 SNPs")
    values = np.empty((len(points), cfg.n_boot))
    ok = np.zeros(values.shape, dtype=bool)

    def run(start: int) -> None:
        stop = min(start + _CHUNK, cfg.n_boot)
        rows = [_replicate_rng(cfg.seed, b).integers(0, p, size=p) for b in range(start, stop)]
        values[:, start:stop], ok[:, start:stop] = evaluate(rows)

    starts = range(0, cfg.n_boot, _CHUNK)
    if workers <= 1:
        for start in starts:
            run(start)
    else:
        # map yields in order and cancels the chunks not yet started when one raises.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
    return [_summarise(v[m], cfg, point) for v, m, point in zip(values, ok, points)]


def resample_counts(rows: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Copies of each of ``p`` SNPs in each of the resample index ``rows``, as floats."""
    counts = np.empty((len(rows), p))
    for r, row in enumerate(rows):
        counts[r] = np.bincount(row, minlength=p)
    return counts


def _summarise(
    kept: np.ndarray, cfg: BootstrapConfig, point: float
) -> BootstrapResult | TooManyFailures:
    """SE and CI from the successful replicate values ``kept``."""
    n_failed = cfg.n_boot - len(kept)
    if n_failed > cfg.n_boot / 2 or len(kept) < 2:
        return TooManyFailures(n_failed, cfg.n_boot)
    se = float(kept.std(ddof=1))
    if cfg.ci_kind is CiKind.NORMAL_APPROX:
        z = z_quantile(cfg.level)
        lo, hi = point - z * se, point + z * se
    else:
        tail = 0.5 * (1.0 - cfg.level)
        lo, hi = (float(q) for q in np.quantile(kept, [tail, 1.0 - tail]))
    return BootstrapResult(se=se, ci_low=lo, ci_high=hi, n_failed=n_failed)


def z_quantile(level: float) -> float:
    """Two-sided standard-normal critical value for a level strictly between 0 and 1."""
    p = 0.5 * (1.0 + level)
    # p rounds to 1.0 for levels within an ulp of 1, where inv_cdf raises.
    return math.inf if p == 1.0 else NormalDist().inv_cdf(p)


def normal_ci(point: float, se: float, level: float) -> tuple[float, float]:
    z = z_quantile(level)
    if not math.isfinite(se):
        raise ValueError("standard error must be finite")
    return point - z * se, point + z * se
