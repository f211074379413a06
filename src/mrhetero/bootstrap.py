"""Nonparametric bootstrap over SNPs.

The SNP triple is the resampling unit, which preserves the within-SNP
dependence between the outcome-cohort statistics. Replicate ``b`` draws its
resample indices from an independent child stream of the configured seed,
so results do not depend on execution order or thread count. Each resample
is drawn once and shared by every estimator bootstrapped together.

Replicates are drawn and evaluated in fixed chunks. An arbitrary estimator
is called on each resample's rows (:func:`bootstrap_many`); the built-in
methods are evaluated on a whole chunk from the resamples' SNP counts
(:func:`bootstrap_chunks` with :func:`resample_counts`).
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateDesign, DegenerateInput, TooManyFailures, VanishingDenominator
from .summary_data import as_triple_arrays

#: Estimator failures that a resample may legitimately trigger; they are
#: counted and excluded rather than aborting the whole call.
_RESAMPLE_FAILURES = (VanishingDenominator, DegenerateDesign)

#: Replicates per chunk: the unit of work of a thread and of a batched
#: evaluator. Small enough that a thread on a slower core takes fewer chunks;
#: results do not depend on it.
_CHUNK = 20


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
        if self.n_boot < 2:
            raise ValueError("n_boot must be at least 2")
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
    """
    arrays = as_triple_arrays(triples)
    if len(arrays) < 2:
        raise DegenerateInput("bootstrap needs at least 2 SNPs")
    if point is None:
        point = float(estimator(arrays))
    (result,) = bootstrap_many([estimator], arrays, cfg, [point])
    if isinstance(result, TooManyFailures):
        raise result
    return result


def bootstrap_many(
    estimators: Sequence[Callable],
    triples,
    cfg: BootstrapConfig,
    points: Sequence[float],
    workers: int = 1,
) -> list[BootstrapResult | TooManyFailures]:
    """Bootstrap several estimators on one shared set of resamples.

    Replicate ``b`` draws its indices once and every estimator reads that
    same resample, so each result equals what :func:`bootstrap` gives for
    that estimator alone. ``points`` are the full-sample estimates, in the
    order of ``estimators``. With ``workers > 1`` the replicates are split
    into chunks run on that many threads, so the estimators must be safe to
    call concurrently; the results are the same for any ``workers``.

    Returns, in estimator order, each :class:`BootstrapResult` or the
    :class:`TooManyFailures` that :func:`bootstrap` would raise for it.

    Raises
    ------
    DegenerateInput
        Fewer than 2 SNPs.

    Any other exception an estimator raises propagates: the one from the
    lowest replicate, as in a sequential run.
    """
    arrays = as_triple_arrays(triples)

    def evaluate(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.empty((len(estimators), len(indices)))
        ok = np.zeros(values.shape, dtype=bool)
        for r, row in enumerate(indices):
            sample = arrays.take(row)
            for k, estimator in enumerate(estimators):
                try:
                    values[k, r] = float(estimator(sample))
                except _RESAMPLE_FAILURES:
                    continue
                ok[k, r] = True
        return values, ok

    return bootstrap_chunks(evaluate, len(arrays), cfg, points, workers)


def bootstrap_chunks(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    p: int,
    cfg: BootstrapConfig,
    points: Sequence[float],
    workers: int = 1,
) -> list[BootstrapResult | TooManyFailures]:
    """The resampling loop of :func:`bootstrap_many`, over any chunk evaluator.

    Replicates are drawn in chunks of ``_CHUNK``, each row from its own
    stream, and ``evaluate`` maps a chunk's ``rows x p`` resample indices to
    the values of every estimator on every row and the mask of rows on which
    each succeeded (both ``len(points) x rows``). Chunks run on ``workers``
    threads; their boundaries are fixed, so the results do not depend on
    ``workers``. An exception ``evaluate`` raises propagates from the lowest
    chunk.
    """
    if p < 2:
        raise DegenerateInput("bootstrap needs at least 2 SNPs")
    values = np.empty((len(points), cfg.n_boot))
    ok = np.zeros(values.shape, dtype=bool)

    def run(start: int) -> None:
        stop = min(start + _CHUNK, cfg.n_boot)
        indices = np.empty((stop - start, p), dtype=np.int64)
        for r, b in enumerate(range(start, stop)):
            indices[r] = _replicate_rng(cfg.seed, b).integers(0, p, size=p)
        values[:, start:stop], ok[:, start:stop] = evaluate(indices)

    starts = range(0, cfg.n_boot, _CHUNK)
    if workers <= 1:
        for start in starts:
            run(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run, start) for start in starts]
            try:
                for f in futures:
                    f.result()
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    return [_summarise(v[m], cfg, point) for v, m, point in zip(values, ok, points)]


def resample_counts(indices: np.ndarray, p: int) -> np.ndarray:
    """Copies of each of ``p`` SNPs in each row of resample ``indices``, as floats."""
    counts = np.empty((len(indices), p))
    for r, row in enumerate(indices):
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
    """Two-sided standard-normal critical value for the given level."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must be strictly between 0 and 1")
    return float(ndtri(0.5 * (1.0 + level)))


def normal_ci(point: float, se: float, level: float) -> tuple[float, float]:
    z = z_quantile(level)
    if not math.isfinite(se):
        raise ValueError("standard error must be finite")
    return point - z * se, point + z * se
