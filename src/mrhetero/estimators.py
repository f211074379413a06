"""Causal-effect estimators built from the regression kernels.

The three ratio-of-slopes estimators share one design: fit the
outcome-cohort exposure associations on the treatment-cohort ones, fit the
outcome associations on the same regressor, and take the ratio. The
single-sample biases of the two fits cancel in the ratio, which is what
makes the construction robust to cross-cohort differences in the SNP
effects. Baseline estimators from the MR literature are provided under the
same interface for comparison.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .bootstrap import BootstrapConfig, _evaluate_copy, bootstrap_chunks, normal_ci, resample_counts
from .errors import DataError, VanishingDenominator
from .kernels import WeightedPairs
from .summary_data import TripleArrays, as_triple_arrays

# Not called here: the benchmark's traced run (bench/spans.py) wraps this
# name on this module by attribute.
from .bootstrap import bootstrap  # noqa: F401


class Method(str, enum.Enum):
    MR_WALD = "MrWald"
    MR_WALD_R = "MrWaldR"
    MR_WALD_D = "MrWaldD"
    IVW = "Ivw"
    DIVW = "Divw"
    EGGER = "Egger"
    WEIGHTED_MEDIAN = "WeightedMedian"


@dataclass(frozen=True)
class MrEstimate:
    """One method's causal-effect estimate with optional inference."""

    method: Method
    beta: float
    n_snps: int
    se: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    level: float = 0.95
    auxiliary: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must be strictly between 0 and 1")

    def to_json_dict(self) -> dict:
        ci = None
        if self.ci_low is not None and self.ci_high is not None:
            ci = [self.ci_low, self.ci_high]
        return {
            "method": self.method.value,
            "beta": self.beta,
            "se": self.se,
            "ci": ci,
            "level": self.level,
            "n_snps": self.n_snps,
            "auxiliary": dict(self.auxiliary),
        }


def _ratio_guard(numerator: float, denominator: float, a: TripleArrays, what: str) -> float:
    scale = float(np.max(np.abs(a.gamma_ou))) / float(np.max(np.abs(a.gamma_tr)))
    # A slope of gamma_ou on gamma_tr is naturally of size max|gamma_ou| / max|gamma_tr|.
    if kernels._vanishes(denominator, scale):
        raise VanishingDenominator(
            f"{what}: exposure-on-exposure slope is indistinguishable from zero",
            value=denominator,
        )
    return numerator / denominator


def _scale_bound(counts: np.ndarray, a: TripleArrays) -> np.ndarray:
    """At least each resample's ``_ratio_guard`` scale, since its max |gamma_tr| is at least its draws' RMS."""
    top = np.max(np.abs(a.gamma_tr))  # no scaled square overflows or underflows; an all-zero row gets inf
    return np.max(np.abs(a.gamma_ou)) / top / np.sqrt(np.dot(counts, (a.gamma_tr / top) ** 2) / len(a))


def _outcome_fit(a: TripleArrays) -> WeightedPairs:
    """``capgamma_ou`` on ``gamma_tr`` with inverse-variance weights."""
    return WeightedPairs(a.gamma_tr, a.capgamma_ou, a.se_capgamma_ou**-2)


def _exposure_fit(a: TripleArrays) -> WeightedPairs:
    """``gamma_ou`` on ``gamma_tr`` with inverse-variance weights."""
    return WeightedPairs(a.gamma_tr, a.gamma_ou, a.se_gamma_ou**-2)


# Both MrWaldR fits must use the same absolute-error loss: mixing losses
# between the two regressions biases the ratio even without contamination.
def _l1_exposure_fit(a: TripleArrays) -> WeightedPairs:
    return WeightedPairs(a.gamma_tr, a.gamma_ou, float(a.se_capgamma_ou.min()) / a.se_capgamma_ou)


def _l1_outcome_fit(a: TripleArrays) -> WeightedPairs:
    return WeightedPairs(a.gamma_tr, a.capgamma_ou, float(a.se_gamma_ou.min()) / a.se_gamma_ou)


# Each bootstrapped method as its numerator fit and, for a ratio method, its
# denominator fit (``None`` otherwise). A fit is the name of its point kernel
# on ``kernels``, whose counted form is the ``counted_`` namesake, and the
# function building its problem from the panel. Kernels are looked up by
# name when called: the benchmark's traced run (bench/spans.py) wraps the
# point kernels on ``kernels`` by attribute. Divw is not bootstrapped: it
# reports its analytic variance.
_FITS = {
    Method.MR_WALD: (("wls_origin", _outcome_fit), ("wls_origin", _exposure_fit)),
    Method.MR_WALD_R: (("l1_origin", _l1_outcome_fit), ("l1_origin", _l1_exposure_fit)),
    Method.MR_WALD_D: (("wls_intercept", _outcome_fit), ("wls_intercept", _exposure_fit)),
    Method.IVW: (("wls_origin", _outcome_fit), None),
    Method.EGGER: (("wls_intercept", _outcome_fit), None),
    Method.WEIGHTED_MEDIAN: (("weighted_median_ratio", as_triple_arrays), None),
}


def _fit_point(fit, a: TripleArrays) -> tuple[float, float | None]:
    """The fit's slope on the panel and its intercept (``None`` without one)."""
    kernel, build = fit
    out = getattr(kernels, kernel)(build(a))
    return out if isinstance(out, tuple) else (out, None)


def _point(method: Method, a: TripleArrays) -> tuple[float, dict]:
    """``method``'s point estimate on the panel and its auxiliary values."""
    if method is Method.DIVW:
        beta = kernels.divw(a)
        return beta, {"analytic_variance": kernels.divw_variance(a, beta)}
    num_fit, den_fit = _FITS[method]
    num, num_int = _fit_point(num_fit, a)
    if den_fit is None:
        return num, ({} if num_int is None else {"intercept": num_int})
    den, den_int = _fit_point(den_fit, a)
    aux = {"numerator_slope": num, "denominator_slope": den}
    if num_int is not None:
        aux.update(numerator_intercept=num_int, denominator_intercept=den_int)
    return _ratio_guard(num, den, a, method.value), aux


def _counted_evaluator(methods, a: TripleArrays):
    """Chunk evaluator of ``methods`` for :func:`~mrhetero.bootstrap.bootstrap_chunks`.

    Evaluates every method on a chunk of resamples from their SNP counts,
    with the per-panel terms of each fit computed once here. The count forms
    decide no guard: every row they resolve lies clear of every guard, and
    its value agrees with the method's point estimator on that resample to
    rounding. Every other row is computed by the point estimator on the
    resample, which decides its guards, so the failures are those of the
    point estimator in the same replicates. Such rows are a design at or
    near its guard, a median holding no weight or whose crossing or
    neighbours fall outside its window, and a ratio whose slope is at most
    1e-3 times :func:`_scale_bound`. On the bench-style 10,000-SNP panel
    no row goes to the point estimator, and a test pins that.

    Every fit of ``_FITS`` that builds on the panel has its terms in one
    ``p x K`` matrix, in table order, and a chunk takes one product with it;
    only the fits ``methods`` use are reduced. K is 22 when all seven fits
    build. A fit that does not build, such as the inverse-variance outcome
    fit when every ``se_capgamma_ou**-2`` underflows to 0, is left out: a
    method using it has already failed its point estimate, and the others
    run as before. A product column's rounding depends on the other
    columns, so the layout is fixed by the panel, not by ``methods``, and
    each method's values equal those of its one-method call. So a call with
    few methods also builds, once per panel, the fits it does not reduce:
    with MrWald alone at 200 SNPs that is 2-4% of its bootstrap, while the
    default MrWald and MrWaldR at 10,000 SNPs run faster than with one
    product per fit (``BENCH_analyze_large_p.json``).
    """
    built = {}
    # Only the point estimates warn: a fit that no method uses must not.
    with np.errstate(all="ignore"):
        for kernel, build in dict.fromkeys(f for fits in _FITS.values() for f in fits if f is not None):
            try:
                built[kernel, build] = getattr(kernels, "counted_" + kernel)(build(a))
            except ValueError:  # a method using the fit has failed its point estimate
                continue
    terms = np.hstack([fit.terms for fit in built.values()])
    ends = np.cumsum([fit.terms.shape[1] for fit in built.values()])
    used = {key for m in methods for key in _FITS[m] if key is not None}
    columns = {key: slice(end - built[key].terms.shape[1], end) for key, end in zip(built, ends) if key in used}

    def evaluate(indices: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore", invalid="ignore"):
            counts = resample_counts(indices, len(a))
            # np.dot, not @: for these shapes matmul holds the GIL and np.dot
            # releases it, so threaded chunks overlap. The two agree bitwise.
            sums = np.dot(counts, terms)
            fits = {key: built[key].reduce(counts, sums[:, c]) for key, c in columns.items()}
            bound = _scale_bound(counts, a)
            rows = []
            for m in methods:
                num, den = _FITS[m]
                beta, resolved = fits[num]
                if den is not None:
                    slope, den_resolved = fits[den]
                    beta = beta / slope
                    # Within a factor 1e9 of the guard the ratio amplifies the rounding of
                    # its denominator past 1e-13 of the value; _ratio_guard decides there.
                    resolved = resolved & den_resolved & (abs(slope) > 1e-3 * bound)
                rows.append((beta, resolved))
            values, ok = (np.array(x) for x in zip(*rows))
        for k, r in zip(*np.nonzero(~ok)):
            values[k, r], ok[k, r] = _evaluate_copy(point_estimator(methods[k]), a.take(indices[r]))
        return values, ok

    return evaluate


def point_estimator(method: Method):
    """Plain callable ``triples -> beta`` for the given method (bootstrap-ready)."""
    method = Method(method)

    def call(triples) -> float:
        return _point(method, as_triple_arrays(triples))[0]

    return call


def estimate(method: Method, triples, boot: BootstrapConfig | None = None) -> MrEstimate:
    """Point estimate with a confidence interval.

    All methods take bootstrap-over-SNPs intervals except the debiased IVW,
    which ships its own plug-in asymptotic variance and is reported with the
    matching normal interval (the variance the method is known by).
    """
    (result,) = estimate_many([method], triples, boot)
    if isinstance(result, DataError):
        raise result
    return result


def estimate_many(methods, triples, boot: BootstrapConfig | None = None, workers: int = 1) -> list:
    """:func:`estimate` for several methods, bootstrapped on shared resamples.

    Every bootstrapped method reads the same resample of each replicate
    (:func:`~mrhetero.bootstrap.bootstrap_chunks`, on ``workers`` threads),
    evaluated from its SNP counts, so each result equals the one-method call. Returns, in method order, each
    :class:`MrEstimate` or the :class:`~mrhetero.errors.DataError` that
    :func:`estimate` alone would raise for it: the point estimate's error
    first, then the bootstrap's. Errors of any other type propagate.
    """
    methods = [Method(m) for m in methods]
    a = as_triple_arrays(triples)
    out: list = []
    for method in methods:
        try:
            beta, aux = _point(method, a)
        except DataError as exc:
            out.append(exc)
            continue
        e = MrEstimate(method=method, beta=beta, n_snps=len(a), auxiliary=aux)
        if boot is not None and method is Method.DIVW:
            se = math.sqrt(aux["analytic_variance"])
            e = _with_interval(e, se, *normal_ci(beta, se, boot.level), boot.level)
        out.append(e)
    if boot is None:
        return out

    booted = [k for k, e in enumerate(out) if isinstance(e, MrEstimate) and e.method in _FITS]
    if not booted:
        return out
    try:
        results = bootstrap_chunks(
            _counted_evaluator([out[k].method for k in booted], a), len(a), boot,
            [out[k].beta for k in booted], workers,
        )
    except DataError as exc:
        results = [exc] * len(booted)
    for k, res in zip(booted, results):
        if isinstance(res, DataError):
            out[k] = res
        else:
            out[k] = _with_interval(out[k], res.se, res.ci_low, res.ci_high, boot.level,
                                    bootstrap_failed=float(res.n_failed))
    return out


def _with_interval(e: MrEstimate, se, lo, hi, level, **aux) -> MrEstimate:
    return replace(e, se=se, ci_low=lo, ci_high=hi, level=level, auxiliary={**e.auxiliary, **aux})


def mr_wald(triples) -> MrEstimate:
    """Ratio of the two inverse-variance weighted origin slopes."""
    return estimate(Method.MR_WALD, triples)


def mr_wald_r(triples) -> MrEstimate:
    """Ratio of the two weighted absolute-error origin slopes."""
    return estimate(Method.MR_WALD_R, triples)


def mr_wald_d(triples) -> MrEstimate:
    """Ratio of the two intercept-adjusted weighted slopes.

    The intercepts absorb a common directional (nonzero-mean) pleiotropic
    shift; both are reported in ``auxiliary``.
    """
    return estimate(Method.MR_WALD_D, triples)
