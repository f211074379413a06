"""The traced benchmark (``bench/spans.py``) patches package names by attribute.

Entering its instrumentation raises ``AttributeError`` if any name it wraps,
such as ``cli.estimate`` or ``simulation.marginal_regressions``, is no
longer bound where it looks, and exiting must restore every original.
"""

import importlib
from pathlib import Path

import numpy as np

from mrhetero import Method, cli, estimators, kernels, simulation

from conftest import random_triples

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_benchmark_binds_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")

    def bound():
        return [cli.estimate, simulation.marginal_regressions, estimators.point_estimator,
                *(getattr(kernels, name) for name in spans.KERNELS)]

    before = bound()
    with spans.instrumented(spans.Recorder()):
        assert cli.estimate is not before[0]
    assert bound() == before


def test_traced_estimate_records_the_kernels_it_calls(monkeypatch):
    # The estimators look their point kernels up on ``kernels`` at each call,
    # so the wrappers bound there see every fit.
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    small_panel, _, _ = random_triples(np.random.default_rng(4), 10, noise=0.02)
    rec = spans.Recorder()
    with spans.instrumented(rec):
        estimators.estimate(Method.MR_WALD_D, small_panel)
    assert [s.name for s in rec.spans].count("kernels.wls_intercept") == 2
