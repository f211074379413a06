"""The traced benchmark (``bench/spans.py``) patches package names by attribute.

Entering its instrumentation raises ``AttributeError`` if any name it wraps,
such as ``cli.estimate`` or ``simulation.marginal_regressions``, is no
longer bound where it looks, and exiting must restore every original.
"""

import importlib
from pathlib import Path

from mrhetero import cli, estimators, kernels, simulation

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
