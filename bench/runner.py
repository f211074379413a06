"""Runs the measured passes in a fresh interpreter.

Usage: ``python3 bench/runner.py JOB_JSON``, where the job holds ``src``
(the directory ``mrhetero`` is imported from) and optionally ``argv``,
``seconds``, ``trace``, ``stdout_path`` and ``spans_path``.

The runner times ``import mrhetero.cli``. Given ``argv``, it then runs a
warm-up pass, whose stdout it writes to ``stdout_path`` for the oracle
checks, and passes of ``mrhetero.cli.main(argv)`` until ``seconds`` have
elapsed: untraced ones, or with ``trace`` untraced and traced ones in turn.
It prints one JSON object: ``import_s``, ``maxrss_kb`` (the peak resident
set of this process), ``passes`` (label, wall time, exit code, exception,
and whether stdout equals the warm-up's) and, traced, ``layers`` (the
per-layer metrics of each traced pass).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_pass(main, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """One in-process CLI call: (wall seconds, exit code, stdout, exception name)."""
    buf = io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception as exc:  # a crash is a failed pass, counted in error_rate
        error = type(exc).__name__
    return time.perf_counter() - t0, code, buf.getvalue(), error


def run_job(job: dict) -> dict:
    src = job["src"]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import mrhetero.cli

    result: dict = {"import_s": time.perf_counter() - t0, "passes": []}
    if not mrhetero.cli.__file__.startswith(src):
        raise SystemExit(f"mrhetero imported from {mrhetero.cli.__file__}, not {src}")
    main, argv = mrhetero.cli.main, job.get("argv")
    if argv is not None:
        reference = None

        def record(label: str, outcome, **extra) -> None:
            wall, code, out, error = outcome
            result["passes"].append({"label": label, "wall_s": wall, "exit_code": code, "error": error,
                                     "same": out == reference, **extra})

        outcome = run_pass(main, argv)
        reference = outcome[2]
        with open(job["stdout_path"], "w", encoding="utf-8") as fh:
            fh.write(reference)
        record("warm-up", outcome)
        if job["trace"]:
            _traced_passes(job, main, argv, record, result)
        else:
            deadline = time.perf_counter() + job["seconds"]
            while len(result["passes"]) < 2 or time.perf_counter() < deadline:
                record("timed", run_pass(main, argv))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def _traced_passes(job: dict, main, argv: list[str], record, result: dict) -> None:
    import spans

    rec = spans.Recorder()
    result["layers"] = []
    deadline = time.perf_counter() + job["seconds"]
    while not result["layers"] or time.perf_counter() < deadline:
        record("untraced", run_pass(main, argv))
        rec.new_trace()
        with spans.instrumented(rec):
            outcome = run_pass(rec.wrap("cli.main", main), argv)
        layer = spans.layer_metrics(rec, outcome[0])
        record("traced", outcome, closure_error_s=spans.closure_error(layer))
        result["layers"].append(layer)
    rec.dump(job["spans_path"])


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))
