"""mrhetero benchmark: one workload per invocation, through ``mrhetero.cli.main``.

Usage, from the repository root::

    python3 bench/run.py --workload sim-cohort-100k --seed 1 --seconds 48 --trace 0

The run generates the workload's inputs from ``--seed``, then runs the
passes in a fresh interpreter (``bench/runner.py``): a warm-up pass, whose
stdout the oracles in ``bench/checks.py`` check, then passes for
``--seconds``, each of which must print the same bytes. ``--trace 0``
reports the end-to-end metrics with tracing off; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics and the tracing
overhead; the result line gives layer times as shares of span time
(``spans.result_metrics``), the report line in seconds.

Before the result, stdout carries one JSON line ``{"report": ...}`` with
every metric and its unit, ``error_rate``, sample counts, any failed check
and the environment record. The last line is the result,
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 when every pass passed its checks, 1 when one failed (the
result is still printed), 2 when the program's sources are missing (nothing
is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # fresh-interpreter imports per run, the measuring one included
RUNNER_TIMEOUT_S = 150
# error_rate is 0 on a correct program, so no bound can be set relative to
# its median; the result carries it as attempted and failed.
REPORT_ONLY = {"error_rate"}


def _pin_threads() -> int:
    """Pin BLAS to one thread and the replicate pool to one thread per core."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["MR_HETERO_THREADS"] = str(nproc)
    return nproc


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "MR_HETERO_THREADS": os.environ["MR_HETERO_THREADS"],
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "mrhetero").glob("*.py"))),
    }


def run_job(**job) -> dict:
    """Run ``bench/runner.py`` on ``job`` and return its report."""
    job["src"] = str(SRC)
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "runner.py"), json.dumps(job)],
                          capture_output=True, text=True, timeout=RUNNER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited {proc.returncode}: {proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def account(passes: list[dict], warm_up_problems: list[str]) -> tuple[int, list[str]]:
    """Failed-pass count and problems.

    A pass fails on a nonzero exit, an exception, stdout that differs from
    the warm-up pass's, or a failed output check of that shared stdout.
    """
    failed, problems = 0, []
    for i, p in enumerate(passes):
        label = f"{p['label']} pass {i}"
        found = []
        if p["error"] is not None or p["exit_code"] != 0:
            found.append(f"{label}: exit code {p['exit_code']}, exception {p['error']}")
        elif not p["same"]:
            found.append(f"{label}: stdout differs from the warm-up pass")
        elif warm_up_problems:
            found.append(f"{label}: output check failed")
        if abs(p.get("closure_error_s", 0.0)) > 1e-6:
            found.append(f"{label}: span self times do not add up, off by {p['closure_error_s']} s")
        failed += bool(found)
        problems += found
    return failed, warm_up_problems + problems


def _timing(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values), "max": max(values)}


def end_to_end(workload, prepared, run: dict, failed: int) -> dict:
    import_s = [run["import_s"]] + [run_job()["import_s"] for _ in range(SETUP_SAMPLES - 1)]
    wall_s = _timing([p["wall_s"] for p in run["passes"][1:]], "s")
    return {
        "wall_s": wall_s,
        "throughput_per_s": {"value": prepared.units / wall_s["value"], "unit": "1/s",
                             "work_unit": workload.unit, "units_per_pass": prepared.units},
        "setup_s": _timing(import_s, "s"),
        "peak_rss_mb": {"value": run["maxrss_kb"] / 1024.0, "unit": "MB"},
        "error_rate": {"value": failed / len(run["passes"]), "unit": "fraction"},
    }


def per_layer(run: dict) -> tuple[dict, dict]:
    """Per-layer metrics for the report and for the result line."""
    import spans

    values = spans.median_metrics(run["layers"])
    values["trace.untraced_wall_s"] = statistics.median(
        p["wall_s"] for p in run["passes"] if p["label"] == "untraced")
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.passes"] = len(run["layers"])

    def with_units(d: dict) -> dict:
        return {name: {"value": v, "unit": spans.unit_of(name)} for name, v in d.items()}

    return with_units(values), with_units(spans.result_metrics(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "mrhetero" / "cli.py").is_file():
        print(f"bench: no program sources at {SRC / 'mrhetero'}", file=sys.stderr)
        return 2
    nproc = _pin_threads()
    sys.path[:0] = [str(SRC)]
    import workloads  # imports numpy, after the thread pins

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        prepared = workload.prepare(args.seed, Path(tmp), args.tiny)
        stdout_path = Path(tmp) / "warm-up.stdout"
        spans_path = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}.spans.jsonl"
        if args.trace:
            spans_path.parent.mkdir(exist_ok=True)
        run = run_job(argv=prepared.argv, seconds=args.seconds, trace=args.trace,
                      stdout_path=str(stdout_path), spans_path=str(spans_path))
        failed, problems = account(run["passes"], prepared.check(stdout_path.read_text(encoding="utf-8")))
        if args.trace:
            metrics, result_metrics = per_layer(run)
        else:
            metrics = end_to_end(workload, prepared, run, failed)
            result_metrics = {k: v for k, v in metrics.items() if k not in REPORT_ONLY}

    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "metrics": metrics,
              "problems": problems, "environment": environment(nproc)}
    if args.trace:
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(run["passes"]),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in result_metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
