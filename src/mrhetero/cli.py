"""Batch command-line front end.

Three subcommands: ``analyze`` (parse, harmonize, test, estimate),
``het-test`` (the homogeneity test alone), and ``simulate`` (the seeded
benchmark harness). Results go to stdout (or ``--output``) as JSON or TSV;
diagnostics and error records go to stderr. Exit codes: 0 success, 2 data
or usage errors (including input files that cannot be read or decoded), 1
internal errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings

from .bootstrap import BootstrapConfig, CiKind
from .errors import DataError
from .estimators import Method, estimate_many
from .heterogeneity import het_test
from .simulation import GFunction, ScenarioConfig, run_scenario, thread_count
from .summary_data import harmonize, parse_summary_file

# Not called here: the benchmark's traced run (bench/spans.py) wraps this
# name on this module by attribute.
from .estimators import estimate  # noqa: F401

SIG_FIGURES = 6

_METHOD_ALIASES = {
    **{m.value.lower(): m for m in Method},
    **{re.sub(r"(?<!^)(?=[A-Z])", "-", m.value).lower(): m for m in Method},
    "wmedian": Method.WEIGHTED_MEDIAN,
}
_METHODS_HELP = f"comma-separated estimators ({', '.join(m.value for m in Method)})"

# Each scenario's pleiotropy kind, at its factory defaults.
_SCENARIOS = {"i": "none", "ii": "balanced", "iii": "idiosyncratic_single",
              "iv": "idiosyncratic_multi", "v": "directional"}

# The directional scenario is benchmarked at a larger cohort size.
_SCENARIO_DEFAULT_N = {"v": 100_000}


def _parse_methods(raw: str) -> list[Method]:
    methods = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        key = token.lower()
        if key not in _METHOD_ALIASES:
            raise DataError(f"unknown method {token!r}", method=token)
        methods.append(_METHOD_ALIASES[key])
    if not methods:
        raise DataError("at least one method must be selected")
    return list(dict.fromkeys(methods))


def _parse_columns(raw: str | None) -> dict | None:
    if raw is None:
        return None
    out = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"column override {part!r} is not of the form field=header")
        field, header = (token.strip() for token in part.split("=", 1))
        if field in out:
            raise DataError(f"column field {field!r} is given twice", field=field)
        out[field] = header
    return out


def _parse_g(raw: str) -> GFunction:
    if raw == "identity":
        return GFunction.identity()
    if raw == "shift":
        return GFunction.affine(0.1, 0.5)
    if raw == "sine":
        return GFunction.sinusoid(0.2, 5.0 * math.pi)
    if raw.startswith("table:"):
        return _load_g_table(raw[len("table:"):])
    raise DataError(f"unknown g specification {raw!r}", g=raw)


def _load_g_table(path: str) -> GFunction:
    knots = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.replace("\t", " ").split()
                if len(parts) != 2:
                    raise DataError(f"{path}:{lineno}: expected two numeric columns", path=path)
                knots.append((float(parts[0]), float(parts[1])))
        if not knots:
            raise DataError(f"g table file {path} contains no knots", path=path)
        return GFunction.tabulated(knots)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}", path=path) from None


def _round_doc(obj):
    """Round every float in a JSON-style document to 6 significant figures.

    A non-finite float becomes ``None``: JSON (RFC 8259) has no NaN or infinity.
    """
    if isinstance(obj, float):
        return float(f"{obj:.{SIG_FIGURES}g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_doc(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_doc(v) for v in obj]
    return obj


def _json_line(doc: dict) -> str:
    """``doc`` as one line of strict JSON, after ``_round_doc``: the rule of every line written."""
    return json.dumps(_round_doc(doc), allow_nan=False) + "\n"


def _emit(doc: dict, tsv, args) -> None:
    """Write ``doc`` as JSON, or as ``tsv`` of the rounded document."""
    text = _json_line(doc) if args.output_format == "json" else tsv(_round_doc(doc))
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
        return
    try:
        fh = open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write output {args.output}: {exc.strerror}", path=args.output) from None
    with fh:
        fh.write(text)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.{SIG_FIGURES}g}"
    return str(v)


def _load_inputs(args, *paths):
    """Parse each distinct summary file of ``paths`` once and harmonize them in order."""
    columns = _parse_columns(args.columns)
    tables = {path: parse_summary_file(path, columns, lenient=args.lenient) for path in dict.fromkeys(paths)}
    return harmonize(*(tables[path] for path in paths), policy=args.palindromic)


def _bootstrap_config(args, seed: int, ci_kind: CiKind) -> BootstrapConfig:
    try:
        return BootstrapConfig(n_boot=args.boot, seed=seed, ci_kind=ci_kind, level=args.level)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def cmd_analyze(args) -> int:
    methods = _parse_methods(args.methods)
    ci_kind = CiKind.PERCENTILE if args.ci_kind == "percentile" else CiKind.NORMAL_APPROX
    boot = _bootstrap_config(args, args.seed, ci_kind)
    workers = thread_count()
    triples, report = _load_inputs(args, args.treatment, args.outcome_exposure, args.outcome)
    het = het_test(triples)
    estimates = estimate_many(methods, triples, boot, workers)
    for method, e in zip(methods, estimates):
        if isinstance(e, DataError):
            e.details["method"] = method.value
            raise e
    doc = {
        "het_test": het.to_json_dict(),
        "harmonization": report.to_json_dict(),
        "estimates": [e.to_json_dict() for e in estimates],
    }
    _emit(doc, _analyze_tsv, args)
    return 0


def _analyze_tsv(doc: dict) -> str:
    lines = []
    het = doc["het_test"]
    lines.append(
        "# het_test\tstatistic=%s\tdf=%s\tp_value=%s"
        % (_fmt_cell(het["statistic"]), het["df"], _fmt_cell(het["p_value"]))
    )
    harm = doc["harmonization"]
    lines.append("# harmonization\t" + "\t".join(f"{k}={v}" for k, v in harm.items()))
    lines.append("method\tbeta\tse\tci_low\tci_high\tlevel\tn_snps")
    for e in doc["estimates"]:
        ci = e["ci"] or [None, None]
        lines.append(
            "\t".join(
                [
                    e["method"],
                    _fmt_cell(e["beta"]),
                    _fmt_cell(e["se"]),
                    _fmt_cell(ci[0]),
                    _fmt_cell(ci[1]),
                    _fmt_cell(e["level"]),
                    str(e["n_snps"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def cmd_het_test(args) -> int:
    # The test reads only the exposure files; the outcome-exposure file fills the outcome slot.
    triples, _report = _load_inputs(args, args.treatment, args.outcome_exposure, args.outcome_exposure)
    _emit({"het_test": het_test(triples).to_json_dict()}, _het_tsv, args)
    return 0


def _het_tsv(doc: dict) -> str:
    h = doc["het_test"]
    return "statistic\t%s\ndf\t%s\np_value\t%s\nper_snp\t%s\n" % (
        _fmt_cell(h["statistic"]),
        h["df"],
        _fmt_cell(h["p_value"]),
        ",".join(_fmt_cell(v) for v in h["per_snp"]),
    )


def _scenario_config(args) -> ScenarioConfig:
    base: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                base = json.load(fh)
        except ValueError as exc:  # undecodable bytes, bad JSON or an integer of too many digits
            raise DataError(f"config file is not valid UTF-8 JSON: {exc}", path=args.config) from None
        if not isinstance(base, dict):
            raise DataError("config file must contain a JSON object")
    if args.scenario is not None:
        base["pleiotropy"] = {"kind": _SCENARIOS[args.scenario]}
        if args.n is None and "n" not in base and args.scenario in _SCENARIO_DEFAULT_N:
            base["n"] = _SCENARIO_DEFAULT_N[args.scenario]
    if args.g is not None:
        base["g"] = _parse_g(args.g).to_json_dict()
    for key, value in (
        ("n_replicates", args.replicates),
        ("seed", args.seed),
        ("p", args.p),
        ("n", args.n),
        ("beta0", args.beta0),
        ("maf", args.maf),
    ):
        if value is not None:
            base[key] = value
    try:
        return ScenarioConfig.from_json_dict(base)
    except (ValueError, TypeError) as exc:  # TypeError: a factory parameter left out, e.g. scale
        raise DataError(f"bad scenario config: {exc}") from None


def cmd_simulate(args) -> int:
    cfg = _scenario_config(args)
    methods = _parse_methods(args.methods)
    seed = cfg.seed if args.boot_seed is None else args.boot_seed
    boot = _bootstrap_config(args, seed, CiKind.NORMAL_APPROX)
    summary = run_scenario(cfg, methods, boot)
    _emit({"config": cfg.to_json_dict(), "summary": summary.to_json_dict()}, _summary_tsv, args)
    return 0


def _summary_tsv(doc: dict) -> str:
    methods = doc["summary"]["methods"]
    lines = ["metric\t" + "\t".join(methods)]
    for metric in next(iter(methods.values())):
        row = [metric] + [_fmt_cell(m[metric]) for m in methods.values()]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def _add_io_flags(sub) -> None:
    sub.add_argument("--treatment", required=True, help="treatment-cohort exposure TSV")
    sub.add_argument("--outcome-exposure", required=True, help="outcome-cohort exposure TSV")
    sub.add_argument("--columns", help="column mapping overrides, e.g. snp=rsid,beta=b")
    sub.add_argument("--palindromic", choices=("drop", "keep"), default="drop",
                     help="policy for strand-ambiguous A/T and C/G SNPs")
    sub.add_argument("--lenient", action="store_true",
                     help="count and drop malformed rows instead of failing")


def _add_output_flags(sub) -> None:
    sub.add_argument("--output", help="output path (default stdout)")
    sub.add_argument("--output-format", choices=("json", "tsv"), default="json")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, which :func:`main` writes as one JSON record; subparsers inherit the class."""

    def error(self, message):
        raise DataError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mrhetero",
        description="Two-sample Mendelian randomization robust to population heterogeneity.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    a = subs.add_parser("analyze", help="harmonize three summary files and estimate the causal effect")
    _add_io_flags(a)
    a.add_argument("--outcome", required=True, help="outcome-cohort outcome TSV")
    a.add_argument("--methods", default="MrWald,MrWaldR", help=_METHODS_HELP)
    a.add_argument("--boot", type=int, default=1000, help="bootstrap replicate count")
    a.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    a.add_argument("--level", type=float, default=0.95, help="confidence level")
    a.add_argument("--ci-kind", choices=("normal", "percentile"), default="normal")
    _add_output_flags(a)
    a.set_defaults(func=cmd_analyze)

    # Without allow_abbrev, "--outcome" would be read as "--outcome-exposure".
    h = subs.add_parser("het-test", help="test homogeneity of the two exposure-association vectors",
                        allow_abbrev=False)
    _add_io_flags(h)
    _add_output_flags(h)
    h.set_defaults(func=cmd_het_test)

    s = subs.add_parser("simulate", help="run a benchmark scenario and aggregate estimator performance")
    s.add_argument("--config", help="scenario config JSON file")
    s.add_argument("--scenario", choices=tuple(_SCENARIOS),
                   help="pleiotropy shorthand: i none, ii balanced, iii single-SNP, iv five-SNP, v directional")
    s.add_argument("--g", help="heterogeneity map: identity, shift, sine, or table:<path>")
    s.add_argument("--replicates", type=int, help="number of Monte-Carlo replicates")
    s.add_argument("--seed", type=int, help="scenario seed")
    s.add_argument("--p", type=int, help="number of SNPs")
    s.add_argument("--n", type=int, help="cohort sample size")
    s.add_argument("--beta0", type=float, help="true causal effect")
    s.add_argument("--maf", type=float, help="minor allele frequency")
    s.add_argument("--methods", default="MrWald", help=_METHODS_HELP)
    s.add_argument("--boot", type=int, default=500, help="bootstrap replicate count")
    s.add_argument("--boot-seed", type=int, help="bootstrap seed (defaults to the scenario seed)")
    s.add_argument("--level", type=float, default=0.95, help="confidence level")
    _add_output_flags(s)
    s.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # The filters still decide which warnings are shown, each as one JSON record.
        warnings.showwarning = lambda message, category, *_: sys.stderr.write(
            _json_line({"warning": category.__name__, "message": str(message)}))
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except DataError as exc:
            sys.stderr.write(_json_line({"error": type(exc).__name__, "message": str(exc), **exc.details}))
            return 2
        except OSError as exc:
            # A file that is missing, a directory or unreadable is a usage error.
            error = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
            record = {"error": error, "message": str(exc)}
            if exc.filename is not None:
                record["path"] = str(exc.filename)
            sys.stderr.write(_json_line(record))
            return 2
        except ValueError as exc:
            sys.stderr.write(_json_line({"error": type(exc).__name__, "message": str(exc)}))
            return 1


if __name__ == "__main__":
    sys.exit(main())
