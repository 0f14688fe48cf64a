"""Command-line interface: one subcommand per analysis axis plus `run`.

Exit codes: 0 success, 1 usage/config error, 2 stage failure, 3 adapter
failure, 143 a `run` stopped by SIGTERM.

Each command imports the axis module it uses, so that `run` starts with
the orchestrator alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import signal
import sys
from dataclasses import replace
from pathlib import Path

from .errors import (
    AdapterFailureError,
    ConfigError,
    HarnessError,
    StageFailureError,
)
from .pipeline import _load_sources, emit_reports, load_config, run_pipeline
from .violations import (
    NormalizationPolicy,
    Severity,
    StateLabel,
    Violation,
    ViolationReport,
    ViolationType,
    get_profile,
    parse_report,
    serialize_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAGE = 2
EXIT_ADAPTER = 3


def _read_report(path: Path, state: StateLabel) -> ViolationReport:
    return parse_report(path.read_bytes(), "csv", state)


class _Terminated(KeyboardInterrupt):
    """A SIGTERM, raised as an interrupt so that a run stops as on Ctrl-C."""


def _raise_terminated(signum, frame) -> None:
    raise _Terminated


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.workspace:
        config = replace(config, workspace_dir=Path(args.workspace).resolve())
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    stages = args.stages.split(",") if args.stages else None
    # adapters lead their own sessions and never see a signal sent to this
    # process; the interrupt makes the pipeline kill their process groups
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        summary = run_pipeline(config, stages=stages, force=args.force, jobs=args.jobs)
    finally:
        signal.signal(signal.SIGTERM, previous)
    width = max(len(s) for s in summary) if summary else 0
    for stage, status in summary.items():
        print(f"{stage:<{width}}  {status}")
    print(f"workspace: {config.workspace_dir}")
    return EXIT_OK


def _cmd_fixrate(args: argparse.Namespace) -> int:
    from . import fixrate as fixrate_mod

    profile = get_profile(args.profile)
    pre = _read_report(Path(args.pre), StateLabel.PRE_REPAIR)
    post = _read_report(Path(args.post), StateLabel.POST_REPAIR)
    outcome = fixrate_mod.match_violations(pre, post)
    table = fixrate_mod.compute_fix_rates(outcome, profile)
    summary = fixrate_mod.summarize_fix_rate(table)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fixrate.csv").write_text(summary.csv_text, encoding="utf-8")
    (out / "fixrate.json").write_text(summary.json_text, encoding="utf-8")
    fixed = ViolationReport(state=StateLabel.PRE_REPAIR, entries=outcome.fixed)
    (out / "fixed_violations.csv").write_text(serialize_report(fixed), encoding="utf-8")
    print(summary.text)
    return EXIT_OK


def _cmd_newviol(args: argparse.Namespace) -> int:
    from . import newviol as newviol_mod

    pre = _read_report(Path(args.pre), StateLabel.PRE_REPAIR)
    post = _read_report(Path(args.post), StateLabel.POST_REPAIR)
    sources = _load_sources(Path(args.original), Path(args.repaired))
    policy = NormalizationPolicy(args.normalize)
    verdicts = newviol_mod.detect_new_violations(pre, post, sources, policy)
    breakdown = newviol_mod.categorize_new(verdicts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "new_violations.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["file", "rule", "type", "severity", "start_line", "end_line",
             "message", "verdict", "evidence_line"]
        )
        for vd in verdicts:
            v = vd.violation
            writer.writerow(
                [v.file_id, v.rule, v.vtype.value, v.severity.value, v.start_line,
                 v.end_line, v.message, vd.verdict.value,
                 "" if vd.evidence is None else vd.evidence]
            )
    with (out / "new_matrix.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("type,severity,count\n")
        for (vtype, severity), count in sorted(
            breakdown.matrix.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            fh.write(f"{vtype.value},{severity.value},{count}\n")
    with (out / "new_frequency.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("rule,count\n")
        for rule, count in breakdown.rule_frequency:
            fh.write(f"{rule},{count}\n")
    print(f"{len(verdicts)} post-repair violations, {breakdown.total_new} classified new")
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from . import sampling as sampling_mod
    from .newviol import SourcePair

    population: dict[str, list[Violation]] = {}
    with Path(args.new_violations).open("r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row.get("verdict", "new") != "new":
                continue
            v = Violation(
                file_id=row["file"],
                rule=row["rule"],
                vtype=ViolationType(row["type"]),
                severity=Severity(row["severity"]),
                start_line=int(row["start_line"]),
                end_line=int(row["end_line"]),
                message=row.get("message", ""),
            )
            population.setdefault(v.rule, []).append(v)
    total = sum(len(vs) for vs in population.values())
    if total == 0:
        print("no new violations to sample")
        Path(args.out).write_text(",".join(sampling_mod.SHEET_HEADER) + "\n", encoding="utf-8")
        return EXIT_OK
    target = sampling_mod.cochran_sample_size(total, args.confidence, args.margin)
    target = max(target, len(population))
    sample = sampling_mod.stratified_sample(population, target, args.seed)
    if args.original and args.repaired:
        sources = _load_sources(Path(args.original), Path(args.repaired))
        sheet = sampling_mod.export_labeling_sheet(sample, sources)
    else:
        # without sources the sheet still lists every sampled item, with a
        # placeholder where the flagged code would go
        placeholder = "<fragment unavailable: rerun with --original/--repaired>"
        sources = {}
        for items in sample.strata.values():
            for v in items:
                lines = "\n".join(placeholder for _ in range(v.end_line))
                sources[v.file_id] = SourcePair.from_texts(v.file_id, "", lines)
        sheet = sampling_mod.export_labeling_sheet(sample, sources)
    Path(args.out).write_text(sheet, encoding="utf-8")
    print(f"sampled {sample.size} of {total} new violations across {len(sample.allocation)} rules")
    return EXIT_OK


def _cmd_precision(args: argparse.Namespace) -> int:
    from . import sampling as sampling_mod

    records = sampling_mod.ingest_labels(Path(args.labels).read_text(encoding="utf-8"))
    tp, fp = sampling_mod.label_counts(records)
    n = tp + fp
    if n == 0:
        print("no labeled rows")
        return EXIT_USAGE
    result = sampling_mod.exact_binomial_test(tp, n, args.threshold)
    verdict = "above" if result.significant_at(0.05) else "not above"
    print(f"true positives: {tp}/{n} ({tp / n:.1%})")
    print(f"exact binomial p-value vs {args.threshold:.0%} threshold: {result.p_value:.4f}")
    print(f"precision is {verdict} {args.threshold:.0%} at alpha=0.05")
    return EXIT_OK


def _cmd_semantic(args: argparse.Namespace) -> int:
    from . import semantic as semantic_mod

    baseline_run = semantic_mod.ingest_test_results(Path(args.baseline).read_bytes())
    repaired_run = semantic_mod.ingest_test_results(Path(args.repaired).read_bytes())
    baseline = semantic_mod.filter_baseline(baseline_run)
    regressions = semantic_mod.diff_test_outcomes(baseline, repaired_run)
    diagnostics: dict[str, str] = {}
    if args.compile_log:
        log_dir = Path(args.compile_log)
        results_file = log_dir / "compile_results.json"
        if results_file.is_file():
            results = json.loads(results_file.read_text(encoding="utf-8"))
            diagnostics = {r["file"]: r["diagnostic"] for r in results if not r["ok"]}
        else:
            for diag_file in sorted(log_dir.glob("*.log")):
                diagnostics[diag_file.stem] = diag_file.read_text(encoding="utf-8")
    summary = semantic_mod.summarize_semantic(baseline, regressions, diagnostics)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "regressions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["test_id", "status", "failure_kind", "missing_in_repaired_run"])
        for reg in regressions:
            writer.writerow(
                [reg.test_id, reg.status.value, reg.failure_kind or "",
                 str(reg.missing_in_repaired_run).lower()]
            )
    with (out / "failure_histogram.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("failure_class,count\n")
        for cls in semantic_mod.FailureClass:
            fh.write(f"{cls.value},{summary.failure_histogram.get(cls, 0)}\n")
    with (out / "compile_errors.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("compile_error_class,count\n")
        for cls in semantic_mod.CompileErrorClass:
            fh.write(f"{cls.value},{summary.compile_error_histogram.get(cls, 0)}\n")
    print(
        f"executed {summary.executed}, failed {summary.failed}, "
        f"pass rate {summary.pass_rate:.1%}, uncompilable files {summary.uncompilable_files}"
    )
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    from . import metrics as metrics_mod

    pre_rows = metrics_mod.read_class_metrics_csv(Path(args.pre).read_bytes())
    post_rows = metrics_mod.read_class_metrics_csv(Path(args.post).read_bytes())
    pairs, exclusions = metrics_mod.pair_pre_post(
        metrics_mod.aggregate_file_metrics(pre_rows),
        metrics_mod.aggregate_file_metrics(post_rows),
    )
    report = metrics_mod.structural_report(pairs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "structural_stats.csv").write_text(metrics_mod.structural_stats_csv(report), encoding="utf-8")
    (out / "metric_medians.csv").write_text(metrics_mod.metric_medians_csv(report), encoding="utf-8")
    (out / "signed_ranks.csv").write_text(metrics_mod.signed_ranks_csv(report), encoding="utf-8")
    (out / "normality.csv").write_text(metrics_mod.normality_csv(report), encoding="utf-8")
    with (out / "exclusions.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("file,reason\n")
        for file_id, reason in exclusions:
            fh.write(f"{file_id},{reason}\n")
    sig = ", ".join(report.significant()) or "none"
    print(f"{len(pairs)} file pairs ({len(exclusions)} excluded); significant at 0.05: {sig}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    summary = emit_reports(Path(args.workspace))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apreval",
        description="Evaluation harness for automated program repair tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workspace", default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("--stages", default=None, help="comma-separated stage subset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fixrate", help="fix-rate table from pre/post violation CSVs")
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--profile", default="sorald-30")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fixrate)

    p = sub.add_parser("newviol", help="classify post-repair violations as new or pre-existing")
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--original", required=True, help="directory of original sources")
    p.add_argument("--repaired", required=True, help="directory of repaired sources")
    p.add_argument("--normalize", choices=[p.value for p in NormalizationPolicy], default="exact")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_newviol)

    p = sub.add_parser("sample", help="stratified sample of new violations for manual review")
    p.add_argument("--new-violations", required=True)
    p.add_argument("--original", required=True)
    p.add_argument("--repaired", required=True)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("precision", help="exact binomial test of labeled sample precision")
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", type=float, default=0.70)
    p.set_defaults(func=_cmd_precision)

    p = sub.add_parser("semantic", help="test-outcome diff between original and repaired runs")
    p.add_argument("--baseline", required=True, help="results CSV from the original code")
    p.add_argument("--repaired", required=True, help="results CSV from the repaired code")
    p.add_argument("--compile-log", default=None, help="dir with compile_results.json or *.log diagnostics")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_semantic)

    p = sub.add_parser("metrics", help="paired structural-metric statistics")
    p.add_argument("--pre", required=True, help="class metrics CSV for the original code")
    p.add_argument("--post", required=True, help="class metrics CSV for the repaired code")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("report", help="merge stage outputs into a unified report bundle")
    p.add_argument("--workspace", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AdapterFailureError as exc:
        print(f"adapter failure: {exc}", file=sys.stderr)
        return EXIT_ADAPTER
    except StageFailureError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Terminated:
        print("terminated", file=sys.stderr)
        return 128 + signal.SIGTERM


if __name__ == "__main__":
    sys.exit(main())
