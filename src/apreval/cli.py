"""Command-line interface: one subcommand per analysis axis plus `run`.

Exit codes: 0 success, 1 usage/config error, 2 stage failure, 3 adapter
failure, 143 a `run` stopped by SIGTERM.

Each command imports the axis module it uses, and the report readers of
`violations`, so that `run` starts with the orchestrator alone, and writes
its files through that module's writer, the one the matching pipeline stage
calls.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from .errors import (
    AdapterFailureError,
    ConfigError,
    HarnessError,
    StageFailureError,
)
from .pipeline import ROLES, SamplingParams, emit_reports, load_config, load_sources, run_pipeline
from .terms import NormalizationPolicy, StateLabel, get_profile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAGE = 2
EXIT_ADAPTER = 3


class _Terminated(KeyboardInterrupt):
    """A SIGTERM, raised as an interrupt so that a run stops as on Ctrl-C."""


def _raise_terminated(signum, frame) -> None:
    raise _Terminated


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.workspace:
        config = config._replace(workspace_dir=Path(args.workspace).resolve())
    if args.seed is not None:
        config = config._replace(seed=args.seed)
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
    from .violations import decode_input, parse_file, read_report

    profile = get_profile(args.profile)
    pre = read_report(Path(args.pre), StateLabel.PRE_REPAIR)
    post = read_report(Path(args.post), StateLabel.POST_REPAIR)
    if args.violating_files:
        files = parse_file(Path(args.violating_files), decode_input).splitlines()
        pre = fixrate_mod.restrict_to_files(pre, files)
    outcome = fixrate_mod.match_violations(pre, post)
    summary = fixrate_mod.summarize_fix_rate(fixrate_mod.compute_fix_rates(outcome, profile))
    fixrate_mod.write_fixrate(Path(args.out), outcome, summary)
    print(summary.text)
    return EXIT_OK


def _cmd_newviol(args: argparse.Namespace) -> int:
    from . import newviol as newviol_mod
    from .fixrate import restrict_to_files
    from .violations import read_report

    pre = read_report(Path(args.pre), StateLabel.PRE_REPAIR)
    post = read_report(Path(args.post), StateLabel.POST_REPAIR)
    sources = load_sources(Path(args.original), Path(args.repaired))
    pre = restrict_to_files(pre, sources)
    # judged as written, one file at a time, as the stage does
    verdicts = newviol_mod.judge_files(pre, post, sources, NormalizationPolicy(args.normalize))
    rows, new = newviol_mod.write_newviol(Path(args.out), newviol_mod.verdict_rows(verdicts), sources.deleted())
    print(f"{rows} post-repair violations, {len(new)} classified new")
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from . import sampling as sampling_mod
    from .newviol import load_new

    new = load_new(Path(args.new_violations))[1]
    params = SamplingParams(confidence=args.confidence, margin=args.margin)
    sample = sampling_mod.draw_sample(new, params, args.seed)
    sources = load_sources(Path(args.original), Path(args.repaired), originals=False)
    sampling_mod.write_sample(Path(args.out), sample, len(new), sources)
    print(f"sampled {sample.size} of {len(new)} new violations across {len(sample.allocation)} rules")
    return EXIT_OK


def _cmd_precision(args: argparse.Namespace) -> int:
    from . import sampling as sampling_mod
    from .violations import parse_file

    records = parse_file(Path(args.labels), sampling_mod.ingest_labels)
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
    from .violations import decode_input, parse_file

    diagnostics: dict[str, str] = {}
    if args.compile_log:
        log_dir = Path(args.compile_log)
        results_file = log_dir / ROLES["compiler"]
        if results_file.is_file():
            _, diagnostics = semantic_mod.read_compile_results(results_file)
        else:
            for diag_file in sorted(log_dir.glob("*.log")):
                diagnostics[diag_file.stem] = parse_file(diag_file, decode_input)
    regressions, summary = semantic_mod.compare_runs(Path(args.baseline), Path(args.repaired), diagnostics)
    semantic_mod.write_semantic(Path(args.out), regressions, summary)
    print(
        f"executed {summary.executed}, failed {summary.failed}, "
        f"pass rate {summary.pass_rate:.1%}, uncompilable files {summary.uncompilable_files}"
    )
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    from . import metrics as metrics_mod

    pairs, exclusions = metrics_mod.pair_metric_files(Path(args.pre), Path(args.post))
    report = metrics_mod.structural_report(pairs)
    metrics_mod.write_metrics(Path(args.out), pairs, exclusions, report)
    sig = ", ".join(report.significant()) or "none"
    print(f"{len(pairs)} file pairs ({len(exclusions)} excluded); significant at 0.05: {sig}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from .violations import json_text

    summary = emit_reports(Path(args.workspace))
    sys.stdout.write(json_text(summary))
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
    p.add_argument("--violating-files", default=None,
                   help="score only pre findings in the files this list names, one a line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fixrate)

    p = sub.add_parser("newviol", help="classify post-repair violations as new or pre-existing")
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--original", required=True,
                   help="directory of original sources; only pre findings in its files are scored")
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
