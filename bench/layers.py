"""Traced run: per-stage and per-layer timings of one workload.

The pipeline is driven in-process, ``run_pipeline(config, stages=[stage])``
one stage at a time, cold and then warm, with one span per call. Then the
public functions of each module are called once more on the workspace the
cold run produced, each inside its own span, and every result is checked
against the file the pipeline wrote for the same work. Spans (name, start,
end, parent) stay in memory and are written out when the run ends.

A layer is the first dotted part of a span name; its self time is the
time its spans cover minus the time their child spans cover. The tracing
overhead is the traced cold run minus an untraced ``apreval run`` on a
fresh copy of the same inputs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import harness
import workloads

STAGES = harness.STAGE_ORDER
SPAWN_REPEATS = 5
#: synthetic series for the statistics layer: the exact Wilcoxon path runs
#: up to n = 25, the normal path above it
EXACT_N = 25
NORMAL_N = 2000

UNITS: dict[str, str] = {}
for _stage in STAGES:
    UNITS[f"pipeline.stage.{_stage}.cold_s"] = "s"
    UNITS[f"pipeline.stage.{_stage}.warm_s"] = "s"
for _name in (
    "pipeline.run_tool_adapter_s", "spawn.bare_python_s", "spawn.import_apreval_s",
    "pipeline.digest_paths_s", "pipeline.emit_reports_s", "violations.parse_report_s",
    "violations.normalize_report_s", "violations.serialize_report_s",
    "fixrate.match_violations_s", "fixrate.compute_fix_rates_s",
    "newviol.detect_exact_s", "newviol.detect_loose_s",
    "sampling.stratified_sample_s", "sampling.export_labeling_sheet_s",
    "sampling.exact_binomial_test_s", "stats.wilcoxon_exact_s", "stats.wilcoxon_normal_s",
    "stats.dagostino_pearson_s", "metrics.read_class_metrics_csv_s", "metrics.structural_report_s",
    "semantic.ingest_test_results_s", "semantic.diff_test_outcomes_s",
    "semantic.summarize_semantic_s", "stubs.analyzer_s", "stubs.repairer_s",
    "stubs.testrunner_s", "stubs.compiler_s", "stubs.metrics_s",
    "trace.cold_total_s", "trace.warm_total_s", "trace.untraced_cold_s", "trace.overhead_s",
):
    UNITS[_name] = "s"
for _name in ("pipeline.adapter_calls", "violations.rows", "newviol.verdicts_new",
              "newviol.verdicts_fragment", "newviol.verdicts_key", "sampling.target_n"):
    UNITS[_name] = "count"
UNITS["pipeline.digest_mb"] = "MB"
LAYERS = ("run", "pipeline", "spawn", "violations", "fixrate", "newviol", "sampling",
          "stats", "metrics", "semantic", "stubs")
for _layer in LAYERS:
    UNITS[f"self.{_layer}_s"] = "s"


class Tracer:
    """In-memory spans; ``span`` nests by the call stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            layer = s["name"].split(".", 1)[0]
            totals[layer] += s["end"] - s["start"] - child_time[i]
        return totals


class Mismatch(Exception):
    """A micro-timed call disagreed with the pipeline's own output."""


def _expect(label: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{label}: layer call gave {got!r}, pipeline wrote {want!r}")


def traced_run(wl: workloads.Workload, seed: int, seconds: float, tally: harness.Tally) -> tuple[dict, dict]:
    """Repeat traced repetitions until ``seconds`` is spent; report medians."""
    sys.path.insert(0, str(workloads.SRC_DIR))
    # adapters spawned in-process must find the package as the CLI's do
    os.environ["PYTHONPATH"] = harness.child_env()["PYTHONPATH"]
    reps: list[dict] = []
    spans: list[list[dict]] = []
    budget = harness.Budget(seconds)
    while budget.allows("repetition"):
        tracer = Tracer()
        spans.append(tracer.spans)
        try:
            with budget.step("repetition"):
                values = _traced_repetition(wl, seed, tracer, tally)
        except Exception:  # a failing program is a result, reported like a failed check
            tally.record([traceback.format_exc()])
            break
        if values is None:
            break
        reps.append(values)
    metrics = {name: statistics.median(r[name] for r in reps) for name in UNITS if reps and name in reps[0]}
    for name in UNITS:
        if name in metrics:
            print(f"{name:<36} {metrics[name]:.6f} {UNITS[name]}")
    return metrics, {"repetitions": len(reps), "spans": spans}


def _traced_repetition(wl, seed, tracer: Tracer, tally: harness.Tally) -> dict | None:
    from apreval.pipeline import load_config, run_pipeline

    values: dict[str, float] = {}
    # untraced reference: the same inputs through the CLI, in a child process
    ref, ref_config, _ = harness.set_up(wl, seed, min_seconds=0.0)
    untraced = harness.run_apreval(ref, ref_config, wl.jobs)
    if not tally.record(harness.check_run(wl, ref, untraced, dict.fromkeys(STAGES, "ran"))):
        return None
    shutil.rmtree(ref)
    values["trace.untraced_cold_s"] = untraced.seconds

    dest, config_path, _ = harness.set_up(wl, seed, min_seconds=0.0)
    config = load_config(config_path)
    os.sync()
    try:
        for phase, expect in (("cold", "ran"), ("warm", "cached")):
            with tracer.span(f"run.{phase}") as root:
                for stage in STAGES:
                    with tracer.span(f"pipeline.stage.{stage}.{phase}") as s:
                        status = run_pipeline(config, stages=[stage], jobs=wl.jobs)[stage]
                    values[f"pipeline.stage.{stage}.{phase}_s"] = s["end"] - s["start"]
                    if status != expect:
                        raise Mismatch(f"{phase} stage {stage}: {status!r}, expected {expect!r}")
            values[f"trace.{phase}_total_s"] = root["end"] - root["start"]
        summary = dest / "workspace" / "report" / "summary.json"
        errors = wl.check_summary(dest, summary.read_bytes()) + wl.check_workspace(dest)
        if not tally.record(errors):
            return None
        values["trace.overhead_s"] = values["trace.cold_total_s"] - untraced.seconds
        with tracer.span("run.layers"):
            values.update(_layer_calls(wl, seed, config, dest, tracer))
    except Mismatch as exc:
        tally.record([str(exc)])
        return None
    shutil.rmtree(dest)
    values.update({f"self.{layer}_s": t for layer, t in tracer.self_times().items()})
    return values


def _timed(tracer: Tracer, name: str, fn, *args, **kwargs):
    with tracer.span(name):
        return fn(*args, **kwargs)


def _layer_calls(wl, seed: int, config, dest: Path, tracer: Tracer) -> dict:
    """One call into each layer's public functions, checked against the workspace."""
    from apreval import fixrate, metrics, newviol, pipeline, sampling, semantic, stats, stubs
    from apreval.violations import (
        StateLabel, ViolationReport, get_profile, normalize_report, parse_report, serialize_report,
    )

    ws = config.workspace_dir
    out: dict[str, float] = {}
    outputs = dest / "layer_outputs"
    profile = get_profile(config.profile)

    def total(name: str) -> float:
        return sum(tracer.durations(name))

    # pipeline: adapter spawns, digests and the report merge
    out["pipeline.adapter_calls"] = sum(1 for _ in ws.rglob("adapter_stdout.log"))
    adapter_out = outputs / "adapter"
    _timed(tracer, "pipeline.run_tool_adapter", pipeline.run_tool_adapter,
           config.adapters["analyzer"], ws / "prepare" / "sources", adapter_out)
    out["pipeline.run_tool_adapter_s"] = total("pipeline.run_tool_adapter")
    _expect("run_tool_adapter violations.csv", (adapter_out / "violations.csv").read_bytes(),
            (ws / "analyze_pre" / "raw" / "violations.csv").read_bytes())
    env = harness.child_env()
    for _ in range(SPAWN_REPEATS):
        _timed(tracer, "spawn.bare_python", subprocess.run, [sys.executable, "-c", "pass"], check=True)
        _timed(tracer, "spawn.import_apreval", subprocess.run, [sys.executable, "-c", "import apreval"],
               env=env, check=True)
    out["spawn.bare_python_s"] = statistics.median(tracer.durations("spawn.bare_python"))
    out["spawn.import_apreval_s"] = statistics.median(tracer.durations("spawn.import_apreval"))

    stage_inputs = _stage_inputs(config)
    for paths in stage_inputs.values():
        _timed(tracer, "pipeline.digest_paths", pipeline.digest_paths, paths)
    out["pipeline.digest_paths_s"] = total("pipeline.digest_paths")
    out["pipeline.digest_mb"] = sum(_tree_bytes(p) for ps in stage_inputs.values() for p in ps) / 2**20
    state = json.loads((ws / "state.json").read_text(encoding="utf-8"))
    for stage, extra in (("fixrate", profile.name),
                         ("newviol", f"{profile.name}|{config.normalization.value}"), ("report", "")):
        _expect(f"{stage} input digest", pipeline.digest_paths(stage_inputs[stage], extra),
                state["stages"][stage]["input_digest"])
    summary_before = (ws / "report" / "summary.json").read_bytes()
    _timed(tracer, "pipeline.emit_reports", pipeline.emit_reports, ws)
    out["pipeline.emit_reports_s"] = total("pipeline.emit_reports")
    _expect("emit_reports summary.json", (ws / "report" / "summary.json").read_bytes(), summary_before)

    # violations: the analyzer reports as the analyze stages read them
    reports = {}
    for state_label, stage, name in ((StateLabel.PRE_REPAIR, "analyze_pre", "pre_violations.csv"),
                                     (StateLabel.POST_REPAIR, "analyze_post", "post_violations.csv")):
        raw = (ws / stage / "raw" / "violations.csv").read_bytes()
        report = _timed(tracer, "violations.parse_report", parse_report, raw, "csv", state_label)
        again = _timed(tracer, "violations.normalize_report", normalize_report, report)
        text = _timed(tracer, "violations.serialize_report", serialize_report, again)
        _expect(f"serialized {name}", text, (ws / stage / name).read_text(encoding="utf-8"))
        reports[state_label] = report
    for name in ("parse_report", "normalize_report", "serialize_report"):
        out[f"violations.{name}_s"] = total(f"violations.{name}")
    out["violations.rows"] = sum(len(r) for r in reports.values())

    # fixrate: the pre report restricted to repaired files, as the stage does
    violating = set((ws / "repair" / "violating_files.txt").read_text(encoding="utf-8").splitlines())
    pre_full = reports[StateLabel.PRE_REPAIR]
    pre = normalize_report(ViolationReport(
        state=StateLabel.PRE_REPAIR, entries=tuple(v for v in pre_full.entries if v.file_id in violating)))
    post = reports[StateLabel.POST_REPAIR]
    outcome = _timed(tracer, "fixrate.match_violations", fixrate.match_violations, pre, post)
    table = _timed(tracer, "fixrate.compute_fix_rates", fixrate.compute_fix_rates, outcome, profile)
    out["fixrate.match_violations_s"] = total("fixrate.match_violations")
    out["fixrate.compute_fix_rates_s"] = total("fixrate.compute_fix_rates")
    _expect("fixed violations", serialize_report(ViolationReport(StateLabel.PRE_REPAIR, outcome.fixed)),
            (ws / "fixrate" / "fixed_violations.csv").read_text(encoding="utf-8"))
    _expect("fixrate.json", fixrate.summarize_fix_rate(table).json_text,
            (ws / "fixrate" / "fixrate.json").read_text(encoding="utf-8"))

    # newviol: the three-stage detector under both policies
    sources = _load_sources(ws / "repair" / "input", ws / "repair" / "output", newviol.SourcePair)
    exact = _timed(tracer, "newviol.detect_exact", newviol.detect_new_violations, pre, post, sources,
                   newviol.NormalizationPolicy.EXACT)
    loose = _timed(tracer, "newviol.detect_loose", newviol.detect_new_violations, pre, post, sources,
                   newviol.NormalizationPolicy.LOOSE)
    out["newviol.detect_exact_s"] = total("newviol.detect_exact")
    out["newviol.detect_loose_s"] = total("newviol.detect_loose")
    counts = Counter(v.verdict.value for v in exact)
    _expect("exact verdict counts", dict(counts),
            workloads.verdict_counts(ws / "newviol" / "new_violations.csv"))
    if len(loose) != len(exact):
        raise Mismatch(f"loose policy returned {len(loose)} verdicts for {len(exact)} findings")
    out["newviol.verdicts_new"] = counts["new"]
    out["newviol.verdicts_fragment"] = counts["not_new_fragment_found"]
    out["newviol.verdicts_key"] = counts["not_new_key_match"]

    # sampling: the NEW population, as the sample stage builds it
    population: dict[str, list] = {}
    for vd in exact:
        if vd.verdict is newviol.VerdictKind.NEW:
            population.setdefault(vd.violation.rule, []).append(vd.violation)
    allocation = json.loads((ws / "sample" / "allocation.json").read_text(encoding="utf-8"))
    if population:
        params = config.sampling
        target = max(sampling.cochran_sample_size(counts["new"], params.confidence, params.margin,
                                                  params.proportion), len(population))
        sample = _timed(tracer, "sampling.stratified_sample", sampling.stratified_sample,
                        population, target, config.seed)
        sheet = _timed(tracer, "sampling.export_labeling_sheet", sampling.export_labeling_sheet,
                       sample, sources)
        _expect("sample size", sample.size, allocation["target_n"])
        _expect("sheet.csv", sheet, (ws / "sample" / "sheet.csv").read_text(encoding="utf-8"))
        out["sampling.target_n"] = sample.size
        # a labelled sample at the paper's observed precision
        _timed(tracer, "sampling.exact_binomial_test", sampling.exact_binomial_test,
               round(0.767 * sample.size), sample.size, 0.70)
    else:
        out["sampling.target_n"] = 0
    for name in ("stratified_sample", "export_labeling_sheet", "exact_binomial_test"):
        out[f"sampling.{name}_s"] = total(f"sampling.{name}")

    # stats: seeded synthetic series on each code path
    rng = random.Random(seed)
    small = stats.PairedSeries("synthetic", tuple(rng.choice((-1, 1)) * rng.randrange(1, 60)
                                                  for _ in range(EXACT_N)))
    large = stats.PairedSeries("synthetic", tuple(float(rng.randrange(-20, 25)) for _ in range(NORMAL_N)))
    sample_values = [rng.gauss(100.0, 15.0) for _ in range(NORMAL_N)]
    _timed(tracer, "stats.wilcoxon_exact", stats.wilcoxon_signed_rank, small)
    _timed(tracer, "stats.wilcoxon_normal", stats.wilcoxon_signed_rank, large)
    _timed(tracer, "stats.dagostino_pearson", stats.dagostino_pearson, sample_values)
    for name in ("wilcoxon_exact", "wilcoxon_normal", "dagostino_pearson"):
        out[f"stats.{name}_s"] = total(f"stats.{name}")

    # metrics: the extractor output through to the paired tests
    rows = {}
    for state_name in ("pre", "post"):
        raw = (ws / "metrics" / f"{state_name}_raw" / "class_metrics.csv").read_bytes()
        rows[state_name] = _timed(tracer, "metrics.read_class_metrics_csv", metrics.read_class_metrics_csv, raw)
    pairs, _ = metrics.pair_pre_post(metrics.aggregate_file_metrics(rows["pre"]),
                                     metrics.aggregate_file_metrics(rows["post"]))
    report = _timed(tracer, "metrics.structural_report", metrics.structural_report, pairs)
    out["metrics.read_class_metrics_csv_s"] = total("metrics.read_class_metrics_csv")
    out["metrics.structural_report_s"] = total("metrics.structural_report")
    recorded = json.loads((ws / "metrics" / "metrics.json").read_text(encoding="utf-8"))["per_metric"]
    _expect("structural p-values", [(s.metric, s.wilcoxon.p_value) for s in report.per_metric],
            [(r["metric"], r["p_value"]) for r in recorded])

    # semantic: test outcomes through to the summary
    runs = {}
    for name in ("baseline_raw", "repaired_raw"):
        raw = (ws / "semantic" / name / "results.csv").read_bytes()
        runs[name] = _timed(tracer, "semantic.ingest_test_results", semantic.ingest_test_results, raw)
    baseline = semantic.filter_baseline(runs["baseline_raw"])
    regressions = _timed(tracer, "semantic.diff_test_outcomes", semantic.diff_test_outcomes,
                         baseline, runs["repaired_raw"])
    compiled = json.loads((ws / "semantic" / "compile_raw" / "compile_results.json").read_text(encoding="utf-8"))
    diagnostics = {r["file"]: r["diagnostic"] for r in compiled if not r["ok"]}
    summary = _timed(tracer, "semantic.summarize_semantic", semantic.summarize_semantic,
                     baseline, regressions, diagnostics)
    for name in ("ingest_test_results", "diff_test_outcomes", "summarize_semantic"):
        out[f"semantic.{name}_s"] = total(f"semantic.{name}")
    recorded = json.loads((ws / "semantic" / "semantic.json").read_text(encoding="utf-8"))
    _expect("semantic executed/failed", (summary.executed, summary.failed),
            (recorded["executed"], recorded["failed"]))

    # stubs: the scripted tools in-process on this workload's trees
    calls = (
        ("analyzer", stubs.run_analyzer, ws / "prepare" / "sources", ws / "analyze_pre" / "raw", "violations.csv"),
        ("repairer", stubs.run_repairer, ws / "repair" / "input", ws / "repair" / "output", None),
        ("testrunner", stubs.run_testrunner, ws / "repair" / "output", ws / "semantic" / "repaired_raw",
         "results.csv"),
        ("compiler", stubs.run_compiler, config.corpus_dir, ws / "prepare" / "raw", "compile_results.json"),
        ("metrics", stubs.run_metrics, ws / "repair" / "output", ws / "metrics" / "post_raw",
         "class_metrics.csv"),
    )
    for role, fn, src, recorded_dir, artifact in calls:
        target = outputs / f"stub_{role}"
        _timed(tracer, f"stubs.{role}", fn, src, target)
        out[f"stubs.{role}_s"] = total(f"stubs.{role}")
        if wl.uses_stubs:
            names = [artifact] if artifact else _java_names(recorded_dir)
            _expect(f"stub {role} output", _contents(target, names), _contents(recorded_dir, names))
    return out


def _stage_inputs(config) -> dict[str, list[Path]]:
    """The declared inputs each stage digests before deciding on a rerun."""
    ws = config.workspace_dir
    pre_csv = ws / "analyze_pre" / "pre_violations.csv"
    post_csv = ws / "analyze_post" / "post_violations.csv"
    violating = ws / "repair" / "violating_files.txt"
    repair_in, repair_out = ws / "repair" / "input", ws / "repair" / "output"
    sources = ws / "prepare" / "sources"
    return {
        "prepare": [config.corpus_dir],
        "analyze_pre": [sources],
        "repair": [sources, pre_csv, ws / "prepare" / "compilable.txt"],
        "analyze_post": [repair_out],
        "fixrate": [pre_csv, post_csv, violating],
        "newviol": [pre_csv, post_csv, violating, repair_in, repair_out],
        "sample": [ws / "newviol" / "new_violations.csv", repair_in, repair_out],
        "semantic": [repair_in, repair_out],
        "metrics": [repair_in, repair_out],
        "report": [ws / "fixrate" / "fixrate.json"] + [ws / s for s in ("newviol", "sample", "semantic", "metrics")],
    }


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _load_sources(original_dir: Path, repaired_dir: Path, source_pair) -> dict:
    pairs = {}
    for path in sorted(original_dir.rglob("*")):
        if path.is_file():
            rel = path.relative_to(original_dir).as_posix()
            repaired = repaired_dir / rel
            pairs[rel] = source_pair.from_texts(
                rel, path.read_text(encoding="utf-8"),
                repaired.read_text(encoding="utf-8") if repaired.is_file() else "")
    return pairs


def _java_names(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*.java"))


def _contents(root: Path, names: list[str]) -> dict[str, bytes | None]:
    return {n: (root / n).read_bytes() if (root / n).is_file() else None for n in names}

