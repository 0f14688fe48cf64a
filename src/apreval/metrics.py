"""File-level aggregation of class-level structural metrics and paired tests.

The metric extractor reports eight metrics per class; files are the unit
of repair, so classes are rolled up per file: DIT as the maximum across
the file's classes, everything else summed. Pre/post states are inner-
joined on file id (files present in only one state are excluded with a
reason) and each metric's paired deltas drive the normality check, the
signed-rank test, and the direction summary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Mapping, Sequence, TextIO

from .errors import DegenerateSampleError, MalformedInputError, SampleTooSmallError
from .stats import (
    NORMALITY_MIN_N,
    DirectionSummary,
    PairedSeries,
    StatResult,
    dagostino_pearson,
    signed_rank_direction,
    wilcoxon_signed_rank,
)
from .violations import csv_writer, json_text, parse_file, read_csv_table, table_text

METRIC_NAMES = ("noc", "npa", "dit", "lcom1", "wmc", "cbo", "rfc", "loc")
SUM_METRICS = ("noc", "npa", "lcom1", "wmc", "cbo", "rfc", "loc")
MAX_METRICS = ("dit",)

METRICS_CSV_HEADER = ("file", "class") + METRIC_NAMES


@dataclass(frozen=True)
class ClassMetricsRow:
    """One class's metrics as produced by the extractor."""

    file_id: str
    class_name: str
    values: Mapping[str, int]

    def __post_init__(self) -> None:
        missing = [m for m in METRIC_NAMES if m not in self.values]
        if missing:
            raise ValueError(f"{self.class_name}: missing metrics {missing}")
        negative = [m for m in METRIC_NAMES if self.values[m] < 0]
        if negative:
            raise ValueError(f"{self.class_name}: negative metrics {negative}")


@dataclass(frozen=True)
class FileMetrics:
    file_id: str
    values: Mapping[str, int]


@dataclass(frozen=True)
class MetricPair:
    file_id: str
    pre: FileMetrics
    post: FileMetrics


def read_class_metrics_csv(raw: bytes | str | TextIO) -> list[ClassMetricsRow]:
    """Parse an extractor CSV with header ``file,class,noc,...,loc``."""
    rows: list[ClassMetricsRow] = []
    for line, row in read_csv_table(raw, METRICS_CSV_HEADER, fold_case=True):
        try:
            values = {m: int(v) for m, v in zip(METRIC_NAMES, row[2:])}
            rows.append(ClassMetricsRow(file_id=row[0], class_name=row[1], values=values))
        except ValueError as exc:
            raise MalformedInputError(str(exc), line) from None
    return rows


def aggregate_file_metrics(rows: Sequence[ClassMetricsRow]) -> list[FileMetrics]:
    """Roll class rows up to one record per file: sums, with DIT as max.

    Files with no class rows simply produce no record. Output is ordered
    by file id.
    """
    by_file: dict[str, list[ClassMetricsRow]] = defaultdict(list)
    for row in rows:
        by_file[row.file_id].append(row)
    result: list[FileMetrics] = []
    for file_id in sorted(by_file):
        group = by_file[file_id]
        values = {m: sum(r.values[m] for r in group) for m in SUM_METRICS}
        for m in MAX_METRICS:
            values[m] = max(r.values[m] for r in group)
        result.append(FileMetrics(file_id=file_id, values=values))
    return result


def pair_pre_post(
    pre: Sequence[FileMetrics], post: Sequence[FileMetrics]
) -> tuple[list[MetricPair], list[tuple[str, str]]]:
    """Inner-join the two states on file id.

    Returns the pairs plus an exclusion log of (file_id, reason) for files
    present in only one state, e.g. deleted or uncompilable files that have
    no post-repair metrics.
    """
    pre_by_id = {m.file_id: m for m in pre}
    post_by_id = {m.file_id: m for m in post}
    pairs: list[MetricPair] = []
    exclusions: list[tuple[str, str]] = []
    for file_id in sorted(set(pre_by_id) | set(post_by_id)):
        if file_id in pre_by_id and file_id in post_by_id:
            pairs.append(MetricPair(file_id=file_id, pre=pre_by_id[file_id], post=post_by_id[file_id]))
        elif file_id in pre_by_id:
            exclusions.append((file_id, "PostAbsent"))
        else:
            exclusions.append((file_id, "PreAbsent"))
    return pairs, exclusions


@dataclass(frozen=True)
class MetricStats:
    metric: str
    n_pairs: int
    normality: StatResult | None  # None when skipped (too few pairs or degenerate)
    normality_note: str
    wilcoxon: StatResult
    direction: DirectionSummary
    pre_median: float
    post_median: float


@dataclass(frozen=True)
class StructuralReport:
    per_metric: tuple[MetricStats, ...]

    def significant(self, alpha: float = 0.05) -> tuple[str, ...]:
        return tuple(
            s.metric for s in self.per_metric if s.wilcoxon.significant_at(alpha) is True
        )


def structural_report(pairs: Sequence[MetricPair]) -> StructuralReport:
    """Per-metric paired statistics over the joined file set.

    Normality is assessed on the pre-state values (it motivates the
    nonparametric choice and is reported for transparency); the signed-rank
    test runs regardless. Metrics whose deltas are all zero come out
    undefined rather than significant.
    """
    per_metric: list[MetricStats] = []
    for metric in METRIC_NAMES:
        pre_values = [float(p.pre.values[metric]) for p in pairs]
        post_values = [float(p.post.values[metric]) for p in pairs]
        deltas = tuple(b - a for a, b in zip(pre_values, post_values))
        series = PairedSeries(metric_name=metric, deltas=deltas)
        normality: StatResult | None = None
        note = ""
        try:
            normality = dagostino_pearson(pre_values)
        except SampleTooSmallError:
            note = f"skipped: {len(pairs)} pairs < {NORMALITY_MIN_N}"
        except DegenerateSampleError as exc:
            note = f"skipped: {exc}"
        per_metric.append(
            MetricStats(
                metric=metric,
                n_pairs=len(pairs),
                normality=normality,
                normality_note=note,
                wilcoxon=wilcoxon_signed_rank(series),
                direction=signed_rank_direction(series),
                pre_median=median(pre_values) if pre_values else 0.0,
                post_median=median(post_values) if post_values else 0.0,
            )
        )
    return StructuralReport(per_metric=tuple(per_metric))


def _na(value: float | None, fmt: str = "{:.10g}") -> str:
    return "NA" if value is None else fmt.format(value)


def structural_stats_csv(report: StructuralReport) -> str:
    """Rows of ``structural_stats.csv``; NA marks undefined values."""
    return table_text(
        ("metric", "n", "test", "statistic", "p_value", "median_delta", "mean_signed_rank", "direction"),
        ((s.metric, s.wilcoxon.n_effective, "wilcoxon_signed_rank", _na(s.wilcoxon.statistic),
          _na(s.wilcoxon.p_value), _na(s.direction.median_delta), _na(s.direction.mean_signed_rank),
          s.wilcoxon.direction.value) for s in report.per_metric),
    )


def metric_medians_csv(report: StructuralReport) -> str:
    return table_text(
        ("metric", "pre_median", "post_median"),
        ((s.metric, _na(s.pre_median), _na(s.post_median)) for s in report.per_metric),
    )


def signed_ranks_csv(report: StructuralReport) -> str:
    return table_text(
        ("metric", "mean_signed_rank", "direction"),
        ((s.metric, _na(s.direction.mean_signed_rank), s.direction.direction.value) for s in report.per_metric),
    )


def normality_csv(report: StructuralReport) -> str:
    # a note is quoted by hand: table_text quotes nothing
    return table_text(
        ("metric", "n", "k2", "p_value", "note"),
        ((s.metric, s.n_pairs, "NA", "NA", f'"{s.normality_note}"') if s.normality is None
         else (s.metric, s.normality.n_effective, _na(s.normality.statistic), _na(s.normality.p_value), "")
         for s in report.per_metric),
    )


def score_metrics(pre_csv: Path, post_csv: Path, out_dir: Path) -> str:
    """Roll the extractor CSVs of the two states up per file, join them, write
    the four statistics CSVs, ``exclusions.csv`` and ``metrics.json`` to
    ``out_dir``, and return a one-line summary."""
    pre, post = (aggregate_file_metrics(parse_file(p, read_class_metrics_csv)) for p in (pre_csv, post_csv))
    pairs, exclusions = pair_pre_post(pre, post)
    report = structural_report(pairs)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, render in (("structural_stats", structural_stats_csv), ("metric_medians", metric_medians_csv),
                         ("signed_ranks", signed_ranks_csv), ("normality", normality_csv)):
        (out_dir / f"{name}.csv").write_text(render(report), encoding="utf-8")
    with (out_dir / "exclusions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv_writer(fh)
        writer.writerow(["file", "reason"])
        writer.writerows(exclusions)
    payload = {
        "n_pairs": len(pairs),
        "excluded": len(exclusions),
        "significant": list(report.significant()),
        "per_metric": [
            {
                "metric": s.metric,
                "n_effective": s.wilcoxon.n_effective,
                "statistic": s.wilcoxon.statistic,
                "p_value": s.wilcoxon.p_value,
                "direction": s.wilcoxon.direction.value,
                "median_delta": s.direction.median_delta,
                "mean_signed_rank": s.direction.mean_signed_rank,
                "pre_median": s.pre_median,
                "post_median": s.post_median,
            }
            for s in report.per_metric
        ],
    }
    (out_dir / "metrics.json").write_text(json_text(payload), encoding="utf-8")
    sig = ", ".join(report.significant()) or "none"
    return f"{len(pairs)} file pairs ({len(exclusions)} excluded); significant at 0.05: {sig}"
