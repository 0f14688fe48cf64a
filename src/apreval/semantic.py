"""Behavior-preservation analysis from per-test outcomes.

Generated tests that pass on the original code form a baseline; the same
tests are run on the repaired code and every non-pass becomes a
regression. Failures are bucketed by exception kind and compile
diagnostics by javac message, both through substring-pattern tables
shipped as editable data files, keeping the module runner-agnostic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

from .errors import MalformedInputError
from .terms import load_data_json
from .violations import csv_writer, json_text, parse_file, parse_json, read_csv_table, table_text

RESULTS_CSV_HEADER = ("test_id", "target_file", "status", "failure_kind")


class TestStatus(Enum):
    __test__ = False  # domain class, not a pytest case

    PASS = "pass"
    FAIL = "fail"
    SKIP = "skip"


@dataclass(frozen=True, slots=True)
class TestOutcome:
    """One test case's result in one corpus state."""

    __test__ = False  # domain class, not a pytest case

    test_id: str
    target_file: str | None
    status: TestStatus
    failure_kind: str | None = None

    def __post_init__(self) -> None:
        if (self.status is TestStatus.FAIL) != (self.failure_kind is not None):
            raise ValueError("failure_kind must be present exactly for failing outcomes")


class FailureClass(Enum):
    ILLEGAL_ACCESS = "IllegalAccess"
    NO_CLASS_DEF = "NoClassDef"
    ASSERTION = "Assertion"
    SIMULATION_ARTIFACT = "SimulationArtifact"
    OTHER = "Other"


class CompileErrorClass(Enum):
    CANNOT_FIND_SYMBOL = "CannotFindSymbol"
    NOT_INITIALIZED = "NotInitialized"
    ASSIGN_TO_FINAL = "AssignToFinal"
    NOT_A_STATEMENT = "NotAStatement"
    EXCEPTION_NEVER_THROWN = "ExceptionNeverThrown"
    ILLEGAL_MODIFIER_COMBO = "IllegalModifierCombo"
    PARENT_PRIVATE_ACCESS = "ParentPrivateAccess"
    OTHER = "Other"


@lru_cache(maxsize=None)
def _failure_patterns() -> tuple[tuple[FailureClass, tuple[str, ...], bool], ...]:
    doc = load_data_json("failure_patterns.json")
    return tuple(
        (FailureClass(entry["class"]), tuple(entry["patterns"]), bool(entry.get("ci", False)))
        for entry in doc["classes"]
    )


@lru_cache(maxsize=None)
def _compile_patterns() -> tuple[tuple[CompileErrorClass, str], ...]:
    doc = load_data_json("compile_error_patterns.json")
    return tuple((CompileErrorClass(entry["class"]), entry["pattern"]) for entry in doc["classes"])


def classify_failure(kind: str) -> FailureClass:
    """Bucket a test failure by its recorded failure kind.

    Patterns are tried in table order; the first substring hit wins and
    anything unmatched is Other, so classification is total.
    """
    for cls, patterns, ci in _failure_patterns():
        haystack = kind.lower() if ci else kind
        for pattern in patterns:
            if (pattern.lower() if ci else pattern) in haystack:
                return cls
    return FailureClass.OTHER


@dataclass(frozen=True)
class CompileErrorMatch:
    cls: CompileErrorClass
    matched_pattern: str


def classify_compile_error(diagnostic: str) -> CompileErrorMatch:
    """Bucket a compiler diagnostic; first matching table pattern wins."""
    lowered = diagnostic.lower()
    for cls, pattern in _compile_patterns():
        if pattern.lower() in lowered:
            return CompileErrorMatch(cls=cls, matched_pattern=pattern)
    return CompileErrorMatch(cls=CompileErrorClass.OTHER, matched_pattern="")


# --- ingestion ----------------------------------------------------------------


#: each status by its name in a result file
_STATUSES = {status.value: status for status in TestStatus}


def _parse_results_csv(raw: bytes | str | TextIO) -> Iterable[TestOutcome]:
    for line, (test_id, target_file, status_raw, failure_kind) in read_csv_table(raw, RESULTS_CSV_HEADER):
        status = _STATUSES.get(status_raw.strip().lower())
        if status is None:
            raise MalformedInputError(f"unknown status {status_raw!r}", line)
        try:
            yield TestOutcome(
                test_id=test_id,
                target_file=target_file or None,
                status=status,
                failure_kind=failure_kind if status is TestStatus.FAIL else None,
            )
        except ValueError as exc:
            raise MalformedInputError(str(exc), line) from None


def ingest_test_results(raw: bytes | str | TextIO) -> list[TestOutcome]:
    """Normalize a runner's result file into TestOutcome records.

    Output is sorted by test id; a duplicated test id is malformed input
    because the pre/post diff needs one outcome per test per state.
    """
    outcomes = sorted(_parse_results_csv(raw), key=attrgetter("test_id"))
    for a, b in zip(outcomes, outcomes[1:]):
        if a.test_id == b.test_id:
            raise MalformedInputError(f"duplicate test id {a.test_id!r}")
    return outcomes


def filter_baseline(original_run: Sequence[TestOutcome]) -> set[str]:
    """Ids of tests that pass on the original code; only these are diffable."""
    return {o.test_id for o in original_run if o.status is TestStatus.PASS}


@dataclass(frozen=True, slots=True)
class Regression:
    test_id: str
    status: TestStatus
    failure_kind: str | None
    missing_in_repaired_run: bool = False


def diff_test_outcomes(
    baseline_ids: set[str], repaired_run: Sequence[TestOutcome]
) -> list[Regression]:
    """Baseline tests that no longer pass on the repaired code.

    A baseline id absent from the repaired run is counted as a regression
    and flagged: a deleted or uncompilable class makes its tests unrunnable,
    which in practice surfaces as a missing class definition.
    """
    by_id = {o.test_id: o for o in repaired_run}
    regressions: list[Regression] = []
    for test_id in sorted(baseline_ids):
        outcome = by_id.get(test_id)
        if outcome is None:
            regressions.append(
                Regression(
                    test_id=test_id,
                    status=TestStatus.FAIL,
                    failure_kind="NoClassDefFoundError (missing in repaired run)",
                    missing_in_repaired_run=True,
                )
            )
        elif outcome.status is not TestStatus.PASS:
            regressions.append(
                Regression(
                    test_id=test_id,
                    status=outcome.status,
                    failure_kind=outcome.failure_kind,
                )
            )
    return regressions


@dataclass(frozen=True)
class SemanticSummary:
    executed: int
    failed: int
    failure_histogram: Mapping[FailureClass, int]
    excluded_simulation_artifacts: int
    compile_error_histogram: Mapping[CompileErrorClass, int]
    uncompilable_files: int

    @property
    def pass_rate(self) -> float:
        return (self.executed - self.failed) / self.executed if self.executed else 1.0


def summarize_semantic(
    baseline_ids: set[str],
    regressions: Sequence[Regression],
    compile_diagnostics: Mapping[str, str] | None = None,
) -> SemanticSummary:
    """Aggregate regression counts, failure classes, and compile errors.

    Simulation artifacts stay in the failed count but are excluded from the
    analyzed failure histogram. ``compile_diagnostics`` maps each
    post-repair uncompilable file to its captured diagnostic.
    """
    histogram: Counter[FailureClass] = Counter()
    excluded = 0
    for reg in regressions:
        cls = classify_failure(reg.failure_kind or "unknown failure")
        if cls is FailureClass.SIMULATION_ARTIFACT:
            excluded += 1
        else:
            histogram[cls] += 1
    compile_hist: Counter[CompileErrorClass] = Counter()
    diagnostics = compile_diagnostics or {}
    for diag in diagnostics.values():
        compile_hist[classify_compile_error(diag).cls] += 1
    return SemanticSummary(
        executed=len(baseline_ids),
        failed=len(regressions),
        failure_histogram=dict(histogram),
        excluded_simulation_artifacts=excluded,
        compile_error_histogram=dict(compile_hist),
        uncompilable_files=len(diagnostics),
    )


def read_compile_results(results_json: Path) -> tuple[list[str], dict[str, str]]:
    """The files a compiler's ``compile_results.json`` accepts, sorted, and its diagnostics of the rest."""
    return parse_file(results_json, _parse_compile_results)


def _parse_compile_results(data: bytes) -> tuple[list[str], dict[str, str]]:
    results = parse_json(data)
    if not isinstance(results, list):
        raise MalformedInputError("expected a list of records")
    compilable: list[str] = []
    rejected: dict[str, str] = {}
    for i, r in enumerate(results):
        if not (
            isinstance(r, dict) and isinstance(r.get("file"), str) and "ok" in r
            and (r["ok"] or isinstance(r.get("diagnostic"), str))
        ):
            raise MalformedInputError(f"record {i} needs a string file, ok and, when not ok, a string diagnostic")
        if r["ok"]:
            compilable.append(r["file"])
        else:
            rejected[r["file"]] = r["diagnostic"]
    return sorted(compilable), rejected


def score_semantic(
    baseline_csv: Path, repaired_csv: Path, compile_diagnostics: Mapping[str, str], out_dir: Path
) -> str:
    """Diff the result files of the original and repaired code, write
    ``regressions.csv``, ``failure_histogram.csv``, ``compile_errors.csv`` and
    ``semantic.json`` to ``out_dir``, and return a one-line summary."""
    baseline = filter_baseline(parse_file(baseline_csv, ingest_test_results))
    regressions = diff_test_outcomes(baseline, parse_file(repaired_csv, ingest_test_results))
    summary = summarize_semantic(baseline, regressions, compile_diagnostics)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "regressions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv_writer(fh)
        writer.writerow(["test_id", "status", "failure_kind", "missing_in_repaired_run"])
        for reg in regressions:
            writer.writerow(
                [reg.test_id, reg.status.value, reg.failure_kind or "",
                 str(reg.missing_in_repaired_run).lower()]
            )
    (out_dir / "failure_histogram.csv").write_text(
        table_text(("failure_class", "count"),
                   ((cls.value, summary.failure_histogram.get(cls, 0)) for cls in FailureClass)),
        encoding="utf-8",
    )
    (out_dir / "compile_errors.csv").write_text(
        table_text(("compile_error_class", "count"),
                   ((cls.value, summary.compile_error_histogram.get(cls, 0)) for cls in CompileErrorClass)),
        encoding="utf-8",
    )
    payload = {
        "executed": summary.executed,
        "failed": summary.failed,
        "pass_rate": summary.pass_rate,
        "excluded_simulation_artifacts": summary.excluded_simulation_artifacts,
        "failure_histogram": {cls.value: n for cls, n in summary.failure_histogram.items()},
        "compile_error_histogram": {cls.value: n for cls, n in summary.compile_error_histogram.items()},
        "uncompilable_files": summary.uncompilable_files,
    }
    (out_dir / "semantic.json").write_text(json_text(payload), encoding="utf-8")
    return (
        f"executed {summary.executed}, failed {summary.failed}, "
        f"pass rate {summary.pass_rate:.1%}, uncompilable files {summary.uncompilable_files}"
    )
