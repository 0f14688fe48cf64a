"""Validation-sampling workflow for manually auditing detector verdicts.

Covers the four steps used to estimate detector precision: Cochran sample
sizing with finite-population correction, stratified sampling by rule with
proportional allocation and a minimum of one item per stratum, export and
ingestion of a two-evaluator labeling sheet, and the one-sided exact
binomial test of the resulting true-positive proportion against a
precision threshold.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence, TextIO

from .errors import (
    ConflictingVerdictsError,
    InfeasibleTargetError,
    InvalidParameterError,
    MalformedInputError,
    MissingSourceError,
    UnlabeledRowError,
)
from .newviol import SourcePair, extract_fragment
from .stats import Direction, StatResult
from .terms import Z_TABLE
from .violations import Violation, csv_writer, json_text, read_csv_table

if TYPE_CHECKING:
    from .pipeline import SamplingParams

SHEET_HEADER = (
    "item_id", "file", "rule", "start_line", "end_line", "fragment",
    "evaluator1_verdict", "evaluator2_verdict", "adjudicated_verdict",
)


def _check_params(confidence: float, margin: float, proportion: float) -> None:
    if not 0 < margin < 1:
        raise InvalidParameterError(f"margin must be in (0, 1), got {margin}")
    if not 0 < proportion < 1:
        raise InvalidParameterError(f"proportion must be in (0, 1), got {proportion}")
    if confidence not in Z_TABLE:
        raise InvalidParameterError(f"confidence must be one of {sorted(Z_TABLE)}, got {confidence}")


def cochran_sample_size(
    population_size: int,
    confidence: float = 0.95,
    margin: float = 0.05,
    proportion: float = 0.5,
) -> int:
    """Cochran sample size with finite-population correction, rounded up.

    Never exceeds the population. For N=2120 at 95% confidence, 5% margin,
    0.5 proportion this yields 326.
    """
    if population_size < 1:
        raise InvalidParameterError(f"population_size must be >= 1, got {population_size}")
    _check_params(confidence, margin, proportion)
    z = Z_TABLE[confidence]
    n0 = z * z * proportion * (1.0 - proportion) / (margin * margin)
    corrected = n0 / (1.0 + (n0 - 1.0) / population_size)
    return min(math.ceil(corrected), population_size)


@dataclass(frozen=True)
class StratifiedSample:
    """Seeded per-rule sample with its final allocation."""

    strata: Mapping[str, tuple[Violation, ...]]
    allocation: Mapping[str, int]
    seed: int

    @property
    def size(self) -> int:
        return sum(self.allocation.values())


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def allocate_proportional(
    populations: Mapping[str, int], target_n: int
) -> dict[str, int]:
    """Proportional allocation with a floor of one item per nonempty stratum.

    Initial counts are max(1, round(target * share)); while the total
    overshoots the target the currently largest allocation is decremented
    (ties broken by rule code), and symmetrically the smallest allocation
    with remaining population is incremented while the total undershoots.
    No allocation drops below 1 or exceeds its stratum population.
    """
    sizes = {r: n for r, n in populations.items() if n > 0}
    if not sizes:
        return {}
    if target_n < len(sizes):
        raise InfeasibleTargetError(target_n, len(sizes))
    total = sum(sizes.values())
    if target_n > total:
        raise InvalidParameterError(
            f"target {target_n} exceeds population {total}"
        )
    alloc = {
        r: min(max(1, _round_half_up(target_n * n / total)), n)
        for r, n in sizes.items()
    }
    while sum(alloc.values()) > target_n:
        rule = min(
            (r for r in alloc if alloc[r] > 1),
            key=lambda r: (-alloc[r], r),
        )
        alloc[rule] -= 1
    while sum(alloc.values()) < target_n:
        rule = min(
            (r for r in alloc if alloc[r] < sizes[r]),
            key=lambda r: (alloc[r], r),
        )
        alloc[rule] += 1
    return alloc


def stratified_sample(
    population: Mapping[str, Sequence[Violation]],
    target_n: int,
    seed: int,
) -> StratifiedSample:
    """Draw a seeded stratified sample with proportional, min-one allocation.

    Items are drawn uniformly without replacement within each stratum;
    identical (population, target, seed) inputs reproduce the sample
    exactly.
    """
    sizes = {r: len(items) for r, items in population.items()}
    alloc = allocate_proportional(sizes, target_n)
    rng = random.Random(seed)
    strata: dict[str, tuple[Violation, ...]] = {}
    for rule in sorted(alloc):
        items = list(population[rule])
        strata[rule] = tuple(rng.sample(items, alloc[rule]))
    return StratifiedSample(strata=strata, allocation=alloc, seed=seed)


def export_labeling_sheet(
    sample: StratifiedSample, sources: Mapping[str, SourcePair]
) -> str:
    """Render the manual-verification sheet: one row per sampled violation.

    The fragment column carries the flagged repaired-code lines so
    evaluators can judge without opening files; verdict columns start
    blank. Output is deterministic for a given sample.
    """
    items = [v for rule in sorted(sample.strata) for v in sorted(sample.strata[rule], key=lambda v: v.key)]
    # each sampled file is looked up once, for all of its spans
    fragments: dict[tuple[str, tuple[int, int]], str] = {}
    for file_id, spans in groupby(sorted({(v.file_id, v.span) for v in items}), key=itemgetter(0)):
        pair = sources.get(file_id)
        if pair is None:
            raise MissingSourceError(file_id)
        for _, span in spans:
            fragments[file_id, span] = (
                "<file deleted>" if pair.repaired_deleted else "\n".join(extract_fragment(pair, span).lines)
            )
    buf = io.StringIO()
    writer = csv_writer(buf)
    writer.writerow(SHEET_HEADER)
    for item_no, v in enumerate(items, 1):
        writer.writerow(
            [f"item{item_no:04d}", v.file_id, v.rule, v.start_line, v.end_line,
             fragments[v.file_id, v.span], "", "", ""]
        )
    return buf.getvalue()


def sample_new(
    new: Sequence[Violation],
    params: SamplingParams,
    seed: int,
    sources: Mapping[str, SourcePair],
    sheet: Path,
    allocation: Path | None = None,
) -> str:
    """Draw a Cochran-sized sample of the new violations, stratified by rule,
    write its labeling sheet to ``sheet`` and, when ``allocation`` is given,
    the allocation JSON there, and return a one-line summary.

    The parameters are checked even with nothing to draw. The target is
    raised to one item per rule when Cochran asks for fewer.
    """
    _check_params(*params)
    population: dict[str, list[Violation]] = {}
    for v in new:
        population.setdefault(v.rule, []).append(v)
    target = 0
    if population:
        target = max(cochran_sample_size(len(new), *params), len(population))
    sample = stratified_sample(population, target, seed)
    sheet.write_text(export_labeling_sheet(sample, sources), encoding="utf-8")
    if allocation is not None:
        payload = {"population": len(new), "target_n": sample.size, "allocation": dict(sample.allocation)}
        if new:  # an empty population draws nothing, so no seed is recorded
            payload["seed"] = seed
        allocation.write_text(json_text(payload), encoding="utf-8")
    return f"sampled {sample.size} of {len(new)} new violations across {len(sample.allocation)} rules"


class LabelVerdict(Enum):
    TP = "TP"
    FP = "FP"
    UNLABELED = ""


@dataclass(frozen=True)
class LabelRecord:
    item_id: str
    verdict: LabelVerdict
    evaluator_id: str


def _parse_verdict(raw: str, line: int, column: str) -> LabelVerdict:
    token = raw.strip().upper()
    if token == "":
        return LabelVerdict.UNLABELED
    if token in ("TP", "FP"):
        return LabelVerdict(token)
    raise MalformedInputError(f"{column} must be TP or FP, got {raw!r}", line)


def ingest_labels(raw: bytes | str | TextIO) -> list[LabelRecord]:
    """Read back a filled labeling sheet into per-item final verdicts.

    Rows where the two evaluators agree yield a consensus record; rows
    where they disagree require the adjudicated column. Rows with missing
    verdicts are rejected, since precision cannot be computed over
    unlabeled items.
    """
    records: list[LabelRecord] = []
    for line, row in read_csv_table(raw, SHEET_HEADER):
        item = row[0]
        e1, e2, adj = (_parse_verdict(raw, line, column) for raw, column in zip(row[-3:], SHEET_HEADER[-3:]))
        if e1 is LabelVerdict.UNLABELED or e2 is LabelVerdict.UNLABELED:
            raise UnlabeledRowError(f"item {item!r} (line {line}) lacks an evaluator verdict")
        if e1 is not e2:
            if adj is LabelVerdict.UNLABELED:
                raise ConflictingVerdictsError(
                    f"item {item!r} (line {line}): evaluators disagree and no adjudicated verdict is present"
                )
            records.append(LabelRecord(item_id=item, verdict=adj, evaluator_id="adjudicator"))
        else:
            records.append(LabelRecord(item_id=item, verdict=e1, evaluator_id="consensus"))
    return records


def label_counts(records: Sequence[LabelRecord]) -> tuple[int, int]:
    """(true positives, false positives) over final verdicts."""
    tp = sum(1 for r in records if r.verdict is LabelVerdict.TP)
    fp = sum(1 for r in records if r.verdict is LabelVerdict.FP)
    return tp, fp


def exact_binomial_test(
    successes: int, trials: int, null_proportion: float, alternative: str = "greater"
) -> StatResult:
    """One-sided exact binomial tail P(X >= k | n, p0) via log-space summation.

    No normal approximation is involved, so the p-value is exact up to
    floating-point summation error. The reported statistic is the observed
    proportion k/n.
    """
    if alternative != "greater":
        raise InvalidParameterError(f"only the 'greater' alternative is supported, got {alternative!r}")
    if trials < 0 or not 0 <= successes <= trials:
        raise InvalidParameterError(f"need 0 <= successes <= trials, got k={successes}, n={trials}")
    if not 0.0 < null_proportion < 1.0:
        raise InvalidParameterError(f"null proportion must be in (0, 1), got {null_proportion}")
    if successes == 0:
        p_value = 1.0  # P(X >= 0) is 1 identically; avoid summation round-off
    else:
        log_p = math.log(null_proportion)
        log_q = math.log1p(-null_proportion)
        log_n_fact = math.lgamma(trials + 1)
        total = 0.0
        for i in range(successes, trials + 1):
            log_term = (
                log_n_fact - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
                + i * log_p + (trials - i) * log_q
            )
            total += math.exp(log_term)
        p_value = min(1.0, total)
    return StatResult(
        test_name="exact_binomial",
        statistic=successes / trials if trials else 0.0,
        p_value=p_value,
        n_effective=trials,
        direction=Direction.NONE,
    )
