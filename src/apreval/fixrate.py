"""Fix-rate computation by exact-key row-wise matching.

A pre-repair violation counts as fixed when no post-repair entry carries an
equal ``(file, rule, start_line, end_line)`` key. Matching is multiset-aware:
k identical pre keys consume at most k identical post keys, so duplicate
findings on one span do not inflate the fix count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable

from .errors import StateMismatchError
from .terms import RuleProfile, StateLabel
from .violations import (
    Violation,
    ViolationReport,
    json_text,
    table_text,
    write_report,
)


@dataclass(frozen=True)
class MatchOutcome:
    """Partition of the pre-repair entries into fixed and surviving.

    Byte-identical duplicate entries are retained, so the two tuples
    partition the pre entries by position, not by value.
    """

    fixed: tuple[Violation, ...]
    surviving: tuple[Violation, ...]


def restrict_to_files(pre: ViolationReport, files: Iterable[str]) -> ViolationReport:
    """The findings of ``pre`` in ``files``: the pre report the fix-rate and
    new-violation axes score, restricted to the files sent to repair."""
    keep = set(files)
    # a filtered canonical report is still in canonical order
    return replace(pre, entries=tuple(v for v in pre.entries if v.file_id in keep))


def match_violations(pre: ViolationReport, post: ViolationReport) -> MatchOutcome:
    """Row-wise compare the pre report against the post report by key.

    Both reports must be normalized; entries are consumed in the reports'
    canonical order, which makes the outcome invariant under entry
    permutation of either input.
    """
    if pre.state is not StateLabel.PRE_REPAIR:
        raise StateMismatchError(f"pre report is labeled {pre.state.value!r}")
    if post.state is not StateLabel.POST_REPAIR:
        raise StateMismatchError(f"post report is labeled {post.state.value!r}")
    remaining = Counter(v.key for v in post.entries)
    fixed: list[Violation] = []
    surviving: list[Violation] = []
    for v in pre.entries:
        if remaining[v.key] > 0:
            remaining[v.key] -= 1
            surviving.append(v)
        else:
            fixed.append(v)
    return MatchOutcome(fixed=tuple(fixed), surviving=tuple(surviving))


@dataclass(frozen=True)
class FixRateRow:
    rule: str
    pre_count: int
    fixed_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.fixed_count <= self.pre_count:
            raise ValueError(f"fixed_count {self.fixed_count} outside [0, {self.pre_count}]")

    @property
    def fix_rate(self) -> float:
        return self.fixed_count / self.pre_count


@dataclass(frozen=True)
class FixRateTable:
    """Per-rule and overall fix rates for the rules of one profile."""

    rows: tuple[FixRateRow, ...]
    pre_total: int
    fixed_total: int

    @property
    def overall_rate(self) -> float:
        return self.fixed_total / self.pre_total if self.pre_total else 0.0


def render_percent(fixed: int, total: int) -> str:
    """Render a count ratio as a percentage with one decimal, half-up.

    Exact 100% and 0% render without a decimal, matching the usual
    fix-rate table style (e.g. 29/80 -> ``36.3%``, 281/281 -> ``100%``).
    """
    if total and fixed == total:
        return "100%"
    if fixed == 0:
        return "0%"
    pct = (Decimal(fixed) * 100 / Decimal(total)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return f"{pct}%"


def compute_fix_rates(outcome: MatchOutcome, profile: RuleProfile) -> FixRateTable:
    """Tabulate per-rule fix rates for profile rules with pre-violations.

    Rules outside the profile (present when the reports were produced with a
    wider analyzer rule set) are excluded from both the rows and the totals.
    Rules with zero pre-violations are omitted. Rows are ordered by
    descending pre-count, then rule code.
    """
    in_profile = set(profile.rules)
    pre_by_rule: Counter[str] = Counter()
    fixed_by_rule: Counter[str] = Counter()
    for v in outcome.fixed:
        if v.rule in in_profile:
            pre_by_rule[v.rule] += 1
            fixed_by_rule[v.rule] += 1
    for v in outcome.surviving:
        if v.rule in in_profile:
            pre_by_rule[v.rule] += 1
    rows = tuple(
        FixRateRow(rule=r, pre_count=pre_by_rule[r], fixed_count=fixed_by_rule[r])
        for r in sorted(pre_by_rule, key=lambda r: (-pre_by_rule[r], r))
    )
    return FixRateTable(
        rows=rows,
        pre_total=sum(pre_by_rule.values()),
        fixed_total=sum(fixed_by_rule.values()),
    )


@dataclass(frozen=True)
class FixRateSummary:
    csv_text: str
    json_text: str
    text: str


def summarize_fix_rate(table: FixRateTable) -> FixRateSummary:
    """Render a fix-rate table as CSV, JSON, and a human-readable listing."""
    csv_text = table_text(
        ("rule", "pre_count", "fixed_count", "fix_rate", "fixed_percent"),
        ((row.rule, row.pre_count, row.fixed_count, f"{row.fix_rate:.6f}",
          render_percent(row.fixed_count, row.pre_count)) for row in table.rows),
    )
    payload = {
        "rows": [
            {
                "rule": row.rule,
                "pre_count": row.pre_count,
                "fixed_count": row.fixed_count,
                "fix_rate": row.fix_rate,
                "fixed_percent": render_percent(row.fixed_count, row.pre_count),
            }
            for row in table.rows
        ],
        "overall": {
            "pre_total": table.pre_total,
            "fixed_total": table.fixed_total,
            "fix_rate": table.overall_rate,
            "fixed_percent": render_percent(table.fixed_total, table.pre_total),
        },
    }

    lines = [f"{'rule':<8}{'violations':>12}{'fixed':>8}{'rate':>8}"]
    for row in table.rows:
        lines.append(
            f"{row.rule:<8}{row.pre_count:>12}{row.fixed_count:>8}"
            f"{render_percent(row.fixed_count, row.pre_count):>8}"
        )
    lines.append(
        f"{'overall':<8}{table.pre_total:>12}{table.fixed_total:>8}"
        f"{render_percent(table.fixed_total, table.pre_total):>8}"
    )
    return FixRateSummary(csv_text=csv_text, json_text=json_text(payload), text="\n".join(lines) + "\n")


def score_fix_rate(pre: ViolationReport, post: ViolationReport, profile: RuleProfile, out_dir: Path) -> str:
    """Match ``pre`` against ``post``, write ``fixrate.csv``, ``fixrate.json``
    and ``fixed_violations.csv`` to ``out_dir``, and return the fix-rate listing."""
    outcome = match_violations(pre, post)
    summary = summarize_fix_rate(compute_fix_rates(outcome, profile))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "fixrate.csv").write_text(summary.csv_text, encoding="utf-8")
    (out_dir / "fixrate.json").write_text(summary.json_text, encoding="utf-8")
    with open(out_dir / "fixed_violations.csv", "w", encoding="utf-8", newline="") as fh:
        write_report(fh, outcome.fixed)
    return summary.text
