"""Detection of repair-introduced violations despite line-position shifts.

Repair tools reformat code, so a post-repair finding whose key has no exact
pre-repair match is not necessarily new. Each post-repair violation is
classified in three stages:

1. extract the flagged code fragment from the repaired file and search for
   it verbatim (contiguous lines) in the original file -- found means the
   code predates the repair;
2. otherwise look the violation's exact key up in the pre-repair report;
3. otherwise the violation is new, i.e. introduced by the tool.

Fragment comparison is byte-exact by default; a loose mode that ignores
indentation and trailing whitespace is available because reformatting alone
otherwise produces spurious "new" verdicts.
"""

from __future__ import annotations

import os
import stat
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, TextIO

from .errors import HarnessError, MalformedInputError, MissingSourceError, SpanOutOfBoundsError
# NormalizationPolicy is defined in terms, so that a config can be loaded
# without this module; it stays importable from here
from .terms import NormalizationPolicy
from .violations import (
    Severity,
    Violation,
    ViolationReport,
    ViolationType,
    csv_writer,
    decode_input,
    parse_file,
    read_csv_table,
    table_text,
    violation_row,
)


@dataclass(frozen=True)
class SourcePair:
    """Original and repaired text of one file, as line lists."""

    file_id: str
    original_lines: tuple[str, ...]
    repaired_lines: tuple[str, ...]

    @classmethod
    def from_texts(cls, file_id: str, original: str, repaired: str) -> "SourcePair":
        return cls(
            file_id=file_id,
            original_lines=tuple(original.splitlines()),
            repaired_lines=tuple(repaired.splitlines()),
        )

    @property
    def repaired_deleted(self) -> bool:
        return len(self.repaired_lines) == 0


class SourceTrees(Mapping):
    """The SourcePair of each of ``files`` in an original tree, read from it
    and from the repaired tree at each lookup and not kept.

    With ``originals=False`` no original file is read and each pair's
    original lines are empty: enough for a labelling sheet, which shows
    repaired code alone.
    """

    def __init__(self, original_dir: Path, repaired_dir: Path, files: Iterable[str], originals: bool = True):
        self.original_dir, self.repaired_dir = original_dir, repaired_dir
        self.files = dict.fromkeys(files)
        self.originals = originals

    def original(self, rel: str) -> str | None:
        """The path of ``rel`` in the original tree, if it is one of its files."""
        return os.path.join(self.original_dir, rel) if rel in self.files else None

    def repaired(self, rel: str) -> str:
        return os.path.join(self.repaired_dir, rel)

    def __getitem__(self, rel: str) -> SourcePair:
        if rel not in self.files:
            raise KeyError(rel)
        original = parse_file(Path(self.original(rel)), decode_input) if self.originals else ""
        repaired = self.repaired(rel)
        text = parse_file(Path(repaired), decode_input) if os.path.isfile(repaired) else ""
        return SourcePair.from_texts(rel, original, text)

    def __iter__(self) -> Iterator[str]:
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)

    def deleted(self) -> list[str]:
        """The files whose pair is ``repaired_deleted`` (the repaired file is
        absent or empty), sorted, found without reading any."""
        def empty(rel: str) -> bool:
            try:
                st = os.stat(self.repaired(rel))
            except OSError:
                return True
            return not stat.S_ISREG(st.st_mode) or st.st_size == 0

        return sorted(filter(empty, self.files))


@dataclass(frozen=True, slots=True)
class Fragment:
    """The code lines a violation's span covers in the repaired file."""

    file_id: str
    lines: tuple[str, ...]
    span: tuple[int, int]

    def __post_init__(self) -> None:
        start, end = self.span
        if len(self.lines) != end - start + 1:
            raise ValueError(f"fragment has {len(self.lines)} lines for span {start}-{end}")


class VerdictKind(Enum):
    NOT_NEW_FRAGMENT_FOUND = "not_new_fragment_found"
    NOT_NEW_KEY_MATCH = "not_new_key_match"
    NEW = "new"


@dataclass(frozen=True, slots=True)
class NewViolationVerdict:
    violation: Violation
    verdict: VerdictKind
    #: 1-based line in the original file where the evidence sits; absent for NEW
    evidence: int | None = None

    def __post_init__(self) -> None:
        if (self.verdict is VerdictKind.NEW) != (self.evidence is None):
            raise ValueError("evidence must be present exactly when the verdict is not NEW")
        if self.evidence is not None and self.evidence < 1:
            raise ValueError(f"evidence must be a line number >= 1, got {self.evidence}")


def extract_fragment(pair: SourcePair, span: tuple[int, int]) -> Fragment:
    """Slice the repaired file's lines for a violation span (1-based, inclusive)."""
    start, end = span
    n = len(pair.repaired_lines)
    if start < 1 or end > n:
        raise SpanOutOfBoundsError(f"span {start}-{end} out of bounds for {pair.file_id!r} ({n} lines); "
                                   "the report is stale with respect to the sources")
    return Fragment(file_id=pair.file_id, lines=pair.repaired_lines[start - 1 : end], span=span)


class _LineIndex:
    """One original file's normalized lines and where the wanted ones sit.

    Only the lines a caller will look fragments up by (their first lines)
    get a position list, so a search visits just the positions of the
    fragment's first line: O(lines) to build, then O(candidate starts) per
    lookup instead of a window slid over the file.
    """

    def __init__(
        self, lines: tuple[str, ...], normalization: NormalizationPolicy, firsts: Iterable[str]
    ) -> None:
        self.normalization = normalization
        self.lines = self._normalized(lines)
        wanted = set(self._normalized(firsts))
        self.positions: dict[str, list[int]] = {}
        for i, line in enumerate(self.lines):
            if line in wanted:
                self.positions.setdefault(line, []).append(i)

    def _normalized(self, lines: Iterable[str]) -> Iterable[str]:
        # EXACT hands back what it was given: a tuple stays a tuple
        if self.normalization is NormalizationPolicy.EXACT:
            return lines
        return tuple(map(str.strip, lines))

    def find(self, fragment: Fragment) -> int | None:
        needle = self._normalized(fragment.lines)
        k = len(needle)
        if k == 0:
            return None
        last = len(self.lines) - k
        for i in self.positions.get(needle[0], ()):
            if i > last:
                break
            if self.lines[i : i + k] == needle:
                return i + 1
        return None


def detect_new_violations(
    pre: ViolationReport,
    post: ViolationReport,
    sources: Mapping[str, SourcePair],
    normalization: NormalizationPolicy = NormalizationPolicy.EXACT,
) -> list[NewViolationVerdict]:
    """Classify every post-repair violation as new or pre-existing; see :func:`judge_files`."""
    return list(judge_files(pre, post, sources, normalization))


def judge_files(
    pre: ViolationReport,
    post: ViolationReport,
    sources: Mapping[str, SourcePair],
    normalization: NormalizationPolicy = NormalizationPolicy.EXACT,
) -> Iterator[NewViolationVerdict]:
    """The verdict of each post-repair violation, one file at a time; ``pre``
    is in canonical order, as :func:`normalize_report` leaves it.

    The fragment check runs first; the key lookup only decides violations
    whose code was altered in place (same span, different text). Verdicts
    come in the post report's entry order.
    """
    file_of = attrgetter("file_id")
    for file_id, group in groupby(post.entries, key=file_of):
        # in a canonical report, this file's entries are one slice
        lo = bisect_left(pre.entries, file_id, key=file_of)
        pre_keys = {v.key for v in pre.entries[lo : bisect_right(pre.entries, file_id, lo, key=file_of)]}
        pair = sources.get(file_id)
        if pair is None:
            raise MissingSourceError(file_id)
        entries = list(group)
        fragments = [extract_fragment(pair, v.span) for v in entries]
        # one index per file, holding just the first lines of its fragments
        index = _LineIndex(pair.original_lines, normalization, (f.lines[0] for f in fragments))
        for v, fragment in zip(entries, fragments):
            found_at = index.find(fragment)
            if found_at is not None:
                yield NewViolationVerdict(v, VerdictKind.NOT_NEW_FRAGMENT_FOUND, evidence=found_at)
            elif v.key in pre_keys:
                yield NewViolationVerdict(v, VerdictKind.NOT_NEW_KEY_MATCH, evidence=v.start_line)
            else:
                yield NewViolationVerdict(v, VerdictKind.NEW)


@dataclass(frozen=True)
class NewViolationBreakdown:
    """Type-by-severity counts and per-rule frequencies of the NEW verdicts."""

    total_new: int
    matrix: Mapping[tuple[ViolationType, Severity], int]
    rule_frequency: tuple[tuple[str, int], ...]


def tally_new(new: Iterable[Violation]) -> NewViolationBreakdown:
    """The breakdown of the NEW violations ``new``; rules most frequent first, ties by id."""
    matrix: dict[tuple[ViolationType, Severity], int] = {
        (t, s): 0 for t in ViolationType for s in Severity
    }
    by_rule: Counter[str] = Counter()
    total = 0
    for v in new:
        matrix[(v.vtype, v.severity)] += 1
        by_rule[v.rule] += 1
        total += 1
    frequency = tuple(sorted(by_rule.items(), key=lambda kv: (-kv[1], kv[0])))
    return NewViolationBreakdown(total_new=total, matrix=matrix, rule_frequency=frequency)


# --- new_violations.csv -------------------------------------------------------

#: one row per post-repair violation, with its verdict and evidence line
NEW_VIOLATIONS_HEADER = (
    "file", "rule", "type", "severity", "start_line", "end_line",
    "message", "verdict", "evidence_line",
)


def write_newviol(
    out_dir: Path, rows: Iterable[tuple[list, Violation | None]], deleted: Iterable[str]
) -> tuple[int, list[Violation]]:
    """Write ``new_violations.csv`` from ``rows``, those of :func:`verdict_rows`
    or :func:`read_verdict_rows` taken one at a time, then ``new_matrix.csv``
    and ``new_frequency.csv`` from their NEW violations and ``notes.txt``,
    which names the ``deleted`` files; the number of rows and the NEW
    violations, in order, as :func:`load_new` reads them back."""
    out_dir.mkdir(parents=True, exist_ok=True)
    count, new = 0, []
    with (out_dir / "new_violations.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv_writer(fh)
        writer.writerow(NEW_VIOLATIONS_HEADER)
        for row, v in rows:
            writer.writerow(row)
            count += 1
            if v is not None:
                new.append(v)
    breakdown = tally_new(new)
    cells = sorted(breakdown.matrix.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value))
    (out_dir / "new_matrix.csv").write_text(
        table_text(("type", "severity", "count"), ((t.value, s.value, n) for (t, s), n in cells)),
        encoding="utf-8",
    )
    (out_dir / "new_frequency.csv").write_text(
        table_text(("rule", "count"), breakdown.rule_frequency), encoding="utf-8"
    )
    (out_dir / "notes.txt").write_text(
        "".join(f"FileDeleted: {rel}\n" for rel in deleted), encoding="utf-8"
    )
    return count, new


def verdict_rows(verdicts: Iterable[NewViolationVerdict]) -> Iterator[tuple[list, Violation | None]]:
    """Each verdict's ``new_violations.csv`` row, with its violation when NEW."""
    for vd in verdicts:
        row = violation_row(vd.violation)
        row += vd.verdict.value, "" if vd.evidence is None else vd.evidence
        yield row, vd.violation if vd.verdict is VerdictKind.NEW else None


def read_verdict_rows(
    path: Path, files: Collection[str] | None = None
) -> Iterator[tuple[list, Violation | None]]:
    """The rows of a ``new_violations.csv``, or those whose file is in
    ``files``, in file order, read one at a time, each with its violation
    when NEW.

    An empty file, one that is not UTF-8, a wrong header, a short or long row
    or a bad value in any row raises ``MalformedInputError`` naming ``path``
    and the line the row starts on, as :func:`parse_file` gives it.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from _verdict_rows(fh, files)
    except (HarnessError, ValueError):
        parse_file(path, lambda data: list(_verdict_rows(data, files)))
        raise


def _verdict_rows(raw: bytes | TextIO, files: Collection[str] | None) -> Iterator[tuple[list, Violation | None]]:
    rows = read_csv_table(raw, NEW_VIOLATIONS_HEADER, empty="empty file: expected a header row")
    if files is not None:
        rows = ((line, row) for line, row in rows if row[0] in files)
    share = {}.setdefault
    for line, row in rows:
        file_id, rule, vtype, severity, start_line, end_line, message, verdict, evidence = row
        try:  # the verdict, built from the row, checks every value
            kind = VerdictKind(verdict)
            if kind is VerdictKind.NEW:  # kept: one string per distinct file, rule and message
                file_id, rule, message = share(file_id, file_id), share(rule, rule), share(message, message)
            vd = NewViolationVerdict(
                Violation(file_id, rule, ViolationType(vtype), Severity(severity), int(start_line), int(end_line),
                          message),
                kind, int(evidence) if evidence else None,
            )
        except ValueError as exc:
            raise MalformedInputError(str(exc), line) from None
        yield row, vd.violation if kind is VerdictKind.NEW else None


def load_new(path: Path) -> tuple[int, list[Violation]]:
    """The number of rows of a ``new_violations.csv`` and its NEW violations, in file order."""
    count, new = 0, []
    for _, v in read_verdict_rows(path):
        count += 1
        if v is not None:
            new.append(v)
    return count, new


def summarize_new(rows: int, new: Iterable[Violation]) -> dict:
    """The ``newviol`` section of ``summary.json``: ``rows`` post-repair violations, ``new`` of them NEW."""
    breakdown = tally_new(new)
    return {
        "post_violations": rows,
        "total_new": breakdown.total_new,
        "matrix": {f"{t.value}/{s.value}": n for (t, s), n in breakdown.matrix.items() if n},
        "top_rules": list(breakdown.rule_frequency),
    }
