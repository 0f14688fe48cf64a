"""Normalized static-analysis violation records and report ingestion.

A violation is one analyzer finding: file, rule, type, severity, line span,
message. Reports are ingested through named adapters (native CSV always
registered, analyzer JSON exports via a shipped field-mapping file) and
normalized into a canonical sorted order so that all downstream matching is
deterministic. The identity used by matching is the four-field key
``(file, rule, start_line, end_line)``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, TextIO, TypeVar

from . import terms
from .errors import (
    HarnessError,
    MalformedInputError,
    MissingRequiredFieldError,
    UnknownAdapterError,
)
from .terms import StateLabel, analyzer_json_mapping, check_rule_id

# defined in ``terms``, which a fully cached run loads in place of this
# module; importable from here as well
NormalizationPolicy, RuleProfile, SORALD_30, get_profile = (
    terms.NormalizationPolicy, terms.RuleProfile, terms.SORALD_30, terms.get_profile
)

#: Header of the native normalized violation CSV.
CSV_HEADER = ("file", "rule", "type", "severity", "start_line", "end_line", "message")


class ViolationType(Enum):
    BUG = "Bug"
    CODE_SMELL = "CodeSmell"
    VULNERABILITY = "Vulnerability"


class Severity(Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"


class ViolationKey(NamedTuple):
    """Matching identity of a violation: message/type/severity excluded."""

    file_id: str
    rule: str
    start_line: int
    end_line: int


@dataclass(frozen=True, slots=True)
class Violation:
    """One static-analysis finding at a file + line span.

    Reports hold these by the ten thousand, so the class has slots and no
    per-instance ``__dict__``.
    """

    file_id: str
    rule: str
    vtype: ViolationType
    severity: Severity
    start_line: int
    end_line: int
    message: str = ""
    #: the matching identity, built once by __post_init__ rather than at each lookup
    key: ViolationKey = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.file_id:
            raise ValueError("file_id must be non-empty")
        check_rule_id(self.rule)
        if self.start_line < 1:
            raise ValueError(f"start_line must be >= 1, got {self.start_line}")
        if self.end_line < self.start_line:
            raise ValueError(
                f"end_line {self.end_line} precedes start_line {self.start_line}"
            )
        object.__setattr__(self, "key", ViolationKey(self.file_id, self.rule, self.start_line, self.end_line))

    @property
    def span(self) -> tuple[int, int]:
        return (self.start_line, self.end_line)


def normalize_path(path: str) -> str:
    """Canonicalize a file id to forward-slash relative form."""
    p = path.replace("\\", "/")
    while p.startswith("./"):
        p = p[2:]
    # collapse duplicate separators; keep the path otherwise untouched
    while "//" in p:
        p = p.replace("//", "/")
    return p


def _sort_key(v: Violation) -> tuple:
    return (
        v.file_id, v.rule, v.start_line, v.end_line,
        v.vtype.value, v.severity.value, v.message,
    )


@dataclass(frozen=True)
class ViolationReport:
    """A set of violations for one corpus state (pre- or post-repair)."""

    state: StateLabel
    entries: tuple[Violation, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def normalize_report(report: ViolationReport) -> ViolationReport:
    """Canonicalize paths and sort entries; idempotent."""
    entries = []
    for v in report.entries:
        path = normalize_path(v.file_id)
        # entries were validated at construction; rebuild only to fix the path
        entries.append(v if path == v.file_id else replace(v, file_id=path))
    # by the stored keys, _sort_key's first fields, so that no key is kept per
    # entry; only runs of equal keys are ordered by the whole _sort_key
    entries.sort(key=attrgetter("key"))
    ordered = (v for _, same in groupby(entries, attrgetter("key")) for v in sorted(same, key=_sort_key))
    return replace(report, entries=tuple(ordered))


# --- adapters ----------------------------------------------------------------

_ENUM_ALIASES_TYPE = {
    "bug": ViolationType.BUG,
    "codesmell": ViolationType.CODE_SMELL,
    "code_smell": ViolationType.CODE_SMELL,
    "vulnerability": ViolationType.VULNERABILITY,
}
_ENUM_ALIASES_SEV = {
    "high": Severity.HIGH,
    "medium": Severity.MEDIUM,
    "low": Severity.LOW,
}


def _parse_vtype(raw: str, line: int) -> ViolationType:
    try:
        return _ENUM_ALIASES_TYPE[raw.strip().lower()]
    except KeyError:
        raise MalformedInputError(f"unknown violation type {raw!r}", line) from None


def _parse_severity(raw: str, line: int) -> Severity:
    try:
        return _ENUM_ALIASES_SEV[raw.strip().lower()]
    except KeyError:
        raise MalformedInputError(f"unknown severity {raw!r}", line) from None


def _parse_line_no(raw: str, name: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise MalformedInputError(f"{name} must be an integer, got {raw!r}", line) from None


def decode_input(raw: bytes | str | TextIO) -> str:
    """The text of an input file given as bytes (UTF-8), as text or as a text stream."""
    if isinstance(raw, bytes):
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise MalformedInputError(f"stream is not valid UTF-8: {exc}", line) from None
    return raw if isinstance(raw, str) else raw.read()


_T = TypeVar("_T")


def parse_file(path: Path, parse: Callable[[Any], _T]) -> _T:
    """``parse`` applied to ``path`` opened as UTF-8 text with ``newline=""``,
    and on any fault to its bytes, so that the error is a whole-file read's;
    any ``MalformedInputError`` names the file."""
    try:
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                return parse(fh)
        except (HarnessError, ValueError):  # a UnicodeDecodeError is a ValueError
            pass
        return parse(path.read_bytes())
    except MalformedInputError as exc:
        raise MalformedInputError(f"{path}: {exc.message}", exc.line) from None


def parse_json(raw: bytes | str | TextIO) -> Any:
    """The JSON document ``raw`` holds; one that is not JSON raises ``MalformedInputError`` with the line at fault."""
    try:
        return json.loads(decode_input(raw))
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON: {exc.msg}", exc.lineno) from None


def _file_id(raw: str, field: str, line: int | None = None) -> str:
    """A finding's file in canonical form; blank once canonical means missing."""
    path = normalize_path(raw)
    if not path.strip():
        raise MissingRequiredFieldError(field, line)
    return path


def _check_csv_field(text: str, what: str) -> None:
    """Refuse a field that the native CSV could not read back on every Python version.

    Python 3.10's csv reader rejects NUL (later ones accept it), and every
    version rejects a field longer than ``csv.field_size_limit()``.
    """
    if "\0" in text:
        raise MalformedInputError(f"{what} contains a NUL character")
    limit = csv.field_size_limit()
    if len(text) > limit:
        raise MalformedInputError(f"{what} holds a field longer than {limit} characters")


def _csv_rows(raw: bytes | str | TextIO) -> Iterator[tuple[int, list[str]]]:
    """The rows of a native CSV report, each with the line it starts on."""
    if isinstance(raw, (bytes, str)):
        raw = decode_input(raw)
        if "\0" in raw:  # see _check_csv_field
            raise MalformedInputError("report contains a NUL character")
    else:
        raw = _nul_free(raw)
    return read_csv_table(raw, CSV_HEADER, empty="empty stream: expected a header row")


def _nul_free(lines: Iterable[str]) -> Iterator[str]:
    for line in lines:
        if "\0" in line:
            raise MalformedInputError("report contains a NUL character")
        yield line


def _csv_violation(line: int, row: list[str]) -> Violation:
    for name, value in zip(CSV_HEADER[:-1], row):  # every field but the message
        if not value.strip():
            raise MissingRequiredFieldError(name, line)
    file_id, rule, vtype, severity, start_line, end_line, message = row
    try:
        return Violation(
            file_id=_file_id(file_id, "file", line),
            rule=rule.strip(),
            vtype=_parse_vtype(vtype, line),
            severity=_parse_severity(severity, line),
            start_line=_parse_line_no(start_line, "start_line", line),
            end_line=_parse_line_no(end_line, "end_line", line),
            message=message,
        )
    except ValueError as exc:
        raise MalformedInputError(str(exc), line) from None


def _csv_violations(rows: Iterable[tuple[int, list[str]]]) -> Iterator[Violation]:
    """The violation of each report row; each distinct file, rule, type,
    severity and line string is checked once, by :func:`_csv_violation`."""
    files: dict[str, str] = {}
    rules: dict[str, str] = {}
    types: dict[str, ViolationType] = {}
    severities: dict[str, Severity] = {}
    ints: dict[str, int] = {}
    share = {}.setdefault
    for line, row in rows:
        file_id, rule, vtype, severity, start_line, end_line, message = row
        try:
            v = Violation(files[file_id], rules[rule], types[vtype], severities[severity],
                          ints[start_line], ints[end_line], share(message, message))
        except (KeyError, ValueError):
            # built from shared strings, so that its file, rule and message are the shared ones
            row[0], row[1], row[6] = share(file_id, file_id), share(rule, rule), share(message, message)
            v = _csv_violation(line, row)
            files[file_id], rules[rule], types[vtype], severities[severity] = v.file_id, v.rule, v.vtype, v.severity
            ints[start_line], ints[end_line] = v.start_line, v.end_line
        yield v


def _csv_adapter(raw: bytes | str | TextIO, options: Mapping) -> Iterable[Violation]:
    return _csv_violations(_csv_rows(raw))


def _analyzer_json_adapter(raw: bytes | str | TextIO, options: Mapping) -> Iterable[Violation]:
    m = analyzer_json_mapping(options)
    fallback = options.get("end_line_fallback", False)
    doc = parse_json(raw)
    if not isinstance(doc, dict):
        raise MalformedInputError("report root must be an object")
    issues = doc.get(m["issues_key"])
    if issues is None:
        raise MissingRequiredFieldError(m["issues_key"])
    if not isinstance(issues, list):
        raise MalformedInputError(f"field {m['issues_key']!r} must be a list")
    f = m["fields"]
    share = {}.setdefault  # one string per distinct file, rule and message
    for i, issue in enumerate(issues):
        def get(path: str, *, required: bool = True):
            node = issue
            for part in path.split("."):
                if not isinstance(node, dict) or part not in node:
                    if required:
                        raise MissingRequiredFieldError(f"{path} (issue {i})")
                    return None
                node = node[part]
            return node

        component = str(get(f["file"]))
        if m.get("file_strip_prefix_through"):
            sep = m["file_strip_prefix_through"]
            if sep in component:
                component = component.split(sep, 1)[1]
        rule = str(get(f["rule"]))
        if m.get("rule_strip_prefix_through"):
            sep = m["rule_strip_prefix_through"]
            if sep in rule:
                rule = rule.split(sep, 1)[1]
        start_line = get(f["start_line"])
        end_line = get(f["end_line"], required=False)
        if end_line is None:
            if not fallback:
                raise MissingRequiredFieldError(f"{f['end_line']} (issue {i})")
            end_line = start_line
        raw_type = str(get(f["type"]))
        raw_sev = str(get(f["severity"]))
        try:
            vtype = ViolationType(m["type_map"][raw_type])
            severity = Severity(m["severity_map"][raw_sev])
        except KeyError as exc:
            raise MalformedInputError(f"unmapped enum value {exc} (issue {i})") from None
        message = str(get(f["message"], required=False) or "")
        for what, value in (("file", component), ("message", message)):
            _check_csv_field(value, f"issue {i}: {what}")
        component, rule, message = share(component, component), share(rule, rule), share(message, message)
        try:
            yield Violation(
                file_id=_file_id(component, f"{f['file']} (issue {i})"),
                rule=rule,
                vtype=vtype,
                severity=severity,
                start_line=int(start_line),
                end_line=int(end_line),
                message=message,
            )
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an Infinity line
            raise MalformedInputError(f"issue {i}: {exc}") from None


#: the reader of each report adapter in ``terms.REPORT_ADAPTERS``, which a config is checked against
ADAPTERS = {
    "csv": _csv_adapter,
    "analyzer-json": _analyzer_json_adapter,
}


def parse_report(
    raw: bytes | str | TextIO,
    adapter: str = "csv",
    state: StateLabel = StateLabel.PRE_REPAIR,
    options: Mapping | None = None,
) -> ViolationReport:
    """Ingest a raw analyzer report through a named adapter and normalize it."""
    if adapter not in ADAPTERS:
        raise UnknownAdapterError(adapter, list(ADAPTERS))
    entries = tuple(ADAPTERS[adapter](raw, options or {}))
    return normalize_report(ViolationReport(state=state, entries=entries))


def read_report(path: Path, state: StateLabel, files: Collection[str] | None = None) -> ViolationReport:
    """The native CSV report in ``path``, or only its findings in ``files``
    (canonical file ids), built from those rows alone; a
    ``MalformedInputError`` names the file."""
    if files is None:
        return parse_file(path, lambda data: parse_report(data, "csv", state))

    def pick(data: bytes | TextIO) -> ViolationReport:
        rows = ((line, row) for line, row in _csv_rows(data) if normalize_path(row[0]) in files)
        return normalize_report(ViolationReport(state=state, entries=tuple(_csv_violations(rows))))

    return parse_file(path, pick)


def finding_digests(path: Path, files: Collection[str] | None = None) -> dict[str, bytes]:
    """A digest of the header and each file's rows in the native CSV report
    in ``path``, by canonical file id, for every file or those in ``files``:
    the findings part of the per-file keys that new-violation verdicts are
    reused by.

    The header and the row widths are checked as ``read_report`` checks
    them, but no violation is built: a bad value changes its file's digest,
    so reading that file's findings raises.
    """
    def digests(data: bytes | TextIO) -> dict[str, bytes]:
        found: dict[str, bytes] = {}
        header = json.dumps(list(CSV_HEADER)).encode()  # each file's chain starts here
        # canonical reports hold each file's rows together: one group per
        # file, and a file's later groups are chained onto its digest
        for file_id, group in groupby(map(itemgetter(1), _csv_rows(data)), itemgetter(0)):
            file_id = normalize_path(file_id)
            if files is None or file_id in files:
                rows = json.dumps(list(group)).encode()
                found[file_id] = hashlib.sha256(found.get(file_id, header) + rows).digest()
        return found

    return parse_file(path, digests)


def json_text(obj) -> str:
    """The layout of every JSON file apreval writes: indented, keys sorted, LF-terminated."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def table_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """A count table: comma-joined, unquoted fields, one LF-terminated row per line.

    For fields that can hold a comma, quote or line break, use ``csv_writer``.
    """
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


class _LFRows:
    """The target of ``csv_writer``: each row goes out with LF instead of CRLF."""

    def __init__(self, write):
        self._write = write

    def write(self, row: str):
        return self._write(row[:-2] + "\n")


def csv_writer(fh):
    """A ``csv.writer`` on ``fh`` that ends rows in LF and quotes any field holding CR or LF.

    Python 3.13 quotes both characters whatever the line terminator; earlier
    versions quote only the terminator's own, so with LF rows they leave a
    bare CR unquoted and a reader takes it for a line end. Handing the writer
    CRLF as its terminator gets the 3.13 quoting on every version; the
    writer passes each whole row to one ``write`` call, which swaps the
    terminator for LF. Rows holding no CR keep the bytes of a plain LF writer.
    """
    return csv.writer(_LFRows(fh.write), lineterminator="\r\n")


def read_csv_table(
    source: bytes | str | Iterable[str], header: tuple[str, ...], *, fold_case: bool = False, empty: str = ""
) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows under ``header``, each with the physical line it starts on.

    ``source`` is bytes (UTF-8), text, or the lines of a file opened with
    ``newline=""``. Header names are compared stripped (and lower-cased with
    ``fold_case``); an empty source has no rows, or raises ``empty`` if
    given. A wrong header, a row of another width or a ``csv.Error`` raises
    ``MalformedInputError``.
    """
    if isinstance(source, (bytes, str)):
        source = io.StringIO(decode_input(source), newline="")
    reader = csv.reader(source)
    width = len(header)
    line = 1
    try:
        first = next(reader, None)
        if first is None:
            if empty:
                raise MalformedInputError(empty, 1)
            return
        names = tuple(h.strip().lower() if fold_case else h.strip() for h in first)
        if names != header:
            missing = [name for name in header if name not in names]
            problem = f"missing column {missing[0]!r}" if missing else f"unexpected header {first!r}"
            raise MalformedInputError(f"{problem}; expected {','.join(header)}", 1)
        line = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != width:
                    raise MalformedInputError(f"expected {width} fields, got {len(row)}", line)
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise MalformedInputError(str(exc), line) from None


def violation_row(v: Violation) -> list:
    """The fields of ``v`` in a native CSV row, in ``CSV_HEADER`` order."""
    return [v.file_id, v.rule, v.vtype.value, v.severity.value, v.start_line, v.end_line, v.message]


def write_report(fh: TextIO, entries: Iterable[Violation]) -> None:
    """Write the native CSV of ``entries`` to ``fh`` (opened with ``newline=""``) row by row."""
    writer = csv_writer(fh)
    writer.writerow(CSV_HEADER)
    writer.writerows(map(violation_row, entries))


def serialize_report(report: ViolationReport) -> str:
    """Render a report in the native normalized CSV format (UTF-8, LF)."""
    buf = io.StringIO()
    write_report(buf, report.entries)
    return buf.getvalue()
