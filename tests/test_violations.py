import csv
import dataclasses
import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apreval.errors import (
    HarnessError,
    MalformedInputError,
    MissingRequiredFieldError,
    UnknownAdapterError,
)
from apreval.metrics import METRICS_CSV_HEADER, read_class_metrics_csv
from apreval.newviol import (
    Fragment,
    NewViolationVerdict,
    VerdictKind,
    load_new,
    read_verdict_rows,
    verdict_rows,
    write_newviol,
)
from apreval.sampling import SHEET_HEADER, ingest_labels
from apreval.semantic import RESULTS_CSV_HEADER, Regression, TestOutcome, TestStatus, ingest_test_results
from apreval.violations import (
    CSV_HEADER,
    SORALD_30,
    RuleProfile,
    Severity,
    StateLabel,
    Violation,
    ViolationType,
    check_rule_id,
    csv_writer,
    finding_digests,
    normalize_path,
    normalize_report,
    parse_file,
    parse_report,
    read_csv_table,
    read_report,
    serialize_report,
    write_report,
)

from conftest import mkreport, mkviol, random_violation


#: each tool-output reader: (reader, header, a good row, the good row with one bad value)
TOOL_OUTPUT_READERS = {
    "report": (parse_report, CSV_HEADER,
               ["A.java", "S1118", "Bug", "Low", "1", "1", "m"], {4: "x"}),
    "test results": (ingest_test_results, RESULTS_CSV_HEADER,
                     ["T.t1", "A.java", "fail", "m"], {2: "maybe"}),
    "class metrics": (read_class_metrics_csv, METRICS_CSV_HEADER,
                      ["A.java", "m", "0", "1", "1", "0", "4", "2", "6", "37"], {2: "x"}),
    "labels": (ingest_labels, SHEET_HEADER,
               ["item1", "A.java", "S1118", "1", "1", "m", "TP", "TP", ""], {6: "maybe"}),
}


def _table(header, rows):
    buf = io.StringIO()
    writer = csv_writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _with_text(row, text):
    """``row`` with ``text`` in the free-text field, marked by the value "m"."""
    return [text if f == "m" else f for f in row]


@pytest.mark.parametrize("name", sorted(TOOL_OUTPUT_READERS))
class TestToolOutputReaders:
    def test_bad_row_after_two_line_field_reports_its_physical_line(self, name):
        read, header, good, bad = TOOL_OUTPUT_READERS[name]
        text = _table(header, [_with_text(good, "two\nlines"), [bad.get(i, f) for i, f in enumerate(good)]])
        with pytest.raises(MalformedInputError) as err:
            read(text)
        assert err.value.line == 4

    def test_field_over_the_size_limit_is_malformed_input(self, name):
        read, header, good, _ = TOOL_OUTPUT_READERS[name]
        text = _table(header, [good, _with_text(good, "x" * (csv.field_size_limit() + 1))])
        with pytest.raises(MalformedInputError) as err:
            read(text)
        assert err.value.line == 3


class TestReadCsvTable:
    def test_rows_carry_their_physical_lines(self):
        text = 'a,b\n1,"x\r\ny"\n\n2,z\r\n'
        assert list(read_csv_table(text, ("a", "b"))) == [(2, ["1", "x\r\ny"]), (5, ["2", "z"])]

    def test_empty_text_has_no_rows(self):
        assert list(read_csv_table("", ("a", "b"))) == []

    def test_header_names_are_stripped_and_folded_on_request(self):
        assert list(read_csv_table(" A , b\n1,2\n", ("a", "b"), fold_case=True)) == [(2, ["1", "2"])]
        with pytest.raises(MalformedInputError) as err:
            list(read_csv_table("A,b\n", ("a", "b")))
        assert err.value.line == 1

    def test_wrong_width_rejected(self):
        with pytest.raises(MalformedInputError) as err:
            list(read_csv_table("a,b\n1,2\n1,2,3\n", ("a", "b")))
        assert err.value.line == 3


def _stringio_read_csv_table(text, header):
    """``read_csv_table`` as it was when it read ``text`` through a
    ``newline=""`` StringIO: the oracle for the line splitting."""
    reader = csv.reader(io.StringIO(text, newline=""))
    width = len(header)
    line = 1
    try:
        first = next(reader, None)
        if first is None:
            return
        names = tuple(h.strip() for h in first)
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
    except csv.Error as exc:
        raise MalformedInputError(str(exc), line) from None


def _outcome(rows):
    """Each ``(line, row)`` read, then the text and line of the error that ended the read, if any."""
    seen = []
    try:
        seen.extend(rows)
    except MalformedInputError as exc:
        seen.append((exc.message, exc.line))
    return seen


#: the line breaks of str.splitlines that the csv module reads as field characters
EXTRA_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
#: pieces of a CSV text: separators, quotes and line breaks, and each extra break quoted and bare
CSV_PIECES = ("a", ",", '"', "\r", "\n", "\r\n", *EXTRA_BREAKS, *(f'"a{b}a"' for b in EXTRA_BREAKS))


class TestCsvLineSplitting:
    """``read_csv_table`` must read text, and the lines of a file opened with ``newline=""``,
    as a ``newline=""`` StringIO reader did."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        header=st.sampled_from([("a",), ("a", "a")]),
        text=st.lists(st.sampled_from(CSV_PIECES), max_size=24).map("".join),
    )
    def test_same_rows_lines_and_errors_as_a_stringio_reader(self, header, text, tmp_path):
        expected = _outcome(_stringio_read_csv_table(text, header))
        assert _outcome(read_csv_table(text, header)) == expected
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as fh:
            assert _outcome(read_csv_table(fh, header)) == expected

    @pytest.mark.parametrize("brk", EXTRA_BREAKS)
    def test_extra_breaks_stay_inside_their_field(self, brk):
        text = f"a,a\n1{brk}2,x\n\"3{brk}\",y{brk}\n"
        assert list(read_csv_table(text, ("a", "a"))) == [(2, [f"1{brk}2", "x"]), (3, [f"3{brk}", f"y{brk}"])]

    def test_crlf_across_a_read_chunk_boundary(self, tmp_path):
        # the CR of row 2 sits on either side of the 8 KiB boundary of the file's first read
        path = tmp_path / "table.csv"
        for n in range(8182, 8187):
            text = f"a,b\r\n1,{'x' * n}\r\n2,y\r\n3,z\n"
            path.write_text(text, encoding="utf-8", newline="")
            with open(path, encoding="utf-8", newline="") as fh:
                assert list(read_csv_table(fh, ("a", "b"))) == list(_stringio_read_csv_table(text, ("a", "b")))

    def test_a_good_file_is_read_line_by_line(self, tmp_path, monkeypatch):
        text = serialize_report(mkreport(REPEATED))
        path = tmp_path / "report.csv"
        path.write_text(text, encoding="utf-8")
        expected = parse_report(text), finding_digests(path)
        for name in ("read_bytes", "read_text"):
            monkeypatch.setattr(Path, name, lambda *args, **kwargs: pytest.fail("the whole file was read"))
        monkeypatch.setattr(io, "StringIO", lambda *args, **kwargs: pytest.fail("the text was copied"))
        assert (read_report(path, StateLabel.PRE_REPAIR), finding_digests(path)) == expected


def _report_lines(rows: int) -> list[bytes]:
    """The lines of a native CSV report of ``rows`` good rows, about 56 bytes each."""
    return [",".join(CSV_HEADER).encode() + b"\n"] + [
        f"pkg/F{i % 7}.java,S1118,CodeSmell,Low,{i + 1},{i + 1},row number {i}\n".encode() for i in range(rows)
    ]


def _error(read) -> tuple[str, int | None]:
    with pytest.raises(MalformedInputError) as err:
        read()
    return err.value.message, err.value.line


def _whole_file_error(path, parse) -> tuple[str, int | None]:
    """The error of ``parse`` given the bytes of ``path``, named as ``parse_file`` names it."""
    message, line = _error(lambda: parse(path.read_bytes()))
    return f"{path}: {message}", line


class TestStreamedReadErrors:
    """A report read line by line raises, on any fault, the error a whole-file
    read of it raises: UTF-8 first, then a NUL, then the first bad row. The
    faults sit past the first 64 KiB, beyond the first chunks read."""

    @staticmethod
    def _read(tmp_path, lines):
        path = tmp_path / "report.csv"
        path.write_bytes(b"".join(lines))
        whole = _whole_file_error(path, lambda data: parse_report(data, "csv"))
        assert _error(lambda: parse_file(path, lambda data: parse_report(data, "csv"))) == whole
        assert _error(lambda: read_report(path, StateLabel.PRE_REPAIR)) == whole
        files = {f"pkg/F{i}.java" for i in range(7)}
        assert _error(lambda: read_report(path, StateLabel.PRE_REPAIR, files=files)) == whole
        return whole

    def test_invalid_utf8_past_the_first_chunk(self, tmp_path):
        lines = _report_lines(2000)
        lines[1500] = lines[1500].replace(b"row", b"r\xffw")
        message, line = self._read(tmp_path, lines)
        assert sum(map(len, lines[:1500])) > 65536
        assert message.startswith(f"{tmp_path / 'report.csv'}: stream is not valid UTF-8") and line == 1501

    def test_nul_on_a_late_line(self, tmp_path):
        lines = _report_lines(2000)
        lines[1999] = lines[1999].replace(b"row", b"r\0w")
        assert self._read(tmp_path, lines)[0].endswith("report contains a NUL character")

    def test_field_over_the_size_limit(self, tmp_path):
        lines = _report_lines(2000)
        lines[1800] = lines[1800].replace(b"row", b"x" * (csv.field_size_limit() + 1))
        message, line = self._read(tmp_path, lines)
        assert "field larger than field limit" in message and line == 1801

    def test_bad_severity_on_the_last_row(self, tmp_path):
        lines = _report_lines(2000)
        lines[-1] = lines[-1].replace(b",Low,", b",Bogus,")
        message, line = self._read(tmp_path, lines)
        assert message.endswith("unknown severity 'Bogus'") and line == 2001

    @pytest.mark.parametrize("late", [b"r\xffw", b"r\0w"], ids=["utf8", "nul"])
    def test_a_row_fault_before_a_utf8_fault_or_a_nul(self, tmp_path, late):
        lines = _report_lines(2000)
        lines[2] = lines[2].replace(b",Low,", b",Bogus,")
        lines[1900] = lines[1900].replace(b"row", late)
        message, line = self._read(tmp_path, lines)
        assert "Bogus" not in message and line == (1901 if late == b"r\xffw" else None)

    @pytest.mark.parametrize("name", sorted(TOOL_OUTPUT_READERS))
    def test_each_tool_output_reader(self, tmp_path, name):
        read, header, good, bad = TOOL_OUTPUT_READERS[name]
        bad_row = [bad.get(i, f) for i, f in enumerate(good)]
        path = tmp_path / "table.csv"
        for late in (b"\xff", b"x" * (csv.field_size_limit() + 1)):
            text = _table(header, [good, bad_row] + [good] * 3000).encode()
            path.write_bytes(text + late + b"\n")
            assert _error(lambda: parse_file(path, read)) == _whole_file_error(path, read)


class TestReportMemory:
    """A report file is parsed and written row by row: neither holds a copy
    of the whole file, its text or its lines at any time."""

    def test_parse_and_write_transients(self, tmp_path):
        # as large_files_replay: 200 files of 1,500 lines, 50 findings each
        report = mkreport(
            mkviol(f"pkg{i % 8}/Gen{i % 200:03d}.java", SORALD_30.rules[i % 30], 1 + (i * 7919) % 1500,
                   vtype=list(ViolationType)[i % 3], severity=list(Severity)[i // 3 % 3],
                   message=("redundant, remove it", 'say "no"', "unused")[i % 3])
            for i in range(10_000)
        )
        path = tmp_path / "report.csv"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with open(path, "w", encoding="utf-8", newline="") as fh:
                write_report(fh, report.entries)
            written, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = read_report(path, StateLabel.PRE_REPAIR)
            retained, parse_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == report and path.read_text(encoding="utf-8") == serialize_report(report)
        assert path.stat().st_size > 500_000
        assert write_peak - before <= 500_000
        assert retained - written > 1_000_000  # the report itself
        assert parse_peak - retained <= 500_000


def _distinct_objects(report, attr):
    """The number of distinct values of ``attr`` among the report's violations, and of str objects holding them."""
    values = [getattr(v, attr) for v in report.entries]
    return len(set(values)), len(set(map(id, values)))


#: violations with few distinct files, rules and messages, each used many times
REPEATED = [
    mkviol(f"pkg/F{i % 3}.java", ("S1118", "S1068")[i % 2], i + 1, message=("first message", "second one")[i % 2 == 0])
    for i in range(24)
]


class TestSharedStrings:
    """The violations read from one report share one str object per distinct file, rule and message."""

    @staticmethod
    def _assert_shared(report):
        assert len(report) > 6
        for attr in ("file_id", "rule", "message"):
            distinct, objects = _distinct_objects(report, attr)
            assert objects == distinct, attr

    def test_csv_report(self):
        self._assert_shared(parse_report(serialize_report(mkreport(REPEATED))))

    def test_csv_report_of_some_files(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(serialize_report(mkreport(REPEATED)), encoding="utf-8")
        report = read_report(path, StateLabel.POST_REPAIR, files={"pkg/F0.java", "pkg/F1.java"})
        assert {v.file_id for v in report} == {"pkg/F0.java", "pkg/F1.java"}
        self._assert_shared(report)

    def test_analyzer_json_report(self):
        raw = _sonar_export([
            _sonar_issue(f"proj:pkg/F{i % 3}.java", f"java:{v.rule}", v.start_line, v.end_line, message=v.message)
            for i, v in enumerate(REPEATED)
        ])
        self._assert_shared(parse_report(raw, "analyzer-json"))

    def test_new_violations_csv(self, tmp_path):
        write_newviol(tmp_path, verdict_rows(NewViolationVerdict(v, VerdictKind.NEW) for v in REPEATED), [])
        self._assert_shared(mkreport(load_new(tmp_path / "new_violations.csv")[1]))


class TestCompactRecords:
    @pytest.mark.parametrize("record", [
        mkviol(),
        NewViolationVerdict(mkviol(), VerdictKind.NEW),
        Fragment("A.java", ("int x;",), (1, 1)),
        TestOutcome("T.t1", "A.java", TestStatus.PASS),
        Regression("T.t1", TestStatus.FAIL, "assertion"),
    ], ids=lambda record: type(record).__name__)
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")

    def test_key_is_a_stored_field_outside_init_equality_and_hash(self):
        (key,) = [f for f in dataclasses.fields(Violation) if f.name == "key"]
        assert not key.init and not key.compare and not key.repr
        with pytest.raises(TypeError):
            Violation("A.java", "S1118", ViolationType.BUG, Severity.LOW, 1, 1, key=("B.java", "S1068", 2, 2))
        a, b = mkviol("A.java", start=3), mkviol("A.java", start=3)
        object.__setattr__(b, "key", ("B.java", "S1068", 2, 2))
        assert a == b and hash(a) == hash(b)
        assert "key" not in repr(a)


class TestViolationModel:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            mkviol(file_id="")
        with pytest.raises(ValueError):
            mkviol(start=0)
        with pytest.raises(ValueError):
            mkviol(start=5, end=4)
        with pytest.raises(ValueError):
            mkviol(rule="X123")
        with pytest.raises(ValueError):
            mkviol(rule="S123456")

    def test_key_is_pure_projection(self):
        v = mkviol("A.java", "S1118", 3, 3)
        assert v.key == ("A.java", "S1118", 3, 3)

    def test_key_ignores_message(self):
        a = mkviol(message="one thing")
        b = mkviol(message="another thing")
        assert a.key == b.key

    def test_key_distinguishes_end_line(self):
        assert mkviol(start=3, end=3).key != mkviol(start=3, end=4).key

    def test_replace_yields_fresh_key(self):
        v = mkviol("./A.java", "S1118", 3, 3)
        assert v.key.file_id == "./A.java"  # populate the cached key
        moved = dataclasses.replace(v, file_id="A.java")
        assert moved.key == ("A.java", "S1118", 3, 3)
        assert v.key == ("./A.java", "S1118", 3, 3)


class TestProfile:
    def test_sorald_30_shape(self):
        assert len(SORALD_30.rules) == 30
        assert SORALD_30.rules[0] == "S1118"
        assert SORALD_30.rules[-1] == "S2164"
        assert SORALD_30.application_order == SORALD_30.rules

    def test_duplicate_rules_rejected(self):
        with pytest.raises(ValueError):
            RuleProfile(name="dup", rules=("S1", "S1"))

    def test_invalid_rule_rejected_by_keyword_or_position(self):
        for make in (lambda: RuleProfile("bad", ("S1", "X2")), lambda: RuleProfile(name="bad", rules=("X2",))):
            with pytest.raises(ValueError, match="invalid rule id 'X2'"):
                make()

    def test_every_report_adapter_a_config_names_has_a_reader(self):
        from apreval import terms, violations

        assert sorted(terms.REPORT_ADAPTERS) == sorted(violations.ADAPTERS)


class TestNormalize:
    def test_backslash_paths_canonicalized(self):
        report = mkreport(
            [mkviol(file_id=r"a\b\C.java"), mkviol(file_id="a/b/C.java")], normalized=False
        )
        normalized = normalize_report(report)
        assert {v.file_id for v in normalized.entries} == {"a/b/C.java"}
        assert len(normalized.entries) == 2

    def test_normalize_path_forms(self):
        assert normalize_path("./a/b.java") == "a/b.java"
        assert normalize_path("a//b.java") == "a/b.java"
        assert normalize_path(r"a\b.java") == "a/b.java"

    def test_idempotent_on_sorted_report(self):
        report = mkreport([mkviol("A.java", start=1), mkviol("B.java", start=2)])
        assert normalize_report(report) == report

    def test_matches_sorting_oracle_on_shuffled_fixture(self, rng):
        entries = [random_violation(rng) for _ in range(50)]
        shuffled = list(entries)
        rng.shuffle(shuffled)
        normalized = normalize_report(mkreport(shuffled, normalized=False))
        oracle = tuple(
            sorted(
                entries,
                key=lambda v: (
                    v.file_id, v.rule, v.start_line, v.end_line,
                    v.vtype.value, v.severity.value, v.message,
                ),
            )
        )
        assert normalized.entries == oracle


@st.composite
def violations(draw):
    return mkviol(
        file_id=draw(st.sampled_from(["a.java", "b.java", "dir/c.java"])),
        rule=draw(st.sampled_from(["S1", "S1118", "S2164"])),
        start=draw(st.integers(min_value=1, max_value=40)),
        vtype=draw(st.sampled_from(list(ViolationType))),
        severity=draw(st.sampled_from(list(Severity))),
        message=draw(st.sampled_from(["", "m1", "m2"])),
    )


class TestProperties:
    @given(st.lists(violations(), max_size=40))
    def test_normalize_idempotent(self, entries):
        once = normalize_report(mkreport(entries, normalized=False))
        assert normalize_report(once) == once

    @given(st.lists(violations(), max_size=40), st.randoms())
    def test_order_stable_under_permutation(self, entries, pyrandom):
        shuffled = list(entries)
        pyrandom.shuffle(shuffled)
        assert (
            normalize_report(mkreport(shuffled, normalized=False)).entries
            == normalize_report(mkreport(entries, normalized=False)).entries
        )

    @given(st.lists(violations(), max_size=40))
    @settings(max_examples=50)
    def test_parse_serialize_round_trip(self, entries):
        report = mkreport(entries, normalized=False)
        back = parse_report(serialize_report(report), "csv", StateLabel.PRE_REPAIR)
        assert back.entries == normalize_report(report).entries


class TestCsvAdapter:
    def test_three_row_identity_passthrough(self):
        text = (
            "file,rule,type,severity,start_line,end_line,message\n"
            "B.java,S1068,CodeSmell,Medium,2,2,unused\n"
            "A.java,S1118,CodeSmell,Medium,1,1,\n"
            "A.java,S2164,Bug,Low,9,9,floats\n"
        )
        report = parse_report(text, "csv", StateLabel.PRE_REPAIR)
        assert len(report.entries) == 3
        assert [v.file_id for v in report.entries] == ["A.java", "A.java", "B.java"]

    def test_header_only_is_empty_report(self):
        report = parse_report(
            "file,rule,type,severity,start_line,end_line,message\n", "csv", StateLabel.POST_REPAIR
        )
        assert len(report.entries) == 0

    def test_unknown_adapter(self):
        with pytest.raises(UnknownAdapterError):
            parse_report("", "sarif", StateLabel.PRE_REPAIR)

    def test_bad_line_number_reported_with_location(self):
        text = (
            "file,rule,type,severity,start_line,end_line,message\n"
            "A.java,S1118,CodeSmell,Medium,x,1,\n"
        )
        with pytest.raises(MalformedInputError) as err:
            parse_report(text, "csv", StateLabel.PRE_REPAIR)
        assert err.value.line == 2

    def test_empty_required_cell(self):
        text = (
            "file,rule,type,severity,start_line,end_line,message\n"
            "A.java,,CodeSmell,Medium,1,1,\n"
        )
        with pytest.raises(MissingRequiredFieldError) as err:
            parse_report(text, "csv", StateLabel.PRE_REPAIR)
        assert err.value.field == "rule"

    def test_message_with_commas_and_quotes_round_trips(self):
        v = mkviol(message='says "hello, world" loudly')
        report = mkreport([v])
        back = parse_report(serialize_report(report), "csv", StateLabel.PRE_REPAIR)
        assert back.entries[0].message == 'says "hello, world" loudly'

    def test_serialized_csv_uses_lf_endings(self):
        text = serialize_report(mkreport([mkviol()]))
        assert "\r" not in text

    @pytest.mark.parametrize("message", ["a\rb", "a\r\nb", "a\nb", "\r"])
    def test_field_with_cr_or_lf_is_quoted(self, message):
        text = serialize_report(mkreport([mkviol(message=message)]))
        assert text.endswith(f',"{message}"\n')
        assert parse_report(text, "csv").entries[0].message == message

    def test_nul_rejected(self):
        text = "file,rule,type,severity,start_line,end_line,message\nA.java,S1118,Bug,Low,1,1,a\0b\n"
        with pytest.raises(MalformedInputError):
            parse_report(text, "csv")

    def test_field_too_long_is_malformed_input(self):
        text = f"file,rule,type,severity,start_line,end_line,message\nA.java,S1118,Bug,Low,1,1,{'x' * (csv.field_size_limit() + 1)}\n"
        with pytest.raises(MalformedInputError) as err:
            parse_report(text, "csv")
        assert err.value.line == 2

    @pytest.mark.parametrize("file_id", [" ", "./", "./ ", "././\t"])
    def test_file_blank_once_canonical_rejected(self, file_id):
        text = f"file,rule,type,severity,start_line,end_line,message\n{file_id},S1118,Bug,Low,1,1,\n"
        with pytest.raises(MissingRequiredFieldError) as err:
            parse_report(text, "csv")
        assert err.value.field == "file"


#: what a field may hold: CSV and line-end specials, spaces, path parts,
#: non-ASCII, and now and then any character at all (NUL included)
_FIELD_TEXT = st.text(
    st.sampled_from(list('\r\n",; ./\\\t') + ["é", "日", "\u2028", "\x85", "a", "B", "1"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=12,
)


def _quoted(field: str) -> str:
    return '"' + field.replace('"', '""') + '"'


@st.composite
def csv_reports(draw):
    """Native CSV text, every field quoted so that any character can appear."""
    rows = [",".join(CSV_HEADER)]
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(1, 50))
        fields = [
            draw(_FIELD_TEXT | st.sampled_from(["A.java", "./dir//B.java", "dir\\C.java"])),
            draw(st.sampled_from(["S1118", " S2164 ", "S1\n", "S42"])),
            draw(st.sampled_from(["Bug", "codesmell", " CODE_SMELL", "Vulnerability"])),
            draw(st.sampled_from(["High", "medium", "LOW "])),
            str(start),
            str(start + draw(st.integers(0, 3))),
            draw(_FIELD_TEXT),
        ]
        rows.append(",".join(map(_quoted, fields)))
    return "\n".join(rows) + "\n"


@st.composite
def json_reports(draw):
    """A SonarQube export whose component, rule, lines and message vary."""
    issues = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(1, 50))
        issues.append(_sonar_issue(
            "proj:" + draw(_FIELD_TEXT | st.sampled_from(["src/A.java", "./B.java"])),
            "java:" + draw(st.sampled_from(["S1118", "S2164", "S42", "S1118\n"])),
            start,
            start + draw(st.integers(0, 3)),
            severity=draw(st.sampled_from(["MAJOR", "BLOCKER", "INFO"])),
            message=draw(_FIELD_TEXT),
        ))
    return _sonar_export(issues)


class TestRoundTrip:
    """Every report an adapter accepts comes back unchanged from its own CSV.

    The pipeline hands later stages the report its analyze stage parsed,
    not a re-read of the CSV it wrote, so the two must never differ.
    """

    @staticmethod
    def _accepted(text, adapter):
        try:
            return parse_report(text, adapter)
        except HarnessError:
            return None

    @given(csv_reports())
    @settings(max_examples=300)
    def test_csv_report_round_trips(self, text):
        report = self._accepted(text, "csv")
        if report is not None:
            assert parse_report(serialize_report(report), "csv") == report

    @given(json_reports())
    @settings(max_examples=300)
    def test_analyzer_json_report_round_trips(self, text):
        report = self._accepted(text, "analyzer-json")
        if report is not None:
            assert parse_report(serialize_report(report), "csv") == report

    @given(st.lists(st.lists(_FIELD_TEXT.filter(lambda f: "\r" not in f) | st.integers(), min_size=1,
                             max_size=5), max_size=5))
    def test_rows_without_cr_keep_their_bytes(self, rows):
        ours, plain = io.StringIO(), io.StringIO()
        csv_writer(ours).writerows(rows)
        csv.writer(plain, lineterminator="\n").writerows(rows)
        assert ours.getvalue() == plain.getvalue()


def _sonar_export(issues):
    return json.dumps({"total": len(issues), "issues": issues})


def _sonar_issue(component, rule, start, end=None, severity="MAJOR", itype="CODE_SMELL", message="m"):
    text_range = {"startLine": start}
    if end is not None:
        text_range["endLine"] = end
    return {
        "component": component,
        "rule": rule,
        "textRange": text_range,
        "severity": severity,
        "type": itype,
        "message": message,
    }


class TestAnalyzerJsonAdapter:
    def test_ten_issue_export_with_fallback(self):
        issues = [
            _sonar_issue(f"proj:src/F{i}.java", "java:S1118", i + 1, i + 1) for i in range(8)
        ]
        issues.append(_sonar_issue("proj:src/F8.java", "java:S2164", 30))  # no endLine
        issues.append(_sonar_issue("proj:src/F9.java", "java:S1068", 31))  # no endLine
        raw = _sonar_export(issues)

        with pytest.raises(MissingRequiredFieldError) as err:
            parse_report(raw, "analyzer-json", StateLabel.PRE_REPAIR)
        assert "endLine" in err.value.field

        report = parse_report(
            raw, "analyzer-json", StateLabel.PRE_REPAIR, options={"end_line_fallback": True}
        )
        assert len(report.entries) == 10
        by_file = {v.file_id: v for v in report.entries}
        assert by_file["src/F8.java"].end_line == 30
        assert by_file["src/F8.java"].rule == "S2164"
        assert by_file["src/F8.java"].vtype is ViolationType.CODE_SMELL

    def test_severity_and_type_mapping(self):
        raw = _sonar_export(
            [
                _sonar_issue("p:A.java", "java:S2095", 1, 1, severity="BLOCKER", itype="BUG"),
                _sonar_issue("p:B.java", "java:S2755", 2, 2, severity="CRITICAL", itype="VULNERABILITY"),
                _sonar_issue("p:C.java", "java:S1120", 3, 3, severity="MINOR", itype="CODE_SMELL"),
            ]
        )
        report = parse_report(raw, "analyzer-json", StateLabel.PRE_REPAIR)
        by_file = {v.file_id: v for v in report.entries}
        assert by_file["A.java"].severity is Severity.HIGH
        assert by_file["A.java"].vtype is ViolationType.BUG
        assert by_file["B.java"].vtype is ViolationType.VULNERABILITY
        assert by_file["C.java"].severity is Severity.LOW

    @pytest.mark.parametrize("raw", ["{not json", "[]", "null", '{"issues": 5}', '{"issues": {"a": 1}}'])
    def test_invalid_json(self, raw):
        # not JSON, or not an object holding a list of issues
        with pytest.raises(MalformedInputError) as err:
            parse_report(raw, "analyzer-json", StateLabel.PRE_REPAIR)
        assert not isinstance(err.value, MissingRequiredFieldError)

    def test_rule_with_trailing_newline_rejected(self):
        with pytest.raises(ValueError):
            check_rule_id("S1118\n")
        with pytest.raises(MalformedInputError):
            parse_report(_sonar_export([_sonar_issue("p:A.java", "java:S1118\n", 1, 1)]), "analyzer-json")

    @pytest.mark.parametrize("component", ["proj: ", "proj:", "proj:./"])
    def test_blank_file_rejected(self, component):
        with pytest.raises(MissingRequiredFieldError) as err:
            parse_report(_sonar_export([_sonar_issue(component, "java:S1118", 1, 1)]), "analyzer-json")
        assert "component" in err.value.field

    def test_nul_rejected(self):
        with pytest.raises(MalformedInputError):
            parse_report(_sonar_export([_sonar_issue("p:A.java", "java:S1118", 1, 1, message="a\0")]),
                         "analyzer-json")

    def test_message_too_long_for_a_csv_field_rejected(self):
        limit = csv.field_size_limit()
        fits = parse_report(_sonar_export([_sonar_issue("p:A.java", "java:S1118", 1, 1, message="x" * limit)]),
                            "analyzer-json")
        assert parse_report(serialize_report(fits), "csv") == fits
        with pytest.raises(MalformedInputError):
            parse_report(_sonar_export([_sonar_issue("p:A.java", "java:S1118", 1, 1, message="x" * (limit + 1))]),
                         "analyzer-json")

    def test_infinite_line_rejected(self):
        raw = _sonar_export([_sonar_issue("p:A.java", "java:S1118", 1, 1)]).replace('"startLine": 1',
                                                                                    '"startLine": Infinity')
        with pytest.raises(MalformedInputError):
            parse_report(raw, "analyzer-json")
