import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apreval.errors import (
    MalformedInputError,
    MissingRequiredFieldError,
    UnknownAdapterError,
)
from apreval.violations import (
    SORALD_30,
    RuleProfile,
    Severity,
    StateLabel,
    ViolationType,
    normalize_path,
    normalize_report,
    parse_report,
    serialize_report,
)

from conftest import mkreport, mkviol, random_violation


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

    def test_invalid_json(self):
        with pytest.raises(MalformedInputError):
            parse_report("{not json", "analyzer-json", StateLabel.PRE_REPAIR)
