import pytest

from apreval.errors import MalformedInputError
from apreval.semantic import (
    CompileErrorClass,
    FailureClass,
    Regression,
    TestOutcome,
    TestStatus,
    classify_compile_error,
    classify_failure,
    diff_test_outcomes,
    filter_baseline,
    ingest_test_results,
    score_semantic,
    summarize_semantic,
)


def outcome(test_id, status="pass", failure_kind=None, target_file=None):
    return TestOutcome(
        test_id=test_id,
        target_file=target_file,
        status=TestStatus(status),
        failure_kind=failure_kind,
    )


def results_csv(rows):
    lines = ["test_id,target_file,status,failure_kind"]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


class TestIngest:
    def test_four_rows(self):
        raw = results_csv(
            [
                ("BTest.t1", "B.java", "pass", ""),
                ("ATest.t1", "A.java", "pass", ""),
                ("ATest.t2", "A.java", "fail", "java.lang.AssertionError: boom"),
                ("CTest.t1", "C.java", "skip", ""),
            ]
        )
        outcomes = ingest_test_results(raw)
        assert [o.test_id for o in outcomes] == ["ATest.t1", "ATest.t2", "BTest.t1", "CTest.t1"]
        assert outcomes[1].failure_kind == "java.lang.AssertionError: boom"

    def test_empty_file(self):
        assert ingest_test_results("test_id,target_file,status,failure_kind\n") == []

    def test_duplicate_id_rejected(self):
        raw = results_csv([("ATest.t1", "", "pass", ""), ("ATest.t1", "", "fail", "x")])
        with pytest.raises(MalformedInputError) as err:
            ingest_test_results(raw)
        assert "ATest.t1" in str(err.value)

    def test_outcome_invariant(self):
        with pytest.raises(ValueError):
            TestOutcome(test_id="t", target_file=None, status=TestStatus.PASS, failure_kind="x")
        with pytest.raises(ValueError):
            TestOutcome(test_id="t", target_file=None, status=TestStatus.FAIL, failure_kind=None)


class TestScoreSemantic:
    @pytest.mark.parametrize("side", ["baseline", "repaired"])
    def test_malformed_file_is_named(self, tmp_path, side):
        # the baseline file may come from an earlier run, so say which file is bad
        good = results_csv([("ATest.t1", "A.java", "pass", ""), ("ATest.t2", "A.java", "pass", "")])
        paths = {s: tmp_path / f"{s}.csv" for s in ("baseline", "repaired")}
        for s, path in paths.items():
            path.write_text(good + ("t99,A.java\n" if s == side else ""), encoding="utf-8")
        with pytest.raises(MalformedInputError) as err:
            score_semantic(paths["baseline"], paths["repaired"], {}, tmp_path / "out")
        assert (err.value.message, err.value.line) == (f"{paths[side]}: expected 4 fields, got 2", 4)
        assert str(err.value) == f"{paths[side]}: expected 4 fields, got 2 (line 4)"


class TestBaseline:
    def test_corpus_scale_counts(self):
        outcomes = [outcome(f"t{i:05d}", "pass") for i in range(8212)]
        outcomes += [outcome(f"f{i:05d}", "fail", "java.lang.AssertionError") for i in range(62)]
        assert len(outcomes) == 8274
        assert len(filter_baseline(outcomes)) == 8212

    def test_all_failing(self):
        outcomes = [outcome(f"t{i}", "fail", "e") for i in range(5)]
        assert filter_baseline(outcomes) == set()

    def test_mixed_hand_count(self):
        outcomes = [
            outcome("a", "pass"), outcome("b", "fail", "e"), outcome("c", "pass"),
            outcome("d", "skip"), outcome("e", "pass"), outcome("f", "fail", "e"),
            outcome("g", "pass"), outcome("h", "skip"), outcome("i", "pass"),
            outcome("j", "fail", "e"),
        ]
        assert filter_baseline(outcomes) == {"a", "c", "e", "g", "i"}


class TestDiff:
    def test_identical_runs_have_no_regressions(self):
        baseline = {"a", "b", "c"}
        repaired = [outcome("a"), outcome("b"), outcome("c")]
        assert diff_test_outcomes(baseline, repaired) == []

    def test_fail_and_skip_both_regress(self):
        baseline = {"a", "b", "c"}
        repaired = [outcome("a"), outcome("b", "fail", "boom"), outcome("c", "skip")]
        regressions = diff_test_outcomes(baseline, repaired)
        assert [r.test_id for r in regressions] == ["b", "c"]

    def test_missing_id_flagged_as_no_class_def_candidate(self):
        baseline = {"a", "b"}
        repaired = [outcome("a")]
        (reg,) = diff_test_outcomes(baseline, repaired)
        assert reg.test_id == "b"
        assert reg.missing_in_repaired_run
        assert "NoClassDefFoundError" in reg.failure_kind

    def test_shrinking_baseline_never_increases_regressions(self):
        repaired = [outcome("a", "fail", "x"), outcome("b"), outcome("c", "fail", "y")]
        full = diff_test_outcomes({"a", "b", "c"}, repaired)
        smaller = diff_test_outcomes({"a", "b"}, repaired)
        assert len(smaller) <= len(full)


class TestClassifyFailure:
    def test_illegal_access(self):
        assert classify_failure("java.lang.IllegalAccessError: tried to access private method") \
            is FailureClass.ILLEGAL_ACCESS

    def test_assertion_marker(self):
        assert classify_failure("AssertionError: expected:<3> but was:<4>") is FailureClass.ASSERTION

    def test_no_class_def(self):
        assert classify_failure("java.lang.NoClassDefFoundError: Foo") is FailureClass.NO_CLASS_DEF

    def test_simulation_artifact_case_insensitive(self):
        assert classify_failure("EvoSuite Simulation error in sandbox") is FailureClass.SIMULATION_ARTIFACT

    def test_unmatched_is_other(self):
        assert classify_failure("java.lang.OutOfMemoryError") is FailureClass.OTHER

    def test_total_and_deterministic(self):
        kinds = ["IllegalAccessError", "weird", "", "?", "NoClassDefFoundError x", "assertion blew"]
        for kind in kinds:
            assert isinstance(classify_failure(kind), FailureClass)
            assert classify_failure(kind) is classify_failure(kind)


TABLE_DIAGNOSTICS = {
    "error: cannot find symbol": CompileErrorClass.CANNOT_FIND_SYMBOL,
    "variable x might not have been initialized": CompileErrorClass.NOT_INITIALIZED,
    "cannot assign a value to final variable retryLimit": CompileErrorClass.ASSIGN_TO_FINAL,
    "error: not a statement": CompileErrorClass.NOT_A_STATEMENT,
    "exception java.io.IOException is never thrown in body of corresponding try statement":
        CompileErrorClass.EXCEPTION_NEVER_THROWN,
    "illegal combination of modifiers: final and volatile": CompileErrorClass.ILLEGAL_MODIFIER_COMBO,
    "Shapes() has private access in Shapes": CompileErrorClass.PARENT_PRIVATE_ACCESS,
}


class TestClassifyCompileError:
    def test_table_patterns_zero_misses(self):
        for diagnostic, expected in TABLE_DIAGNOSTICS.items():
            match = classify_compile_error(diagnostic)
            assert match.cls is expected, diagnostic
            assert match.matched_pattern

    def test_unmatched_is_other(self):
        match = classify_compile_error("warning: deprecation")
        assert match.cls is CompileErrorClass.OTHER
        assert match.matched_pattern == ""

    def test_first_pattern_wins(self):
        both = "cannot find symbol; also x might not have been initialized"
        assert classify_compile_error(both).cls is CompileErrorClass.CANNOT_FIND_SYMBOL


def golden_regressions():
    regressions = []
    for i in range(1694):
        regressions.append(
            Regression(f"ia{i:05d}", TestStatus.FAIL, "java.lang.IllegalAccessError: private")
        )
    for i in range(189):
        regressions.append(
            Regression(f"nc{i:05d}", TestStatus.FAIL, "java.lang.NoClassDefFoundError: Gone")
        )
    for i in range(78):
        regressions.append(
            Regression(f"as{i:05d}", TestStatus.FAIL, "java.lang.AssertionError: expected")
        )
    regressions.append(Regression("sim00000", TestStatus.FAIL, "simulation error in test harness"))
    return regressions


class TestSummarize:
    def test_golden_fixture(self):
        baseline = {f"b{i:05d}" for i in range(8212)}
        regressions = golden_regressions()
        assert len(regressions) == 1962
        summary = summarize_semantic(baseline, regressions, {})
        assert summary.executed == 8212
        assert summary.failed == 1962
        assert abs(summary.pass_rate - 0.761) < 0.0005
        assert summary.failure_histogram[FailureClass.ILLEGAL_ACCESS] == 1694
        assert summary.failure_histogram[FailureClass.NO_CLASS_DEF] == 189
        assert summary.failure_histogram[FailureClass.ASSERTION] == 78
        assert summary.excluded_simulation_artifacts == 1
        assert sum(summary.failure_histogram.values()) == 1961

    def test_count_conservation(self):
        summary = summarize_semantic({"a", "b", "c"}, golden_regressions()[:3], {})
        assert (
            sum(summary.failure_histogram.values()) + summary.excluded_simulation_artifacts
            == summary.failed
        )

    def test_zero_regressions(self):
        summary = summarize_semantic({"a", "b"}, [], {})
        assert summary.pass_rate == 1.0
        assert summary.failure_histogram == {}

    def test_uncompilable_file_count(self):
        diagnostics = {f"F{i:02d}.java": "error: cannot find symbol" for i in range(24)}
        diagnostics.update(
            {f"G{i:02d}.java": "variable v might not have been initialized" for i in range(17)}
        )
        diagnostics.update(
            {f"H{i:02d}.java": "cannot assign a value to final variable x" for i in range(11)}
        )
        diagnostics.update({f"I{i:02d}.java": "error: not a statement" for i in range(9)})
        summary = summarize_semantic(set(), [], diagnostics)
        assert summary.uncompilable_files == 61
        assert summary.compile_error_histogram[CompileErrorClass.CANNOT_FIND_SYMBOL] == 24
        assert summary.compile_error_histogram[CompileErrorClass.NOT_INITIALIZED] == 17
