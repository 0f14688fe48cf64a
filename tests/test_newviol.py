import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apreval.errors import MalformedInputError, MissingSourceError, SpanOutOfBoundsError
from apreval.newviol import (
    Fragment,
    NormalizationPolicy,
    SourcePair,
    VerdictKind,
    detect_new_violations,
    extract_fragment,
    NEW_VIOLATIONS_HEADER,
    NewViolationVerdict,
    _LineIndex,
    load_new,
    read_verdict_rows,
    summarize_new,
    tally_new,
    verdict_rows,
    write_newviol,
)
from apreval.violations import Severity, StateLabel, ViolationType

from conftest import mkreport, mkviol


def pair_of(file_id, original, repaired):
    return SourcePair.from_texts(file_id, "\n".join(original), "\n".join(repaired))


TEN_LINES = [f"line {i};" for i in range(1, 11)]


class TestExtractFragment:
    def test_single_line_file(self):
        pair = pair_of("A.java", ["only();"], ["only();"])
        frag = extract_fragment(pair, (1, 1))
        assert frag.lines == ("only();",)

    def test_slice_is_verbatim(self):
        pair = pair_of("A.java", TEN_LINES, TEN_LINES)
        frag = extract_fragment(pair, (3, 5))
        assert frag.lines == ("line 3;", "line 4;", "line 5;")

    def test_out_of_bounds(self):
        pair = pair_of("A.java", TEN_LINES, TEN_LINES)
        with pytest.raises(SpanOutOfBoundsError):
            extract_fragment(pair, (9, 12))

    def test_fragment_length_invariant(self):
        with pytest.raises(ValueError):
            Fragment(file_id="A.java", lines=("x",), span=(1, 2))


def fragment_evidence(pair, span, policy=NormalizationPolicy.EXACT):
    """The evidence line of the verdict on a finding at ``span`` of ``pair``'s
    repaired file, with no pre-repair finding: where the fragment first
    occurs in the original, or None when the finding is NEW."""
    post = mkreport([mkviol(pair.file_id, start=span[0], end=span[1])], StateLabel.POST_REPAIR)
    (vd,) = detect_new_violations(mkreport([]), post, {pair.file_id: pair}, policy)
    assert vd.verdict is (VerdictKind.NEW if vd.evidence is None else VerdictKind.NOT_NEW_FRAGMENT_FOUND)
    return vd.evidence


class TestFragmentSearch:
    def test_verbatim_presence(self):
        pair = pair_of("A.java", TEN_LINES, TEN_LINES)
        assert fragment_evidence(pair, (7, 9)) == 7

    def test_absent_text(self):
        pair = pair_of("A.java", TEN_LINES, ["int other = 1;"])
        assert fragment_evidence(pair, (1, 1)) is None

    def test_reindented_fragment_needs_loose_policy(self):
        original = ["call();"]
        repaired = ["        call();   "]
        pair = pair_of("A.java", original, repaired)
        assert fragment_evidence(pair, (1, 1), NormalizationPolicy.EXACT) is None
        assert fragment_evidence(pair, (1, 1), NormalizationPolicy.LOOSE) == 1

    def test_first_occurrence_wins(self):
        original = ["dup();", "mid();", "dup();"]
        pair = pair_of("A.java", original, original)
        assert fragment_evidence(pair, (3, 3)) == 1

    def test_multiline_must_be_contiguous(self):
        original = ["a;", "x;", "b;"]
        repaired = ["a;", "b;"]
        pair = pair_of("A.java", original, repaired)
        assert fragment_evidence(pair, (1, 2)) is None  # ("a;", "b;")

    @pytest.mark.parametrize("policy", list(NormalizationPolicy), ids=lambda p: p.value)
    def test_naive_scan_oracle_on_random_files(self, rng, policy):
        # indentation and trailing-whitespace variants: LOOSE collapses them,
        # EXACT keeps them apart
        vocab = [pad + f"tok{i}();" + tail for i in range(4) for pad in ("", "    ") for tail in ("", "  ")]

        def norm(line):
            return line if policy is NormalizationPolicy.EXACT else line.strip()

        for _ in range(200):
            original = [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
            repaired = [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
            pair = pair_of("A.java", original, repaired)
            start = rng.randint(1, len(repaired))
            end = rng.randint(start, len(repaired))
            needle = [norm(l) for l in repaired[start - 1 : end]]
            hay = [norm(l) for l in original]
            expected = None
            for i in range(len(hay) - len(needle) + 1):
                if hay[i : i + len(needle)] == needle:
                    expected = i + 1
                    break
            assert fragment_evidence(pair, (start, end), policy) == expected


class TestLineIndex:
    ORIGINAL = ("a();", "b();", "  b();  ", "c();", "b();", "c();")

    def test_only_requested_first_lines_are_indexed(self):
        exact = _LineIndex(self.ORIGINAL, NormalizationPolicy.EXACT, ["b();", "b();", "absent();"])
        assert exact.positions == {"b();": [1, 4]}
        assert exact.lines is self.ORIGINAL  # EXACT keeps the caller's tuple
        loose = _LineIndex(self.ORIGINAL, NormalizationPolicy.LOOSE, ["   b();"])
        assert loose.positions == {"b();": [1, 2, 4]}
        assert loose.lines[2] == "b();"

    def test_first_occurrence_wins(self):
        index = _LineIndex(self.ORIGINAL, NormalizationPolicy.EXACT, ["b();"])
        assert index.find(Fragment("A.java", ("b();", "c();"), (7, 8))) == 5
        assert index.find(Fragment("A.java", ("b();",), (9, 9))) == 2
        loose = _LineIndex(self.ORIGINAL, NormalizationPolicy.LOOSE, ["b();"])
        assert loose.find(Fragment("A.java", ("b();", "c();"), (1, 2))) == 3

    def test_fragment_must_start_on_a_requested_line(self):
        index = _LineIndex(self.ORIGINAL, NormalizationPolicy.EXACT, ["b();"])
        assert index.positions.get("c();") is None
        assert index.find(Fragment("A.java", ("c();",), (1, 1))) is None


# --- three-stage detection -----------------------------------------------------


def naive_three_stage_with_evidence(pre, post, sources, policy):
    """Independent reimplementation of the detection rule, for equivalence.

    Returns one ``(verdict, evidence line)`` pair per post entry.
    """

    def norm(line):
        return line if policy is NormalizationPolicy.EXACT else line.strip()

    results = []
    for v in post.entries:
        pair = sources[v.file_id]
        needle = [norm(l) for l in pair.repaired_lines[v.start_line - 1 : v.end_line]]
        hay = [norm(l) for l in pair.original_lines]
        found_at = None
        for i in range(len(hay) - len(needle) + 1):
            if hay[i : i + len(needle)] == needle:
                found_at = i + 1
                break
        if needle and found_at is not None:
            results.append((VerdictKind.NOT_NEW_FRAGMENT_FOUND, found_at))
        elif any(p.key == v.key for p in pre.entries):
            results.append((VerdictKind.NOT_NEW_KEY_MATCH, v.start_line))
        else:
            results.append((VerdictKind.NEW, None))
    return results


def naive_three_stage(pre, post, sources, policy):
    """Verdicts only of :func:`naive_three_stage_with_evidence`."""
    return [kind for kind, _ in naive_three_stage_with_evidence(pre, post, sources, policy)]


class TestDetectNewViolations:
    def test_noop_repair_yields_zero_new(self):
        original = TEN_LINES
        entries = [mkviol("A.java", "S1120", 4), mkviol("A.java", "S139", 9)]
        pre = mkreport(entries, StateLabel.PRE_REPAIR)
        post = mkreport(entries, StateLabel.POST_REPAIR)
        sources = {"A.java": pair_of("A.java", original, original)}
        verdicts = detect_new_violations(pre, post, sources)
        assert all(v.verdict is not VerdictKind.NEW for v in verdicts)

    def test_shifted_violation_found_by_fragment(self):
        original = TEN_LINES
        repaired = ["// tool header"] + original
        pre = mkreport([mkviol("A.java", "S1120", 5)], StateLabel.PRE_REPAIR)
        post = mkreport([mkviol("A.java", "S1120", 6)], StateLabel.POST_REPAIR)
        sources = {"A.java": pair_of("A.java", original, repaired)}
        (verdict,) = detect_new_violations(pre, post, sources)
        assert verdict.verdict is VerdictKind.NOT_NEW_FRAGMENT_FOUND
        assert verdict.evidence == 5

    def test_injected_line_is_new(self):
        original = TEN_LINES
        repaired = original[:3] + ["    private Foo() {}"] + original[3:]
        pre = mkreport([], StateLabel.PRE_REPAIR)
        post = mkreport([mkviol("A.java", "S1106", 4)], StateLabel.POST_REPAIR)
        sources = {"A.java": pair_of("A.java", original, repaired)}
        (verdict,) = detect_new_violations(pre, post, sources)
        assert verdict.verdict is VerdictKind.NEW
        assert verdict.evidence is None

    def test_in_place_modification_found_by_key(self):
        original = TEN_LINES
        repaired = list(original)
        repaired[4] = "line 5 modified;"
        pre = mkreport([mkviol("A.java", "S2164", 5)], StateLabel.PRE_REPAIR)
        post = mkreport([mkviol("A.java", "S2164", 5)], StateLabel.POST_REPAIR)
        sources = {"A.java": pair_of("A.java", original, repaired)}
        (verdict,) = detect_new_violations(pre, post, sources)
        assert verdict.verdict is VerdictKind.NOT_NEW_KEY_MATCH

    def test_stage_precedence_fragment_beats_key(self):
        # unchanged line, unchanged position: both stages would accept it
        original = TEN_LINES
        pre = mkreport([mkviol("A.java", "S139", 7)], StateLabel.PRE_REPAIR)
        post = mkreport([mkviol("A.java", "S139", 7)], StateLabel.POST_REPAIR)
        sources = {"A.java": pair_of("A.java", original, original)}
        (verdict,) = detect_new_violations(pre, post, sources)
        assert verdict.verdict is VerdictKind.NOT_NEW_FRAGMENT_FOUND

    def test_missing_source_named(self):
        post = mkreport([mkviol("Gone.java", "S1120", 1)], StateLabel.POST_REPAIR)
        with pytest.raises(MissingSourceError) as err:
            detect_new_violations(mkreport([], StateLabel.PRE_REPAIR), post, {})
        assert err.value.file_id == "Gone.java"

    def test_soundness_on_unchanged_code(self, rng):
        # identical sources + post key present in pre: never NEW
        for _ in range(50):
            n = rng.randint(3, 12)
            original = [f"stmt{rng.randint(0, 4)}();" for _ in range(n)]
            line = rng.randint(1, n)
            entries = [mkviol("A.java", "S1120", line)]
            pre = mkreport(entries, StateLabel.PRE_REPAIR)
            post = mkreport(entries, StateLabel.POST_REPAIR)
            sources = {"A.java": pair_of("A.java", original, original)}
            (verdict,) = detect_new_violations(pre, post, sources)
            assert verdict.verdict is not VerdictKind.NEW


# --- scripted-edit corpus with ground truth -------------------------------------

SCENARIOS = (
    "shift_insert_top",
    "shift_delete_above",
    "inject_unique",
    "inject_duplicate_of_existing",
    "modify_in_place",
    "relocate_block",
    "reformat_and_shift",
    "multiline_split",
)


def build_case(rng: random.Random, idx: int, scenario: str):
    """One post violation with sources, pre entry, and ground-truth labels.

    Returns (file_id, SourcePair, pre_violations, post_violation,
    provenance, expected_verdict_or_None). expected is asserted literally
    where the scenario makes exactly one verdict defensible.
    """
    file_id = f"case{idx:03d}.java"
    n = rng.randint(8, 16)
    original = [f"    int v{idx}_{i} = {i};" for i in range(n)]
    dup_line = "    int shared = 0;"
    original[rng.randrange(n)] = dup_line

    if scenario == "shift_insert_top":
        k = rng.randint(1, 3)
        repaired = [f"// tool header {idx} {j}" for j in range(k)] + original
        line = rng.randint(1, n)
        pre = [mkviol(file_id, "S1120", line)]
        post = mkviol(file_id, "S1120", line + k)
        return file_id, pair_of(file_id, original, repaired), pre, post, "preexisting", VerdictKind.NOT_NEW_FRAGMENT_FOUND

    if scenario == "shift_delete_above":
        cut = rng.randint(1, 3)
        line = rng.randint(cut + 1, n)
        repaired = original[cut:]
        pre = [mkviol(file_id, "S1120", line)]
        post = mkviol(file_id, "S1120", line - cut)
        return file_id, pair_of(file_id, original, repaired), pre, post, "preexisting", VerdictKind.NOT_NEW_FRAGMENT_FOUND

    if scenario == "inject_unique":
        at = rng.randint(0, n)
        injected = f"    private Tool{idx}() {{}}"
        repaired = original[:at] + [injected] + original[at:]
        post = mkviol(file_id, "S1106", at + 1)
        return file_id, pair_of(file_id, original, repaired), [], post, "tool_introduced", VerdictKind.NEW

    if scenario == "inject_duplicate_of_existing":
        # the tool inserts a line byte-identical to one already in the file,
        # so the fragment check cannot call it new; agreement still required
        at = rng.randint(0, n)
        repaired = original[:at] + [dup_line] + original[at:]
        post = mkviol(file_id, "S1854", at + 1)
        return file_id, pair_of(file_id, original, repaired), [], post, "tool_introduced", VerdictKind.NOT_NEW_FRAGMENT_FOUND

    if scenario == "modify_in_place":
        line = rng.randint(1, n)
        repaired = list(original)
        repaired[line - 1] = f"    int modified{idx} = (float) {line};"
        pre = [mkviol(file_id, "S2164", line)]
        post = mkviol(file_id, "S2164", line)
        return file_id, pair_of(file_id, original, repaired), pre, post, "preexisting", VerdictKind.NOT_NEW_KEY_MATCH

    if scenario == "relocate_block":
        a = rng.randint(0, n - 3)
        width = rng.randint(1, 2)
        block = original[a : a + width]
        rest = original[:a] + original[a + width :]
        at = rng.randint(0, len(rest))
        repaired = rest[:at] + block + rest[at:]
        pre = [mkviol(file_id, "S1120", a + 1, a + width)]
        post = mkviol(file_id, "S1120", at + 1, at + width)
        return file_id, pair_of(file_id, original, repaired), pre, post, "preexisting", VerdictKind.NOT_NEW_FRAGMENT_FOUND

    if scenario == "reformat_and_shift":
        # indentation rewritten AND position shifted: the exact-policy rule
        # has no way to match it, reproducing a known false positive
        line = rng.randint(1, n)
        reformatted = "        " + original[line - 1].lstrip()
        repaired = ["// tool header"] + original[: line - 1] + [reformatted] + original[line:]
        pre = [mkviol(file_id, "S1120", line)]
        post = mkviol(file_id, "S1120", line + 1)
        return file_id, pair_of(file_id, original, repaired), pre, post, "preexisting", VerdictKind.NEW

    if scenario == "multiline_split":
        # a line inserted inside the flagged block breaks contiguity
        a = rng.randint(1, n - 2)
        repaired = original[:a] + [f"// wedge {idx}"] + original[a:]
        pre = [mkviol(file_id, "S1120", a, a + 1)]
        post = mkviol(file_id, "S1120", a, a + 2)
        return file_id, pair_of(file_id, original, repaired), pre, post, "modified", None

    raise AssertionError(scenario)


def build_corpus(seed: int, per_scenario: int = 30):
    rng = random.Random(seed)
    sources, pre_entries, post_entries = {}, [], []
    truth = {}  # file_id -> (scenario, provenance, expected verdict or None)
    idx = 0
    for scenario in SCENARIOS:
        for _ in range(per_scenario):
            file_id, pair, pre, post, provenance, expected = build_case(rng, idx, scenario)
            sources[file_id] = pair
            pre_entries.extend(pre)
            post_entries.append(post)
            truth[file_id] = (scenario, provenance, expected)
            idx += 1
    return (
        mkreport(pre_entries, StateLabel.PRE_REPAIR),
        mkreport(post_entries, StateLabel.POST_REPAIR),
        sources,
        truth,
    )


class TestScriptedEditCorpus:
    def test_detector_equals_naive_implementation_everywhere(self):
        pre, post, sources, truth = build_corpus(seed=7)
        assert len(post.entries) >= 200
        verdicts = detect_new_violations(pre, post, sources)
        naive = naive_three_stage(pre, post, sources, NormalizationPolicy.EXACT)
        assert len(verdicts) == len(post.entries)  # exhaustive: one verdict each
        mismatches = [
            (vd.violation.file_id, vd.verdict, nv)
            for vd, nv in zip(verdicts, naive)
            if vd.verdict is not nv
        ]
        assert mismatches == []

    def test_expected_verdicts_hold_per_scenario(self):
        pre, post, sources, truth = build_corpus(seed=7)
        verdicts = detect_new_violations(pre, post, sources)
        for vd in verdicts:
            scenario, provenance, expected = truth[vd.violation.file_id]
            if expected is not None:
                assert vd.verdict is expected, (scenario, vd.violation.file_id)

    def test_loose_policy_recovers_reformatted_cases(self):
        pre, post, sources, truth = build_corpus(seed=11)
        verdicts = detect_new_violations(pre, post, sources, NormalizationPolicy.LOOSE)
        naive = naive_three_stage(pre, post, sources, NormalizationPolicy.LOOSE)
        assert [v.verdict for v in verdicts] == naive
        for vd in verdicts:
            scenario, _, _ = truth[vd.violation.file_id]
            if scenario == "reformat_and_shift":
                assert vd.verdict is VerdictKind.NOT_NEW_FRAGMENT_FOUND


class TestMultiFileEvidence:
    @pytest.mark.parametrize("policy", list(NormalizationPolicy), ids=lambda p: p.value)
    def test_evidence_matches_naive_with_interleaved_files(self, rng, policy):
        vocab = [pad + f"stmt{i}();" + tail for i in range(5) for pad in ("", "  ") for tail in ("", " ")]
        sources, pre_entries, post_entries = {}, [], []
        for f in range(6):
            file_id = f"F{f}.java"
            original = [rng.choice(vocab) for _ in range(rng.randint(5, 25))]
            repaired = [rng.choice(vocab) for _ in range(rng.randint(5, 25))]
            sources[file_id] = pair_of(file_id, original, repaired)
            for _ in range(rng.randint(3, 10)):
                start = rng.randint(1, len(repaired))
                end = min(len(repaired), start + rng.randint(0, 2))
                v = mkviol(file_id, f"S{rng.randint(1, 3)}", start, end)
                post_entries.append(v)
                if rng.random() < 0.3:
                    pre_entries.append(v)
        # non-canonical order: files interleave, so the per-file index is
        # rebuilt whenever the file changes
        rng.shuffle(post_entries)
        pre = mkreport(pre_entries, StateLabel.PRE_REPAIR)
        post = mkreport(post_entries, StateLabel.POST_REPAIR, normalized=False)
        switches = sum(a.file_id != b.file_id for a, b in zip(post.entries, post.entries[1:]))
        assert switches > len(sources)  # files are revisited, not grouped
        verdicts = detect_new_violations(pre, post, sources, policy)
        expected = naive_three_stage_with_evidence(pre, post, sources, policy)
        assert [(vd.verdict, vd.evidence) for vd in verdicts] == expected
        assert [vd.violation for vd in verdicts] == list(post.entries)


class TestTallyNew:
    def test_corpus_scale_totals(self):
        # corpus-scale population: : 2120 new findings,
        # 32 bugs + 2088 code smells, no vulnerabilities
        new = [mkviol("A.java", "S2164", vtype=ViolationType.BUG, severity=Severity.LOW)] * 32
        new += [mkviol("A.java", "S1106", vtype=ViolationType.CODE_SMELL, severity=Severity.LOW)] * 2088
        breakdown = tally_new(new)
        assert breakdown.total_new == 2120
        totals = {t: sum(n for (vtype, _), n in breakdown.matrix.items() if vtype is t) for t in ViolationType}
        assert totals == {ViolationType.BUG: 32, ViolationType.CODE_SMELL: 2088, ViolationType.VULNERABILITY: 0}

    def test_empty_is_all_zero(self):
        breakdown = tally_new([])
        assert breakdown.total_new == 0
        assert len(breakdown.matrix) == len(ViolationType) * len(Severity)
        assert set(breakdown.matrix.values()) == {0}
        assert breakdown.rule_frequency == ()

    def test_hand_tally(self, tmp_path):
        def verdict(vtype, severity, rule, new=True):
            v = mkviol("A.java", rule, 1, vtype=vtype, severity=severity)
            kind = VerdictKind.NEW if new else VerdictKind.NOT_NEW_KEY_MATCH
            return NewViolationVerdict(v, kind, evidence=None if new else 1)

        verdicts = [
            verdict(ViolationType.CODE_SMELL, Severity.LOW, "S1106"),
            verdict(ViolationType.CODE_SMELL, Severity.LOW, "S1106"),
            verdict(ViolationType.BUG, Severity.HIGH, "S2164"),
            verdict(ViolationType.CODE_SMELL, Severity.MEDIUM, "S103"),
            verdict(ViolationType.BUG, Severity.HIGH, "S2164", new=False),
        ]
        # the stage's path: the rows of the verdicts, and the NEW violations among them
        rows, new = write_newviol(tmp_path, verdict_rows(verdicts), [])
        breakdown = tally_new(new)
        assert (rows, breakdown.total_new) == (5, 4)  # the non-NEW verdict is not counted
        assert breakdown.matrix[(ViolationType.CODE_SMELL, Severity.LOW)] == 2
        assert breakdown.matrix[(ViolationType.BUG, Severity.HIGH)] == 1
        assert breakdown.rule_frequency == (("S1106", 2), ("S103", 1), ("S2164", 1))
        assert (tmp_path / "new_frequency.csv").read_text(encoding="utf-8") == "rule,count\nS1106,2\nS103,1\nS2164,1\n"


#: pieces of the messages written to ``new_violations.csv``: the CSV's
#: delimiter, quote and every line break, and padding
MESSAGE_PIECES = ["plain", ",", '"', "\n", "\r\n", "\r", " ", "é"]


@st.composite
def verdict_lists(draw):
    """Verdicts over up to four files, with messages built from ``MESSAGE_PIECES``."""
    verdicts = []
    for file_no in draw(st.lists(st.integers(0, 3), max_size=12)):
        message = "".join(draw(st.lists(st.sampled_from(MESSAGE_PIECES), max_size=6)))
        start = draw(st.integers(1, 50))
        v = mkviol(f"F{file_no}.java", draw(st.sampled_from(["S1118", "S2164", "S103"])),
                   start, start + draw(st.integers(0, 3)), vtype=draw(st.sampled_from(list(ViolationType))),
                   severity=draw(st.sampled_from(list(Severity))), message=message)
        kind = draw(st.sampled_from(list(VerdictKind)))
        verdicts.append(NewViolationVerdict(v, kind, evidence=None if kind is VerdictKind.NEW else start))
    return verdicts


class TestReadNewViolations:
    @pytest.mark.parametrize("rows, line", [
        # a quoted two-line message on the bad row itself
        ('A.java,S1118,CodeSmell,Low,1,x,"two\nlines",new,\n', 2),
        # a two-line row, blank lines (LF and CRLF), then a two-line bad row
        ('A.java,S1118,CodeSmell,Low,1,1,"x\r\ny",new,\n\n\r\n'
         'B.java,S1118,CodeSmell,Low,1,x,"p\nq",new,\n', 6),
        # a not-new row with a blank line inside its message
        ('A.java,S1118,CodeSmell,Low,1,1,"x\n\ny",not_new_key_match,1\n'
         'B.java,S1118,CodeSmell,Low,1,x,m,new,\n', 5),
    ], ids=["two-line-bad-row", "after-blank-lines", "after-a-not-new-row"])
    def test_bad_row_reports_the_line_it_starts_on(self, tmp_path, rows, line):
        path = tmp_path / "new_violations.csv"
        path.write_text(",".join(NEW_VIOLATIONS_HEADER) + "\n" + rows, encoding="utf-8", newline="")
        with pytest.raises(MalformedInputError) as err:
            load_new(path)
        assert err.value.line == line

    # the reuse path reads only some files' rows, and still refuses a bad one
    @pytest.mark.parametrize("reader", [load_new, lambda path: list(read_verdict_rows(path, {"A.java"}))],
                             ids=["load_new", "read_verdict_rows"])
    def test_short_row_is_refused(self, tmp_path, reader):
        path = tmp_path / "new_violations.csv"
        path.write_text(
            ",".join(NEW_VIOLATIONS_HEADER) + "\nA.java,S1118,CodeSmell,Low,1,1,m,new,\nB.java,S1118\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedInputError) as err:
            reader(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: expected 9 fields, got 2 (line 3)"

    @settings(max_examples=60, deadline=None)
    @given(verdicts=verdict_lists(), files=st.sets(st.sampled_from([f"F{i}.java" for i in range(4)])))
    @example(
        verdicts=[
            NewViolationVerdict(mkviol(f"F{i}.java", "S1118", i + 1, message=message),
                                VerdictKind.NEW if i % 3 else VerdictKind.NOT_NEW_FRAGMENT_FOUND,
                                evidence=None if i % 3 else 1)
            for i, message in enumerate(["plain", 'a, "quoted" one', "two\nlines", "cr\r\nlf", "bare\rcr",
                                         " padded "])
        ],
        files={"F1.java", "F4.java"},
    )
    def test_written_rows_read_back_as_the_new_verdicts(self, tmp_path_factory, verdicts, files):
        # the pipeline hands what newviol wrote on to sample and report, and
        # reuses the rows of unchanged files, instead of re-reading the file:
        # each must agree with a re-read
        out = tmp_path_factory.mktemp("newviol")
        path = out / "new_violations.csv"
        written = write_newviol(out, verdict_rows(verdicts), [])
        new = [vd.violation for vd in verdicts if vd.verdict is VerdictKind.NEW]
        assert written == load_new(path) == (len(verdicts), new)
        # summary.json's section agrees with the new_matrix and new_frequency tables written
        matrix, frequency = (
            [line.split(",") for line in (out / name).read_text(encoding="utf-8").splitlines()[1:]]
            for name in ("new_matrix.csv", "new_frequency.csv")
        )
        assert summarize_new(*written) == {
            "post_violations": len(verdicts),
            "total_new": sum(int(n) for _, _, n in matrix),
            "matrix": {f"{t}/{s}": int(n) for t, s, n in matrix if n != "0"},
            "top_rules": [(rule, int(n)) for rule, n in frequency],
        }

        expected = [([str(field) for field in row], v) for row, v in verdict_rows(verdicts) if row[0] in files]
        assert list(read_verdict_rows(path, files)) == expected

        path.write_bytes(path.read_bytes() + b"F0.java,S1118,CodeSmell,Low,1,1,\xff,new,\n")
        with pytest.raises(MalformedInputError, match="not valid UTF-8") as err:
            list(read_verdict_rows(path, files))
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("row, message", [
        ("A.java,S1118,CodeSmell,Low,1,1,m,NEW,", "'NEW' is not a valid VerdictKind"),
        ("A.java,S1118,CodeSmell,Low,1,1,m,,", "'' is not a valid VerdictKind"),
        ("A.java,S1118,CodeSmell,Low,abc,1,m,not_new_key_match,1", "invalid literal for int() with base 10: 'abc'"),
        ("A.java,S1118,CodeSmell,Low,1,,m,not_new_key_match,1", "invalid literal for int() with base 10: ''"),
        ("A.java,S1118,CodeSmell,Low,5,4,m,not_new_key_match,5", "end_line 4 precedes start_line 5"),
        ("A.java,S1118,Bogus,Low,1,1,m,not_new_key_match,1", "'Bogus' is not a valid ViolationType"),
        ("A.java,S1118,CodeSmell,Huge,1,1,m,not_new_fragment_found,1", "'Huge' is not a valid Severity"),
        ("A.java,X1,CodeSmell,Low,1,1,m,not_new_key_match,1",
         "invalid rule id 'X1'; expected 'S' followed by 1-5 digits"),
        (",S1118,CodeSmell,Low,1,1,m,not_new_key_match,1", "file_id must be non-empty"),
        ("A.java,S1118,CodeSmell,Low,1,1,m,not_new_fragment_found,xyz",
         "invalid literal for int() with base 10: 'xyz'"),
        ("A.java,S1118,CodeSmell,Low,1,1,m,not_new_key_match,",
         "evidence must be present exactly when the verdict is not NEW"),
        ("A.java,S1118,CodeSmell,Low,1,1,m,new,7", "evidence must be present exactly when the verdict is not NEW"),
        ("A.java,S1118,CodeSmell,Low,1,1,m,not_new_fragment_found,0", "evidence must be a line number >= 1, got 0"),
    ], ids=["verdict-upper-case", "verdict-blank", "start-not-int", "end-blank", "end-before-start", "type",
            "severity", "rule", "file-blank", "evidence-not-int", "not-new-without-evidence", "new-with-evidence",
            "evidence-zero"])
    @pytest.mark.parametrize("reader", [load_new, lambda path: list(read_verdict_rows(path, {"A.java", ""}))],
                             ids=["load_new", "read_verdict_rows"])
    def test_bad_value_in_any_row_is_refused(self, tmp_path, reader, row, message):
        path = tmp_path / "new_violations.csv"
        path.write_text(",".join(NEW_VIOLATIONS_HEADER) + "\nA.java,S1118,CodeSmell,Low,1,1,m,new,\n" + row + "\n",
                        encoding="utf-8")
        with pytest.raises(MalformedInputError) as err:
            reader(path)
        assert str(err.value) == f"{path}: {message} (line 3)"

    def test_empty_file_is_refused(self, tmp_path):
        path = tmp_path / "new_violations.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MalformedInputError, match="empty file"):
            load_new(path)
