import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apreval.errors import (
    ConflictingVerdictsError,
    InfeasibleTargetError,
    InvalidParameterError,
    UnlabeledRowError,
)
from apreval.newviol import SourcePair
from apreval.sampling import (
    LabelVerdict,
    SHEET_HEADER,
    allocate_proportional,
    cochran_sample_size,
    exact_binomial_test,
    export_labeling_sheet,
    ingest_labels,
    label_counts,
    stratified_sample,
)

from conftest import mkviol


class TestCochran:
    def test_golden_sample_size(self):
        assert cochran_sample_size(2120, 0.95, 0.05, 0.5) == 326

    def test_population_of_one(self):
        assert cochran_sample_size(1) == 1

    def test_large_population(self):
        assert cochran_sample_size(10000, 0.95, 0.05, 0.5) == 370

    def test_other_confidence_levels(self):
        # direct evaluation of z^2 p(1-p)/e^2 with finite-population correction
        for conf, z in ((0.90, 1.645), (0.99, 2.576)):
            n0 = z * z * 0.25 / 0.0025
            expected = math.ceil(n0 / (1 + (n0 - 1) / 5000))
            assert cochran_sample_size(5000, conf, 0.05, 0.5) == expected

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            cochran_sample_size(0)
        with pytest.raises(InvalidParameterError):
            cochran_sample_size(100, confidence=0.80)
        with pytest.raises(InvalidParameterError):
            cochran_sample_size(100, margin=0.0)
        with pytest.raises(InvalidParameterError):
            cochran_sample_size(100, proportion=1.0)

    @given(st.integers(min_value=1, max_value=50000))
    @settings(max_examples=80)
    def test_monotone_in_population_and_never_exceeds_it(self, n):
        target = cochran_sample_size(n)
        assert 1 <= target <= n
        assert target <= cochran_sample_size(n + 1)

    def test_monotone_in_margin(self):
        targets = [cochran_sample_size(5000, margin=e) for e in (0.01, 0.03, 0.05, 0.10)]
        assert targets == sorted(targets, reverse=True)


class TestAllocation:
    def test_single_stratum(self):
        assert allocate_proportional({"S1": 500}, 12) == {"S1": 12}

    def test_spec_decrement_example(self):
        # raw rounding gives {11, 1, 1} summing to 13; one decrement of the
        # largest brings it to the target
        assert allocate_proportional({"SA": 100, "SB": 10, "SC": 1}, 12) == {
            "SA": 10, "SB": 1, "SC": 1,
        }

    def test_min_one_inflation_then_reduction(self):
        # head-heavy population with a long singleton tail, reduced to the
        # target by trimming the most frequent strata, never below one
        population = {"S1106": 900, "S1120": 600, "S1213": 280, "S115": 120, "S139": 60}
        population.update({f"S9{i:02d}": 1 for i in range(16)})  # 16 singleton rules
        total = sum(population.values())
        target = cochran_sample_size(total, 0.95, 0.05, 0.5)
        raw = {r: max(1, math.floor(target * n / total + 0.5)) for r, n in population.items()}
        assert sum(raw.values()) > target  # the min-one constraint overshoots
        alloc = allocate_proportional(population, target)
        assert sum(alloc.values()) == target
        assert all(1 <= alloc[r] <= population[r] for r in population)
        # reduction hit the most frequent rules, not the singletons
        assert all(alloc[f"S9{i:02d}"] == 1 for i in range(16))
        assert alloc["S1106"] < raw["S1106"]

    def test_ties_break_lexicographically(self):
        # both big strata have allocation 6; SA is decremented first
        alloc = allocate_proportional({"SB": 60, "SA": 60, "SC": 1}, 12)
        assert alloc == {"SA": 5, "SB": 6, "SC": 1}

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            allocate_proportional({"S1": 5, "S2": 5, "S3": 5}, 2)

    def test_target_exceeding_population(self):
        with pytest.raises(InvalidParameterError):
            allocate_proportional({"S1": 2, "S2": 2}, 10)

    @given(
        st.dictionaries(
            st.sampled_from([f"S{i}" for i in range(1, 30)]),
            st.integers(min_value=1, max_value=400),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=120)
    def test_feasibility_invariants(self, population, target):
        total = sum(population.values())
        k = len(population)
        if not k <= target <= total:
            return
        alloc = allocate_proportional(population, target)
        assert sum(alloc.values()) == target
        assert all(1 <= alloc[r] <= population[r] for r in population)


def _population(sizes):
    return {
        rule: [mkviol(f"{rule}_{i}.java", rule, i + 1) for i in range(n)]
        for rule, n in sizes.items()
    }


class TestStratifiedSample:
    def test_seed_determinism(self):
        population = _population({"S1106": 40, "S115": 7, "S2164": 1})
        a = stratified_sample(population, 12, seed=5)
        b = stratified_sample(population, 12, seed=5)
        assert a.strata == b.strata
        assert a.allocation == b.allocation

    def test_different_seed_changes_membership(self):
        population = _population({"S1106": 40, "S115": 7})
        a = stratified_sample(population, 10, seed=1)
        b = stratified_sample(population, 10, seed=2)
        assert a.allocation == b.allocation
        assert a.strata != b.strata

    def test_draw_without_replacement(self):
        population = _population({"S1106": 30})
        sample = stratified_sample(population, 20, seed=3)
        drawn = sample.strata["S1106"]
        assert len(set(drawn)) == len(drawn) == 20

    def test_membership_comes_from_right_stratum(self):
        population = _population({"S1106": 10, "S115": 10})
        sample = stratified_sample(population, 8, seed=9)
        for rule, items in sample.strata.items():
            assert all(v.rule == rule for v in items)


class TestLabelingSheet:
    def _sources(self, sample):
        sources = {}
        for items in sample.strata.values():
            for v in items:
                original = [f"orig {i};" for i in range(1, 12)]
                repaired = [f"line {i};" for i in range(1, 12)]
                sources[v.file_id] = SourcePair.from_texts(
                    v.file_id, "\n".join(original), "\n".join(repaired)
                )
        return sources

    def test_blank_verdicts_and_one_row_per_item(self):
        population = _population({"S1106": 5, "S115": 2})
        sample = stratified_sample(population, 3, seed=4)
        sheet = export_labeling_sheet(sample, self._sources(sample))
        lines = sheet.splitlines()
        assert lines[0] == ",".join(SHEET_HEADER)
        assert len(lines) == 1 + sample.size
        assert all(line.endswith(",,,") for line in lines[1:])

    def test_deleted_file_fragment_placeholder(self):
        population = _population({"S1106": 1})
        sample = stratified_sample(population, 1, seed=4)
        (v,) = sample.strata["S1106"]
        sources = {v.file_id: SourcePair.from_texts(v.file_id, "orig;", "")}
        sheet = export_labeling_sheet(sample, sources)
        assert "<file deleted>" in sheet

    def test_byte_identical_for_same_sample(self):
        population = _population({"S1106": 9, "S115": 3})
        sample = stratified_sample(population, 6, seed=21)
        sources = self._sources(sample)
        assert export_labeling_sheet(sample, sources) == export_labeling_sheet(sample, sources)


def _sheet(rows):
    lines = [",".join(SHEET_HEADER)]
    for i, (e1, e2, adj) in enumerate(rows):
        lines.append(f"item{i:04d},F{i}.java,S1106,1,1,frag,{e1},{e2},{adj}")
    return "\n".join(lines) + "\n"


class TestIngestLabels:
    def test_golden_sample_counts(self):
        rows = [("TP", "TP", "")] * 250 + [("FP", "FP", "")] * 76
        records = ingest_labels(_sheet(rows))
        assert label_counts(records) == (250, 76)

    def test_disagreement_without_adjudication(self):
        with pytest.raises(ConflictingVerdictsError):
            ingest_labels(_sheet([("TP", "FP", "")]))

    def test_disagreement_resolved_by_adjudicator(self):
        records = ingest_labels(_sheet([("TP", "FP", "FP")]))
        assert records[0].verdict is LabelVerdict.FP
        assert records[0].evaluator_id == "adjudicator"

    def test_unlabeled_row_rejected(self):
        with pytest.raises(UnlabeledRowError):
            ingest_labels(_sheet([("TP", "", "")]))

    def test_empty_sheet(self):
        assert ingest_labels(",".join(SHEET_HEADER) + "\n") == []


def binomial_tail_oracle(k, n, p_num, p_den):
    """Arbitrary-precision tail sum, independent of the log-space path."""
    p = Fraction(p_num, p_den)
    q = 1 - p
    return sum(math.comb(n, i) * p**i * q ** (n - i) for i in range(k, n + 1))


class TestExactBinomial:
    def test_golden_p_value(self):
        result = exact_binomial_test(250, 326, 0.70)
        assert abs(result.p_value - 0.0043) < 0.0005
        oracle = float(binomial_tail_oracle(250, 326, 7, 10))
        assert abs(result.p_value - oracle) < 1e-12

    def test_zero_successes(self):
        assert exact_binomial_test(0, 10, 0.5).p_value == 1.0

    def test_nine_of_ten(self):
        result = exact_binomial_test(9, 10, 0.5)
        assert abs(result.p_value - 11 / 1024) < 1e-15

    def test_exact_enumeration_agreement_small_n(self):
        for n in range(1, 21):
            for k in range(n + 1):
                for p_num, p_den in ((1, 2), (7, 10), (3, 10)):
                    mine = exact_binomial_test(k, n, p_num / p_den).p_value
                    oracle = float(binomial_tail_oracle(k, n, p_num, p_den))
                    assert abs(mine - oracle) < 1e-12, (k, n, p_num, p_den)

    def test_tail_monotone_in_k(self):
        previous = 1.0
        for k in range(0, 51):
            p = exact_binomial_test(k, 50, 0.7).p_value
            assert p <= previous + 1e-15
            previous = p

    def test_decision_at_alpha(self):
        assert exact_binomial_test(250, 326, 0.70).significant_at(0.05) is True
        assert exact_binomial_test(230, 326, 0.70).significant_at(0.05) is False

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            exact_binomial_test(5, 4, 0.5)
        with pytest.raises(InvalidParameterError):
            exact_binomial_test(1, 4, 0.0)
        with pytest.raises(InvalidParameterError):
            exact_binomial_test(1, 4, 0.5, alternative="less")
