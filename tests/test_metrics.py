import csv
import random

import pytest

from apreval import metrics as metrics_mod
from apreval.errors import MalformedInputError
from apreval.metrics import (
    METRIC_NAMES,
    ClassMetricsRow,
    FileMetrics,
    aggregate_file_metrics,
    metric_medians_csv,
    pair_pre_post,
    read_class_metrics_csv,
    score_metrics,
    signed_ranks_csv,
    structural_report,
    structural_stats_csv,
)
from apreval.stats import Direction


def row(file_id, class_name, **overrides):
    values = {m: 0 for m in METRIC_NAMES}
    values.update(overrides)
    return ClassMetricsRow(file_id=file_id, class_name=class_name, values=values)


def fm(file_id, **overrides):
    values = {m: 0 for m in METRIC_NAMES}
    values.update(overrides)
    return FileMetrics(file_id=file_id, values=values)


class TestRowModel:
    def test_missing_metric_rejected(self):
        with pytest.raises(ValueError):
            ClassMetricsRow(file_id="A.java", class_name="A", values={"loc": 3})

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError):
            row("A.java", "A", loc=-1)


class TestCsv:
    def test_round_trip(self):
        text = (
            "file,class,noc,npa,dit,lcom1,wmc,cbo,rfc,loc\n"
            "A.java,A,0,1,1,0,4,2,6,37\n"
            "A.java,Inner,0,0,2,1,2,0,2,12\n"
        )
        rows = read_class_metrics_csv(text)
        assert len(rows) == 2
        assert rows[0].values["loc"] == 37
        assert rows[1].values["dit"] == 2

    def test_bad_header(self):
        with pytest.raises(MalformedInputError):
            read_class_metrics_csv("file,klass,noc\nx,y,1\n")


    def test_exclusions_csv_quotes_a_comma_in_a_file_id(self, tmp_path, monkeypatch):
        exclusions = [("a,b.java", "PostAbsent"), ("C.java", "PreAbsent")]
        # the join is stubbed to give these exclusions as they are, so only the writer is tested
        monkeypatch.setattr(metrics_mod, "pair_pre_post", lambda pre, post: ([], exclusions))
        empty = tmp_path / "empty.csv"
        empty.write_text("file,class,noc,npa,dit,lcom1,wmc,cbo,rfc,loc\n", encoding="utf-8")
        score_metrics(empty, empty, tmp_path)
        text = (tmp_path / "exclusions.csv").read_text(encoding="utf-8")
        assert text == 'file,reason\n"a,b.java",PostAbsent\nC.java,PreAbsent\n'
        assert list(csv.reader(text.splitlines()))[1:] == [list(e) for e in exclusions]

    @pytest.mark.parametrize("side", ["pre", "post"])
    def test_malformed_file_is_named(self, tmp_path, side):
        # the pre-repair file may come from an earlier run, so say which file is bad
        good = "file,class,noc,npa,dit,lcom1,wmc,cbo,rfc,loc\nA.java,A,0,1,1,0,4,2,6,37\n"
        paths = {s: tmp_path / f"{s}.csv" for s in ("pre", "post")}
        for s, path in paths.items():
            path.write_text(good + ("B.java,B\n" if s == side else ""), encoding="utf-8")
        with pytest.raises(MalformedInputError) as err:
            score_metrics(paths["pre"], paths["post"], tmp_path / "out")
        assert (err.value.message, err.value.line) == (f"{paths[side]}: expected 10 fields, got 2", 3)
        assert str(err.value) == f"{paths[side]}: expected 10 fields, got 2 (line 3)"


class TestAggregate:
    def test_single_class_is_identity(self):
        rows = [row("A.java", "A", noc=1, npa=2, dit=3, lcom1=4, wmc=5, cbo=6, rfc=7, loc=8)]
        (result,) = aggregate_file_metrics(rows)
        assert result.values == rows[0].values

    def test_two_class_sum_and_max(self):
        rows = [
            row("A.java", "A", dit=1, wmc=4),
            row("A.java", "B", dit=3, wmc=6),
        ]
        (result,) = aggregate_file_metrics(rows)
        assert result.values["dit"] == 3  # maximum, not sum
        assert result.values["wmc"] == 10

    def test_five_file_spreadsheet_oracle(self, rng):
        # independent aggregation: plain dict arithmetic per column
        rows = []
        for f in range(5):
            for c in range(rng.randint(1, 4)):
                rows.append(
                    row(
                        f"F{f}.java",
                        f"C{f}_{c}",
                        **{m: rng.randint(0, 40) for m in METRIC_NAMES},
                    )
                )
        oracle: dict[str, dict[str, int]] = {}
        for r in rows:
            cell = oracle.setdefault(r.file_id, {m: 0 for m in METRIC_NAMES})
            for m in METRIC_NAMES:
                if m == "dit":
                    cell[m] = max(cell[m], r.values[m])
                else:
                    cell[m] += r.values[m]
        result = aggregate_file_metrics(rows)
        assert {r.file_id: dict(r.values) for r in result} == oracle

    def test_split_row_lineariy(self, rng):
        # splitting a class into two rows whose sums match leaves sums
        # unchanged; dit becomes the max of the parts
        whole = row("A.java", "A", noc=4, npa=6, dit=5, lcom1=10, wmc=8, cbo=2, rfc=12, loc=40)
        part_a = row("A.java", "A$1", noc=1, npa=2, dit=5, lcom1=3, wmc=5, cbo=1, rfc=7, loc=15)
        part_b = row("A.java", "A$2", noc=3, npa=4, dit=2, lcom1=7, wmc=3, cbo=1, rfc=5, loc=25)
        (from_whole,) = aggregate_file_metrics([whole])
        (from_parts,) = aggregate_file_metrics([part_a, part_b])
        assert from_whole.values == from_parts.values


class TestPairing:
    def test_identical_sets_pair_fully(self):
        pre = [fm("A.java", loc=10), fm("B.java", loc=20)]
        post = [fm("A.java", loc=12), fm("B.java", loc=20)]
        pairs, exclusions = pair_pre_post(pre, post)
        assert [p.file_id for p in pairs] == ["A.java", "B.java"]
        assert exclusions == []

    def test_post_missing_file_excluded_with_reason(self):
        pairs, exclusions = pair_pre_post([fm("A.java"), fm("B.java")], [fm("A.java")])
        assert [p.file_id for p in pairs] == ["A.java"]
        assert exclusions == [("B.java", "PostAbsent")]

    def test_ten_pre_eight_post(self):
        pre = [fm(f"F{i}.java") for i in range(10)]
        post = [fm(f"F{i}.java") for i in range(8)]
        pairs, exclusions = pair_pre_post(pre, post)
        assert len(pairs) == 8
        assert len(exclusions) == 2

    def test_join_symmetry(self, rng):
        pre = [fm(f"F{i}.java") for i in rng.sample(range(20), 12)]
        post = [fm(f"F{i}.java") for i in rng.sample(range(20), 9)]
        forward, _ = pair_pre_post(pre, post)
        backward, _ = pair_pre_post(post, pre)
        assert [p.file_id for p in forward] == [p.file_id for p in backward]


def make_pairs(rng, n, delta_fn):
    pairs = []
    for i in range(n):
        base = {m: rng.randint(5, 60) for m in METRIC_NAMES}
        post = {m: base[m] + delta_fn(m, rng) for m in METRIC_NAMES}
        post = {m: max(0, v) for m, v in post.items()}
        pre_m = fm(f"F{i:03d}.java", **base)
        post_m = fm(f"F{i:03d}.java", **post)
        pairs.append(pair_pre_post([pre_m], [post_m])[0][0])
    return pairs


class TestStructuralReport:
    def test_all_equal_metric_is_undefined(self, rng):
        pairs = make_pairs(rng, 30, lambda m, r: 0 if m == "noc" else r.choice([-2, -1, 1, 2]))
        report = structural_report(pairs)
        noc = next(s for s in report.per_metric if s.metric == "noc")
        assert noc.wilcoxon.statistic is None
        assert noc.wilcoxon.p_value is None
        assert noc.wilcoxon.direction is Direction.UNDEFINED

    def test_uniform_increase_is_significant(self, rng):
        pairs = make_pairs(rng, 40, lambda m, r: r.randint(1, 9) if m == "loc" else 0)
        report = structural_report(pairs)
        loc = next(s for s in report.per_metric if s.metric == "loc")
        assert loc.wilcoxon.p_value < 0.001
        assert loc.wilcoxon.direction is Direction.INCREASE
        assert "loc" in report.significant()

    def test_reference_significance_pattern(self):
        rng = random.Random(424)
        increase = {"lcom1", "wmc", "rfc", "loc"}

        def delta(metric, r):
            if metric in increase:
                return r.randint(0, 6) + (1 if r.random() < 0.8 else -1)
            if metric == "cbo":
                return -r.randint(1, 3) if r.random() < 0.8 else r.randint(0, 1)
            if metric == "noc":
                return 0
            # dit, npa: balanced noise, mostly zero
            return r.choice([0, 0, 0, 0, 1, -1])

        pairs = make_pairs(rng, 120, delta)
        report = structural_report(pairs)
        by_metric = {s.metric: s for s in report.per_metric}
        assert set(report.significant(0.05)) == {"lcom1", "wmc", "rfc", "loc", "cbo"}
        for m in increase:
            assert by_metric[m].wilcoxon.direction is Direction.INCREASE
            assert by_metric[m].wilcoxon.p_value < 0.001
        assert by_metric["cbo"].wilcoxon.direction is Direction.DECREASE
        assert by_metric["cbo"].wilcoxon.p_value < 0.001
        assert by_metric["noc"].wilcoxon.p_value is None

    def test_normality_assessed_on_pre_state(self, rng):
        pairs = make_pairs(rng, 50, lambda m, r: r.choice([-1, 1]))
        report = structural_report(pairs)
        for s in report.per_metric:
            assert s.normality is not None
            assert s.normality.n_effective == 50

    def test_normality_skipped_below_floor(self, rng):
        pairs = make_pairs(rng, 12, lambda m, r: r.choice([-1, 1]))
        report = structural_report(pairs)
        for s in report.per_metric:
            assert s.normality is None
            assert "12 pairs" in s.normality_note


class TestCsvRendering:
    def test_structural_stats_csv_na_and_determinism(self, rng):
        pairs = make_pairs(rng, 25, lambda m, r: 0 if m == "noc" else r.choice([-2, 1, 3]))
        report = structural_report(pairs)
        text = structural_stats_csv(report)
        assert text.splitlines()[0] == (
            "metric,n,test,statistic,p_value,median_delta,mean_signed_rank,direction"
        )
        noc_line = next(l for l in text.splitlines() if l.startswith("noc,"))
        assert ",NA,NA," in noc_line
        assert structural_stats_csv(report) == text
        assert metric_medians_csv(report) == metric_medians_csv(report)
        assert signed_ranks_csv(report) == signed_ranks_csv(report)
