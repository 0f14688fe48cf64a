import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from apreval.errors import DegenerateSampleError, SampleTooSmallError
from apreval.stats import (
    Direction,
    PairedSeries,
    StatResult,
    dagostino_pearson,
    midranks,
    signed_rank_direction,
    wilcoxon_signed_rank,
)


def series(deltas, name="loc"):
    return PairedSeries(metric_name=name, deltas=tuple(float(d) for d in deltas))


class TestMidranks:
    def test_no_ties(self):
        assert midranks([10.0, 30.0, 20.0]) == [1.0, 3.0, 2.0]

    def test_ties_share_average(self):
        assert midranks([1.0, 1.0, 2.0]) == [1.5, 1.5, 3.0]

    def test_matches_scipy_rankdata(self, rng):
        for _ in range(50):
            values = [float(rng.randint(0, 8)) for _ in range(rng.randint(1, 20))]
            assert midranks(values) == list(scipy_stats.rankdata(values))


class TestStatResult:
    def test_undefined_must_pair(self):
        with pytest.raises(ValueError):
            StatResult(test_name="t", statistic=None, p_value=0.5, n_effective=3)
        with pytest.raises(ValueError):
            StatResult(test_name="t", statistic=1.0, p_value=None, n_effective=3)

    def test_p_range_checked(self):
        with pytest.raises(ValueError):
            StatResult(test_name="t", statistic=1.0, p_value=1.5, n_effective=3)


class TestDagostinoPearson:
    def test_matches_reference_on_normal_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sample = rng.normal(size=200)
            mine = dagostino_pearson(sample)
            ref_stat, ref_p = scipy_stats.normaltest(sample)
            assert abs(mine.statistic - ref_stat) < 1e-6
            assert abs(mine.p_value - ref_p) < 1e-6

    def test_constant_sample_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            dagostino_pearson([5.0] * 30)

    def test_small_sample_rejected(self):
        with pytest.raises(SampleTooSmallError):
            dagostino_pearson(list(range(19)))

    def test_skewed_sample_rejects_normality(self):
        # LOC-like distribution: exponentiated normals, heavily right-skewed
        rng = np.random.default_rng(11)
        sample = np.exp(rng.normal(size=500))
        result = dagostino_pearson(sample)
        assert result.p_value < 0.05
        ref_stat, ref_p = scipy_stats.normaltest(sample)
        assert abs(result.p_value - ref_p) < 1e-6

    def test_statistic_nonnegative_p_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sample = rng.uniform(size=60)
            result = dagostino_pearson(sample)
            assert result.statistic >= 0.0
            assert 0.0 <= result.p_value <= 1.0


def numpy_dagostino_reference(sample):
    """(K2, p) as dagostino_pearson computed them with numpy moments.

    Frozen copy of the earlier implementation: mean and central moments
    via numpy, then the same skewness and kurtosis transforms.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    mu = x.mean()
    m2 = float(((x - mu) ** 2).mean())
    m3 = float(((x - mu) ** 3).mean())
    m4 = float(((x - mu) ** 4).mean())
    g1 = m3 / m2**1.5
    g2 = m4 / (m2 * m2)
    y = g1 * math.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
    beta2 = 3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3) / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    z1 = delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))
    e_b2 = 3.0 * (n - 1) / (n + 1)
    var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    xs = (g2 - e_b2) / math.sqrt(var_b2)
    sqrt_beta1 = (
        6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
        * math.sqrt((6.0 * (n + 3) * (n + 5)) / (n * (n - 2) * (n - 3)))
    )
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + math.sqrt(1.0 + 4.0 / sqrt_beta1**2))
    denom = 1.0 + xs * math.sqrt(2.0 / (a - 4.0))
    term = math.copysign(abs((1.0 - 2.0 / a) / denom) ** (1.0 / 3.0), denom)
    z2 = ((1.0 - 2.0 / (9.0 * a)) - term) / math.sqrt(2.0 / (9.0 * a))
    k2 = z1 * z1 + z2 * z2
    return k2, math.exp(-k2 / 2.0)


class TestMomentsReference:
    """The stdlib moments print the same digits the numpy ones did.

    ``normality.csv`` renders K2 and p at ``{:.10g}``; samples span the
    shapes the harness sees: normal, log-normal (LOC-like), heavy-tailed,
    and small integer deltas with many ties.
    """

    def test_matches_numpy_moments_at_csv_precision(self):
        nprng = np.random.default_rng(20241017)
        draws = (
            lambda n: nprng.normal(size=n),
            lambda n: np.exp(nprng.normal(size=n)),
            lambda n: nprng.standard_t(3, size=n),
            lambda n: nprng.integers(-30, 31, size=n).astype(float),
        )
        for i in range(200):
            n = int(nprng.integers(20, 2001))
            sample = draws[i % len(draws)](n)
            mine = dagostino_pearson(sample)
            ref_k2, ref_p = numpy_dagostino_reference(sample)
            assert f"{mine.statistic:.10g}" == f"{ref_k2:.10g}", (i, n)
            assert f"{mine.p_value:.10g}" == f"{ref_p:.10g}", (i, n)

    def test_accepts_lists_tuples_and_arrays(self):
        values = [float(v % 7) * (1 + v % 3) for v in range(40)]
        results = {dagostino_pearson(c) for c in (values, tuple(values), np.array(values))}
        assert len(results) == 1

    def test_median_matches_numpy(self):
        nprng = np.random.default_rng(5)
        for n in range(1, 40):
            deltas = nprng.integers(-5, 6, size=n).tolist()
            summary = signed_rank_direction(series(deltas))
            assert summary.median_delta == float(np.median(deltas))


def exact_p_by_enumeration(deltas):
    """Full 2^n sign enumeration over midranks; two-sided tail."""
    nonzero = [d for d in deltas if d != 0]
    n = len(nonzero)
    ranks = midranks([abs(d) for d in nonzero])
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_small = min(w_plus, sum(ranks) - w_plus)
    at_most = 0
    for signs in itertools.product((0, 1), repeat=n):
        t = sum(r for r, s in zip(ranks, signs) if s)
        if t <= w_small + 1e-12:
            at_most += 1
    return min(1.0, 2.0 * at_most / 2**n)


class TestWilcoxon:
    def test_all_positive_five(self):
        result = wilcoxon_signed_rank(series([1, 2, 3, 4, 5]))
        assert result.statistic == 0.0  # W- side
        assert abs(result.p_value - 0.0625) < 1e-12
        assert result.direction is Direction.INCREASE

    def test_all_zero_is_undefined(self):
        result = wilcoxon_signed_rank(series([0, 0, 0]))
        assert result.statistic is None
        assert result.p_value is None
        assert result.n_effective == 0
        assert result.direction is Direction.UNDEFINED

    def test_exact_matches_enumeration(self, rng):
        for _ in range(40):
            n = rng.randint(1, 12)
            deltas = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
            mine = wilcoxon_signed_rank(series(deltas))
            assert abs(mine.p_value - exact_p_by_enumeration(deltas)) < 1e-12

    def test_exact_matches_scipy_without_ties(self, rng):
        for _ in range(30):
            n = rng.randint(6, 20)
            # distinct magnitudes so scipy's exact mode applies
            magnitudes = rng.sample(range(1, 100), n)
            deltas = [m * rng.choice([-1, 1]) for m in magnitudes]
            mine = wilcoxon_signed_rank(series(deltas))
            ref = scipy_stats.wilcoxon(deltas, mode="exact")
            assert abs(mine.p_value - ref.pvalue) < 1e-12
            assert mine.statistic == ref.statistic

    def test_approximation_matches_reference_n50(self):
        nprng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            deltas = nprng.integers(-30, 31, size=50)
            deltas = deltas[deltas != 0]
            if len(deltas) <= 25:
                continue
            mine = wilcoxon_signed_rank(series(deltas.tolist()))
            ref = scipy_stats.wilcoxon(
                deltas, zero_method="wilcox", correction=True, mode="approx"
            )
            assert abs(mine.p_value - ref.pvalue) < 1e-3
            checked += 1

    def test_exact_and_approx_agree_near_threshold(self, rng):
        # tie-free inputs pushed through both regimes differ by < 0.01
        from apreval import stats as stats_mod

        for _ in range(25):
            n = rng.randint(20, 25)
            deltas = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            exact = wilcoxon_signed_rank(series(deltas)).p_value
            original_limit = stats_mod.EXACT_LIMIT
            stats_mod.EXACT_LIMIT = 0
            try:
                approx = wilcoxon_signed_rank(series(deltas)).p_value
            finally:
                stats_mod.EXACT_LIMIT = original_limit
            assert abs(exact - approx) < 0.01

    def test_zero_deltas_do_not_change_result(self):
        base = wilcoxon_signed_rank(series([3, -1, 2, 5]))
        padded = wilcoxon_signed_rank(series([0, 3, -1, 0, 2, 5, 0]))
        assert padded.statistic == base.statistic
        assert padded.p_value == base.p_value
        assert padded.n_effective == base.n_effective


@st.composite
def delta_lists(draw):
    return draw(
        st.lists(
            st.integers(min_value=-50, max_value=50).map(float),
            min_size=1,
            max_size=40,
        )
    )


class TestWilcoxonProperties:
    @given(delta_lists())
    @settings(max_examples=80)
    def test_sign_antisymmetry(self, deltas):
        forward = wilcoxon_signed_rank(series(deltas))
        flipped = wilcoxon_signed_rank(series([-d for d in deltas]))
        assert forward.p_value == flipped.p_value
        directions = {Direction.INCREASE: Direction.DECREASE,
                      Direction.DECREASE: Direction.INCREASE,
                      Direction.NONE: Direction.NONE,
                      Direction.UNDEFINED: Direction.UNDEFINED}
        assert flipped.direction is directions[forward.direction]

    @given(delta_lists(), st.sampled_from([0.5, 2.0, 7.0, 100.0]))
    @settings(max_examples=80)
    def test_scale_invariance(self, deltas, scale):
        base = wilcoxon_signed_rank(series(deltas))
        scaled = wilcoxon_signed_rank(series([d * scale for d in deltas]))
        assert scaled.statistic == base.statistic
        assert scaled.p_value == base.p_value
        assert scaled.direction is base.direction

    @given(delta_lists(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_appending_zeros_changes_nothing(self, deltas, k):
        base = wilcoxon_signed_rank(series(deltas))
        padded = wilcoxon_signed_rank(series(deltas + [0.0] * k))
        assert padded.statistic == base.statistic
        assert padded.p_value == base.p_value
        assert padded.direction is base.direction


class TestDirection:
    def test_all_zero(self):
        summary = signed_rank_direction(series([0, 0, 0]))
        assert summary.median_delta == 0.0
        assert summary.mean_signed_rank is None
        assert summary.direction is Direction.NONE

    def test_hand_computed_example(self):
        # |deltas| = 1,2,3,1 -> midranks 1.5,3,4,1.5; signed mean = +1.75
        summary = signed_rank_direction(series([1, 2, 3, -1]))
        assert summary.median_delta == 1.5
        assert abs(summary.mean_signed_rank - 1.75) < 1e-12
        assert summary.direction is Direction.INCREASE

    def test_balanced_signs_give_none(self):
        summary = signed_rank_direction(series([2, -2]))
        assert summary.mean_signed_rank == 0.0
        assert summary.direction is Direction.NONE

    def test_decrease(self):
        summary = signed_rank_direction(series([-4, -2, 1]))
        assert summary.direction is Direction.DECREASE
