"""Nonparametric machinery for the structural-impact analysis.

Implements the D'Agostino-Pearson omnibus normality test (skewness and
kurtosis transforms combined into a chi-square(2) statistic), the Wilcoxon
signed-rank test on paired per-file deltas, and the direction-of-change
summary read from median and mean signed ranks.

Wilcoxon conventions: zero deltas are discarded, so a metric that never
changes yields an undefined result rather than p=1; midranks break ties;
the p-value is two-sided; the exact null distribution is used up to 25
nonzero deltas, with a tie-corrected, continuity-corrected normal
approximation beyond that.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import DegenerateSampleError, SampleTooSmallError

#: largest n for which the exact signed-rank null distribution is enumerated
EXACT_LIMIT = 25

#: validity floor for the chi-square(2) approximation of the omnibus test
NORMALITY_MIN_N = 20


class Direction(Enum):
    INCREASE = "increase"
    DECREASE = "decrease"
    NONE = "none"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class StatResult:
    """Outcome of one hypothesis test; undefined values are ``None``."""

    test_name: str
    statistic: float | None
    p_value: float | None
    n_effective: int
    direction: Direction = Direction.NONE

    def __post_init__(self) -> None:
        if (self.statistic is None) != (self.p_value is None):
            raise ValueError("statistic and p_value must be undefined together")
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")

    def significant_at(self, alpha: float = 0.05) -> bool | None:
        if self.p_value is None:
            return None
        return self.p_value < alpha


@dataclass(frozen=True)
class PairedSeries:
    """Per-file deltas (post minus pre) of one metric."""

    metric_name: str
    deltas: tuple[float, ...]


def midranks(values: list[float]) -> list[float]:
    """Ranks 1..n with ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def dagostino_pearson(sample: Iterable[float]) -> StatResult:
    """Omnibus normality test combining skewness and kurtosis z-scores.

    The statistic is K2 = Z1^2 + Z2^2 with Z1 from the D'Agostino skewness
    transform and Z2 from the Anscombe-Glynn kurtosis transform; the
    p-value comes from chi-square with 2 degrees of freedom, for which the
    survival function is exp(-K2/2).
    """
    x = [float(v) for v in sample]
    n = len(x)
    if n < NORMALITY_MIN_N:
        raise SampleTooSmallError(n, NORMALITY_MIN_N)
    mu = math.fsum(x) / n
    dev = [v - mu for v in x]
    m2 = math.fsum(d * d for d in dev) / n
    if m2 == 0.0:
        raise DegenerateSampleError(f"all {n} values equal {x[0]}")
    m3 = math.fsum(d**3 for d in dev) / n
    m4 = math.fsum(d**4 for d in dev) / n
    g1 = m3 / m2**1.5
    g2 = m4 / (m2 * m2)

    # skewness transform (D'Agostino 1970)
    y = g1 * math.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
    beta2 = 3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3) / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    z1 = delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))

    # kurtosis transform (Anscombe & Glynn 1983)
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
    p = math.exp(-k2 / 2.0)
    return StatResult(test_name="dagostino_pearson", statistic=k2, p_value=p, n_effective=n)


def _signed_midranks(deltas: tuple[float, ...]) -> tuple[list[float], list[float]]:
    """(absolute-value midranks, matching nonzero deltas); zeros discarded."""
    nonzero = [d for d in deltas if d != 0]
    ranks = midranks([abs(d) for d in nonzero])
    return ranks, nonzero


def _exact_two_sided_p(ranks: list[float], w_small: float) -> float:
    """Exact two-sided tail via the signed-rank null distribution.

    Midranks doubled are integers, so the distribution of the positive-rank
    sum is built by integer convolution; the two-sided p doubles the lower
    tail at min(W+, W-), capped at 1 (the distribution is symmetric).
    """
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    t2 = int(round(2 * w_small))
    lower = sum(counts[: t2 + 1])
    return min(1.0, 2.0 * lower / 2 ** len(ranks))


def _direction(mean_signed_rank: float) -> Direction:
    """The direction a mean signed rank implies: its sign, NONE at zero."""
    if mean_signed_rank > 0:
        return Direction.INCREASE
    if mean_signed_rank < 0:
        return Direction.DECREASE
    return Direction.NONE


def wilcoxon_signed_rank(series: PairedSeries) -> StatResult:
    """Two-sided Wilcoxon signed-rank test on one metric's paired deltas.

    The reported statistic is min(W+, W-). With no nonzero deltas both the
    statistic and the p-value are undefined. Direction is read from the
    mean signed rank, never from the p-value.
    """
    ranks, nonzero = _signed_midranks(series.deltas)
    n = len(nonzero)
    if n == 0:
        return StatResult(
            test_name="wilcoxon_signed_rank",
            statistic=None,
            p_value=None,
            n_effective=0,
            direction=Direction.UNDEFINED,
        )
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_minus = sum(ranks) - w_plus
    w_small = min(w_plus, w_minus)

    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w_small)
    else:
        mean_w = n * (n + 1) * 0.25
        var24 = n * (n + 1) * (2 * n + 1)
        ties = Counter(abs(d) for d in nonzero)
        var24 -= 0.5 * sum(t * (t * t - 1) for t in ties.values())
        se = math.sqrt(var24 / 24.0)
        correction = 0.5 * math.copysign(1.0, w_small - mean_w) if w_small != mean_w else 0.0
        z = (w_small - mean_w - correction) / se
        p = min(1.0, 2.0 * _normal_sf(abs(z)))

    return StatResult(
        test_name="wilcoxon_signed_rank",
        statistic=w_small,
        p_value=p,
        n_effective=n,
        direction=_direction((w_plus - w_minus) / n),
    )


@dataclass(frozen=True)
class DirectionSummary:
    median_delta: float
    mean_signed_rank: float | None
    direction: Direction


def signed_rank_direction(series: PairedSeries) -> DirectionSummary:
    """Median delta and mean signed midrank, with the implied direction.

    The mean signed rank averages sign(delta) * midrank(|delta|) over the
    nonzero deltas; positive means the metric increased after repair.
    """
    median = float(statistics.median(series.deltas)) if series.deltas else 0.0
    ranks, nonzero = _signed_midranks(series.deltas)
    if not nonzero:
        return DirectionSummary(median_delta=median, mean_signed_rank=None, direction=Direction.NONE)
    mean_signed = sum(math.copysign(r, d) for r, d in zip(ranks, nonzero)) / len(nonzero)
    return DirectionSummary(
        median_delta=median, mean_signed_rank=mean_signed, direction=_direction(mean_signed)
    )
