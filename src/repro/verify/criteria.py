"""Equivalence criteria for the claims-as-code registry.

The old paper-claims tests asserted ``abs(x - y) < eps`` on a single
lucky seed.  This module replaces those point comparisons with explicit
statistical decisions, following the convention of Saarinen
(arXiv:2102.02196) and Lubicz & Skorski (arXiv:2410.08259) that
oscillator-jitter statistics carry confidence bounds:

* :func:`tost` — two one-sided t-tests: the sample mean is *equivalent*
  to the paper's value within a declared margin at level ``alpha``;
* :func:`ci_overlap` — the Student-t confidence interval of the sample
  mean intersects the paper's published interval;
* :func:`ci_upper_bound` / :func:`ci_lower_bound` — one-sided
  confidence limits for directional claims ("STR responds *less*");
* :func:`wilson_interval` — score interval on a pass *proportion*, used
  by the flakiness runner for per-claim pass rates and by proportion
  claims (e.g. the C1 locking fraction).

Everything returns a small frozen dataclass with a ``passed`` flag and
a human-readable ``describe()`` so claim outcomes explain themselves in
reports and replay bundles.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence, Tuple

import numpy as np


def _sample_stats(samples: Sequence[float]) -> Tuple[int, float, float]:
    """(n, mean, standard error of the mean) of a sample."""
    values = np.asarray(samples, dtype=float)
    if values.size < 1:
        raise ValueError("need at least one sample")
    n = int(values.size)
    mean = float(np.mean(values))
    if n == 1:
        return n, mean, 0.0
    return n, mean, float(np.std(values, ddof=1) / math.sqrt(n))


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """``(mean, low, high)`` Student-t confidence interval of the mean.

    A single sample (or zero sample variance) collapses the interval to
    the mean itself — the caller is then effectively doing a point
    comparison, which the criteria below still handle gracefully.
    """
    from scipy import stats as _scipy_stats
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n, mean, se = _sample_stats(samples)
    if n == 1 or se == 0.0:
        return mean, mean, mean
    half = float(_scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)) * se
    return mean, mean - half, mean + half


@dataclasses.dataclass(frozen=True)
class TostResult:
    """Outcome of a two-one-sided-tests equivalence decision."""

    passed: bool
    mean: float
    target: float
    margin: float
    p_lower: float
    p_upper: float
    n: int

    def describe(self) -> str:
        verdict = "equivalent" if self.passed else "NOT equivalent"
        return (
            f"TOST: mean {self.mean:.4g} vs target {self.target:.4g} "
            f"± {self.margin:.4g} -> {verdict} "
            f"(p_low={self.p_lower:.3g}, p_high={self.p_upper:.3g}, n={self.n})"
        )


def tost(
    samples: Sequence[float],
    target: float,
    margin: float,
    alpha: float = 0.05,
) -> TostResult:
    """Two one-sided t-tests for equivalence with ``target ± margin``.

    Rejecting both one-sided nulls (mean <= target - margin and
    mean >= target + margin) at level ``alpha`` demonstrates
    equivalence.  With a single sample or zero variance the decision
    degrades to ``|mean - target| < margin`` (reported with p-values of
    0/1 accordingly) so tiny quick-tier budgets still yield a verdict.
    """
    from scipy import stats as _scipy_stats
    if margin <= 0.0:
        raise ValueError(f"equivalence margin must be positive, got {margin}")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")
    n, mean, se = _sample_stats(samples)
    if se == 0.0:
        inside = abs(mean - target) < margin
        p = 0.0 if inside else 1.0
        return TostResult(inside, mean, target, margin, p, p, n)
    df = n - 1
    t_lower = (mean - (target - margin)) / se
    t_upper = (mean - (target + margin)) / se
    p_lower = float(_scipy_stats.t.sf(t_lower, df=df))  # H0: mean <= target - margin
    p_upper = float(_scipy_stats.t.cdf(t_upper, df=df))  # H0: mean >= target + margin
    passed = max(p_lower, p_upper) < alpha
    return TostResult(passed, mean, target, margin, p_lower, p_upper, n)


@dataclasses.dataclass(frozen=True)
class CiOverlapResult:
    """Outcome of a confidence-interval-overlap decision."""

    passed: bool
    mean: float
    ci_low: float
    ci_high: float
    band_low: float
    band_high: float
    n: int

    def describe(self) -> str:
        verdict = "overlaps" if self.passed else "does NOT overlap"
        return (
            f"CI [{self.ci_low:.4g}, {self.ci_high:.4g}] (mean {self.mean:.4g}, "
            f"n={self.n}) {verdict} paper band [{self.band_low:.4g}, {self.band_high:.4g}]"
        )


def ci_overlap(
    samples: Sequence[float],
    band_low: float,
    band_high: float,
    confidence: float = 0.95,
) -> CiOverlapResult:
    """Does the sample-mean confidence interval intersect the paper band?"""
    if band_high < band_low:
        raise ValueError(f"band must be ordered, got [{band_low}, {band_high}]")
    mean, low, high = mean_confidence_interval(samples, confidence)
    passed = high >= band_low and low <= band_high
    n = int(np.asarray(samples, dtype=float).size)
    return CiOverlapResult(passed, mean, low, high, band_low, band_high, n)


@dataclasses.dataclass(frozen=True)
class CiBoundResult:
    """Outcome of a one-sided confidence-bound decision."""

    passed: bool
    mean: float
    confidence_limit: float
    bound: float
    side: str
    n: int

    def describe(self) -> str:
        relation = "<" if self.side == "upper" else ">"
        verdict = "holds" if self.passed else "FAILS"
        return (
            f"one-sided bound: {self.side} conf limit {self.confidence_limit:.4g} "
            f"{relation} {self.bound:.4g} {verdict} (mean {self.mean:.4g}, n={self.n})"
        )


def _one_sided_limit(
    samples: Sequence[float], confidence: float, side: str
) -> Tuple[int, float, float]:
    from scipy import stats as _scipy_stats
    n, mean, se = _sample_stats(samples)
    if n == 1 or se == 0.0:
        return n, mean, mean
    half = float(_scipy_stats.t.ppf(confidence, df=n - 1)) * se
    return n, mean, mean + half if side == "upper" else mean - half


def ci_upper_bound(
    samples: Sequence[float], bound: float, confidence: float = 0.95
) -> CiBoundResult:
    """Pass when the upper one-sided confidence limit stays below ``bound``."""
    n, mean, limit = _one_sided_limit(samples, confidence, "upper")
    return CiBoundResult(limit < bound, mean, limit, bound, "upper", n)


def ci_lower_bound(
    samples: Sequence[float], bound: float, confidence: float = 0.95
) -> CiBoundResult:
    """Pass when the lower one-sided confidence limit stays above ``bound``."""
    n, mean, limit = _one_sided_limit(samples, confidence, "lower")
    return CiBoundResult(limit > bound, mean, limit, bound, "lower", n)


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at the extremes (0/n and n/n) where the normal
    approximation degenerates — exactly the regime a flakiness sweep
    lives in (most claims pass every seed).
    """
    from scipy import stats as _scipy_stats
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    z = float(_scipy_stats.norm.ppf(0.5 + confidence / 2.0))
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, centre - half), min(1.0, centre + half)
