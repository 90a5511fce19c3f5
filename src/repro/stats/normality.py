"""Gaussianity checks for jitter populations.

Two uses in the reproduction:

* Fig. 9 — the paper's qualitative claim that both the IRO and (newly)
  the STR exhibit *Gaussian* period jitter;
* the divider method's hypothesis — the cycle-to-cycle histogram of the
  divided signal must look normal before Eq. 6 may be applied
  (Section V-D2).

We combine a Shapiro-Wilk test (or D'Agostino for large samples, where
Shapiro-Wilk loses calibration) with moment diagnostics, because a single
p-value on simulation-sized samples is too blunt an instrument on its own.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class NormalityReport:
    """Verdict and evidence of a Gaussianity check."""

    sample_count: int
    p_value: float
    skewness: float
    excess_kurtosis: float
    test_name: str
    alpha: float

    @property
    def is_normal(self) -> bool:
        """True when the test does not reject normality at ``alpha``."""
        return self.p_value >= self.alpha

    @property
    def moments_look_gaussian(self) -> bool:
        """Loose sanity bound on the shape moments."""
        return abs(self.skewness) < 0.5 and abs(self.excess_kurtosis) < 1.0


def check_normality(samples: np.ndarray, alpha: float = 0.01) -> NormalityReport:
    """Test a sample population for normality.

    Shapiro-Wilk below 5000 samples, D'Agostino K^2 above (Shapiro-Wilk
    p-values are unreliable for very large n).
    """
    from scipy import stats as scipy_stats
    array = np.asarray(samples, dtype=float)
    if array.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if array.size < 8:
        raise ValueError(f"need at least 8 samples, got {array.size}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if np.std(array) == 0.0:
        # A degenerate (constant) population: trivially non-Gaussian but
        # also jitter-free; report p = 0 so callers treat it as a red flag.
        return NormalityReport(
            sample_count=int(array.size),
            p_value=0.0,
            skewness=0.0,
            excess_kurtosis=0.0,
            test_name="degenerate",
            alpha=alpha,
        )
    if array.size <= 5000:
        _statistic, p_value = scipy_stats.shapiro(array)
        test_name = "shapiro-wilk"
    else:
        _statistic, p_value = scipy_stats.normaltest(array)
        test_name = "dagostino-k2"
    return NormalityReport(
        sample_count=int(array.size),
        p_value=float(p_value),
        skewness=float(scipy_stats.skew(array)),
        excess_kurtosis=float(scipy_stats.kurtosis(array)),
        test_name=test_name,
        alpha=alpha,
    )
