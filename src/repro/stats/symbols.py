"""Multi-bit symbol statistics.

The coherent-sampling TRNG natively produces *counter values*, not bits;
the multi-phase sampler can emit several comb-position bits per sample.
Assessing such sources one bit at a time wastes information, so this
module provides the symbol-level tools:

* :func:`symbolize_bits` / :func:`desymbolize` — (de)grouping bit
  streams into fixed-width symbols (MSB first, matching
  :mod:`repro.trng.bitio`);
* :func:`low_bits` — extract the k least-significant bits of counter
  values (the standard coherent-sampling extraction);
* :func:`symbol_entropy` — plug-in Shannon entropy with the
  Miller-Madow bias correction;
* :func:`chi_square_uniformity` — the classic goodness-of-fit verdict.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np


def symbolize_bits(bits: Sequence[int], width: int) -> np.ndarray:
    """Group a 0/1 stream into ``width``-bit symbols, MSB first.

    Trailing bits that do not fill a symbol are discarded.
    """
    if width < 1 or width > 24:
        raise ValueError(f"symbol width must be in [1, 24], got {width}")
    array = np.asarray(bits, dtype=int)
    if array.ndim != 1:
        raise ValueError("bit stream must be one-dimensional")
    if array.size and not np.all((array == 0) | (array == 1)):
        raise ValueError("bit stream must contain only 0s and 1s")
    usable = (array.size // width) * width
    if usable == 0:
        return np.empty(0, dtype=np.int64)
    groups = array[:usable].reshape(-1, width)
    weights = 1 << np.arange(width - 1, -1, -1)
    return (groups @ weights).astype(np.int64)


def desymbolize(symbols: Sequence[int], width: int) -> np.ndarray:
    """Inverse of :func:`symbolize_bits`."""
    if width < 1 or width > 24:
        raise ValueError(f"symbol width must be in [1, 24], got {width}")
    array = np.asarray(symbols, dtype=np.int64)
    if array.size and (array.min() < 0 or array.max() >= (1 << width)):
        raise ValueError(f"symbols outside [0, 2^{width})")
    if array.size == 0:
        return np.empty(0, dtype=int)
    shifts = np.arange(width - 1, -1, -1)
    return ((array[:, None] >> shifts) & 1).reshape(-1).astype(int)


def low_bits(values: Sequence[int], bit_width: int) -> np.ndarray:
    """The ``bit_width`` least-significant bits of each value, as symbols."""
    if bit_width < 1 or bit_width > 24:
        raise ValueError(f"bit width must be in [1, 24], got {bit_width}")
    array = np.asarray(values, dtype=np.int64)
    return (array & ((1 << bit_width) - 1)).astype(np.int64)


def symbol_entropy(symbols: Sequence[int], alphabet_size: int) -> float:
    """Miller-Madow corrected Shannon entropy, in bits per symbol."""
    array = np.asarray(symbols, dtype=np.int64)
    if array.size == 0:
        raise ValueError("symbol stream is empty")
    if alphabet_size < 2:
        raise ValueError(f"alphabet size must be at least 2, got {alphabet_size}")
    if array.min() < 0 or array.max() >= alphabet_size:
        raise ValueError("symbols outside the declared alphabet")
    counts = np.bincount(array, minlength=alphabet_size).astype(float)
    proportions = counts[counts > 0] / array.size
    plug_in = -float(np.sum(proportions * np.log2(proportions)))
    observed_support = int(np.count_nonzero(counts))
    correction = (observed_support - 1) / (2.0 * array.size * math.log(2.0))
    return min(plug_in + correction, math.log2(alphabet_size))


@dataclasses.dataclass(frozen=True)
class UniformityVerdict:
    """Chi-square goodness-of-fit against the uniform distribution."""

    chi_squared: float
    p_value: float
    alphabet_size: int
    sample_count: int
    alpha: float

    @property
    def is_uniform(self) -> bool:
        return self.p_value >= self.alpha


def chi_square_uniformity(
    symbols: Sequence[int], alphabet_size: int, alpha: float = 0.01
) -> UniformityVerdict:
    """Pearson chi-square test of symbol uniformity."""
    from scipy import stats as scipy_stats
    array = np.asarray(symbols, dtype=np.int64)
    if array.size < 5 * alphabet_size:
        raise ValueError(
            f"need at least {5 * alphabet_size} symbols for a "
            f"{alphabet_size}-letter alphabet, got {array.size}"
        )
    if array.min() < 0 or array.max() >= alphabet_size:
        raise ValueError("symbols outside the declared alphabet")
    counts = np.bincount(array, minlength=alphabet_size).astype(float)
    expected = array.size / alphabet_size
    chi_squared = float(np.sum((counts - expected) ** 2 / expected))
    p_value = float(scipy_stats.chi2.sf(chi_squared, alphabet_size - 1))
    return UniformityVerdict(
        chi_squared=chi_squared,
        p_value=p_value,
        alphabet_size=alphabet_size,
        sample_count=int(array.size),
        alpha=alpha,
    )
