"""Error metrics shared by all experiments: medians and percentiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ErrorSummary:
    """Summary statistics of a set of absolute errors.

    Attributes
    ----------
    count:
        Number of valid (finite) samples.
    median / p95 / mean / std:
        The usual statistics over the absolute errors (metres unless
        noted by the caller).
    failure_rate:
        Fraction of samples that were NaN (detection failures).
    """

    count: int
    median: float
    p95: float
    mean: float
    std: float
    failure_rate: float

    def __str__(self) -> str:
        return (
            f"n={self.count} median={self.median:.2f} p95={self.p95:.2f} "
            f"mean={self.mean:.2f}±{self.std:.2f} fail={self.failure_rate:.1%}"
        )


def summarize_errors(errors) -> ErrorSummary:
    """Summarise signed or absolute errors (NaNs counted as failures)."""
    arr = np.asarray(list(errors), dtype=float)
    finite = arr[np.isfinite(arr)]
    abs_err = np.abs(finite)
    if abs_err.size == 0:
        return ErrorSummary(0, float("nan"), float("nan"), float("nan"), float("nan"), 1.0)
    return ErrorSummary(
        count=int(abs_err.size),
        median=float(np.median(abs_err)),
        p95=float(np.percentile(abs_err, 95)),
        mean=float(np.mean(abs_err)),
        std=float(np.std(abs_err)),
        failure_rate=float(1.0 - abs_err.size / max(arr.size, 1)),
    )


def percentile_band(errors, low: float, high: float) -> np.ndarray:
    """The absolute errors between the ``low``th and ``high``th
    percentile (e.g. the 90-100th band of the paper's Fig. 19a)."""
    arr = np.abs(np.asarray(list(errors), dtype=float))
    arr = arr[np.isfinite(arr)]
    lo = np.percentile(arr, low)
    return np.sort(arr[arr >= lo])
