"""Regression core: OLS with diagnostics, Newey-West standard errors, and
Fama-MacBeth aggregation of per-date cross-sectional fits.

Everything here is pure and deterministic. A stack of fits and the
per-date fits Fama-MacBeth aggregates are arrays with one row per slice
or date; means over dates use numpy's pairwise summation on those rows in
date order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EstimationError,
    RankDeficient,
    SeriesTooShort,
    TooFewDates,
    TooFewObservations,
)

DEFAULT_RANK_TOLERANCE = 1e-10

SIGNIFICANCE_Z = 1.96  # two-sided 5% critical value of the standard normal


@dataclass(frozen=True)
class OlsFit:
    """One least-squares fit.

    coefficients/residuals/stderr are plain float64 arrays; r2 is the
    unadjusted coefficient of determination (kept because nesting
    comparisons need it), adj_r2 the small-sample adjusted one.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    stderr: np.ndarray
    r2: float
    adj_r2: float
    n_obs: int
    n_params: int


@dataclass(frozen=True)
class StackFit:
    """The fits of a stack of B equal-shape designs, one row per slice.

    coefficients and stderr are (B, p), residuals (B, n), r2 and adj_r2
    (B,). deficient marks the rank-deficient slices, whose numbers mean
    nothing; null holds each slice's direction of smallest singular value,
    from which null_columns names the columns a deficient slice loads on.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    stderr: np.ndarray
    r2: np.ndarray
    adj_r2: np.ndarray
    deficient: np.ndarray
    null: np.ndarray

    def null_columns(self, b: int) -> tuple[int, ...]:
        """The columns whose weight on slice b's null direction is at least
        a tenth of the largest."""
        null = np.abs(self.null[b])
        return tuple(np.flatnonzero(null >= 0.1 * null.max()).tolist())


def ols(
    X: Sequence | np.ndarray,
    y: Sequence | np.ndarray,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> OlsFit:
    """Least squares of y on the columns of X via singular value decomposition.

    Raises TooFewObservations unless n > p, and RankDeficient (naming the
    columns loading on the null direction) when the smallest singular value
    falls below rank_tolerance times the largest. No normal-equation
    inversion is performed. This is the one-slice case of ols_stack.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    fit = ols_stack(X[None], y[None], rank_tolerance)
    if fit.deficient[0]:
        raise RankDeficient(fit.null_columns(0))
    return OlsFit(
        fit.coefficients[0], fit.residuals[0], fit.stderr[0],
        float(fit.r2[0]), float(fit.adj_r2[0]), *X.shape,
    )


def ols_stack(
    X: np.ndarray,
    y: np.ndarray,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> StackFit:
    """ols on each slice of a stack of equal-shape designs.

    X is (B, n, p) and y is (B, n). Row b of the StackFit is what ols gives
    for slice b, or, where deficient[b], the slice ols would reject with
    RankDeficient(null_columns(b)). The shape, TooFewObservations and
    finiteness checks cover the whole stack, and so does the
    EstimationError for a full-rank slice whose finite inputs overflow into
    coefficients, residuals, standard errors or R^2 that are not finite.
    The SVD and every product run slice by slice (`@` dispatches each to
    the same BLAS call as a lone 2-D operand would), and the means reduce
    contiguous rows, so each slice gets the bits a lone ols call gives.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    B, n, p = X.shape
    if y.shape != (B, n):
        raise ValueError(f"response length {y.shape[1:]} does not match {n} rows")
    if n <= p:
        raise TooFewObservations(n, p)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in regression inputs")

    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    deficient = (s[:, 0] <= 0.0) | (s[:, -1] <= rank_tolerance * s[:, 0])
    # a deficient slice divides by a vanishing singular value; its numbers
    # mean nothing, and every caller skips them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coef = (Vt.mT @ ((U.mT @ y[..., None]) / s[..., None]))[..., 0]
        residuals = y - (X @ coef[..., None])[..., 0]
        ssr = (residuals[:, None, :] @ residuals[..., None])[:, 0, 0]
        centered = y - y.mean(axis=-1, keepdims=True)
        sst = (centered[:, None, :] @ centered[..., None])[:, 0, 0]
        # constant response: define R^2 = 1 when fitted exactly, else 0
        r2 = np.where(sst > 0.0, 1.0 - ssr / sst, np.where(ssr <= 1e-24, 1.0, 0.0))
        adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
        sigma2 = ssr / (n - p)
        xtx_inv_diag = np.einsum("bki,bk->bi", Vt**2, s**-2.0)
        stderr = np.sqrt(sigma2[:, None] * xtx_inv_diag)

    finite = (
        np.isfinite(coef).all(axis=-1)
        & np.isfinite(residuals).all(axis=-1)
        & np.isfinite(stderr).all(axis=-1)
        & np.isfinite(r2)
        & np.isfinite(adj_r2)
    )
    if not (finite | deficient).all():
        raise EstimationError(
            "regression overflowed the float range: its coefficients, "
            "residuals, standard errors or R^2 are not finite"
        )
    return StackFit(coef, residuals, stderr, r2, adj_r2, deficient, Vt[:, -1].copy())


def newey_west_lag(n_dates: int) -> int:
    """Default truncation lag: floor(4 * (T/100)^(2/9))."""
    return int(math.floor(4.0 * (n_dates / 100.0) ** (2.0 / 9.0)))


def newey_west_se(series: Sequence | np.ndarray, lags: int | None = None) -> float:
    """HAC standard error of the series mean with Bartlett weights.

    Autocovariances are scaled by 1/(T-1) so that lags=0 reduces exactly to
    the plain Fama-MacBeth standard error sd/sqrt(T) with sample sd.
    """
    x = np.asarray(series, dtype=float)
    T = x.size
    if lags is None:
        lags = newey_west_lag(T)
    if lags < 0:
        raise ValueError("lags must be >= 0")
    if T < 2 or T <= lags:
        raise SeriesTooShort(T, lags)
    d = x - np.mean(x)
    denom = T - 1
    s = float(d @ d) / denom
    for k in range(1, lags + 1):
        w = 1.0 - k / (lags + 1.0)
        s += 2.0 * w * float(d[k:] @ d[:-k]) / denom
    # Bartlett weighting keeps this non-negative up to rounding
    s = max(s, 0.0)
    return math.sqrt(s / T)


@dataclass(frozen=True)
class CoefficientSummary:
    """Time-series aggregation of one cross-sectional coefficient."""

    name: str
    mean: float
    fm_se: float
    fm_t: float
    nw_se: float
    nw_t: float
    daily_significant_share: float
    degenerate: bool


@dataclass(frozen=True)
class FMSummary:
    coefficients: tuple[CoefficientSummary, ...]
    avg_adj_r2: float
    n_dates: int
    nw_lags: int

    def coefficient(self, name: str) -> CoefficientSummary:
        for c in self.coefficients:
            if c.name == name:
                return c
        raise KeyError(name)


def _t_ratio(mean: float, se: float) -> tuple[float, bool]:
    if se > 0.0:
        return mean / se, False
    if mean == 0.0:
        return math.nan, True
    return math.copysign(math.inf, mean), True


def fama_macbeth(
    coefficients: np.ndarray,
    stderr: np.ndarray,
    adj_r2: np.ndarray,
    coefficient_names: Sequence[str],
    nw_lags: int | None = None,
    significance_z: float = SIGNIFICANCE_Z,
) -> FMSummary:
    """Aggregate per-date cross-sectional fits into Fama-MacBeth summaries.

    coefficients and stderr are (dates x names) grids in date order, one
    row per date's fit, and adj_r2 holds each fit's adjusted R^2. For each
    coefficient: the arithmetic mean over dates, the plain FM standard
    error sd/sqrt(T), its t-ratio, the Newey-West t-ratio, and the share of
    dates whose own cross-sectional |t| exceeds significance_z.
    Zero-variance coefficient series get a non-finite t and a degenerate
    flag rather than being dropped.
    """
    T = len(coefficients)
    if T < 2:
        raise TooFewDates(f"{T} dates available, need at least 2")
    if coefficients.shape[1] != len(coefficient_names):
        raise ValueError(
            f"{coefficients.shape[1]} coefficients per date, "
            f"{len(coefficient_names)} names given"
        )
    lags = newey_west_lag(T) if nw_lags is None else nw_lags

    summaries = []
    for i, name in enumerate(coefficient_names):
        series = coefficients[:, i]
        mean = float(np.mean(series))
        fm_se = float(np.std(series, ddof=1)) / math.sqrt(T)
        fm_t, degenerate = _t_ratio(mean, fm_se)
        nw_se = newey_west_se(series, lags)
        nw_t, nw_degenerate = _t_ratio(mean, nw_se)
        # a zero stderr gives +-inf for a nonzero coefficient and NaN for
        # 0/0, which never counts as significant
        with np.errstate(divide="ignore", invalid="ignore"):
            daily_t = series / stderr[:, i]
        share = float(np.mean(np.abs(daily_t) > significance_z))
        summaries.append(
            CoefficientSummary(
                name=name,
                mean=mean,
                fm_se=fm_se,
                fm_t=fm_t,
                nw_se=nw_se,
                nw_t=nw_t,
                daily_significant_share=share,
                degenerate=degenerate or nw_degenerate,
            )
        )
    avg_adj_r2 = float(np.mean(adj_r2))
    return FMSummary(
        coefficients=tuple(summaries),
        avg_adj_r2=avg_adj_r2,
        n_dates=T,
        nw_lags=lags,
    )
