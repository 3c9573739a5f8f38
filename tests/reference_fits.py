"""The per-slice fit objects that coinfactors.econometrics and
coinfactors.pipeline replaced with arrays, kept verbatim as exact oracles:
ols_stack returning one OlsFit or RankDeficient per slice, fama_macbeth
taking a {date: OlsFit} mapping, and the per-date CrossSectionFit and the
SecondPassResult that held them. newey_west_se, the summary types and
OlsFit are unchanged and come from the package.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from coinfactors.econometrics import (
    DEFAULT_RANK_TOLERANCE,
    SIGNIFICANCE_Z,
    CoefficientSummary,
    FMSummary,
    OlsFit,
    newey_west_lag,
    newey_west_se,
)
from coinfactors.errors import (
    EstimationError,
    RankDeficient,
    TooFewDates,
    TooFewObservations,
)


def ols_stack(
    X: np.ndarray,
    y: np.ndarray,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> list[OlsFit | RankDeficient]:
    """ols on each slice of a stack of equal-shape designs.

    X is (B, n, p) and y is (B, n). Returns one entry per slice, in order:
    its OlsFit, or the RankDeficient that ols would raise for it. The
    shape, TooFewObservations and finiteness checks cover the whole stack,
    and so does the EstimationError for a full-rank slice whose finite
    inputs overflow into coefficients, residuals, standard errors or R^2
    that are not finite.
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
    # are discarded below
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

    overflowed = ~(
        np.isfinite(coef).all(axis=-1)
        & np.isfinite(residuals).all(axis=-1)
        & np.isfinite(stderr).all(axis=-1)
        & np.isfinite(r2)
        & np.isfinite(adj_r2)
    )
    fits: list[OlsFit | RankDeficient] = []
    for b in range(B):
        if deficient[b]:
            null = Vt[b, -1]
            cols = np.flatnonzero(np.abs(null) >= 0.1 * np.abs(null).max())
            fits.append(RankDeficient([int(c) for c in cols]))
            continue
        if overflowed[b]:
            raise EstimationError(
                "regression overflowed the float range: its coefficients, "
                "residuals, standard errors or R^2 are not finite"
            )
        fits.append(
            OlsFit(
                coefficients=coef[b],
                residuals=residuals[b],
                stderr=stderr[b],
                r2=float(r2[b]),
                adj_r2=float(adj_r2[b]),
                n_obs=n,
                n_params=p,
            )
        )
    return fits


def _t_ratio(mean: float, se: float) -> tuple[float, bool]:
    if se > 0.0:
        return mean / se, False
    if mean == 0.0:
        return math.nan, True
    return math.copysign(math.inf, mean), True


def fama_macbeth(
    daily_fits: Mapping[dt.date, OlsFit],
    coefficient_names: Sequence[str],
    nw_lags: int | None = None,
    significance_z: float = SIGNIFICANCE_Z,
) -> FMSummary:
    """Aggregate per-date cross-sectional fits into Fama-MacBeth summaries.

    For each coefficient: the arithmetic mean over dates, the plain FM
    standard error sd/sqrt(T), its t-ratio, the Newey-West t-ratio, and the
    share of dates whose own cross-sectional |t| exceeds significance_z.
    Zero-variance coefficient series get a non-finite t and a degenerate
    flag rather than being dropped.
    """
    items = sorted(daily_fits.items())
    T = len(items)
    if T < 2:
        raise TooFewDates(f"{T} dates available, need at least 2")
    coefs = np.array([fit.coefficients for _, fit in items], dtype=float)
    ses = np.array([fit.stderr for _, fit in items], dtype=float)
    if coefs.shape[1] != len(coefficient_names):
        raise ValueError(
            f"{coefs.shape[1]} coefficients per date, "
            f"{len(coefficient_names)} names given"
        )
    lags = newey_west_lag(T) if nw_lags is None else nw_lags

    summaries = []
    for i, name in enumerate(coefficient_names):
        series = coefs[:, i]
        mean = float(np.mean(series))
        fm_se = float(np.std(series, ddof=1)) / math.sqrt(T)
        fm_t, degenerate = _t_ratio(mean, fm_se)
        nw_se = newey_west_se(series, lags)
        nw_t, nw_degenerate = _t_ratio(mean, nw_se)
        # a zero stderr gives +-inf for a nonzero coefficient and NaN for
        # 0/0, which never counts as significant
        with np.errstate(divide="ignore", invalid="ignore"):
            daily_t = series / ses[:, i]
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
    avg_adj_r2 = float(np.mean([fit.adj_r2 for _, fit in items]))
    return FMSummary(
        coefficients=tuple(summaries),
        avg_adj_r2=avg_adj_r2,
        n_dates=T,
        nw_lags=lags,
    )


@dataclass(frozen=True)
class CrossSectionFit:
    """One date's regression of risk-adjusted returns on [1 | Z]."""

    date: dt.date
    fit: OlsFit
    n_coins: int

    @property
    def c0(self) -> float:
        return float(self.fit.coefficients[0])

    @property
    def c(self) -> np.ndarray:
        return self.fit.coefficients[1:]

    @property
    def adj_r2(self) -> float:
        return self.fit.adj_r2


@dataclass(frozen=True)
class SecondPassResult:
    fits: tuple[CrossSectionFit, ...]
    fm: FMSummary
    skipped: tuple[tuple[dt.date, str], ...]


def fitted_rows(fits) -> list[tuple]:
    """(date, coefficient bytes, adj_r2 repr) per fitted date, in date
    order, of either this module's tuple of CrossSectionFit or a
    coinfactors.pipeline.CrossSections record, so the two compare."""
    if isinstance(fits, tuple):
        return [(f.date, f.fit.coefficients.tobytes(), repr(f.adj_r2)) for f in fits]
    return [
        (date, row.tobytes(), repr(adj_r2))
        for date, row, adj_r2 in zip(fits.dates, fits.coefficients, fits.adj_r2.tolist())
    ]
