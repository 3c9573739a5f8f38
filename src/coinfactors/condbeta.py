"""Conditional-beta first pass: expand each factor into interaction
regressors with the lagged uncertainty level, lagged Bitcoin return, and
lagged coin characteristics, fit the per-coin time-series regression, and
produce risk-adjusted returns (intercept plus residual).

The design expansion lives in exactly one function, build_design_matrix,
which both the estimator and the synthetic generator call. A recovery
failure therefore indicts the estimator, never a formula transcription
mismatch between the two.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .econometrics import DEFAULT_RANK_TOLERANCE, ols
from .errors import (
    InsufficientObservations,
    InvalidConfig,
    RankDeficient,
)
from .factors import FactorSet
from .panel import Panel, characteristic_index, csv_lead

MIN_OBS_MARGIN = 30


@dataclass(frozen=True)
class BetaSpec:
    """How factor loadings are parameterized.

    unconditional: one constant loading per factor. conditional: the loading
    moves with the lagged uncertainty level u, a lagged return r, and each
    listed characteristic (size plays the same structural role as the rest).
    lagged_return picks what r is: the Bitcoin return ("btc", the default)
    or the coin's own previous-day return ("own", a sensitivity variant).
    """

    mode: str
    characteristics: tuple[str, ...] = ("size", "momentum", "liquidity")
    lagged_return: str = "btc"

    def __post_init__(self):
        if self.mode not in ("unconditional", "conditional"):
            raise InvalidConfig(f"unknown beta mode {self.mode!r}")
        if self.lagged_return not in ("btc", "own"):
            raise InvalidConfig(f"unknown lagged_return {self.lagged_return!r}")
        if self.mode == "conditional" and not self.characteristics:
            raise InvalidConfig("conditional mode needs at least one characteristic")
        object.__setattr__(self, "characteristics", tuple(self.characteristics))


def param_names(factor_names: Sequence[str], spec: BetaSpec) -> tuple[str, ...]:
    """Coefficient labels in design-column order, intercept first."""
    names = ["alpha"]
    for f in factor_names:
        if spec.mode == "unconditional":
            names.append(f"{f}.base")
            continue
        names.extend([f"{f}.base", f"{f}.u", f"{f}.r"])
        for c in spec.characteristics:
            names.extend([f"{f}.{c}.base", f"{f}.{c}.u", f"{f}.{c}.r"])
    return tuple(names)


def build_design_matrix(
    factors: np.ndarray,
    u: np.ndarray,
    r: np.ndarray,
    chars: np.ndarray,
    spec: BetaSpec,
) -> np.ndarray:
    """Expand T factor rows into the interaction design, without intercept.

    factors is T x K, u and r are length T, chars is T x M in spec order.
    Per factor value f the conditional row block is
    f * [1, u, r, (c, u*c, r*c) for each characteristic c], giving
    3*(1+M) columns per factor; unconditional mode emits f alone.
    """
    F = np.asarray(factors, dtype=float)
    if F.ndim == 1:
        F = F.reshape(-1, 1)
    if spec.mode == "unconditional":
        return F.copy()
    T, K = F.shape
    u = np.asarray(u, dtype=float).reshape(T)
    r = np.asarray(r, dtype=float).reshape(T)
    C = np.asarray(chars, dtype=float).reshape(T, len(spec.characteristics))
    base_cols = [np.ones(T), u, r]
    for m in range(C.shape[1]):
        c = C[:, m]
        base_cols.extend([c, u * c, r * c])
    base = np.column_stack(base_cols)
    blocks = [F[:, [k]] * base for k in range(K)]
    return np.hstack(blocks)


@dataclass(frozen=True)
class FirstPassFit:
    """Per-coin time-series fit and its risk-adjusted return series.

    coefficients, param_names and stderr align index for index in design
    column order, alpha first. risk_adjusted is the coin's read-only row on
    the panel's date axis: alpha plus the residual on every fitted date,
    NaN on the others.
    """

    coin_id: str
    param_names: tuple[str, ...]
    coefficients: np.ndarray
    stderr: np.ndarray
    r2: float
    adj_r2: float
    n_obs: int
    n_params: int
    risk_adjusted: np.ndarray


def first_pass(
    panel: Panel,
    coin_id: str,
    factor_set: FactorSet,
    spec: BetaSpec,
    min_obs_margin: int = MIN_OBS_MARGIN,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> FirstPassFit:
    """Time-series regression of one coin's excess returns on the expanded
    factor design, over the dates present in both the coin and the factor
    set. With lagged_return "own", a date also needs the coin's return on
    the previous calendar day. Requires n >= n_params + min_obs_margin
    observations, and a factor set on the panel's dates (InvalidConfig
    otherwise).
    """
    factor_set.require_dates(panel.dates)
    row = panel.coin_index.get(coin_id)
    present = np.zeros_like(factor_set.mask) if row is None else panel.mask[row]
    keep = present & factor_set.mask
    if spec.lagged_return == "own":
        days = np.array([d.toordinal() for d in panel.dates])
        keep[1:] &= present[:-1] & (np.diff(days) == 1)
        keep[0] = False
    cols = np.flatnonzero(keep)
    names = param_names(factor_set.names, spec)
    p = len(names)
    n = cols.size
    if row is None or n < p + min_obs_margin:
        raise InsufficientObservations(coin_id, p + min_obs_margin, n)
    chars = np.array(
        [characteristic_index(c) for c in spec.characteristics], dtype=np.intp
    )

    F = factor_set.values[cols]
    u = panel.u[row, cols]
    if spec.lagged_return == "own":
        r = panel.ret[row, cols - 1]
    else:
        r = panel.r_btc[row, cols]
    C = panel.z[:, row, cols][chars].T

    design = build_design_matrix(F, u, r, C, spec)
    X = np.hstack([np.ones((n, 1)), design])
    y = panel.excess[row, cols]
    try:
        fit = ols(X, y, rank_tolerance=rank_tolerance)
    except RankDeficient as exc:
        raise RankDeficient(
            [names[i] for i in exc.columns], message=f"coin {coin_id}"
        ) from None

    risk_adjusted = np.full(len(panel.dates), np.nan)
    risk_adjusted[cols] = fit.coefficients[0] + fit.residuals
    risk_adjusted.flags.writeable = False
    return FirstPassFit(
        coin_id=coin_id,
        param_names=names,
        coefficients=fit.coefficients,
        stderr=fit.stderr,
        r2=fit.r2,
        adj_r2=fit.adj_r2,
        n_obs=fit.n_obs,
        n_params=fit.n_params,
        risk_adjusted=risk_adjusted,
    )


def write_first_pass_params_csv(
    fits: Sequence[FirstPassFit], path: str | Path
) -> None:
    """coin_id,param_name,estimate,stderr in coin then design-column order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("coin_id", "param_name", "estimate", "stderr"))
        for fit in sorted(fits, key=lambda f: f.coin_id):
            for name, est, se in zip(fit.param_names, fit.coefficients, fit.stderr):
                writer.writerow((fit.coin_id, name, repr(float(est)), repr(float(se))))


def write_risk_adjusted_csv(
    fits: Sequence[FirstPassFit], dates: Sequence[dt.date], path: str | Path
) -> None:
    """coin_id,date,risk_adjusted for every fitted coin-day; dates is the
    axis of the fits' risk_adjusted rows. csv.writer's dialect, as in
    write_panel_csv: each coin's rows go out as one write."""
    days = [d.isoformat() for d in dates]
    with open(path, "w", newline="") as handle:
        handle.write("coin_id,date,risk_adjusted\r\n")
        for fit in sorted(fits, key=lambda f: f.coin_id):
            cols = np.flatnonzero(~np.isnan(fit.risk_adjusted))
            lead = csv_lead(fit.coin_id)
            handle.write("".join(
                lead + days[j] + "," + repr(value) + "\r\n"
                for j, value in zip(cols.tolist(), fit.risk_adjusted[cols].tolist())
            ))
