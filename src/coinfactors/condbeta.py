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

import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .econometrics import (
    DEFAULT_RANK_TOLERANCE,
    ols,  # unused here; kept importable, perfbench/tracer.py wraps condbeta.ols
    ols_stack,
)
from .errors import (
    InsufficientObservations,
    InvalidConfig,
    RankDeficient,
)
from .factors import FactorSet
from .ingest import write_csv_rows
from .panel import CHARACTERISTIC_NAMES, Panel, characteristic_index, stacks_by_count

MIN_OBS_MARGIN = 30


@dataclass(frozen=True)
class BetaSpec:
    """How factor loadings are parameterized.

    unconditional: one constant loading per factor. conditional: the loading
    moves with the lagged uncertainty level u, a lagged return r, and each
    listed characteristic (size plays the same structural role as the rest).
    lagged_return picks what r is: the Bitcoin return ("btc", the default)
    or the coin's own previous-day return ("own", a sensitivity variant).
    A characteristic outside CHARACTERISTIC_NAMES, or listed twice, raises
    InvalidConfig.
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
        for i, name in enumerate(self.characteristics):
            if name not in CHARACTERISTIC_NAMES:
                raise InvalidConfig(f"unknown characteristic {name!r}")
            if name in self.characteristics[:i]:
                raise InvalidConfig(f"characteristic {name!r} repeated")


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
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Expand T factor rows into the interaction design, without intercept.

    factors is T x K, u and r are length T, chars is T x M in spec order;
    a stack of B such inputs, with a leading B axis on each, gives a
    (B, T, width) stack. Per factor value f the conditional row block is
    f * [1, u, r, (c, u*c, r*c) for each characteristic c], giving
    3*(1+M) columns per factor; unconditional mode emits f alone. The
    design goes into out when given, which must have the result's shape,
    and is returned.
    """
    F = np.asarray(factors, dtype=float)
    lead, K = F.shape[:-1], F.shape[-1]
    M = len(spec.characteristics)
    q = 1 if spec.mode == "unconditional" else 3 * (1 + M)
    if out is None:
        out = np.empty(lead + (K * q,))
    if spec.mode == "unconditional":
        out[...] = F
        return out
    u = np.asarray(u, dtype=float).reshape(lead)
    r = np.asarray(r, dtype=float).reshape(lead)
    C = np.asarray(chars, dtype=float).reshape(lead + (M,))
    base = np.empty(lead + (q,))
    base[..., 0] = 1.0
    base[..., 1] = u
    base[..., 2] = r
    for m in range(M):
        c = C[..., m]
        base[..., 3 * m + 3] = c
        np.multiply(u, c, out=base[..., 3 * m + 4])
        np.multiply(r, c, out=base[..., 3 * m + 5])
    for k in range(K):
        np.multiply(F[..., k, None], base, out=out[..., k * q : (k + 1) * q])
    return out


@dataclass(frozen=True)
class FirstPassFit:
    """Per-coin time-series fit and its risk-adjusted return series.

    coefficients, param_names and stderr align index for index in design
    column order, alpha first. risk_adjusted is the coin's read-only row on
    the panel's date axis: alpha plus the residual on every fitted date,
    NaN on the others; None in a result kept without it
    (ModelResult.without_risk_adjusted).
    """

    coin_id: str
    param_names: tuple[str, ...]
    coefficients: np.ndarray
    stderr: np.ndarray
    r2: float
    adj_r2: float
    n_obs: int
    n_params: int
    risk_adjusted: np.ndarray | None


def first_pass_stack(
    panel: Panel,
    coin_ids: Sequence[str],
    factor_set: FactorSet,
    spec: BetaSpec,
    min_obs_margin: int = MIN_OBS_MARGIN,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> list[FirstPassFit | InsufficientObservations | RankDeficient]:
    """first_pass on each of coin_ids, fitted in stacks of coins with the
    same number of dates (panel.stacks_by_count). Returns one entry per
    coin, in order: its FirstPassFit, or the InsufficientObservations or
    RankDeficient that first_pass would raise for it. Any other error
    raises for the whole call.
    """
    factor_set.require_dates(panel.dates)
    names = param_names(factor_set.names, spec)
    p = len(names)
    need = p + min_obs_margin
    index = np.array([panel.coin_index.get(c, -1) for c in coin_ids], dtype=np.intp)
    found = index >= 0
    present = panel.mask[index] & found[:, None]
    keep = present & factor_set.mask
    if spec.lagged_return == "own":
        days = np.array([d.toordinal() for d in panel.dates])
        keep[:, 1:] &= present[:, :-1] & (np.diff(days) == 1)
        keep[:, 0] = False

    out: list = [None] * len(coin_ids)
    for i in np.flatnonzero(~found).tolist():
        out[i] = InsufficientObservations(coin_ids[i], need, 0)
    for n, coins, cols in stacks_by_count(keep.T, np.flatnonzero(found), width=p):
        if n < need:
            for i in coins.tolist():
                out[i] = InsufficientObservations(coin_ids[i], need, n)
            continue
        chars = np.array(
            [characteristic_index(c) for c in spec.characteristics], dtype=np.intp
        )
        rows = index[coins, None]
        if spec.lagged_return == "own":
            r = panel.ret[rows, cols - 1]
        else:
            r = panel.r_btc[cols]
        C = np.moveaxis(panel.z[chars[:, None, None], rows, cols], 0, -1)
        X = np.empty((coins.size, n, p))
        X[..., 0] = 1.0
        build_design_matrix(
            factor_set.values[cols], panel.u[cols], r, C, spec, out=X[..., 1:]
        )
        fit = ols_stack(X, panel.excess[rows, cols], rank_tolerance=rank_tolerance)
        for b, (i, row_cols) in enumerate(zip(coins.tolist(), cols)):
            coin_id = coin_ids[i]
            if fit.deficient[b]:
                out[i] = RankDeficient(
                    [names[k] for k in fit.null_columns(b)], message=f"coin {coin_id}"
                )
                continue
            risk_adjusted = np.full(len(panel.dates), np.nan)
            risk_adjusted[row_cols] = fit.coefficients[b, 0] + fit.residuals[b]
            risk_adjusted.flags.writeable = False
            out[i] = FirstPassFit(
                coin_id=coin_id,
                param_names=names,
                coefficients=fit.coefficients[b],
                stderr=fit.stderr[b],
                r2=float(fit.r2[b]),
                adj_r2=float(fit.adj_r2[b]),
                n_obs=n,
                n_params=p,
                risk_adjusted=risk_adjusted,
            )
    return out


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
    otherwise). This is the one-coin case of first_pass_stack.
    """
    (fit,) = first_pass_stack(
        panel, (coin_id,), factor_set, spec, min_obs_margin, rank_tolerance
    )
    if not isinstance(fit, FirstPassFit):
        raise fit
    return fit


def write_first_pass_params_csv(
    fits: Sequence[FirstPassFit], path: str | Path
) -> None:
    """coin_id,param_name,estimate,stderr in coin then design-column order,
    through write_csv_rows: each coin's rows go out as one write. Parameter
    names need no quoting."""
    with write_csv_rows(path, ("coin_id", "param_name", "estimate", "stderr")) as write:
        for fit in sorted(fits, key=lambda f: f.coin_id):
            write((
                name + "," + repr(est) + "," + repr(se)
                for name, est, se in zip(
                    fit.param_names, fit.coefficients.tolist(), fit.stderr.tolist()
                )
            ), key=fit.coin_id)


def write_risk_adjusted_csv(
    fits: Sequence[FirstPassFit], dates: Sequence[dt.date], path: str | Path
) -> None:
    """coin_id,date,risk_adjusted for every fitted coin-day; dates is the
    axis of the fits' risk_adjusted rows. Through write_csv_rows, as
    write_panel_csv: each coin's rows go out as one write."""
    days = [d.isoformat() for d in dates]
    with write_csv_rows(path, ("coin_id", "date", "risk_adjusted")) as write:
        for fit in sorted(fits, key=lambda f: f.coin_id):
            cols = np.flatnonzero(~np.isnan(fit.risk_adjusted))
            write((
                days[j] + "," + repr(value)
                for j, value in zip(cols.tolist(), fit.risk_adjusted[cols].tolist())
            ), key=fit.coin_id)
