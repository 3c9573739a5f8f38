"""The per-row kernels that the batched code replaced, kept verbatim as
the exact oracle for it.

winsorized_zscores scores one cross-section, ols fits one design,
build_design_matrix expands one coin's design and first_pass fits one coin
through it, build_factor_set weights the market one date at a time, and
generate_synthetic draws one AR(1) path per loop and
standardizes one lag per call. The stacked versions in coinfactors must
agree with these bit for bit.
"""

from __future__ import annotations

import datetime as dt
import math
from typing import Sequence

import numpy as np

from coinfactors.condbeta import MIN_OBS_MARGIN, BetaSpec, FirstPassFit, param_names
from coinfactors.econometrics import DEFAULT_RANK_TOLERANCE, OlsFit
from coinfactors.errors import (
    EmptyDate,
    EmptyLeg,
    InsufficientObservations,
    MissingCharacteristic,
    RankDeficient,
    TooFewCoins,
    TooFewObservations,
)
from coinfactors.factors import (
    _LEG_LABELS,
    LONG_SHORT,
    FactorOptions,
    FactorSet,
    _caps,
    _sort_legs,
    _weighted_return,
    resolve_factor_names,
)
from coinfactors.panel import CHARACTERISTIC_NAMES, WINSOR, Panel, characteristic_index
from coinfactors.synth import (
    COIN_SIZE_SPREAD,
    LIQ_RAW_MEAN,
    SIZE_RAW_MEAN,
    GroundTruth,
    SynthConfig,
    _draw_theta,
    coin_label,
)


def winsorized_zscores(
    values: Sequence[float] | np.ndarray,
    lower: float = WINSOR[0],
    upper: float = WINSOR[1],
) -> np.ndarray:
    """Winsorize at the given cross-sectional percentiles, then z-score with
    the population standard deviation. Under 2 values, or zero variance after
    clipping, every score is 0."""
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        return np.zeros_like(x)
    lo, hi = np.percentile(x, [lower, upper])
    w = np.clip(x, lo, hi)
    sd = float(w.std())
    if sd == 0.0:
        return np.zeros_like(x)
    return (w - w.mean()) / sd


def ols(
    X: Sequence | np.ndarray,
    y: Sequence | np.ndarray,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> OlsFit:
    """Least squares of y on the columns of X via singular value decomposition.

    Raises TooFewObservations unless n > p, and RankDeficient (naming the
    columns loading on the null direction) when the smallest singular value
    falls below rank_tolerance times the largest. No normal-equation
    inversion is performed.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError(f"response length {y.shape} does not match {n} rows")
    if n <= p:
        raise TooFewObservations(n, p)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in regression inputs")

    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s[0] <= 0.0 or s[-1] <= rank_tolerance * s[0]:
        null = Vt[-1]
        cols = np.flatnonzero(np.abs(null) >= 0.1 * np.abs(null).max())
        raise RankDeficient([int(c) for c in cols])

    coef = Vt.T @ ((U.T @ y) / s)
    residuals = y - X @ coef
    ssr = float(residuals @ residuals)
    centered = y - y.mean()
    sst = float(centered @ centered)
    if sst > 0.0:
        r2 = 1.0 - ssr / sst
    else:
        # constant response: define R^2 = 1 when fitted exactly, else 0
        r2 = 1.0 if ssr <= 1e-24 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
    sigma2 = ssr / (n - p)
    xtx_inv_diag = np.einsum("ki,k->i", Vt**2, s**-2.0)
    stderr = np.sqrt(sigma2 * xtx_inv_diag)
    return OlsFit(
        coefficients=coef,
        residuals=residuals,
        stderr=stderr,
        r2=float(r2),
        adj_r2=float(adj_r2),
        n_obs=n,
        n_params=p,
    )


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


def _date_factors(
    panel: Panel,
    col: int,
    names: Sequence[str],
    options: FactorOptions,
    caps: np.ndarray,
) -> tuple[float, ...]:
    """The named factors on date column col, in order. caps holds the lagged
    cap of every coin-day, as build_factor_set makes it. The first factor
    that fails its precondition raises EmptyDate, TooFewCoins or EmptyLeg."""
    date = panel.dates[col]
    rows = np.flatnonzero(panel.mask[:, col])
    caps = caps[rows, col]
    excess = panel.excess[rows, col]
    out = []
    for name in names:
        if name == "mkt":
            keep = np.ones(rows.size, dtype=bool)
            if options.exclude_btc_from_market:
                keep = rows != panel.coin_index.get(options.btc_id, -1)
            if not keep.any():
                raise EmptyDate(date)
            out.append(_weighted_return(caps[keep], excess[keep]))
            continue
        if rows.size < options.min_sort_coins:
            raise TooFewCoins(date, options.min_sort_coins, rows.size)
        characteristic, long_label, short_label = LONG_SHORT[name]
        legs = _sort_legs(panel.raw[characteristic_index(characteristic), rows, col])
        spread = []
        for label in (long_label, short_label):
            members = legs == _LEG_LABELS.index(label)
            if not members.any():
                raise EmptyLeg(date, label)
            spread.append(_weighted_return(caps[members], excess[members]))
        out.append(spread[0] - spread[1])
    return tuple(out)


def build_factor_set(
    panel: Panel,
    menu: str | Sequence[str],
    options: FactorOptions = FactorOptions(),
) -> FactorSet:
    """Compute the demanded factors for every panel date.

    A date where any demanded factor fails its precondition (too few coins,
    an empty leg, an empty market) is dropped from the set and recorded, not
    imputed.
    """
    names = resolve_factor_names(menu)
    caps = np.zeros(panel.mask.shape)
    caps[panel.mask] = _caps(panel.raw[characteristic_index("size")][panel.mask])
    mask = np.zeros(len(panel.dates), dtype=bool)
    values = np.full((len(panel.dates), len(names)), np.nan)
    dropped = []
    for col, date in enumerate(panel.dates):
        try:
            values[col] = _date_factors(panel, col, names, options, caps)
            mask[col] = True
        except (TooFewCoins, EmptyLeg, EmptyDate) as exc:
            dropped.append((date, f"{type(exc).__name__}: {exc}"))
    return FactorSet(names, panel.dates, mask, values, tuple(dropped))


def _ar1_path(rng: np.random.Generator, phi: float, length: int) -> np.ndarray:
    """Stationary unit-variance AR(1) path."""
    innovations = rng.standard_normal(length)
    path = np.empty(length)
    path[0] = innovations[0]
    scale = math.sqrt(1.0 - phi * phi)
    for t in range(1, length):
        path[t] = phi * path[t - 1] + scale * innovations[t]
    return path


def generate_synthetic(cfg: SynthConfig) -> tuple[Panel, GroundTruth]:
    """Simulate the panel.

    Observation dates run from day 1 to day n_days-1; day 0 exists only as
    the first lag. excess_jt = alpha_j + beta_jt-1(theta)' F_t +
    effects' Z_jt-1 + noise, with the risk-free rate identically zero so
    ret = excess and the panel carries riskfree_mode "tbill".
    """
    dates = [cfg.start + dt.timedelta(days=i) for i in range(cfg.n_days)]
    n_lags = cfg.n_days - 1  # lag indices 0..n_days-2
    t_obs = cfg.n_days - 1  # observation indices 1..n_days-1
    K = len(cfg.factor_names)

    root = np.random.SeedSequence(cfg.seed)
    streams = root.spawn(3 + cfg.n_coins)
    factor_rng = np.random.default_rng(streams[0])
    epu_rng = np.random.default_rng(streams[1])
    btc_rng = np.random.default_rng(streams[2])

    F = np.empty((t_obs, K))
    for k, name in enumerate(cfg.factor_names):
        dyn = cfg.factor_dynamics[name]
        F[:, k] = dyn.mean + dyn.vol * factor_rng.standard_normal(t_obs)

    u_raw = _ar1_path(epu_rng, cfg.epu_phi, n_lags)
    u_sd = float(u_raw.std())
    u_z = (u_raw - u_raw.mean()) / u_sd if u_sd > 0 else np.zeros(n_lags)

    r_btc = cfg.rbtc_mean + cfg.rbtc_vol * btc_rng.standard_normal(n_lags)

    # phase one: per-coin draws in a fixed order so streams never shift
    raw_chars = np.empty((cfg.n_coins, n_lags, len(CHARACTERISTIC_NAMES)))
    thetas = []
    alphas = np.empty(cfg.n_coins)
    noises = np.empty((cfg.n_coins, t_obs))
    raw_offsets = {"size": SIZE_RAW_MEAN, "liquidity": LIQ_RAW_MEAN}
    for i in range(cfg.n_coins):
        rng = np.random.default_rng(streams[3 + i])
        size_offset = COIN_SIZE_SPREAD * rng.standard_normal()
        for m, name in enumerate(CHARACTERISTIC_NAMES):
            path = _ar1_path(rng, cfg.char_phi, n_lags)
            path += raw_offsets.get(name, 0.0)
            if name == "size":
                path += size_offset
            raw_chars[i, :, m] = path
        thetas.append(_draw_theta(rng, cfg))
        alphas[i] = cfg.alpha_vol * rng.standard_normal()
        noises[i] = cfg.noise_vol * rng.standard_normal(t_obs)

    # phase two: cross-sectional standardization, shared kernel
    z_chars = np.empty_like(raw_chars)
    for lag in range(n_lags):
        for m in range(len(CHARACTERISTIC_NAMES)):
            z_chars[:, lag, m] = winsorized_zscores(raw_chars[:, lag, m])

    # phase three: returns through the shared design expansion
    spec_char_idx = []
    for c in cfg.beta_spec.characteristics:
        if c not in CHARACTERISTIC_NAMES:
            raise MissingCharacteristic(c)
        spec_char_idx.append(CHARACTERISTIC_NAMES.index(c))
    returns = np.empty((cfg.n_coins, t_obs))
    theta_map = {}
    alpha_map = {}
    for i in range(cfg.n_coins):
        coin_id = coin_label(i, cfg.n_coins)
        design = build_design_matrix(
            F,
            u_z,
            r_btc,
            z_chars[i][:, spec_char_idx].reshape(t_obs, len(spec_char_idx)),
            cfg.beta_spec,
        )
        excess = alphas[i] + design @ thetas[i] + noises[i]
        for name, effect in sorted(cfg.anomaly_effects.items()):
            m = CHARACTERISTIC_NAMES.index(name)
            excess = excess + effect * z_chars[i, :, m]
        returns[i] = excess
        theta_map[coin_id] = thetas[i]
        alpha_map[coin_id] = float(alphas[i])

    # observation row t sits on date t+1 and carries the lag-t values
    shape = (cfg.n_coins, t_obs)
    panel = Panel(
        coins=tuple(coin_label(i, cfg.n_coins) for i in range(cfg.n_coins)),
        dates=tuple(dates[1:]),
        mask=np.ones(shape, dtype=bool),
        ret=returns,
        excess=returns,
        z=np.moveaxis(z_chars, -1, 0),
        raw=np.moveaxis(raw_chars, -1, 0),
        u=np.broadcast_to(u_z, shape),
        r_btc=np.broadcast_to(r_btc, shape),
        riskfree_mode="tbill",
    )
    factor_set = FactorSet(
        cfg.factor_names, panel.dates, np.ones(t_obs, dtype=bool), F
    )
    truth = GroundTruth(
        config=cfg,
        factor_set=factor_set,
        beta_spec=cfg.beta_spec,
        theta=theta_map,
        alpha=alpha_map,
        anomaly_effects=dict(cfg.anomaly_effects),
        u={dates[i]: float(u_z[i]) for i in range(n_lags)},
        r_btc={dates[i]: float(r_btc[i]) for i in range(n_lags)},
    )
    return panel, truth
