"""Synthetic panel generator with known ground truth.

Returns are built through the very same design-expansion code the estimator
uses (condbeta.build_design_matrix), so a recovery failure indicts the
estimator rather than a formula transcription mismatch. All randomness flows
from one seed through spawned per-coin substreams: the factor, uncertainty,
and Bitcoin-return streams come first, then one stream per coin, so
generation order never changes results.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .condbeta import BetaSpec, build_design_matrix
from .econometrics import SIGNIFICANCE_Z
from .errors import InvalidConfig, SpecMismatch
from .factors import FACTOR_NAMES, FactorSet
from .ingest import BAR_DTYPE, EPU_HEADER, RISKFREE_HEADER, CoinSeries, write_csv_rows, write_market_csv
from .panel import CHARACTERISTIC_NAMES, Panel, winsorized_zscores
from .pipeline import ModelResult

SIZE_RAW_MEAN = 18.0
LIQ_RAW_MEAN = 17.0
COIN_SIZE_SPREAD = 1.5


@dataclass(frozen=True)
class FactorDynamics:
    """Gaussian i.i.d. daily factor draws."""

    mean: float
    vol: float


@dataclass(frozen=True)
class ThetaLaw:
    """Uniform sampling ranges for each loading-parameter group, applied
    per coin. A (0, 0) range pins the group at zero."""

    base: tuple[float, float] = (0.8, 1.2)
    u: tuple[float, float] = (0.0, 0.0)
    r: tuple[float, float] = (0.0, 0.0)
    char_base: tuple[float, float] = (0.0, 0.0)
    char_u: tuple[float, float] = (0.0, 0.0)
    char_r: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class SynthConfig:
    n_coins: int
    n_days: int
    seed: int
    factor_names: tuple[str, ...] = ("mkt",)
    factor_dynamics: Mapping[str, FactorDynamics] = None
    beta_spec: BetaSpec = BetaSpec("conditional")
    theta_law: ThetaLaw = ThetaLaw()
    alpha_vol: float = 0.0
    noise_vol: float = 0.01
    anomaly_effects: Mapping[str, float] = None
    epu_phi: float = 0.95
    char_phi: float = 0.9
    rbtc_mean: float = 0.001
    rbtc_vol: float = 0.03
    start: dt.date = dt.date(2020, 1, 1)

    def __post_init__(self):
        if self.n_days < 200:
            raise InvalidConfig(f"n_days {self.n_days} below the 200-day minimum")
        if self.n_coins < 1:
            raise InvalidConfig("n_coins must be positive")
        if not self.noise_vol >= 0:
            raise InvalidConfig("noise_vol must be non-negative")
        if not (0.0 <= self.epu_phi < 1.0 and 0.0 <= self.char_phi < 1.0):
            raise InvalidConfig("AR(1) persistence must lie in [0, 1)")
        object.__setattr__(self, "factor_names", tuple(self.factor_names))
        for name in self.factor_names:
            if name not in FACTOR_NAMES:
                raise InvalidConfig(f"unknown factor {name!r}")
        dyn = dict(self.factor_dynamics or {})
        for name in self.factor_names:
            dyn.setdefault(name, FactorDynamics(mean=0.0005, vol=0.02))
        object.__setattr__(self, "factor_dynamics", dyn)
        effects = dict(self.anomaly_effects or {})
        for name in effects:
            if name not in CHARACTERISTIC_NAMES:
                raise InvalidConfig(f"unknown anomaly effect {name!r}")
        object.__setattr__(self, "anomaly_effects", effects)


@dataclass(frozen=True)
class GroundTruth:
    """Everything the generator knew: true loadings per coin, true factor
    values, the conditioning series, and the injected anomaly premiums.

    Each coin's loadings are one vector in param_names order without the
    intercept, the layout of FirstPassFit.coefficients[1:]. u and r_btc are
    read-only arrays on the lag axis: entry t is the value on config.start
    plus t days, for t < n_days - 1."""

    config: SynthConfig
    factor_set: FactorSet
    beta_spec: BetaSpec
    theta: Mapping[str, np.ndarray]
    alpha: Mapping[str, float]
    anomaly_effects: Mapping[str, float]
    u: np.ndarray
    r_btc: np.ndarray


def _ar1_paths(paths: np.ndarray, phi: float) -> np.ndarray:
    """Turn unit-normal innovations into stationary unit-variance AR(1)
    paths along the last axis, in place and every row at once:
    x_0 = e_0, x_t = phi x_(t-1) + sqrt(1 - phi^2) e_t. A 1-D argument is
    one path. Each element takes the same two products and one sum as a
    scalar loop would, so the bits do not depend on how many rows share
    the call."""
    scale = math.sqrt(1.0 - phi * phi)
    rows = paths.reshape(-1, paths.shape[-1])
    for t in range(1, rows.shape[1]):
        step = rows[:, t]
        step *= scale
        step += phi * rows[:, t - 1]
    return paths


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    if lo == hi:
        return float(lo)
    return float(rng.uniform(lo, hi))


def _draw_theta(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    """One coin's loading vector in param_names order, intercept excluded.

    Per factor, the characteristic triples are drawn before base, u and r,
    although the vector lists base, u and r first. Every synthetic panel
    depends on this draw order, so it must not change.
    """
    law = cfg.theta_law
    theta = []
    for _ in cfg.factor_names:
        if cfg.beta_spec.mode == "unconditional":
            theta.append(_uniform(rng, law.base))
            continue
        triples = [
            _uniform(rng, bounds)
            for _ in cfg.beta_spec.characteristics
            for bounds in (law.char_base, law.char_u, law.char_r)
        ]
        theta.extend(_uniform(rng, bounds) for bounds in (law.base, law.u, law.r))
        theta.extend(triples)
    return np.array(theta, dtype=float)


def coin_label(index: int, n_coins: int) -> str:
    width = max(3, len(str(n_coins - 1)))
    return f"C{index:0{width}d}"


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

    u_raw = _ar1_paths(epu_rng.standard_normal(n_lags), cfg.epu_phi)
    u_sd = float(u_raw.std())
    u_z = (u_raw - u_raw.mean()) / u_sd if u_sd > 0 else np.zeros(n_lags)

    r_btc = cfg.rbtc_mean + cfg.rbtc_vol * btc_rng.standard_normal(n_lags)
    u_z.flags.writeable = r_btc.flags.writeable = False

    # phase one: per-coin draws in a fixed order so streams never shift;
    # the characteristic innovations go straight into (characteristic,
    # coin, lag) rows that become AR(1) paths together afterwards
    raw = np.empty((len(CHARACTERISTIC_NAMES), cfg.n_coins, n_lags))
    size_offsets = np.empty(cfg.n_coins)
    thetas = []
    alphas = np.empty(cfg.n_coins)
    noises = np.empty((cfg.n_coins, t_obs))
    for i in range(cfg.n_coins):
        rng = np.random.default_rng(streams[3 + i])
        size_offsets[i] = COIN_SIZE_SPREAD * rng.standard_normal()
        for m in range(len(CHARACTERISTIC_NAMES)):
            rng.standard_normal(out=raw[m, i])
        thetas.append(_draw_theta(rng, cfg))
        alphas[i] = cfg.alpha_vol * rng.standard_normal()
        noises[i] = cfg.noise_vol * rng.standard_normal(t_obs)
    _ar1_paths(raw, cfg.char_phi)
    raw_offsets = {"size": SIZE_RAW_MEAN, "liquidity": LIQ_RAW_MEAN}
    for m, name in enumerate(CHARACTERISTIC_NAMES):
        raw[m] += raw_offsets.get(name, 0.0)
    raw[CHARACTERISTIC_NAMES.index("size")] += size_offsets[:, None]

    # phase two: cross-sectional standardization, one row per lag
    z = np.empty_like(raw)
    for m in range(len(CHARACTERISTIC_NAMES)):
        z[m] = winsorized_zscores(raw[m].T).T

    # phase three: returns through the shared design expansion
    spec_char_idx = [CHARACTERISTIC_NAMES.index(c) for c in cfg.beta_spec.characteristics]
    returns = np.empty((cfg.n_coins, t_obs))
    theta_map = {}
    alpha_map = {}
    for i in range(cfg.n_coins):
        coin_id = coin_label(i, cfg.n_coins)
        design = build_design_matrix(
            F,
            u_z,
            r_btc,
            z[spec_char_idx, i].T,
            cfg.beta_spec,
        )
        excess = alphas[i] + design @ thetas[i] + noises[i]
        for name, effect in sorted(cfg.anomaly_effects.items()):
            m = CHARACTERISTIC_NAMES.index(name)
            excess = excess + effect * z[m, i]
        returns[i] = excess
        theta_map[coin_id] = thetas[i]
        alpha_map[coin_id] = float(alphas[i])

    # observation row t sits on date t+1 and carries the lag-t values
    panel = Panel(
        coins=tuple(coin_label(i, cfg.n_coins) for i in range(cfg.n_coins)),
        dates=tuple(dates[1:]),
        mask=np.ones((cfg.n_coins, t_obs), dtype=bool),
        ret=returns,
        excess=returns,
        z=z,
        raw=raw,
        u=u_z,
        r_btc=r_btc,
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
        u=u_z,
        r_btc=r_btc,
    )
    return panel, truth


@dataclass(frozen=True)
class SynthRun:
    """A preset scenario at a size, and whether to write its raw inputs."""

    scenario: str
    n_coins: int
    n_days: int
    emit_raw: bool = True


def scenario(name: str, n_coins: int, n_days: int, seed: int) -> SynthConfig:
    """Preset generating processes.

    A: constant betas, no anomaly premiums. B: betas driven by uncertainty,
    lagged return, and characteristics, no anomaly premiums. C: constant
    betas with a size premium injected into returns.
    """
    if name == "A":
        return SynthConfig(
            n_coins=n_coins,
            n_days=n_days,
            seed=seed,
            beta_spec=BetaSpec("unconditional"),
            theta_law=ThetaLaw(base=(0.8, 1.2)),
        )
    if name == "B":
        # The factor carries a sizable mean so that characteristic-driven
        # loading differences translate into characteristic-correlated
        # average returns when betas are (mis)estimated unconditionally.
        return SynthConfig(
            n_coins=n_coins,
            n_days=n_days,
            seed=seed,
            factor_dynamics={"mkt": FactorDynamics(mean=0.002, vol=0.02)},
            beta_spec=BetaSpec("conditional"),
            theta_law=ThetaLaw(
                base=(0.8, 1.2),
                u=(0.2, 0.5),
                r=(0.5, 1.5),
                char_base=(0.3, 0.7),
                char_u=(0.3, 0.7),
                char_r=(0.5, 1.5),
            ),
        )
    if name == "C":
        return SynthConfig(
            n_coins=n_coins,
            n_days=n_days,
            seed=seed,
            beta_spec=BetaSpec("unconditional"),
            theta_law=ThetaLaw(base=(0.8, 1.2)),
            anomaly_effects={"size": 0.001},
        )
    raise InvalidConfig(f"unknown scenario {name!r}, expected A, B, or C")


@dataclass(frozen=True)
class RecoveryReport:
    max_abs_error: float
    ci_coverage: float
    n_parameters: int
    per_coin_max_error: Mapping[str, float]
    tolerance: float | None
    passed: bool


def verify_recovery(
    result: ModelResult,
    truth: GroundTruth,
    z: float = SIGNIFICANCE_Z,
    tolerance: float | None = None,
) -> RecoveryReport:
    """Compare estimated loadings against the generator's.

    Reports the worst absolute parameter error, the share of true parameters
    inside the nominal z-interval around the estimates, and a pass verdict
    against `tolerance` when one is given. Raises SpecMismatch when the
    estimation spec cannot line up with the generating structure.
    """
    if tuple(result.factor_set.names) != tuple(truth.factor_set.names):
        raise SpecMismatch(
            f"estimated factors {tuple(result.factor_set.names)} != "
            f"generated {tuple(truth.factor_set.names)}"
        )
    if result.spec.beta != truth.beta_spec:
        raise SpecMismatch(
            f"estimation beta spec {result.spec.beta} != generating "
            f"spec {truth.beta_spec}"
        )
    max_err = 0.0
    covered = 0
    total = 0
    per_coin = {}
    for fit in result.fits:
        true_vec = truth.theta[fit.coin_id]
        est_vec = fit.coefficients[1:]
        if true_vec.shape != est_vec.shape:
            raise SpecMismatch(
                f"{fit.coin_id}: {est_vec.size} estimated parameters, "
                f"{true_vec.size} generated"
            )
        errors = np.abs(est_vec - true_vec)
        per_coin[fit.coin_id] = float(errors.max())
        max_err = max(max_err, float(errors.max()))
        half = z * fit.stderr[1:]
        covered += int(np.count_nonzero(errors <= half))
        total += errors.size
    coverage = covered / total if total else float("nan")
    passed = True if tolerance is None else max_err < tolerance
    return RecoveryReport(
        max_abs_error=max_err,
        ci_coverage=coverage,
        n_parameters=total,
        per_coin_max_error=per_coin,
        tolerance=tolerance,
        passed=passed,
    )


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (dt.date, dt.datetime)):
        return value.isoformat()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: _jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    return value


def truth_to_json(truth: GroundTruth) -> dict:
    """Ground truth as a plain JSON-serializable document, every dated
    series keyed by ISO date."""
    factors = truth.factor_set
    kept = map(dt.date.isoformat, itertools.compress(factors.dates, factors.mask))
    start = truth.config.start
    lags = [(start + dt.timedelta(days=t)).isoformat() for t in range(truth.u.size)]
    return {
        "config": _jsonable(truth.config),
        "beta_spec": _jsonable(truth.beta_spec),
        "factor_names": list(truth.factor_set.names),
        "factors": _jsonable(dict(zip(kept, factors.values[factors.mask]))),
        "theta": _jsonable(dict(truth.theta)),
        "alpha": _jsonable(dict(truth.alpha)),
        "anomaly_effects": _jsonable(dict(truth.anomaly_effects)),
        "u": dict(zip(lags, truth.u.tolist())),
        "r_btc": dict(zip(lags, truth.r_btc.tolist())),
    }


def write_truth_json(truth: GroundTruth, path: str | Path) -> None:
    text = json.dumps(truth_to_json(truth), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def emit_raw_files(panel: Panel, truth: GroundTruth, out_dir: str | Path) -> None:
    """Write ingest-schema raw files consistent with the synthetic panel:
    per-coin market CSVs under market/, a Bitcoin series from the
    conditioning returns, and uncertainty / risk-free tables alongside.

    The files re-ingest cleanly; the resulting panel is not expected to be
    numerically identical to the synthetic one, because ingestion recomputes
    characteristics from rolling windows over these raw series.
    """
    out = Path(out_dir)
    market = out / "market"
    market.mkdir(parents=True, exist_ok=True)
    cfg = truth.config
    dates = [cfg.start + dt.timedelta(days=i) for i in range(cfg.n_days)]
    first = cfg.start.toordinal()
    days = np.arange(first, first + cfg.n_days)

    def write(coin_id: str, close: np.ndarray, cap: np.ndarray) -> None:
        bars = np.empty(days.size, dtype=BAR_DTYPE)
        bars["day"], bars["close"], bars["market_cap"] = days, close, cap
        bars["volume"] = cap / 20.0
        write_market_csv(CoinSeries(coin_id, bars), market / f"{coin_id}.csv")

    # each panel date's index among the emitted days
    at = np.array([d.toordinal() for d in panel.dates], dtype=np.int64) - first
    for i, coin_id in enumerate(panel.coins):
        cols = np.flatnonzero(panel.mask[i])
        k = at[cols]
        emitted = (k >= 0) & (k < days.size)
        # closes compound the returns one day at a time (accumulate is sequential)
        growth = np.ones(days.size)
        growth[k[emitted]] = 1.0 + panel.ret[i, cols[emitted]]
        close = np.multiply.accumulate(np.concatenate([[100.0], growth]))[1:]
        # a coin-day's lagged size is the day before's cap, carried forward;
        # the first one also stands for the days before it
        caps = panel.caps[i, cols]
        lag = k - 1
        known = (lag >= 0) & (lag < days.size)
        latest = np.full(days.size, -1)
        latest[lag[known]] = np.flatnonzero(known)
        write(coin_id, close, caps[np.maximum(np.maximum.accumulate(latest), 0)])

    # the last emitted day is no lag day: its Bitcoin return is 0
    growth = 1.0 + np.append(truth.r_btc[1:], 0.0)
    close = np.multiply.accumulate(np.concatenate([[20000.0], growth]))
    write("BTC", close, close * 1.9e7)

    with write_csv_rows(out / "epu.csv", EPU_HEADER) as write_rows:
        # math.exp per value: np.exp can differ in the last bit
        write_rows(
            (date.isoformat(), repr(100.0 * math.exp(0.2 * u)))
            for date, u in zip(dates, np.append(truth.u, 0.0).tolist())
        )
    with write_csv_rows(out / "riskfree.csv", RISKFREE_HEADER) as write_rows:
        write_rows((date.isoformat(), repr(0.0)) for date in dates)
