"""Two-pass orchestration: per-coin first-pass fits under a model spec,
daily cross-sections of risk-adjusted returns on anomaly characteristics,
Fama-MacBeth aggregation, and side-by-side model comparison.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .condbeta import MIN_OBS_MARGIN, BetaSpec, FirstPassFit, first_pass
from .econometrics import (
    DEFAULT_RANK_TOLERANCE,
    SIGNIFICANCE_Z,
    FMSummary,
    OlsFit,
    fama_macbeth,
    ols,
)
from .errors import (
    CoinFactorsError,
    InsufficientObservations,
    InvalidConfig,
    NoEligibleDates,
    RankDeficient,
    StageError,
)
from .factors import FactorOptions, FactorSet, build_factor_set, resolve_factor_names
from .panel import (
    CHARACTERISTIC_NAMES,
    RISKFREE_MODES,
    Drop,
    Panel,
    characteristic_index,
)

FLOOR_BASE = 20  # the fewest coins a cross-sectional date needs, whatever |Z|


@dataclass(frozen=True)
class ModelSpec:
    """One estimation recipe: factor menu, beta parameterization, anomaly
    list for the second pass, and which risk-free convention the panel must
    have been built under."""

    label: str
    factors: str
    beta: BetaSpec
    anomalies: tuple[str, ...] = ("size", "liquidity", "momentum")
    riskfree_mode: str = "tbill"

    def __post_init__(self):
        resolve_factor_names(self.factors)
        object.__setattr__(self, "anomalies", tuple(self.anomalies))
        if not self.anomalies:
            raise InvalidConfig(f"spec {self.label!r}: anomalies must be non-empty")
        for name in self.anomalies:
            if name not in CHARACTERISTIC_NAMES:
                raise InvalidConfig(f"spec {self.label!r}: unknown anomaly {name!r}")
        if self.riskfree_mode not in RISKFREE_MODES:
            raise InvalidConfig(
                f"spec {self.label!r}: unknown riskfree_mode {self.riskfree_mode!r}"
            )
        if not self.label:
            raise InvalidConfig("spec label must be non-empty")


@dataclass(frozen=True)
class PipelineOptions:
    """nw_lags (None: the Newey-West rule of thumb) must be non-negative and
    rank_tolerance must lie in [0, 1); InvalidConfig otherwise."""

    min_obs_margin: int = MIN_OBS_MARGIN
    floor_base: int = FLOOR_BASE
    nw_lags: int | None = None
    significance_z: float = SIGNIFICANCE_Z
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE
    factor_options: FactorOptions = FactorOptions()

    def __post_init__(self):
        if self.nw_lags is not None and self.nw_lags < 0:
            raise InvalidConfig(f"nw_lags {self.nw_lags} must be non-negative")
        if not 0.0 <= self.rank_tolerance < 1.0:
            raise InvalidConfig(
                f"rank_tolerance {self.rank_tolerance} must lie in [0, 1)"
            )


def cross_section_floor(n_anomalies: int, base: int = FLOOR_BASE) -> int:
    """Minimum coins per cross-sectional date: max(base, 3 * (|Z| + 1))."""
    return max(base, 3 * (n_anomalies + 1))


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


def second_pass(
    rstar: np.ndarray,
    panel: Panel,
    anomalies: Sequence[str],
    floor_base: int = FLOOR_BASE,
    nw_lags: int | None = None,
    significance_z: float = SIGNIFICANCE_Z,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> SecondPassResult:
    """Daily cross-sections of R* on the standardized anomaly vector.

    rstar is coins x dates on the panel's grid, NaN where a coin-day has
    none; each date holding an R* is one cross-section. Dates with fewer
    coins than the floor, or with a degenerate design (for example all-zero
    z-scores), are skipped and recorded. Requires at least 2 surviving dates.
    """
    anomalies = tuple(anomalies)
    floor = cross_section_floor(len(anomalies), floor_base)
    chars = [characteristic_index(a) for a in anomalies]
    if rstar.shape != panel.mask.shape:
        raise InvalidConfig(f"R* grid has shape {rstar.shape}, not {panel.mask.shape}")
    held = ~np.isnan(rstar)
    dated = np.flatnonzero(held.any(axis=0)).tolist()
    held &= panel.mask

    fits = []
    skipped = []
    for col in dated:
        date = panel.dates[col]
        rows = np.flatnonzero(held[:, col])
        n = rows.size
        if n < floor:
            skipped.append((date, f"below_floor:{n}<{floor}"))
            continue
        X = np.column_stack([np.ones(n)] + [panel.z[m, rows, col] for m in chars])
        y = rstar[rows, col]
        try:
            fit = ols(X, y, rank_tolerance=rank_tolerance)
        except RankDeficient as exc:
            skipped.append((date, f"rank_deficient:{exc.columns}"))
            continue
        fits.append(CrossSectionFit(date=date, fit=fit, n_coins=n))
    if len(fits) < 2:
        raise NoEligibleDates(
            f"{len(fits)} eligible dates after floor {floor}, need at least 2"
        )
    fm = fama_macbeth(
        {f.date: f.fit for f in fits},
        ("c0",) + anomalies,
        nw_lags=nw_lags,
        significance_z=significance_z,
    )
    return SecondPassResult(fits=tuple(fits), fm=fm, skipped=tuple(skipped))


@dataclass(frozen=True)
class ModelResult:
    spec: ModelSpec
    factor_set: FactorSet
    fits: tuple[FirstPassFit, ...]
    cross_sections: tuple[CrossSectionFit, ...]
    fm: FMSummary
    first_pass_avg_adj_r2: float
    dropped_coins: tuple[Drop, ...]
    skipped_dates: tuple[tuple[dt.date, str], ...]

    @property
    def second_pass_avg_adj_r2(self) -> float:
        return self.fm.avg_adj_r2

    def anomaly_summaries(self):
        return tuple(c for c in self.fm.coefficients if c.name != "c0")


def significant_anomaly_count(
    result: ModelResult, threshold: float = SIGNIFICANCE_Z
) -> int:
    """How many anomaly coefficients have |Newey-West t| above threshold."""
    count = 0
    for c in result.anomaly_summaries():
        if c.degenerate:
            continue
        if abs(c.nw_t) > threshold:
            count += 1
    return count


def _build_factors(
    panel: Panel, spec: ModelSpec, options: PipelineOptions
) -> FactorSet:
    """The factor set spec demands, with a failed build reported as the
    spec's factors stage."""
    try:
        return build_factor_set(panel, spec.factors, options.factor_options)
    except InvalidConfig:
        raise
    except CoinFactorsError as exc:
        raise StageError(spec.label, "factors", exc) from exc


def run_model(
    panel: Panel,
    spec: ModelSpec,
    factor_set: FactorSet | None = None,
    options: PipelineOptions = PipelineOptions(),
) -> ModelResult:
    """Execute the full two-pass procedure for one spec.

    Factors are built from the panel unless a factor_set is supplied:
    synthetic ground-truth studies pass the true factors, and
    compare_models passes the set it built once for the spec's menu.
    Coins failing first-pass preconditions are dropped with reasons; fatal
    stage errors carry the spec label and stage name.
    """
    if spec.riskfree_mode != panel.riskfree_mode:
        raise InvalidConfig(
            f"spec {spec.label!r} wants riskfree_mode {spec.riskfree_mode!r} "
            f"but the panel was built with {panel.riskfree_mode!r}"
        )
    if factor_set is None:
        factor_set = _build_factors(panel, spec, options)
    wanted = resolve_factor_names(spec.factors)
    if tuple(factor_set.names) != wanted:
        raise InvalidConfig(
            f"spec {spec.label!r} wants factors {wanted}, "
            f"supplied set has {tuple(factor_set.names)}"
        )
    factor_set.require_dates(panel.dates)
    if not factor_set.mask.any():
        exc = NoEligibleDates("factor set is empty")
        raise StageError(spec.label, "factors", exc) from exc

    fits = []
    dropped = []
    for coin_id in panel.coins:
        try:
            fits.append(
                first_pass(
                    panel,
                    coin_id,
                    factor_set,
                    spec.beta,
                    min_obs_margin=options.min_obs_margin,
                    rank_tolerance=options.rank_tolerance,
                )
            )
        except InsufficientObservations as exc:
            dropped.append(Drop(coin_id, None, f"insufficient_observations: {exc}"))
        except RankDeficient as exc:
            dropped.append(Drop(coin_id, None, f"rank_deficient: {exc}"))
        except CoinFactorsError as exc:
            raise StageError(spec.label, "first_pass", exc) from exc

    rstar = np.full(panel.mask.shape, np.nan)
    for fit in fits:
        rstar[panel.coin_index[fit.coin_id]] = fit.risk_adjusted
    try:
        second = second_pass(
            rstar,
            panel,
            spec.anomalies,
            floor_base=options.floor_base,
            nw_lags=options.nw_lags,
            significance_z=options.significance_z,
            rank_tolerance=options.rank_tolerance,
        )
    except CoinFactorsError as exc:
        raise StageError(spec.label, "second_pass", exc) from exc

    fp_avg = float(np.mean([fit.adj_r2 for fit in fits])) if fits else float("nan")
    return ModelResult(
        spec=spec,
        factor_set=factor_set,
        fits=tuple(fits),
        cross_sections=second.fits,
        fm=second.fm,
        first_pass_avg_adj_r2=fp_avg,
        dropped_coins=tuple(dropped),
        skipped_dates=second.skipped,
    )


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    factors: str
    beta_mode: str
    riskfree_mode: str
    first_pass_avg_adj_r2: float
    second_pass_avg_adj_r2: float
    n_coins: int
    n_coins_dropped: int
    n_dates: int
    n_dates_skipped: int
    significant_anomalies: int
    anomalies: tuple  # CoefficientSummary per anomaly, spec order


@dataclass(frozen=True)
class PairRow:
    """Conditional-vs-unconditional delta for one factor menu."""

    factors: str
    riskfree_mode: str
    unconditional_label: str
    conditional_label: str
    unconditional_sp_adj_r2: float
    conditional_sp_adj_r2: float
    delta_sp_adj_r2: float
    unconditional_significant: int
    conditional_significant: int
    significant_change: int
    unconditional_coins: int
    conditional_coins: int


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    pairs: tuple[PairRow, ...]
    significance_z: float
    results: Mapping[str, ModelResult] = field(compare=False, default=None)


def _row_from_result(result: ModelResult, significance_z: float) -> ComparisonRow:
    return ComparisonRow(
        label=result.spec.label,
        factors=result.spec.factors,
        beta_mode=result.spec.beta.mode,
        riskfree_mode=result.spec.riskfree_mode,
        first_pass_avg_adj_r2=result.first_pass_avg_adj_r2,
        second_pass_avg_adj_r2=result.second_pass_avg_adj_r2,
        n_coins=len(result.fits),
        n_coins_dropped=len(result.dropped_coins),
        n_dates=len(result.cross_sections),
        n_dates_skipped=len(result.skipped_dates),
        significant_anomalies=significant_anomaly_count(result, significance_z),
        anomalies=result.anomaly_summaries(),
    )


def compare_models(
    panels: Panel | Mapping[str, Panel],
    specs: Sequence[ModelSpec],
    options: PipelineOptions = PipelineOptions(),
) -> ComparisonReport:
    """Run every spec and tabulate, pairing each conditional spec with the
    unconditional spec sharing its factor menu, anomaly list, and risk-free
    mode.

    panels may be one Panel (all specs must match its risk-free mode) or a
    mapping from mode to Panel. Each factor menu is built once per panel,
    by the first spec in label order that uses it, and shared by the rest.
    """
    if not specs:
        raise InvalidConfig("no specs given")
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise InvalidConfig(f"duplicate spec labels: {sorted(labels)}")
    if isinstance(panels, Panel):
        panel_by_mode: Mapping[str, Panel] = {panels.riskfree_mode: panels}
    else:
        panel_by_mode = panels

    results: dict[str, ModelResult] = {}
    factor_sets: dict[tuple[tuple[str, ...], str], FactorSet] = {}
    for spec in sorted(specs, key=lambda s: s.label):
        panel = panel_by_mode.get(spec.riskfree_mode)
        if panel is None:
            raise InvalidConfig(
                f"spec {spec.label!r} needs a panel with riskfree_mode "
                f"{spec.riskfree_mode!r}"
            )
        key = (resolve_factor_names(spec.factors), spec.riskfree_mode)
        if key not in factor_sets:
            factor_sets[key] = _build_factors(panel, spec, options)
        results[spec.label] = run_model(panel, spec, factor_sets[key], options)

    rows = tuple(
        _row_from_result(results[label], options.significance_z)
        for label in sorted(results)
    )
    significant = {row.label: row.significant_anomalies for row in rows}

    groups: dict[tuple, dict[str, list[ModelResult]]] = {}
    for result in results.values():
        key = (result.spec.factors, result.spec.anomalies, result.spec.riskfree_mode)
        groups.setdefault(key, {}).setdefault(result.spec.beta.mode, []).append(result)
    pairs = []
    for key in sorted(groups, key=repr):
        modes = groups[key]
        for uncond in sorted(modes.get("unconditional", []), key=lambda r: r.spec.label):
            for cond in sorted(modes.get("conditional", []), key=lambda r: r.spec.label):
                u_sig = significant[uncond.spec.label]
                c_sig = significant[cond.spec.label]
                pairs.append(
                    PairRow(
                        factors=key[0],
                        riskfree_mode=key[2],
                        unconditional_label=uncond.spec.label,
                        conditional_label=cond.spec.label,
                        unconditional_sp_adj_r2=uncond.second_pass_avg_adj_r2,
                        conditional_sp_adj_r2=cond.second_pass_avg_adj_r2,
                        delta_sp_adj_r2=cond.second_pass_avg_adj_r2
                        - uncond.second_pass_avg_adj_r2,
                        unconditional_significant=u_sig,
                        conditional_significant=c_sig,
                        significant_change=c_sig - u_sig,
                        unconditional_coins=len(uncond.fits),
                        conditional_coins=len(cond.fits),
                    )
                )
    return ComparisonReport(
        rows=rows,
        pairs=tuple(pairs),
        significance_z=options.significance_z,
        results=results,
    )
