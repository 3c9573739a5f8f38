"""Two-pass orchestration: per-coin first-pass fits under a model spec,
daily cross-sections of risk-adjusted returns on anomaly characteristics,
Fama-MacBeth aggregation, and side-by-side model comparison.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .condbeta import (
    MIN_OBS_MARGIN,
    BetaSpec,
    FirstPassFit,
    first_pass,  # unused here; kept importable, perfbench/tracer.py wraps pipeline.first_pass
    first_pass_stack,
)
from .econometrics import (
    DEFAULT_RANK_TOLERANCE,
    SIGNIFICANCE_Z,
    FMSummary,
    fama_macbeth,
    ols,  # unused here; kept importable, perfbench/tracer.py wraps pipeline.ols
    ols_stack,
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
    stacks_by_count,
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
        for i, name in enumerate(self.anomalies):
            if name not in CHARACTERISTIC_NAMES:
                raise InvalidConfig(f"spec {self.label!r}: unknown anomaly {name!r}")
            if name in self.anomalies[:i]:
                raise InvalidConfig(f"spec {self.label!r}: anomaly {name!r} repeated")
        if self.riskfree_mode not in RISKFREE_MODES:
            raise InvalidConfig(
                f"spec {self.label!r}: unknown riskfree_mode {self.riskfree_mode!r}"
            )
        if not self.label:
            raise InvalidConfig("spec label must be non-empty")


@dataclass(frozen=True)
class PipelineOptions:
    """min_obs_margin must be at least 1; floor_base, significance_z and
    nw_lags (None: the Newey-West rule of thumb) must be non-negative; and
    rank_tolerance must lie in [0, 1). InvalidConfig otherwise."""

    min_obs_margin: int = MIN_OBS_MARGIN
    floor_base: int = FLOOR_BASE
    nw_lags: int | None = None
    significance_z: float = SIGNIFICANCE_Z
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE
    factor_options: FactorOptions = FactorOptions()

    def __post_init__(self):
        if self.min_obs_margin < 1:
            raise InvalidConfig(
                f"min_obs_margin {self.min_obs_margin} must be at least 1"
            )
        if self.floor_base < 0:
            raise InvalidConfig(f"floor_base {self.floor_base} must be non-negative")
        if not self.significance_z >= 0:
            raise InvalidConfig(
                f"significance_z {self.significance_z} must be non-negative"
            )
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
class CrossSections:
    """The fitted dates' regressions of risk-adjusted returns on [1 | Z],
    in date order: coefficients is (dates x (1 + |Z|)), c0 first, and
    adj_r2 holds one adjusted R^2 per date."""

    dates: tuple[dt.date, ...]
    coefficients: np.ndarray
    adj_r2: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class SecondPassResult:
    fits: CrossSections
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
    z-scores), are skipped and recorded in date order. Requires at least 2
    surviving dates. Dates with the same coin count are fitted in stacks
    (panel.stacks_by_count), each fit the same as a lone ols call, into one
    (dates x (1 + |Z|)) grid each of coefficients and standard errors.
    """
    anomalies = tuple(anomalies)
    floor = cross_section_floor(len(anomalies), floor_base)
    chars = [characteristic_index(a) for a in anomalies]
    if rstar.shape != panel.mask.shape:
        raise InvalidConfig(f"R* grid has shape {rstar.shape}, not {panel.mask.shape}")
    held = ~np.isnan(rstar)
    dated = np.flatnonzero(held.any(axis=0))
    held &= panel.mask

    width = 1 + len(chars)
    coefs, ses = np.empty((2, rstar.shape[1], width))  # one row per date
    adj_r2 = np.empty(rstar.shape[1])
    why = np.full(rstar.shape[1], "", dtype=object)  # why a date is skipped
    for n, cols, rows in stacks_by_count(held, dated, width=width):
        if n < floor:
            why[cols] = f"below_floor:{n}<{floor}"
            continue
        at = (rows, cols[:, None])
        X = np.empty((cols.size, n, width))
        X[..., 0] = 1.0
        for k, m in enumerate(chars, start=1):
            X[..., k] = panel.z[m][at]
        fit = ols_stack(X, rstar[at], rank_tolerance=rank_tolerance)
        coefs[cols] = fit.coefficients
        ses[cols] = fit.stderr
        adj_r2[cols] = fit.adj_r2
        for b in np.flatnonzero(fit.deficient).tolist():
            why[cols[b]] = f"rank_deficient:{fit.null_columns(b)}"

    kept = dated[why[dated] == ""]
    if kept.size < 2:
        raise NoEligibleDates(
            f"{kept.size} eligible dates after floor {floor}, need at least 2"
        )
    fits = CrossSections(
        tuple(panel.dates[j] for j in kept.tolist()), coefs[kept], adj_r2[kept]
    )
    fm = fama_macbeth(
        fits.coefficients, ses[kept], fits.adj_r2, ("c0",) + anomalies,
        nw_lags=nw_lags, significance_z=significance_z,
    )
    skipped = tuple((panel.dates[j], why[j]) for j in dated.tolist() if why[j])
    return SecondPassResult(fits=fits, fm=fm, skipped=skipped)


@dataclass(frozen=True)
class ModelResult:
    spec: ModelSpec
    factor_set: FactorSet
    fits: tuple[FirstPassFit, ...]
    cross_sections: CrossSections
    fm: FMSummary
    first_pass_avg_adj_r2: float
    dropped_coins: tuple[Drop, ...]
    skipped_dates: tuple[tuple[dt.date, str], ...]

    @property
    def second_pass_avg_adj_r2(self) -> float:
        return self.fm.avg_adj_r2

    def anomaly_summaries(self):
        return tuple(c for c in self.fm.coefficients if c.name != "c0")

    def without_risk_adjusted(self) -> ModelResult:
        """This result with every fit's risk_adjusted row dropped (None):
        what a run keeps of a model once its files are written."""
        fits = tuple(dataclasses.replace(f, risk_adjusted=None) for f in self.fits)
        return dataclasses.replace(self, fits=fits)


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
    fit_models passes the set it built once for the spec's menu.
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

    try:
        outcomes = first_pass_stack(
            panel,
            panel.coins,
            factor_set,
            spec.beta,
            min_obs_margin=options.min_obs_margin,
            rank_tolerance=options.rank_tolerance,
        )
    except CoinFactorsError as exc:
        raise StageError(spec.label, "first_pass", exc) from exc
    fits = []
    dropped = []
    rstar = np.full(panel.mask.shape, np.nan)
    for row, (coin_id, fit) in enumerate(zip(panel.coins, outcomes)):
        if isinstance(fit, InsufficientObservations):
            dropped.append(Drop(coin_id, None, f"insufficient_observations: {fit}"))
        elif isinstance(fit, RankDeficient):
            dropped.append(Drop(coin_id, None, f"rank_deficient: {fit}"))
        else:
            fits.append(fit)
            rstar[row] = fit.risk_adjusted
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
class ComparisonReport:
    """Each spec's result by label, in label order, and the pairs that
    comparison_report made as (unconditional label, conditional label)."""

    results: Mapping[str, ModelResult]
    pairs: tuple[tuple[str, str], ...]
    significance_z: float


def fit_models(
    panels: Mapping[str, Panel],
    specs: Sequence[ModelSpec],
    options: PipelineOptions = PipelineOptions(),
) -> Iterator[ModelResult]:
    """Each spec's ModelResult in label order, fitted as it is asked for.

    panels maps each risk-free mode to its Panel. Each factor menu is built
    once per panel, by the first spec in label order that uses it, and
    shared by the rest. An empty spec list or a repeated label raises
    before the first fit.
    """
    if not specs:
        raise InvalidConfig("no specs given")
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise InvalidConfig(f"duplicate spec labels: {sorted(labels)}")
    factor_sets: dict[tuple[tuple[str, ...], str], FactorSet] = {}
    for spec in sorted(specs, key=lambda s: s.label):
        panel = panels.get(spec.riskfree_mode)
        if panel is None:
            raise InvalidConfig(
                f"spec {spec.label!r} needs a panel with riskfree_mode "
                f"{spec.riskfree_mode!r}"
            )
        key = (resolve_factor_names(spec.factors), spec.riskfree_mode)
        if key not in factor_sets:
            factor_sets[key] = _build_factors(panel, spec, options)
        yield run_model(panel, spec, factor_sets[key], options)


def comparison_report(
    results: Mapping[str, ModelResult], significance_z: float = SIGNIFICANCE_Z
) -> ComparisonReport:
    """The ComparisonReport of results by label, in label order, pairing
    each conditional spec with every unconditional spec sharing its factor
    menu, anomaly list, and risk-free mode."""
    groups: dict[tuple, dict[str, list[str]]] = {}
    for label, result in results.items():
        key = (result.spec.factors, result.spec.anomalies, result.spec.riskfree_mode)
        groups.setdefault(key, {}).setdefault(result.spec.beta.mode, []).append(label)
    pairs = [
        (uncond, cond)
        for key in sorted(groups, key=repr)
        for uncond in groups[key].get("unconditional", [])
        for cond in groups[key].get("conditional", [])
    ]
    return ComparisonReport(results, tuple(pairs), significance_z)


def compare_models(
    panels: Mapping[str, Panel],
    specs: Sequence[ModelSpec],
    options: PipelineOptions = PipelineOptions(),
) -> ComparisonReport:
    """Run every spec through fit_models and keep every result whole, R*
    rows included, in one comparison_report."""
    results = {r.spec.label: r for r in fit_models(panels, specs, options)}
    return comparison_report(results, options.significance_z)
