"""Two-pass factor pricing for cryptocurrency panels, with betas that move
with market uncertainty, lagged Bitcoin returns, and coin characteristics.

The workflow: ingest raw per-coin market files into a daily panel of excess
returns and standardized characteristics, build factor series from sorted
portfolios, estimate per-coin time-series regressions whose factor loadings
interact with conditioning state, then run daily cross-sections of the
risk-adjusted returns on anomaly characteristics and aggregate them with
Fama-MacBeth and Newey-West statistics. A synthetic generator with known
coefficients backs the test suite end to end.
"""

__version__ = "0.1.0"

from .condbeta import (
    BetaSpec,
    FirstPassFit,
    build_design_matrix,
    first_pass,
    param_names,
)
from .econometrics import (
    FMSummary,
    OlsFit,
    fama_macbeth,
    newey_west_lag,
    newey_west_se,
    ols,
)
from .errors import (
    CoinFactorsError,
    EstimationError,
    InvalidConfig,
    ValidationError,
)
from .factors import (
    FACTOR_MENU,
    FactorOptions,
    FactorSet,
    build_factor_set,
    long_short_factor,
    market_factor,
    resolve_factor_names,
    sort_portfolios,
)
from .ingest import (
    CoinSeries,
    DailyBar,
    UniverseConfig,
    filter_universe,
    load_coin_dir,
    parse_epu_csv,
    parse_market_csv,
    parse_riskfree_csv,
)
from .panel import (
    CharacteristicWindows,
    Panel,
    PanelOptions,
    build_panel,
    compute_characteristics,
    compute_returns,
    daily_riskfree,
    read_panel_csv,
    winsorized_zscores,
    write_panel_csv,
)
from .pipeline import (
    ComparisonReport,
    ModelResult,
    ModelSpec,
    PipelineOptions,
    compare_models,
    run_model,
    second_pass,
    significant_anomaly_count,
)
from .synth import (
    GroundTruth,
    SynthConfig,
    generate_synthetic,
    scenario,
    verify_recovery,
)

__all__ = [
    "__version__",
    "BetaSpec",
    "CharacteristicWindows",
    "CoinFactorsError",
    "CoinSeries",
    "ComparisonReport",
    "DailyBar",
    "EstimationError",
    "FACTOR_MENU",
    "FMSummary",
    "FactorOptions",
    "FactorSet",
    "FirstPassFit",
    "GroundTruth",
    "InvalidConfig",
    "ModelResult",
    "ModelSpec",
    "OlsFit",
    "Panel",
    "PanelOptions",
    "PipelineOptions",
    "SynthConfig",
    "UniverseConfig",
    "ValidationError",
    "build_design_matrix",
    "build_factor_set",
    "build_panel",
    "compare_models",
    "compute_characteristics",
    "compute_returns",
    "daily_riskfree",
    "fama_macbeth",
    "filter_universe",
    "first_pass",
    "generate_synthetic",
    "load_coin_dir",
    "long_short_factor",
    "market_factor",
    "newey_west_lag",
    "newey_west_se",
    "ols",
    "param_names",
    "parse_epu_csv",
    "parse_market_csv",
    "parse_riskfree_csv",
    "read_panel_csv",
    "resolve_factor_names",
    "run_model",
    "scenario",
    "second_pass",
    "significant_anomaly_count",
    "sort_portfolios",
    "verify_recovery",
    "winsorized_zscores",
    "write_panel_csv",
]
