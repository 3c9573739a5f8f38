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

from .econometrics import ols
from .factors import FactorSet
from .panel import (
    Panel,
    build_panel,
    read_panel_csv,
    winsorized_zscores,
    write_panel_csv,
)
from .pipeline import ModelResult, compare_models, run_model

__all__ = [
    "__version__",
    "FactorSet",
    "ModelResult",
    "Panel",
    "build_panel",
    "compare_models",
    "ols",
    "read_panel_csv",
    "run_model",
    "winsorized_zscores",
    "write_panel_csv",
]
