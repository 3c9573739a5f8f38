"""The csv.writer versions of write_panel_csv, write_risk_adjusted_csv and
write_first_pass_params_csv, kept verbatim as the exact oracle for the
per-coin joined text that replaced them: the new writers must produce these
files byte for byte.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
from pathlib import Path
from typing import Sequence

import numpy as np

from coinfactors.condbeta import FirstPassFit
from coinfactors.panel import PANEL_HEADER, Panel


def write_panel_csv(panel: Panel, path: str | Path) -> None:
    """Serialize observations in (coin_id, date) order with repr round-trip
    float formatting."""
    days = [d.isoformat() for d in panel.dates]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PANEL_HEADER)
        for i, coin_id in enumerate(panel.coins):
            cols = np.flatnonzero(panel.mask[i])
            columns = [
                panel.ret[i, cols],
                panel.excess[i, cols],
                *panel.z[:, i, cols],
                *panel.raw[:, i, cols],
                panel.u[i, cols],
                panel.r_btc[i, cols],
            ]
            writer.writerows(
                zip(
                    itertools.repeat(coin_id),
                    [days[j] for j in cols.tolist()],
                    *(map(repr, c.tolist()) for c in columns),
                )
            )


def write_risk_adjusted_csv(
    fits: Sequence[FirstPassFit], dates: Sequence[dt.date], path: str | Path
) -> None:
    """coin_id,date,risk_adjusted for every fitted coin-day; dates is the
    axis of the fits' risk_adjusted rows."""
    days = [d.isoformat() for d in dates]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("coin_id", "date", "risk_adjusted"))
        for fit in sorted(fits, key=lambda f: f.coin_id):
            cols = np.flatnonzero(~np.isnan(fit.risk_adjusted))
            writer.writerows(
                zip(
                    itertools.repeat(fit.coin_id),
                    [days[j] for j in cols.tolist()],
                    map(repr, fit.risk_adjusted[cols].tolist()),
                )
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
