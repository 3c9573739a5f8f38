"""Reparametrising a conditioning variable leaves the estimator's outputs
unchanged.

The conditional design holds f, f*u, f*r, f*c, f*u*c and f*r*c for each
factor value f and characteristic z-score c (the Ferson-Schadt form:
Ferson and Schadt, J. Finance 1996). Replacing the lagged uncertainty
level u by a*u + b (a != 0), the lagged Bitcoin return r by a*r + b, or one
characteristic's z by a*z + b maps each column into the span of the
unchanged design, and back. The column space stays the same, and with it
every coin's alpha, residuals, R* and R^2, and every second-pass output,
which reads only R* and the anomaly z-scores. Size enters the first pass
alone here: the spec's anomalies leave it out.

build_panel z-scores u over the whole sample, so u at t depends on
uncertainty data after t. This shows that no R* and no second-pass output
sees that standardisation beyond rounding; only the *.u loadings do.

Each compared array agrees to 1e-10 of its largest magnitude, NaN where
the other has NaN.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinfactors.condbeta import BetaSpec
from coinfactors.panel import characteristic_index
from coinfactors.pipeline import ModelSpec, run_model
from coinfactors.synth import generate_synthetic, scenario

SPEC = ModelSpec("ff3-c", "FF3", BetaSpec("conditional"),
                 anomalies=("liquidity", "momentum"))
RTOL = 1e-10


def _u(panel, a, b):
    return dataclasses.replace(panel, u=a * panel.u + b)


def _r(panel, a, b):
    return dataclasses.replace(panel, r_btc=a * panel.r_btc + b)


def _size(panel, a, b):
    z = panel.z.copy()
    z[characteristic_index("size")] = a * z[characteristic_index("size")] + b
    return dataclasses.replace(panel, z=z)


@functools.lru_cache(maxsize=None)
def _base():
    panel = generate_synthetic(scenario("B", n_coins=30, n_days=420, seed=5))[0]
    return panel, run_model(panel, SPEC)


def _assert_close(name, new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape, name
    assert (np.isnan(new) == np.isnan(old)).all(), name
    held = ~np.isnan(old)
    scale = np.abs(old[held]).max(initial=0.0)
    assert np.abs(new[held] - old[held]).max(initial=0.0) <= RTOL * scale, name


def _outputs(result):
    """Every output the reparametrisation must leave alone, as arrays."""
    fits = result.fits
    return {
        "alpha": [fit.coefficients[0] for fit in fits],
        "r2": [fit.r2 for fit in fits],
        "adj_r2": [fit.adj_r2 for fit in fits],
        "rstar": [fit.risk_adjusted for fit in fits],
        "cross_sections": result.cross_sections.coefficients,
        "cross_section_adj_r2": result.cross_sections.adj_r2,
        **{
            f"fm_{field}": [getattr(c, field) for c in result.fm.coefficients]
            for field in ("mean", "fm_se", "nw_se", "daily_significant_share")
        },
    }


@pytest.mark.parametrize("move", [_u, _r, _size], ids=["u", "r", "size"])
@settings(max_examples=10, deadline=None)
@given(a=st.one_of(st.floats(0.25, 4.0), st.floats(-4.0, -0.25)),
       b=st.floats(-2.0, 2.0))
@example(a=3.0, b=-0.5)
@example(a=0.5, b=0.01)
@example(a=2.0, b=1.0)
def test_affine_conditioning_variable_leaves_outputs_unchanged(move, a, b):
    panel, base = _base()
    result = run_model(move(panel, a, b), SPEC, base.factor_set)
    assert [fit.coin_id for fit in result.fits] == [fit.coin_id for fit in base.fits]
    assert result.dropped_coins == base.dropped_coins
    assert result.cross_sections.dates == base.cross_sections.dates
    assert result.skipped_dates == base.skipped_dates
    old = _outputs(base)
    for name, values in _outputs(result).items():
        _assert_close(name, values, old[name])
