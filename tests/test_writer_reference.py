"""write_panel_csv, write_risk_adjusted_csv and write_first_pass_params_csv
against the csv.writer loops they replaced (tests/reference_writers.py): the
files must be byte-identical for any coin ids, any float values and any
mask, a coin with no kept day and an all-NaN fit included."""

import datetime as dt
import types

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_writers as ref
from coinfactors.condbeta import (
    BetaSpec,
    FirstPassFit,
    param_names,
    write_first_pass_params_csv,
    write_risk_adjusted_csv,
)
from coinfactors.panel import CHARACTERISTIC_NAMES, write_panel_csv

D0 = dt.date(2020, 12, 30)
# characters csv.writer quotes or must keep apart, and the empty id
IDS = st.one_of(
    st.sampled_from(["", " A", "a,b", 'q"t', "cr\rlf", "n\nl", '"', "BTC"]),
    st.text(st.one_of(st.sampled_from(',"\r\n \t'), st.characters(
        blacklist_categories=("Cs",))), max_size=6),
)
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
                     -1e308, 0.1, np.nan, np.inf, -np.inf]),
    st.floats(),
)
SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _grid(draw, shape):
    return np.array(draw(st.lists(VALUES, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


@st.composite
def panels(draw):
    """A stand-in with the Panel fields write_panel_csv reads, u and r_btc
    one value per date; unlike a Panel it may hold a coin with no kept
    day."""
    coins = draw(st.lists(IDS, max_size=4, unique=True))
    n_dates = draw(st.integers(1, 4))
    shape = (len(coins), n_dates)
    chars = (len(CHARACTERISTIC_NAMES),) + shape
    mask = np.array(draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)
    return types.SimpleNamespace(
        coins=tuple(coins),
        dates=tuple(D0 + dt.timedelta(days=j) for j in range(n_dates)),
        mask=mask,
        ret=_grid(draw, shape), excess=_grid(draw, shape),
        z=_grid(draw, chars), raw=_grid(draw, chars),
        u=_grid(draw, (n_dates,)), r_btc=_grid(draw, (n_dates,)),
    )


@SETTINGS
@given(panel=panels())
def test_write_panel_csv_matches_csv_writer(tmp_path, panel):
    write_panel_csv(panel, tmp_path / "new.csv")
    ref.write_panel_csv(panel, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@st.composite
def fits(draw):
    n_dates = draw(st.integers(1, 4))
    dates = tuple(D0 + dt.timedelta(days=j) for j in range(n_dates))
    out = []
    for coin_id in draw(st.lists(IDS, max_size=4)):
        # NaN marks a date off the fit; an all-NaN row is a fit with no day
        row = np.array(draw(st.lists(VALUES, min_size=n_dates, max_size=n_dates)))
        row.flags.writeable = False
        out.append(FirstPassFit(coin_id, ("alpha",), np.zeros(1), np.zeros(1),
                                0.0, 0.0, 0, 1, row))
    if draw(st.booleans()):
        out.append(FirstPassFit("EMPTY", ("alpha",), np.zeros(1), np.zeros(1),
                                0.0, 0.0, 0, 1, np.full(n_dates, np.nan)))
    return out, dates


@SETTINGS
@given(drawn=fits())
def test_write_risk_adjusted_csv_matches_csv_writer(tmp_path, drawn):
    fit_list, dates = drawn
    write_risk_adjusted_csv(fit_list, dates, tmp_path / "new.csv")
    ref.write_risk_adjusted_csv(fit_list, dates, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# unconditional CAPM up to conditional ALL: 2 to 61 names per coin
NAME_SETS = [
    param_names(factors, BetaSpec(mode, characteristics))
    for factors in (("mkt",), ("mkt", "smb", "val"), ("mkt", "smb", "val", "mom", "liq"))
    for mode, characteristics in (
        ("unconditional", ()), ("conditional", ("size",)),
        ("conditional", ("size", "momentum", "liquidity")),
    )
]


@st.composite
def param_fits(draw):
    names = draw(st.sampled_from(NAME_SETS))
    out = []
    for coin_id in draw(st.lists(IDS, max_size=4)):
        coefficients, stderr = (
            np.array(draw(st.lists(VALUES, min_size=len(names), max_size=len(names))))
            for _ in range(2)
        )
        out.append(FirstPassFit(coin_id, names, coefficients, stderr,
                                0.0, 0.0, 0, len(names), np.zeros(1)))
    return out


@SETTINGS
@given(fit_list=param_fits())
def test_write_first_pass_params_csv_matches_csv_writer(tmp_path, fit_list):
    write_first_pass_params_csv(fit_list, tmp_path / "new.csv")
    ref.write_first_pass_params_csv(fit_list, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
