"""The batched z-score kernel, the stacked OLS, the stacked first pass, the
stacked market factor, the grouped second pass and the vectorised generator
against the per-row code they replaced (tests/reference_kernels.py and
tests/reference_rows.py), and the StackFit of ols_stack against the
per-slice list it replaced (tests/reference_fits.py). Agreement is exact:
equal bytes, which also separate -0.0 from 0.0.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinfactors.panel
import reference_fits as ref_fits
import reference_kernels as ref
import reference_rows as ref_rows
from coinfactors.condbeta import (
    BetaSpec,
    FirstPassFit,
    first_pass,
    first_pass_stack,
    param_names,
)
from coinfactors.econometrics import ols, ols_stack
from coinfactors.errors import EstimationError, InsufficientObservations, RankDeficient
from coinfactors.factors import (
    FACTOR_MENU,
    FactorOptions,
    FactorSet,
    _sort_legs,
    build_factor_set,
)
from coinfactors.panel import _COLUMNS, STACK_CELLS, Panel, winsorized_zscores
from coinfactors.pipeline import second_pass
from coinfactors.synth import _ar1_paths, generate_synthetic, scenario, truth_to_json
from reference_fits import fitted_rows
from reference_rows import row_view

# numpy sums a contiguous row with eight accumulators up to 128 values and
# splits a longer one in half, so lengths near 8, 16 and 128 are where the
# summation order changes
ROW_LENGTHS = st.one_of(
    st.sampled_from([0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129]),
    st.integers(0, 60),
)
VALUES = st.floats(-1e6, 1e6, allow_nan=False)
WINSORS = st.one_of(
    st.sampled_from([(1.0, 99.0), (0.0, 100.0), (25.0, 75.0)]),
    st.tuples(st.floats(0, 100), st.floats(0, 100)).filter(lambda b: b[0] < b[1]),
)


@st.composite
def stacks(draw):
    """Rows of one length: free draws, draws from a small pool (ties at the
    percentiles), and all-equal rows, mixed in one stack."""
    n = draw(ROW_LENGTHS)
    pool = draw(st.lists(VALUES, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "ties", "flat"]))
        if kind == "free":
            rows.append(draw(st.lists(VALUES, min_size=n, max_size=n)))
        elif kind == "ties":
            rows.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        else:
            rows.append([pool[0]] * n)
    return np.array(rows, dtype=float).reshape(len(rows), n)


@settings(max_examples=300, deadline=None)
@given(x=stacks(), winsor=WINSORS)
def test_batched_zscores_equal_the_per_row_kernel(x, winsor):
    z = winsorized_zscores(x, *winsor)
    assert z.shape == x.shape
    for row, scores in zip(x, z):
        assert scores.tobytes() == ref.winsorized_zscores(row, *winsor).tobytes()
    if x.shape[0] == 1:
        assert winsorized_zscores(x[0], *winsor).tobytes() == z[0].tobytes()


def test_zscores_reduce_a_contiguous_row_whatever_the_input_layout():
    # a strided reduction would sum in another order; the kernel must copy
    # into a C-ordered buffer before it takes any mean
    x = np.random.default_rng(3).standard_normal((40, 37)) * 50
    expected = np.array([ref.winsorized_zscores(row) for row in x])
    wide = np.repeat(x, 2, axis=1)
    for view in (x, np.asfortranarray(x), x[::-1][::-1], wide[:, ::2], wide.T[::2].T):
        z = winsorized_zscores(view)
        assert z.flags.c_contiguous
        assert z.tobytes() == expected.tobytes()


@st.composite
def design_stacks(draw):
    """Equal-shape designs, each slice plain, rank-deficient (a repeated
    column, or all zeros), with a constant response (sst == 0), with an
    exactly fitted one, or with one near the top of the float range, whose
    fit overflows unless the slice is also rank-deficient."""
    p = draw(st.integers(1, 5))
    n = draw(st.integers(p + 1, p + 25))
    B = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((B, n, p))
    y = rng.standard_normal((B, n))
    for b in range(B):
        kind = draw(st.sampled_from(
            ["plain", "deficient", "constant", "exact", "overflow", "deficient overflow"]
        ))
        if "deficient" in kind and p > 1:
            X[b, :, -1] = 2.0 * X[b, :, 0]
        elif "deficient" in kind:
            X[b] = 0.0
        elif kind == "constant":
            y[b] = 1.5
        elif kind == "exact":
            y[b] = X[b] @ rng.standard_normal(p)
        if "overflow" in kind:
            y[b] *= 1e300
    return X, y


def _fit_bytes(fit):
    return (
        fit.coefficients.tobytes(),
        fit.residuals.tobytes(),
        fit.stderr.tobytes(),
        repr((fit.r2, fit.adj_r2, fit.n_obs, fit.n_params)),
    )


def _stack_outcome(fits):
    """Per slice: the RankDeficient columns, or the fit's bytes."""
    return [
        ("deficient", fit.columns) if isinstance(fit, RankDeficient) else _fit_bytes(fit)
        for fit in fits
    ]


def _stack_rows(stack, n, p):
    """A StackFit as _stack_outcome reads the per-slice fits."""
    return [
        ("deficient", stack.null_columns(b)) if stack.deficient[b] else (
            stack.coefficients[b].tobytes(),
            stack.residuals[b].tobytes(),
            stack.stderr[b].tobytes(),
            repr((float(stack.r2[b]), float(stack.adj_r2[b]), n, p)),
        )
        for b in range(len(stack.deficient))
    ]


@settings(max_examples=300, deadline=None)
@given(stack=design_stacks())
def test_ols_stack_equals_per_slice_ols(stack):
    X, y = stack
    B, n, p = X.shape
    try:
        expected = ref_fits.ols_stack(X, y)
    except EstimationError as exc:
        with pytest.raises(EstimationError) as info:
            ols_stack(X, y)
        assert str(info.value) == str(exc)
        return
    fit = ols_stack(X, y)
    assert fit.coefficients.shape == fit.stderr.shape == (B, p)
    assert fit.residuals.shape == (B, n)
    assert _stack_rows(fit, n, p) == _stack_outcome(expected)
    for b in range(B):
        try:
            lone = ref.ols(X[b], y[b])
        except RankDeficient as exc:
            assert fit.deficient[b] and fit.null_columns(b) == exc.columns
            with pytest.raises(RankDeficient) as info:
                ols(X[b], y[b])
            assert info.value.columns == exc.columns
            continue
        assert _fit_bytes(lone) == _stack_rows(fit, n, p)[b]
        assert _fit_bytes(ols(X[b], y[b])) == _fit_bytes(lone)


def _mixed_panel(seed):
    """A 30-coin panel whose dates hold 8 to 30 coins, mostly 30, with the
    size z-scores zeroed on every seventh date so that any design holding
    size is rank-deficient there."""
    panel, _ = generate_synthetic(scenario("B", 30, 240, seed))
    rng = np.random.default_rng(seed)
    counts = rng.choice([8, 12, 25, 29, 30], p=[0.1, 0.1, 0.1, 0.1, 0.6],
                        size=len(panel.dates))
    mask = np.zeros(panel.mask.shape, dtype=bool)
    mask[:, 0] = True
    for j, n in enumerate(counts[1:], start=1):
        mask[rng.choice(len(panel.coins), n, replace=False), j] = True
    z = panel.z.copy()
    z[0][:, ::7] = 0.0
    columns = {name: getattr(panel, name) for name in _COLUMNS}
    columns.update(mask=mask, z=z, u=np.array(panel.u), r_btc=np.array(panel.r_btc))
    mixed = Panel(coins=panel.coins, dates=panel.dates,
                  riskfree_mode=panel.riskfree_mode, **columns)
    rstar = np.where(mask, 0.01 * rng.standard_normal(mask.shape), np.nan)
    return mixed, rstar


SMALL_STACK_CELLS = 2**11


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("anomalies", [("size", "liquidity", "momentum"), ("value",)])
def test_grouped_second_pass_equals_the_per_date_oracle(monkeypatch, seed, anomalies):
    # a budget small enough that a stack holds 17 or 34 of these dates
    monkeypatch.setattr(coinfactors.panel, "STACK_CELLS", SMALL_STACK_CELLS)
    panel, rstar = _mixed_panel(seed)
    by_coin = {
        coin: {
            panel.dates[j]: float(rstar[i, j])
            for j in np.flatnonzero(~np.isnan(rstar[i])).tolist()
        }
        for i, coin in enumerate(panel.coins)
    }
    new = second_pass(rstar, panel, anomalies)
    old = ref_rows.second_pass(by_coin, row_view(panel), anomalies)
    assert fitted_rows(new.fits) == fitted_rows(old.fits)
    assert repr(new.fm) == repr(old.fm)
    assert new.skipped == old.skipped
    reasons = {reason.split(":")[0] for _, reason in new.skipped}
    assert "below_floor" in reasons
    if "size" in anomalies:
        assert "rank_deficient" in reasons
    # some coin count fills more than one stack
    per_stack = SMALL_STACK_CELLS // (30 * (1 + len(anomalies)))
    assert sum(f.n_coins == 30 for f in old.fits) > per_stack


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.95])
def test_ar1_paths_equal_the_scalar_recursion(phi):
    length = 300
    expected = [ref._ar1_path(np.random.default_rng(i), phi, length) for i in range(7)]
    draws = [np.random.default_rng(i).standard_normal(length) for i in range(7)]
    stacked = np.stack(draws)
    _ar1_paths(stacked, phi)
    assert stacked.tobytes() == np.stack(expected).tobytes()
    one = draws[0]
    assert _ar1_paths(one, phi) is one
    assert one.tobytes() == expected[0].tobytes()


@pytest.mark.parametrize("n_coins", [1, 3, 50])
@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_generate_synthetic_equals_the_per_coin_oracle(name, n_coins):
    cfg = scenario(name, n_coins, 200, seed=11)
    panel, truth = generate_synthetic(cfg)
    expected, expected_truth = ref.generate_synthetic(cfg)
    for column in _COLUMNS:
        assert getattr(panel, column).tobytes() == getattr(expected, column).tobytes(), column
    assert panel.coins == expected.coins and panel.dates == expected.dates
    assert truth_to_json(truth) == truth_to_json(expected_truth)


def _gapped_panel(kinds, gaps, seed, menu, drop_every=13, n_days=200):
    """A scenario-B panel with one coin per kind, on a factor set with menu's
    factors (drawn values) that drops every drop_every-th date. A "full"
    coin keeps every date; a "gap" coin loses gaps[i] = (start, length); a
    "short" coin keeps 20 dates, too few for any spec; a "flat" coin keeps
    every date with its uncertainty zeroed, so any conditional design of it
    is rank-deficient. The last coin must be full so that every date keeps
    an observation."""
    assert kinds[-1] == "full"
    panel, _ = generate_synthetic(scenario("B", len(kinds), n_days, seed))
    mask = np.ones(panel.mask.shape, dtype=bool)
    u = np.array(panel.u)
    for i, kind in enumerate(kinds):
        if kind == "gap":
            start, length = gaps[i]
            mask[i, start : start + length] = False
        elif kind == "short":
            mask[i, 20:] = False
        elif kind == "flat":
            u[i] = 0.0
    columns = {name: getattr(panel, name) for name in _COLUMNS}
    columns.update(mask=mask, u=u, r_btc=np.array(panel.r_btc))
    gapped = Panel(coins=panel.coins, dates=panel.dates,
                   riskfree_mode=panel.riskfree_mode, **columns)
    names = FACTOR_MENU[menu]
    values = 0.02 * np.random.default_rng(seed).standard_normal((len(panel.dates), len(names)))
    kept = np.ones(len(panel.dates), dtype=bool)
    if drop_every:
        kept[::drop_every] = False
    values[~kept] = np.nan
    return gapped, FactorSet(names, panel.dates, kept, values)


def _outcome(fit):
    if isinstance(fit, FirstPassFit):
        return (fit.coin_id, fit.param_names, fit.coefficients.tobytes(),
                fit.stderr.tobytes(), repr((fit.r2, fit.adj_r2, fit.n_obs, fit.n_params)),
                fit.risk_adjusted.tobytes(), fit.risk_adjusted.flags.writeable)
    return (type(fit).__name__, str(fit), getattr(fit, "columns", None))


def _fit_or_drop(fit_one, *args):
    try:
        return fit_one(*args)
    except (InsufficientObservations, RankDeficient) as exc:
        return exc


def _check_first_pass(panel, factor_set, spec, cells):
    """first_pass_stack under a budget of cells, and first_pass per coin,
    against the per-coin oracle; returns the stacked outcomes."""
    with mock.patch.object(coinfactors.panel, "STACK_CELLS", cells):
        stacked = first_pass_stack(panel, panel.coins, factor_set, spec)
        lone = [_fit_or_drop(first_pass, panel, c, factor_set, spec) for c in panel.coins]
    expected = [
        _outcome(_fit_or_drop(ref.first_pass, panel, c, factor_set, spec))
        for c in panel.coins
    ]
    assert [_outcome(f) for f in stacked] == expected
    assert [_outcome(f) for f in lone] == expected
    return stacked


SPEC_CHARACTERISTICS = st.sampled_from(
    [("size",), ("size", "momentum", "liquidity"), ("value", "liquidity")]
)


@st.composite
def first_pass_cases(draw):
    """Up to 8 coins of every kind, gaps of two lengths so that count groups
    form, any menu, beta mode and lagged return, and stack budgets from one
    coin per stack to the module's."""
    n_coins = draw(st.integers(2, 8))
    kinds = draw(st.lists(st.sampled_from(["full", "gap", "short", "flat"]),
                          min_size=n_coins - 1, max_size=n_coins - 1)) + ["full"]
    gaps = [(draw(st.integers(0, 170)), draw(st.sampled_from([1, 9]))) for _ in kinds]
    panel, factor_set = _gapped_panel(
        kinds, gaps, draw(st.integers(0, 2**16)), draw(st.sampled_from(["CAPM", "FF3", "ALL"])),
        drop_every=draw(st.sampled_from([0, 7, 13])),
    )
    spec = BetaSpec(draw(st.sampled_from(["unconditional", "conditional"])),
                    draw(SPEC_CHARACTERISTICS), draw(st.sampled_from(["btc", "own"])))
    return panel, factor_set, spec, draw(st.sampled_from([1, 2**10, 2**13, STACK_CELLS]))


@settings(max_examples=60, deadline=None)
@given(case=first_pass_cases())
def test_stacked_first_pass_equals_the_per_coin_oracle(case):
    _check_first_pass(*case)


@pytest.mark.parametrize("lagged_return", ["btc", "own"])
@pytest.mark.parametrize("mode", ["unconditional", "conditional"])
def test_stacked_first_pass_splits_groups_and_keeps_drops_in_place(mode, lagged_return):
    kinds = ["full", "flat", "full", "full", "gap", "gap", "short", "full"]
    # equal gaps clear of the dropped dates (multiples of 13): one group
    gaps = {4: (27, 9), 5: (79, 9)}
    panel, factor_set = _gapped_panel(kinds, gaps, seed=5, menu="FF3")
    spec = BetaSpec(mode, lagged_return=lagged_return)
    p = len(param_names(factor_set.names, spec))
    n_full = ref.first_pass(panel, panel.coins[0], factor_set, spec).n_obs
    # three coins a stack: the full-length coins take two stacks, with the
    # flat coin in the middle of the first
    for cells in (3 * n_full * p, STACK_CELLS):
        outcomes = _check_first_pass(panel, factor_set, spec, cells)
        assert isinstance(outcomes[6], InsufficientObservations)
        assert outcomes[6].available < 20
        if mode == "conditional":
            flat = outcomes[1]
            assert isinstance(flat, RankDeficient)
            assert str(flat) == f"rank-deficient design: coin {panel.coins[1]}"
            # the null direction loads on uncertainty columns alone
            assert flat.columns and all(c.endswith(".u") for c in flat.columns)
        else:
            assert isinstance(outcomes[1], FirstPassFit)
        n_obs = [f.n_obs for f in outcomes if isinstance(f, FirstPassFit)]
        assert n_obs.count(n_full) == (4 if mode == "conditional" else 5)
        assert n_obs[-3:-1] == [n_obs[-3]] * 2 and n_obs[-3] < n_full


@st.composite
def market_cases(draw):
    """A panel with holes, BTC among its coins or not, a date on which
    BTC is alone, the market with or without BTC, menus with the market
    first, last or alone, tied characteristic levels (rounded, 0.0 mixed
    with -0.0), min_sort_coins above some dates' coin counts, and stack
    budgets from one date per stack up."""
    # past 8 coins numpy sums a row with eight accumulators
    n_coins = draw(st.one_of(st.integers(2, 8), st.sampled_from([9, 17, 40])))
    panel, _ = generate_synthetic(scenario("A", n_coins, 200, draw(st.integers(0, 2**16))))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mask = rng.random(panel.mask.shape) < draw(st.sampled_from([0.4, 0.8, 1.0]))
    btc = draw(st.integers(-1, n_coins - 1))
    if btc >= 0 and draw(st.booleans()):
        col = draw(st.integers(0, len(panel.dates) - 1))
        mask[:, col] = False
        mask[btc, col] = True
    mask[rng.integers(n_coins), ~mask.any(axis=0)] = True
    mask[~mask.any(axis=1), 0] = True
    raw = np.array(panel.raw)
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        raw = np.round(raw, decimals)
        zeros = raw == 0.0
        raw[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    columns = {name: getattr(panel, name) for name in _COLUMNS}
    columns.update(mask=mask, raw=raw, u=np.array(panel.u), r_btc=np.array(panel.r_btc))
    holed = Panel(coins=panel.coins, dates=panel.dates,
                  riskfree_mode=panel.riskfree_mode, **columns)
    options = FactorOptions(
        min_sort_coins=draw(st.integers(1, n_coins + 1)),
        exclude_btc_from_market=draw(st.booleans()),
        btc_id=panel.coins[btc] if btc >= 0 else "BTC",
    )
    menu = draw(st.sampled_from(["CAPM", "FF3", "ALL", ("smb", "mkt"), ("liq", "mkt", "val")]))
    return holed, menu, options, draw(st.sampled_from([1, 16, STACK_CELLS]))


def _check_factor_set(panel, menu, options, cells):
    with mock.patch.object(coinfactors.panel, "STACK_CELLS", cells):
        new = build_factor_set(panel, menu, options)
    old = ref.build_factor_set(panel, menu, options)
    assert (new.names, new.dates, new.dropped) == (old.names, old.dates, old.dropped)
    assert new.mask.tobytes() == old.mask.tobytes()
    assert new.values.tobytes() == old.values.tobytes()
    return new


@settings(max_examples=100, deadline=None)
@given(case=market_cases())
def test_stacked_market_factor_equals_the_per_date_oracle(case):
    _check_factor_set(*case)


def test_stacked_leg_sort_equals_one_row_calls():
    # ties, 0.0 beside -0.0 and a row that is all one level
    rows = np.array([
        [0.5, -0.0, 2.0, 0.0, 0.5, -1.0, 0.0, 3.0, 0.5, -0.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    ])
    stacked = _sort_legs(rows)
    for row, legs in zip(rows, stacked):
        assert legs.tolist() == _sort_legs(row).tolist() == ref._sort_legs(row).tolist()
    assert stacked.tolist() == [[1, 0, 2, 0, 1, 0, 0, 2, 1, 0], [0] * 10]


def test_btc_only_date_drops_with_the_first_failing_factor():
    panel, _ = generate_synthetic(scenario("A", 6, 200, seed=4))
    mask = np.ones(panel.mask.shape, dtype=bool)
    mask[1:, 10] = False  # coin 0 alone on date 10
    mask[2, 20:30] = False
    columns = {name: getattr(panel, name) for name in _COLUMNS}
    columns.update(mask=mask, u=np.array(panel.u), r_btc=np.array(panel.r_btc))
    holed = Panel(coins=panel.coins, dates=panel.dates,
                  riskfree_mode=panel.riskfree_mode, **columns)
    options = FactorOptions(exclude_btc_from_market=True, btc_id=panel.coins[0])
    date = panel.dates[10].isoformat()
    for menu, reason in (
        ("CAPM", f"EmptyDate: no valid observations on {date}"),
        (("smb", "mkt"), f"TooFewCoins: 1 coins sortable on {date}, need 5"),
        (("mkt", "smb"), f"EmptyDate: no valid observations on {date}"),
    ):
        for cells in (1, 16, STACK_CELLS):
            factor_set = _check_factor_set(holed, menu, options, cells)
            assert factor_set.dropped == ((panel.dates[10], reason),)
