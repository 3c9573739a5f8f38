"""The batched z-score kernel, the stacked OLS, the grouped second pass and
the vectorised generator against the per-row code they replaced
(tests/reference_kernels.py and tests/reference_rows.py). Agreement is
exact: equal bytes, which also separate -0.0 from 0.0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
import reference_rows as ref_rows
from coinfactors.econometrics import ols, ols_stack
from coinfactors.errors import RankDeficient
from coinfactors.panel import _COLUMNS, Panel, winsorized_zscores
from coinfactors.pipeline import STACK_DATES, second_pass
from coinfactors.synth import _ar1_paths, generate_synthetic, scenario, truth_to_json
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
    column, or all zeros), with a constant response (sst == 0) or with an
    exactly fitted one."""
    p = draw(st.integers(1, 5))
    n = draw(st.integers(p + 1, p + 25))
    B = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((B, n, p))
    y = rng.standard_normal((B, n))
    for b in range(B):
        kind = draw(st.sampled_from(["plain", "deficient", "constant", "exact"]))
        if kind == "deficient" and p > 1:
            X[b, :, -1] = 2.0 * X[b, :, 0]
        elif kind == "deficient":
            X[b] = 0.0
        elif kind == "constant":
            y[b] = 1.5
        elif kind == "exact":
            y[b] = X[b] @ rng.standard_normal(p)
    return X, y


def _fit_bytes(fit):
    return (
        fit.coefficients.tobytes(),
        fit.residuals.tobytes(),
        fit.stderr.tobytes(),
        repr((fit.r2, fit.adj_r2, fit.n_obs, fit.n_params)),
    )


@settings(max_examples=200, deadline=None)
@given(stack=design_stacks())
def test_ols_stack_equals_per_slice_ols(stack):
    X, y = stack
    fits = ols_stack(X, y)
    assert len(fits) == len(X)
    for b, fit in enumerate(fits):
        try:
            expected = ref.ols(X[b], y[b])
        except RankDeficient as exc:
            assert isinstance(fit, RankDeficient)
            assert fit.columns == exc.columns
            with pytest.raises(RankDeficient) as info:
                ols(X[b], y[b])
            assert info.value.columns == exc.columns
            continue
        assert _fit_bytes(fit) == _fit_bytes(expected)
        assert _fit_bytes(ols(X[b], y[b])) == _fit_bytes(expected)


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


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("anomalies", [("size", "liquidity", "momentum"), ("value",)])
def test_grouped_second_pass_equals_the_per_date_oracle(seed, anomalies):
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
    assert [f.date for f in new.fits] == [f.date for f in old.fits]
    for a, b in zip(new.fits, old.fits):
        assert a.n_coins == b.n_coins
        assert _fit_bytes(a.fit) == _fit_bytes(b.fit)
    assert repr(new.fm) == repr(old.fm)
    assert new.skipped == old.skipped
    reasons = {reason.split(":")[0] for _, reason in new.skipped}
    assert "below_floor" in reasons
    if "size" in anomalies:
        assert "rank_deficient" in reasons
    # some coin count fills more than one stack
    assert sum(f.n_coins == 30 for f in new.fits) > STACK_DATES


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
