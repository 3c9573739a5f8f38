import datetime as dt
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinfactors
import reference_fits as ref_fits

from coinfactors.econometrics import (
    OlsFit,
    fama_macbeth,
    newey_west_lag,
    newey_west_se,
    ols,
)
from coinfactors.errors import (
    EstimationError,
    RankDeficient,
    SeriesTooShort,
    TooFewDates,
    TooFewObservations,
)
from oracle_compare import assert_same

# Frozen with mpmath at 50 digits: solve the normal equations for
# X = [[1,0],[1,1],[1,2]], y = [1,1,2].
HAND_COEF = (0.8333333333333334, 0.5)
HAND_RESID = (0.16666666666666666, -0.3333333333333333, 0.16666666666666666)
HAND_STDERR = (0.37267799624996495, 0.28867513459481287)
HAND_R2 = 0.75
HAND_ADJ_R2 = 0.5


def test_ols_exact_linear_data():
    X = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    y = np.array([2.0, 4.0, 6.0])
    fit = ols(X, y)
    assert np.allclose(fit.coefficients, [0.0, 2.0], atol=1e-12)
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)
    assert fit.adj_r2 == pytest.approx(1.0, abs=1e-12)


def test_ols_intercept_only_is_mean():
    y = np.array([1.0, 2.0, 4.0, 9.0])
    fit = ols(np.ones((4, 1)), y)
    assert fit.coefficients[0] == pytest.approx(y.mean(), rel=1e-14)


def test_ols_hand_normal_equations():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([1.0, 1.0, 2.0])
    fit = ols(X, y)
    assert np.allclose(fit.coefficients, HAND_COEF, rtol=1e-12)
    assert np.allclose(fit.residuals, HAND_RESID, rtol=1e-12)
    assert np.allclose(fit.stderr, HAND_STDERR, rtol=1e-12)
    assert fit.r2 == pytest.approx(HAND_R2, rel=1e-12)
    assert fit.adj_r2 == pytest.approx(HAND_ADJ_R2, rel=1e-12)
    assert fit.n_obs == 3 and fit.n_params == 2


def test_ols_rank_deficient_names_columns():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(12)
    X = np.column_stack([np.ones(12), x, 2.0 * x])
    with pytest.raises(RankDeficient) as info:
        ols(X, rng.standard_normal(12))
    assert set(info.value.columns) == {1, 2}


def test_ols_too_few_observations():
    with pytest.raises(TooFewObservations):
        ols(np.ones((2, 2)), np.array([1.0, 2.0]))


@pytest.mark.parametrize("X", [np.arange(5.0), np.arange(5.0).reshape(1, 5)])
def test_ols_one_row_design_is_not_transposed(X):
    # a (1, n) design (or a flat one) with n responses is one observation of
    # n regressors, a length mismatch, never n observations of one regressor
    with pytest.raises(ValueError, match="response length"):
        ols(X, np.arange(5.0))


def test_ols_rejects_nonfinite():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, np.nan]])
    with pytest.raises(ValueError):
        ols(X, np.array([1.0, 2.0, 3.0]))


def test_ols_rejects_overflowed_fit():
    # finite inputs whose sums leave the float range
    X = np.column_stack([np.ones(400), np.arange(400.0)])
    with pytest.raises(EstimationError, match="not finite"):
        ols(X, np.full(400, 1.5e308))
    # finite coefficients and residuals whose sums of squares overflow
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(400), rng.standard_normal((400, 3))])
    with pytest.raises(EstimationError, match="not finite"):
        ols(X, rng.standard_normal(400) * 1e200)


def test_ols_residuals_orthogonal_seeded_loop():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        p = int(rng.integers(1, 5))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))]) \
            if p > 1 else np.ones((n, 1))
        y = rng.standard_normal(n)
        fit = ols(X, y)
        assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8 * n


def test_ols_nesting_never_decreases_r2():
    # Projection onto a superset of columns cannot raise squared error.
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(8, 30))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = rng.standard_normal(n)
        small = ols(X[:, :2], y)
        big = ols(X, y)
        assert big.r2 >= small.r2 - 1e-12


def test_newey_west_lag_rule():
    # floor(4 * (T/100)^(2/9)) frozen at a few sample lengths
    assert newey_west_lag(2) == 1
    assert newey_west_lag(50) == 3
    assert newey_west_lag(100) == 4
    assert newey_west_lag(300) == 5
    assert newey_west_lag(729) == 6
    assert newey_west_lag(1000) == 6
    # with no lags given, newey_west_se takes the rule's
    x = np.random.default_rng(5).standard_normal(250)
    assert newey_west_lag(250) == 4
    assert newey_west_se(x) == newey_west_se(x, newey_west_lag(250))


def test_newey_west_lag0_equals_fm_se():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(int(rng.integers(5, 200)))
        fm = x.std(ddof=1) / np.sqrt(len(x))
        assert newey_west_se(x, lags=0) == pytest.approx(fm, rel=1e-12)


def test_newey_west_constant_series_zero():
    assert newey_west_se(np.full(10, 0.5), lags=2) == 0.0


def test_newey_west_iid_close_to_fm_on_average():
    # White noise: HAC correction should be neutral on average.
    ratios = []
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.standard_normal(80)
        fm = x.std(ddof=1) / np.sqrt(len(x))
        ratios.append(newey_west_se(x, lags=5) / fm)
    assert 0.8 < np.mean(ratios) < 1.2


def test_newey_west_series_too_short():
    with pytest.raises(SeriesTooShort):
        newey_west_se(np.array([1.0]), lags=0)
    with pytest.raises(SeriesTooShort):
        newey_west_se(np.array([1.0, 2.0, 3.0]), lags=3)


def _daily(series_by_name, ses=None, adj_r2=0.0):
    """The (dates x names) coefficient and stderr grids and the adj R^2 row
    of one fit per date; every stderr is 1 unless ses gives one per name."""
    names = tuple(series_by_name)
    coefs = np.array([series_by_name[n] for n in names], dtype=float).T.copy()
    stderr = np.ones(coefs.shape) if ses is None else np.tile(ses, (len(coefs), 1))
    return (coefs, stderr, np.full(len(coefs), adj_r2)), names


def _date_fits(coefs, ses, adj_r2):
    """The same fits as the oracle's {date: OlsFit} mapping."""
    return {
        dt.date(2021, 1, 1) + dt.timedelta(days=t): OlsFit(
            coefficients=c, residuals=np.zeros(c.size + 1), stderr=s,
            r2=0.0, adj_r2=a, n_obs=c.size + 1, n_params=c.size,
        )
        for t, (c, s, a) in enumerate(zip(coefs, ses, adj_r2.tolist()))
    }


@st.composite
def fm_grids(draw):
    """Per-date fits: free coefficients, a constant or all-zero series in
    some columns, and zero standard errors on some dates."""
    T = draw(st.sampled_from([2, 3, 8, 9, 16, 17, 40, 129]))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coefs = rng.standard_normal((T, k))
    ses = rng.uniform(0.1, 2.0, (T, k))
    for i in range(k):
        kind = draw(st.sampled_from(["free", "constant", "zero"]))
        if kind != "free":
            coefs[:, i] = 0.0 if kind == "zero" else 0.7
    ses[rng.random(T) < draw(st.sampled_from([0.0, 0.3])), :] = 0.0
    adj_r2 = rng.uniform(-0.5, 1.0, T)
    return coefs, ses, adj_r2, draw(st.sampled_from([None, 0, 1, 3]))


@settings(max_examples=200, deadline=None)
@given(grids=fm_grids())
def test_fama_macbeth_equals_the_date_keyed_oracle(grids):
    coefs, ses, adj_r2, lags = grids
    names = tuple(f"c{i}" for i in range(coefs.shape[1]))
    try:
        expected = ref_fits.fama_macbeth(_date_fits(coefs, ses, adj_r2), names, lags)
    except Exception as exc:  # SeriesTooShort when lags reach T
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fama_macbeth(coefs, ses, adj_r2, names, lags)
        return
    assert_same(fama_macbeth(coefs, ses, adj_r2, names, lags), expected, "fm")


def test_fama_macbeth_two_point_hand_values():
    fits, names = _daily({"c0": [1.0, 3.0]}, adj_r2=0.25)
    summary = fama_macbeth(*fits, names, nw_lags=0)
    c = summary.coefficient("c0")
    assert c.mean == pytest.approx(2.0, abs=1e-15)
    assert c.fm_se == pytest.approx(1.0, rel=1e-14)
    assert c.fm_t == pytest.approx(2.0, rel=1e-14)
    assert c.nw_se == pytest.approx(1.0, rel=1e-14)  # lag 0 reduction
    assert c.nw_t == pytest.approx(2.0, rel=1e-14)
    assert not c.degenerate
    assert summary.avg_adj_r2 == pytest.approx(0.25, abs=1e-15)
    assert summary.n_dates == 2


def test_fama_macbeth_constant_series_flagged():
    fits, names = _daily({"c0": [0.5, 0.5, 0.5]})
    c = fama_macbeth(*fits, names).coefficient("c0")
    assert c.mean == pytest.approx(0.5)
    assert c.fm_se == 0.0
    assert c.degenerate
    assert not np.isfinite(c.fm_t)


def test_fama_macbeth_symmetric_mean_zero():
    fits, names = _daily({"c0": [-0.3, 0.3, -0.3, 0.3]})
    c = fama_macbeth(*fits, names, nw_lags=0).coefficient("c0")
    assert c.mean == pytest.approx(0.0, abs=1e-18)
    assert c.fm_t == pytest.approx(0.0, abs=1e-18)


def test_fama_macbeth_requires_two_dates():
    fits, names = _daily({"c0": [1.0]})
    with pytest.raises(TooFewDates):
        fama_macbeth(*fits, names)


def test_bad_arguments_raise_value_error():
    fits, _ = _daily({"c0": [1.0, 2.0, 3.0], "c1": [0.5, 0.1, 0.2]})
    with pytest.raises(ValueError, match="^2 coefficients per date, 1 names given$"):
        fama_macbeth(*fits, ["c0"])
    with pytest.raises(ValueError, match="^lags must be >= 0$"):
        newey_west_se(np.arange(10.0), -1)


def test_fama_macbeth_mean_is_numpy_mean_exactly():
    rng = np.random.default_rng(3)
    series = rng.standard_normal(257)
    fits, names = _daily({"c0": series})
    c = fama_macbeth(*fits, names).coefficient("c0")
    # Pairwise summation both sides: bit-identical.
    assert c.mean == np.mean(series)


def test_fama_macbeth_daily_significant_share():
    # |coef/se| with se=1: significant iff |coef| > 1.96
    fits, names = _daily({"c0": [0.5, 2.5, -3.0, 0.1]})
    c = fama_macbeth(*fits, names, nw_lags=0).coefficient("c0")
    assert c.daily_significant_share == pytest.approx(0.5)


def test_fama_macbeth_multiple_names_align():
    fits, names = _daily({"c0": [1.0, 2.0], "c_size": [3.0, 5.0]})
    summary = fama_macbeth(*fits, names, nw_lags=0)
    assert summary.coefficient("c0").mean == pytest.approx(1.5)
    assert summary.coefficient("c_size").mean == pytest.approx(4.0)
    with pytest.raises(KeyError):
        summary.coefficient("nope")


def test_fama_macbeth_zero_stderr_share():
    # a date with stderr 0 counts as significant only when its coefficient
    # is nonzero: 0/0 is not evidence, 0.4/0 is an infinite t
    fits, names = _daily({"c0": [0.0, 0.0, 0.0, 0.0]}, ses=[0.0])
    c = fama_macbeth(*fits, names, nw_lags=0).coefficient("c0")
    assert c.daily_significant_share == 0.0
    fits, names = _daily({"c0": [0.4, -0.4, 0.0, 0.1]}, ses=[0.0])
    c = fama_macbeth(*fits, names, nw_lags=0).coefficient("c0")
    assert c.daily_significant_share == pytest.approx(0.75)


def test_negative_rank_tolerance_option_rejected_before_ols():
    # with a tolerance below zero the rank check never fires, so a design
    # with a duplicated column would come back with huge coefficients
    from coinfactors.errors import InvalidConfig
    from coinfactors.pipeline import PipelineOptions

    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    X = np.column_stack([np.ones(50), x, x])
    with pytest.raises(RankDeficient):
        ols(X, rng.normal(size=50), rank_tolerance=PipelineOptions().rank_tolerance)
    with pytest.raises(InvalidConfig, match="rank_tolerance"):
        PipelineOptions(rank_tolerance=-1.0)


_BLAS_PROBE = """
import hashlib
import numpy as np
from coinfactors.econometrics import ols_stack
rng = np.random.default_rng(61)
X = rng.standard_normal((1, 364, 61))  # the width of an ALL-conditional design
y = rng.standard_normal((1, 364))
fit = ols_stack(X, y)
print(hashlib.sha256(fit.coefficients.tobytes() + fit.residuals.tobytes()).hexdigest())
"""


def _probe_digest(threads):
    """The digest of a seeded wide ols_stack fit, in a fresh interpreter
    whose BLAS runs on the given number of threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = str(Path(coinfactors.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True,
        encoding="utf-8", check=True, timeout=120,
    )
    return done.stdout.strip()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
@pytest.mark.xfail(
    strict=False,
    reason="ROADMAP item 3: LAPACK gesdd's U depends on the BLAS thread count "
    "at 364 x 61, so a wide fit's bytes do too",
)
def test_wide_ols_stack_bytes_do_not_depend_on_blas_threads():
    # at most 2 threads: this checks that a fit depends only on X and y
    one = _probe_digest(1)
    assert one == _probe_digest(1)
    assert _probe_digest(2) == one
