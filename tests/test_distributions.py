import math

import numpy as np
import pytest

from mutindep import distributions
from mutindep.distributions import (chi2_sf, chi2_sf_array, noncentral_chi2_sf,
                                    noncentral_chi2_sf_array)
from mutindep.mdi import noncentrality

import oracles


def test_sf_at_zero_is_one():
    for df in (1, 2, 5, 50, 200):
        assert chi2_sf(0.0, df) == 1.0


def test_sf_df2_closed_form():
    for x in (0.0, 0.5, 1.0, 3.7, 10.0, 60.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-14)


def test_standard_quantile():
    # 95th percentile of chi-squared with 1 df
    assert chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-4)


def test_sf_matches_series_cf_oracle():
    # every df an analysis of n <= 20 variables can produce, x up to 2000
    xs = np.concatenate([np.geomspace(1e-3, 20.0, 15), np.linspace(0.0, 2000.0, 101)])
    for df in list(range(1, 101)) + [120, 200]:
        for x in xs:
            expected = oracles.chi2_sf_oracle(x, df)
            got = chi2_sf(x, df)
            assert got == pytest.approx(expected, abs=1e-10)
            if expected > 1e-300:
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_sf_stays_finite_at_huge_statistics():
    # the sum is rescaled and e^-x/2 applied in logs, so neither overflows;
    # every tail here is below the smallest subnormal float
    for df in range(1, 101):
        for x in np.geomspace(1e5, 1e308, 30):
            assert chi2_sf(x, df) == 0.0
        assert noncentral_chi2_sf(1e300, df, 2.0) == 0.0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(-0.5, 3)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 2.5)
    for x in (math.inf, math.nan):
        with pytest.raises(ValueError):
            chi2_sf(x, 4)
    for lam in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noncentrality must be finite and nonnegative"):
            noncentral_chi2_sf(3.0, 3, lam)
        with pytest.raises(ValueError, match="noncentrality must be finite and nonnegative"):
            noncentral_chi2_sf_array([3.0, 1.0], 3, lam)


def test_array_tails_are_chi2_sf_bit_for_bit():
    # every df a test of n <= 20 variables has, at 0 and subnormal x, around
    # df and up to 1e300, where the sum is rescaled and the tail underflows;
    # past df 700 or so the sum is rescaled at x around df too
    rng = np.random.default_rng(20261020)
    for df in list(range(1, 101)) + [401, 1000, 2001]:
        xs = np.concatenate([[0.0, 5e-324, 1e-320, 1e-300], df * rng.uniform(0.0, 3.0, 40),
                             np.linspace(df - 3.0, df + 3.0, 14).clip(0.0),
                             np.geomspace(1e-3, 1e300, 60)])
        expected = np.array([chi2_sf(x, df) for x in xs.tolist()])
        got = chi2_sf_array(xs.reshape(2, -1), df)
        assert got.shape == (2, xs.size // 2)
        assert got.tobytes() == expected.tobytes()
        assert expected[0] == 1.0 and expected[-1] == 0.0
    assert chi2_sf_array(3.0, 4).shape == () and chi2_sf_array(3.0, 4) == chi2_sf(3.0, 4)
    assert chi2_sf_array([], 5).shape == (0,)


def test_array_tails_refuse_what_chi2_sf_refuses():
    for x, df in ((1.0, 0), (-0.5, 3), (1.0, 2.5), (math.inf, 4), (math.nan, 4)):
        with pytest.raises(ValueError) as scalar:
            chi2_sf(x, df)
        with pytest.raises(ValueError) as array:
            chi2_sf_array([[0.5, 2.0], [x, -1.0]], df)
        assert str(array.value) == str(scalar.value)
        with pytest.raises(ValueError) as noncentral:
            noncentral_chi2_sf_array([[0.5, 2.0], [x, -1.0]], df, 0.3)
        assert str(noncentral.value) == str(scalar.value)


def test_noncentral_reduces_to_central_at_zero():
    for df in (1, 3, 9, 40):
        for x in (0.0, 0.3, 2.0, 17.5, 80.0):
            assert noncentral_chi2_sf(x, df, 0.0) == pytest.approx(
                chi2_sf(x, df), abs=1e-12
            )


def test_noncentral_monotone_in_lambda():
    lams = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0]
    for df in (1, 3, 8):
        for x in (0.5, 3.0, 10.0):
            values = [noncentral_chi2_sf(x, df, lam) for lam in lams]
            assert all(b >= a for a, b in zip(values, values[1:]))


def test_noncentral_against_frozen_monte_carlo():
    # Oracle: 1e7 draws of (Z1 + sqrt(2))^2 + Z2^2 + Z3^2 (Philox seed
    # 20260809) gave P(X > 5) = 0.4066378 with 3 standard errors = 4.66e-4.
    assert noncentral_chi2_sf(5.0, 3, 2.0) == pytest.approx(0.4066378, abs=4.66e-4)


def test_noncentral_bounds():
    for lam in (1e-6, 0.2, 4.0, 30.0):
        for x in (0.0, 1.0, 25.0):
            v = noncentral_chi2_sf(x, 4, lam)
            assert 0.0 <= v <= 1.0
    assert noncentral_chi2_sf(0.0, 4, 3.0) == pytest.approx(1.0, abs=1e-12)


def _mixture_loop(x, df, lam):
    """The noncentral tail as one loop that recomputes each Poisson weight."""
    q = lam / 2.0
    log_q = math.log(q)
    acc = total = 0.0
    j = 0
    while total < 1.0 - 1e-12:
        weight = math.exp(-q + j * log_q - math.lgamma(j + 1))
        acc += weight * chi2_sf(x, df + 2 * j)
        total += weight
        j += 1
    return min(acc, 1.0)


def test_cached_weights_give_the_loop_bit_for_bit():
    # the recurrence from one central tail sums in another order than the
    # loop over independently evaluated tails, so the two agree to 1e-12
    # relative; a weight-cache hit must not move a single bit
    rng = np.random.default_rng(20260844)
    lams = [1e-6, 0.03, 0.2, 1.0, 4.0, 30.0]
    cases = [
        (x, df, lam)
        for lam in lams
        for df in (1, 4, 9, 36)
        for x in np.concatenate([[0.0], rng.exponential(df, size=5)])
    ]
    first = [noncentral_chi2_sf(*case) for case in cases]
    for case, value in zip(cases, first):
        assert value == pytest.approx(_mixture_loop(*case), rel=1e-12, abs=0.0)
    for _ in range(2):  # the second and third pass hit the weight cache
        assert [noncentral_chi2_sf(*case) for case in cases] == first


def test_log_ladder_cache_gives_the_uncached_recurrence():
    # a short mixture first, then a long one at the same df: a ladder cached
    # for the first must not cut the second short
    distributions._log_ladder.cache_clear()
    for df in (1, 6, 35):
        for lam in (0.01, 40.0, 0.01, 3.0):
            for x in (0.0, 0.7 * df, 3.0 * df):
                assert noncentral_chi2_sf(x, df, lam) == oracles.noncentral_recurrence(x, df, lam)


def test_noncentral_computes_one_central_tail(monkeypatch):
    calls = []

    def counted(x, df):
        calls.append(df)
        return chi2_sf(x, df)

    monkeypatch.setattr(distributions, "chi2_sf", counted)
    for lam in (0.0, 0.5, 30.0):
        calls.clear()
        noncentral_chi2_sf(7.5, 9, lam)
        assert calls == [9]


def test_noncentral_array_is_the_recurrence_bit_for_bit():
    # every members size of n <= 20 variables, at the noncentrality of the
    # smallest, a small, the usual and a huge sample count; from 0 and
    # subnormal statistics through ones around df + lambda to 1e300, where
    # every step of the ladder underflows
    rng = np.random.default_rng(20261022)
    for n in range(2, 21):
        for na in range(1, n):
            df = na * (n - na)
            for k in (n + 1, 50, 300, 10**6):
                lam = noncentrality(na, n - na, k)
                xs = np.concatenate([[0.0, 5e-324, 1e-300], (df + lam) * rng.uniform(0.0, 3.0, 6),
                                     [1e3, 1e300]])
                expected = [oracles.noncentral_recurrence(x, df, lam) for x in xs.tolist()]
                got = noncentral_chi2_sf_array(xs, df, lam)
                assert got.tobytes() == np.array(expected).tobytes(), (n, na, k)
    # statistics whose halves numpy's log rounds otherwise than math's does
    h = rng.uniform(0.0, 50.0, 200_000)
    xs = 2.0 * h[np.log(h) != np.array([math.log(v) for v in h.tolist()])]
    for df in (4, 9):
        expected = [oracles.noncentral_recurrence(x, df, 0.7) for x in xs.tolist()]
        assert noncentral_chi2_sf_array(xs, df, 0.7).tobytes() == np.array(expected).tobytes()


def test_noncentral_array_keeps_the_shape_and_is_central_at_zero():
    xs = np.array([[0.0, 5e-324, 2.5], [9.0, 40.0, 1e300]])
    got = noncentral_chi2_sf_array(xs, 9, 0.7)
    assert got.shape == (2, 3)
    assert got.tobytes() == np.array(
        [oracles.noncentral_recurrence(x, 9, 0.7) for x in xs.ravel().tolist()]).tobytes()
    assert noncentral_chi2_sf_array(2.5, 9, 0.7).shape == ()
    assert noncentral_chi2_sf_array(2.5, 9, 0.7) == noncentral_chi2_sf(2.5, 9, 0.7)
    assert noncentral_chi2_sf_array([], 9, 0.7).shape == (0,)
    assert noncentral_chi2_sf_array(np.empty((0, 4)), 9, 0.7).shape == (0, 4)
    for df in (1, 4, 9, 36):
        assert noncentral_chi2_sf_array(xs, df, 0.0).tobytes() == chi2_sf_array(xs, df).tobytes()
