import math

import numpy as np
import pytest

from mutindep import distributions
from mutindep.distributions import chi2_sf, noncentral_chi2_sf

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
    with pytest.raises(ValueError):
        noncentral_chi2_sf(1.0, 3, -0.1)


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


def _uncached_recurrence(x, df, lam):
    """noncentral_chi2_sf's recurrence with every weight, lgamma and log
    taken afresh in the loop."""
    q = lam / 2.0
    log_q = math.log(q)
    weights = []
    total = 0.0
    while total < 1.0 - 1e-12:
        weights.append(math.exp(-q + len(weights) * log_q - math.lgamma(len(weights) + 1)))
        total += weights[-1]
    sf = chi2_sf(x, df)
    h, a = x / 2.0, df / 2.0
    log_h = math.log(h) if h > 0.0 else -math.inf
    log_step = a * log_h - h - math.lgamma(a + 1.0)
    acc = 0.0
    for weight in weights:
        acc += weight * sf
        sf += math.exp(log_step)
        a += 1.0
        log_step += log_h - math.log(a)
    return min(acc, 1.0)


def test_log_ladder_cache_gives_the_uncached_recurrence():
    # a short mixture first, then a long one at the same df: a ladder cached
    # for the first must not cut the second short
    distributions._log_ladder.cache_clear()
    for df in (1, 6, 35):
        for lam in (0.01, 40.0, 0.01, 3.0):
            for x in (0.0, 0.7 * df, 3.0 * df):
                assert noncentral_chi2_sf(x, df, lam) == _uncached_recurrence(x, df, lam)


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
