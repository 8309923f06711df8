import math
import os
import subprocess
import sys

import mpmath
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


def test_the_domain_is_refused_at_its_limits():
    # df up to 10^5, whose slowest tail ends in well under a second; a
    # dichotomy of n <= 20 variables has df <= 100
    assert 0.0 < chi2_sf(1.1e5, 10**5) < chi2_sf(1e5, 10**5) < 1.0
    assert noncentral_chi2_sf(1e5, 10**5, 1.0) > chi2_sf(1e5, 10**5)
    for df in (10**5 + 1, 10**12, 1e300, math.inf):
        for call in (lambda: chi2_sf(3.0, df), lambda: chi2_sf_array([3.0], df),
                     lambda: noncentral_chi2_sf(3.0, df, 1.0)):
            with pytest.raises(ValueError, match="an integer from 1 to 100000, got"):
                call()
    # an int statistic past the float range is not finite, not an OverflowError
    for call in (lambda: chi2_sf(10**400, 4), lambda: chi2_sf_array([1.0, 10**400], 4),
                 lambda: noncentral_chi2_sf(10**400, 4, 1.0)):
        with pytest.raises(ValueError, match="the statistic must be finite and nonnegative"):
            call()
    # lambda up to 1000, which the mixture sums in about 700 terms; a
    # dichotomy of n <= 20 variables and k >= 3 samples has lambda <= 525
    assert noncentrality(10, 10, 3) == 525.0
    assert 0.0 < noncentral_chi2_sf(1500.0, 4, 1000.0) < noncentral_chi2_sf(1000.0, 4, 1000.0)
    for lam in (1000.000001, 1e9, 10**400):
        with pytest.raises(ValueError, match="at most 1000, got"):
            noncentral_chi2_sf(3.0, 4, lam)


def test_huge_df_and_lambda_are_refused_at_once():
    # unchecked, each of these runs a Python loop of 5e11 steps, or sums
    # 10^5 Poisson weights and then raises a RuntimeError; the timeout
    # shows a hang as a failure
    script = """
from mutindep.distributions import chi2_sf, chi2_sf_array, noncentral_chi2_sf
for call in (lambda: chi2_sf(3.0, 10**12), lambda: chi2_sf_array([1.0, 2.0, 3.0], 10**12),
             lambda: noncentral_chi2_sf(3.0, 10**12, 1.0), lambda: noncentral_chi2_sf(3.0, 4, 1e9)):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("accepted")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_array_and_scalar_tails_hold_to_mpmath():
    # every df a test of n <= 20 variables has, at 0 and subnormal x, around
    # df and up to 1e300, where the sum is rescaled and the tail underflows;
    # past df 700 or so the sum is rescaled at x around df too.  Both forms
    # are within 1e-12 relative of the incomplete gamma at 40 digits where
    # the tail is at least 1e-300, and below it neither passes 1e-300
    rng = np.random.default_rng(20261020)
    for df in list(range(1, 101)) + [401, 1000, 2001]:
        xs = np.concatenate([[0.0, 5e-324, 1e-320, 1e-300], df * rng.uniform(0.0, 3.0, 40),
                             np.linspace(df - 3.0, df + 3.0, 14).clip(0.0),
                             np.geomspace(1e-3, 1e300, 60)])
        exact = np.array([float(oracles.mp_chi2_sf(x, df)) for x in xs.tolist()])
        scalar = np.array([chi2_sf(x, df) for x in xs.tolist()])
        got = chi2_sf_array(xs.reshape(2, -1), df)
        assert got.shape == (2, xs.size // 2)
        held = exact >= 1e-300
        for tails in (got.ravel(), scalar):
            assert (np.abs(tails - exact)[held] <= 1e-12 * exact[held]).all(), df
            assert (tails[~held] <= 1e-300).all(), df
        assert got.flat[0] == scalar[0] == 1.0 and got.flat[-1] == scalar[-1] == 0.0
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


def test_integral_float_df_is_its_int():
    # the checks accept df = 4.0; every tail then equals its df = 4 value,
    # odd and even df alike, with and without a noncentrality
    xs = [0.0, 0.7, 3.0, 40.0]
    for df in (1, 4, 7, 30):
        for x in xs:
            assert chi2_sf(x, float(df)) == chi2_sf(x, df)
            assert noncentral_chi2_sf(x, float(df), 0.5) == noncentral_chi2_sf(x, df, 0.5)
        assert chi2_sf_array(xs, float(df)).tobytes() == chi2_sf_array(xs, df).tobytes()
        assert (noncentral_chi2_sf_array(xs, np.float64(df), 2.0).tobytes()
                == noncentral_chi2_sf_array(xs, df, 2.0).tobytes())


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


def test_mixture_gives_the_loop_and_repeats_bit_for_bit():
    # the recurrence from one central tail sums in another order than the
    # loop over independently evaluated tails, so the two agree to 1e-12
    # relative; a repeated call must not move a single bit
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
    for _ in range(2):  # the second and third pass give the first's bits
        assert [noncentral_chi2_sf(*case) for case in cases] == first


def test_short_then_long_mixture_gives_the_recurrence():
    # a short mixture first, then a long one at the same df: the series
    # taken for the first must not cut the second short
    for df in (1, 6, 35):
        for lam in (0.01, 40.0, 0.01, 3.0):
            for x in (0.0, 0.7 * df, 3.0 * df):
                assert noncentral_chi2_sf(x, df, lam) == pytest.approx(
                    oracles.noncentral_recurrence(x, df, lam), rel=1e-13, abs=0.0)


def test_noncentral_is_central_where_half_lambda_underflows():
    # lambda/2 of the least subnormal is 0, a Poisson law all at j = 0, so
    # the mixture is its first term, chi2_sf bit for bit: no log of 0 is
    # taken.  The array form is within chi2_sf_array's bound of it
    for df in (1, 4, 35):
        for x in (0.0, 3.0, 0.7 * df, 1e300):
            assert noncentral_chi2_sf(x, df, 5e-324) == chi2_sf(x, df)
        xs = np.array([[0.0, 3.0], [0.7 * df, 1e300]])
        got = noncentral_chi2_sf_array(xs, df, 5e-324)
        assert got.tobytes() == np.array([chi2_sf(x, df) for x in xs.ravel().tolist()]
                                         ).reshape(xs.shape).tobytes()
        np.testing.assert_allclose(got, chi2_sf_array(xs, df), rtol=1e-12, atol=0.0)


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


def _truncated_mixture(x, df, lam):
    """The package's truncated mixture, its Poisson weights summed over
    central tails taken at 40 digits."""
    weights = distributions._poisson_weights(lam)
    return float(sum(mpmath.mpf(w) * oracles.mp_chi2_sf(x, df + 2 * j)
                     for j, w in enumerate(weights)))


def test_noncentral_array_holds_to_the_recurrence():
    # every members size of n <= 20 variables, at the noncentrality of the
    # smallest, a small, the usual and a huge sample count; from 0 and
    # subnormal statistics through ones around df + lambda to 1e300, where
    # every term of the series underflows.  Below x = 1e3 the array is
    # within 1e-13 relative of the recurrence; at x = 1e3 (h = 500) the
    # recurrence's own steps are off by up to 1.5e-13 (oracles), so the two
    # are held to 2e-13 there, and the array to 5e-14 of the truncated
    # mixture at 40 digits where they differ most
    rng = np.random.default_rng(20261022)
    for n in range(2, 21):
        for na in range(1, n):
            df = na * (n - na)
            for k in (n + 1, 50, 300, 10**6):
                lam = noncentrality(na, n - na, k)
                xs = np.concatenate([[0.0, 5e-324, 1e-300], (df + lam) * rng.uniform(0.0, 3.0, 6),
                                     [1e3, 1e300]])
                expected = np.array([oracles.noncentral_recurrence(x, df, lam) for x in xs.tolist()])
                got = noncentral_chi2_sf_array(xs, df, lam)
                bound = np.where(xs < 1e3, 1e-13, 2e-13) * expected
                assert (np.abs(got - expected) <= bound).all(), (n, na, k)
    for x, df, lam in ((1e3, 33, noncentrality(3, 11, 15)), (1e3, 55, noncentrality(5, 11, 50)),
                       (1e3, 72, noncentrality(8, 9, 18))):
        assert noncentral_chi2_sf(x, df, lam) == pytest.approx(
            _truncated_mixture(x, df, lam), rel=5e-14, abs=0.0)
    # statistics whose halves numpy's log rounds otherwise than math's does
    h = rng.uniform(0.0, 50.0, 200_000)
    xs = 2.0 * h[np.log(h) != np.array([math.log(v) for v in h.tolist()])]
    for df in (4, 9):
        expected = [oracles.noncentral_recurrence(x, df, 0.7) for x in xs.tolist()]
        np.testing.assert_allclose(noncentral_chi2_sf_array(xs, df, 0.7), expected,
                                   rtol=1e-13, atol=0.0)


def test_noncentral_array_keeps_the_shape_and_is_central_at_zero():
    xs = np.array([[0.0, 5e-324, 2.5], [9.0, 40.0, 1e300]])
    got = noncentral_chi2_sf_array(xs, 9, 0.7)
    assert got.shape == (2, 3)
    np.testing.assert_allclose(
        got, np.array([oracles.noncentral_recurrence(x, 9, 0.7) for x in xs.ravel().tolist()]
                      ).reshape(2, 3), rtol=1e-13, atol=0.0)
    assert noncentral_chi2_sf_array(2.5, 9, 0.7).shape == ()
    assert noncentral_chi2_sf_array(2.5, 9, 0.7) == noncentral_chi2_sf(2.5, 9, 0.7)
    assert noncentral_chi2_sf_array([], 9, 0.7).shape == (0,)
    assert noncentral_chi2_sf_array(np.empty((0, 4)), 9, 0.7).shape == (0, 4)
    for df in (1, 4, 9, 36):
        central = noncentral_chi2_sf_array(xs, df, 0.0)
        assert central.tobytes() == np.array([chi2_sf(x, df) for x in xs.ravel().tolist()]
                                             ).reshape(xs.shape).tobytes()
        np.testing.assert_allclose(central, chi2_sf_array(xs, df), rtol=1e-12, atol=0.0)


def _members_sizes():
    """(n, na, df, the noncentralities at k = n + 1, 50, 300 and 10^6 in
    increasing order) for every members size of n <= 20 variables."""
    for n in range(2, 21):
        for na in range(1, n // 2 + 1):
            lams = sorted(noncentrality(na, n - na, k) for k in (n + 1, 50, 300, 10**6))
            yield n, na, na * (n - na), lams


def test_noncentral_tail_is_monotone_in_x_and_lambda():
    # at a members size's noncentralities, from x = 0 to where the tail
    # underflows: a larger statistic never has the larger tail, nor a
    # larger noncentrality the smaller one.  Within 1e-12 of 1 that holds
    # to the truncation bound only: the weights kept sum to 1 - delta with
    # delta below 1e-12 and not monotone in lambda, and Q(df) rounds to 1
    # before the series' first terms do
    for n, na, df, lams in _members_sizes():
        xs = np.concatenate([[0.0], np.geomspace(1e-3, 20.0 * (df + lams[-1]) + 1e3, 80)])
        tails = np.array([noncentral_chi2_sf_array(xs, df, lam) for lam in lams])
        for up, low in ((np.diff(tails, axis=1), np.minimum(tails[:, 1:], tails[:, :-1])),
                        (-np.diff(tails, axis=0), np.minimum(tails[1:], tails[:-1]))):
            assert (up <= 1e-12).all(), (n, na)
            assert (up[low < 1.0 - 1e-10] <= 0.0).all(), (n, na)
        assert tails[:, -1].max() < 1e-200


def test_noncentral_tail_holds_to_mpmath_to_its_truncation():
    # the mixture drops Poisson mass below 1e-12 and every tail it drops is
    # at most 1, so it is within 1e-12 absolute (and 1e-14 for rounding) of
    # the whole mixture at 40 digits: where the tail is at least 1e-4, at
    # most 1e-8 relative (1.3e-9 on these cases)
    rng = np.random.default_rng(20261023)
    for n, na, df, lams in _members_sizes():
        if n % 3:
            continue
        for lam in lams[1:]:
            for x in (df + lam) * rng.uniform(0.0, 2.5, 3):
                exact = oracles.mp_noncentral_chi2_sf(x, df, lam)
                if exact >= 1e-4:
                    assert abs(noncentral_chi2_sf(x, df, lam) - exact) <= 1.01e-12, (n, na, x, lam)


def test_noncentral_tail_at_zero_lambda_is_the_central_tail():
    # lambda = 0 gives chi2_sf, bit for bit, so chi2_sf_array within its
    # 1e-12 relative bound, over every df of n <= 20
    xs = np.concatenate([[0.0, 5e-324], np.geomspace(1e-3, 1e3, 40), [1e300]])
    for df in range(1, 101):
        central = noncentral_chi2_sf_array(xs, df, 0.0)
        assert central.tolist() == [chi2_sf(x, df) for x in xs.tolist()]
        np.testing.assert_allclose(central, chi2_sf_array(xs, df), rtol=1e-12, atol=1e-300)
