"""Central and noncentral chi-squared tail probabilities for integer df.

A dichotomy test has |a|*|c| degrees of freedom, an integer, so its tail is a
finite sum of positive terms (Abramowitz & Stegun 26.4.4-26.4.5): nothing
cancels, and it matches the regularized incomplete gamma to about 1e-13.
"""

import itertools
import math

import numpy as np

# Truncation point for the noncentral mixture: stop once the remaining
# Poisson mass is below this.
_MIXTURE_TAIL = 1e-12
_MAX_MIXTURE_TERMS = 100_000

# The running sum is divided by 2^500 (exactly) whenever the next term could
# pass 2^500, and e^-h is applied in logs, so that nothing overflows and
# e^-h does not underflow alone.
_RESCALE = 2.0**500
_LOG_RESCALE = math.log(_RESCALE)


def _check_args(x, df):
    """df as an int, once it and the statistic x pass the checks: an
    integral float df (4.0) gives the tail of its int (4), bit for bit."""
    whole = int(df)
    if whole != df or whole < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"the statistic must be finite and nonnegative, got {x}")
    return whole


def chi2_sf(x, df):
    """Upper tail P(chi2_df > x) for a positive integer df.

    With h = x/2, the tail is e^-h * sum_{i < df/2} h^i / i! for even df, and
    erfc(sqrt(h)) + e^-h * sum_{i < (df-1)/2} h^(i+1/2) / Gamma(i+3/2) for
    odd df.  The result is clamped at 1.
    """
    df = _check_args(x, df)
    h = x / 2.0
    if df % 2:
        tail, term, a = math.erfc(math.sqrt(h)), 2.0 * math.sqrt(h / math.pi), 1.5
    else:
        tail, term, a = 0.0, 1.0, 1.0
    total = log_scale = 0.0
    cap = _RESCALE / max(h, 1.0)
    for i in range(df // 2):
        while term > cap:
            total /= _RESCALE
            term /= _RESCALE
            log_scale += _LOG_RESCALE
        total += term
        term *= h / (a + i)
    if total:
        tail += math.exp(math.log(total) + log_scale - h)
    return min(tail, 1.0)


def _each(fn, values):
    """fn of each element of the 1-D float array `values`, as an array."""
    return np.fromiter(map(fn, values.tolist()), dtype=np.float64, count=values.size)


def _statistics(x, df):
    """x as a float64 array and df as an int, once df and every statistic
    pass chi2_sf's checks; the first statistic refused is named."""
    x = np.asarray(x, dtype=np.float64)
    refused = x[~((x >= 0.0) & (x < math.inf))]
    return x, _check_args(refused[0] if refused.size else 0.0, df)


def chi2_sf_array(x, df):
    """chi2_sf of each statistic of the array `x`, for one integer df, as an
    array of x's shape, bit for bit.

    The same recurrence, rescale and clamp run over the elements at once:
    +, *, / and sqrt round in numpy as they do on Python floats, and erfc,
    log and exp are math's, mapped over the elements (numpy's exp and log
    are not correctly rounded and differ from math's on some inputs).  The
    statistics chi2_sf refuses are refused, the first of them named.
    """
    x, df = _statistics(x, df)
    h = x.ravel() / 2.0
    if df % 2:
        tail, term, a = _each(math.erfc, np.sqrt(h)), 2.0 * np.sqrt(h / math.pi), 1.5
    else:
        tail, term, a = np.zeros(h.shape), np.ones(h.shape), 1.0
    total, log_scale = np.zeros(h.shape), np.zeros(h.shape)
    cap = _RESCALE / np.maximum(h, 1.0)
    for i in range(df // 2):
        # the scalar while loop, run by each element that is still over
        while (over := term > cap).any():
            total[over] /= _RESCALE
            term[over] /= _RESCALE
            log_scale[over] += _LOG_RESCALE
        total += term
        term *= h / (a + i)
    summed = total != 0.0
    exponent = _each(math.log, total[summed]) + log_scale[summed] - h[summed]
    tail[summed] += _each(math.exp, exponent)
    return np.minimum(tail, 1.0).reshape(x.shape)


def noncentral_chi2_sf_array(x, df, lam):
    """Upper tail of the noncentral chi-squared distribution with integer df
    and noncentrality lam, at each statistic of the array `x`, as an array
    of x's shape.

    The Poisson(lam/2)-weighted mixture of the central tails Q(df), Q(df+2),
    ..., truncated once the residual mixture mass drops below 1e-12.  Q(df)
    is one chi2_sf call per statistic, and Q(df+2) = Q(df) + e^-h h^(df/2) /
    Gamma(df/2+1) with h = x/2.  The ladder steps every statistic at once,
    each in the order of a loop over that statistic alone: +, * and - round
    in numpy as on Python floats, and log and exp are math's, mapped over
    the elements, so no value depends on the others in the array.  Where
    lam/2 is 0 (lam = 0, or lam the least subnormal) the mixture is its
    j = 0 term, chi2_sf exactly.  The statistics chi2_sf refuses are
    refused, the first of them named, and so is a negative or non-finite
    lam.
    """
    x, df = _statistics(x, df)
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"the noncentrality must be finite and nonnegative, got {lam}")
    h = x.ravel() / 2.0
    # Q(df) by scalar calls, not chi2_sf_array: perfbench/tests count these
    # calls on a noncentral infer (ROADMAP item 1a)
    sf = np.fromiter(map(chi2_sf, x.ravel().tolist(), itertools.repeat(df)),
                     dtype=np.float64, count=h.size)
    if lam / 2.0 == 0.0:
        return sf.reshape(x.shape)
    log_h = np.full(h.shape, -math.inf)
    positive = h > 0.0
    log_h[positive] = _each(math.log, h[positive])
    # df/2 + j is exact in binary, so each log is that of the running
    # df/2 + j of a loop over one statistic
    a = df / 2.0
    log_step = a * log_h - h - math.lgamma(a + 1.0)
    acc = np.zeros(h.shape)
    for j, weight in enumerate(_poisson_weights(lam), 1):
        acc += weight * sf
        sf += _each(math.exp, log_step)
        log_step += log_h - math.log(a + j)
    return np.minimum(acc, 1.0).reshape(x.shape)


def noncentral_chi2_sf(x, df, lam):
    """noncentral_chi2_sf_array of the one statistic x, as a float."""
    return float(noncentral_chi2_sf_array(x, df, lam))


def _poisson_weights(lam):
    """Poisson(lam/2) weights of the mixture terms j = 0, 1, ..., up to the
    first at which the cumulative mass reaches 1 - 1e-12; lam/2 > 0."""
    q = lam / 2.0
    log_q = math.log(q)
    weights = []
    total = 0.0
    while total < 1.0 - _MIXTURE_TAIL:
        j = len(weights)
        if j >= _MAX_MIXTURE_TERMS:
            raise RuntimeError(f"noncentral mixture did not converge (lambda={lam})")
        weight = math.exp(-q + j * log_q - math.lgamma(j + 1))
        weights.append(weight)
        total += weight
    return weights
