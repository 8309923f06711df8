"""Central and noncentral chi-squared tail probabilities for integer df.

A dichotomy test has |a|*|c| degrees of freedom, an integer, so its tail is a
finite sum of positive terms (Abramowitz & Stegun 26.4.4-26.4.5): nothing
cancels, and it matches the regularized incomplete gamma to about 1e-13.
The noncentral tail continues the same series past df (Ding 1992, AS 275).
"""

import itertools
import math

import numpy as np

# Truncation point for the noncentral mixture: stop once the remaining
# Poisson mass is below this.
_MIXTURE_TAIL = 1e-12
_MAX_MIXTURE_TERMS = 100_000

# The domain: a tail loops over df/2 terms (0.2 s for the array tail at df
# 10^5 on a 2-core x86 machine), and from lam/2 about 1260 the Poisson
# weights' rounding can keep their sum short of 1 - 1e-12 (every lam up to
# 1200 sampled sums in 783 terms or fewer).  A dichotomy of n <= 20
# variables has df <= 100 and lam <= 525.
_MAX_DF = 100_000
_MAX_NONCENTRALITY = 1000.0

# The running sum is divided by 2^500 (exactly) whenever the next term could
# pass 2^500, and e^-h is applied in logs, so that nothing overflows and
# e^-h does not underflow alone.
_RESCALE = 2.0**500
_LOG_RESCALE = math.log(_RESCALE)


def _check_args(x, df):
    """x as a float and df as an int, once they pass the checks: an
    integral float df (4.0) gives the tail of its int (4), bit for bit, and
    an int x past the float range is refused as not finite."""
    if not (1 <= df <= _MAX_DF and int(df) == df):
        raise ValueError(f"degrees of freedom must be an integer from 1 to {_MAX_DF}, got {df}")
    try:
        x = float(x)
    except OverflowError:
        x = math.inf
    if not 0.0 <= x < math.inf:
        raise ValueError(f"the statistic must be finite and nonnegative, got {x}")
    return x, int(df)


def chi2_sf(x, df):
    """Upper tail P(chi2_df > x) for an integer df from 1 to 10^5.

    With h = x/2, the tail is e^-h * sum_{i < df/2} h^i / i! for even df, and
    erfc(sqrt(h)) + e^-h * sum_{i < (df-1)/2} h^(i+1/2) / Gamma(i+3/2) for
    odd df.  The result is clamped at 1.
    """
    x, df = _check_args(x, df)
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
    try:
        x = np.asarray(x, dtype=np.float64)
    except OverflowError:  # an int past the float range
        x = np.array(math.inf)
    refused = x[~((x >= 0.0) & (x < math.inf))]
    return x, _check_args(refused[0] if refused.size else 0.0, df)[1]


def _series(h, e, term, log_scale, weights):
    """e^-h * sum_i weights[i] * h^(e+i) / Gamma(e+i+1) at each half
    statistic of the 1-D array h, by chi2_sf's recurrence and rescale from
    the first power h^e / Gamma(e+1) = term * e^log_scale (two arrays of
    h's shape, updated in place)."""
    total = np.zeros(h.shape)
    cap = _RESCALE / np.maximum(h, 1.0)
    for i, weight in enumerate(weights):
        # the scalar while loop, run by each element that is still over
        while (over := term > cap).any():
            total[over] /= _RESCALE
            term[over] /= _RESCALE
            log_scale[over] += _LOG_RESCALE
        total += weight * term
        term *= h / (e + 1.0 + i)
    with np.errstate(divide="ignore"):
        return np.exp(np.log(total) + log_scale - h)


def chi2_sf_array(x, df):
    """The central tail of each statistic of the array `x`, for one integer
    df, as an array of x's shape: chi2_sf's series over every element at
    once (math.erfc mapped for odd df), within 1e-12 relative of the
    incomplete gamma wherever the tail is at least 1e-300, as chi2_sf is,
    though not always to its bits.  The statistics chi2_sf refuses are
    refused, the first of them named.
    """
    x, df = _statistics(x, df)
    h = x.ravel() / 2.0
    if df % 2:
        tail, term, e = _each(math.erfc, np.sqrt(h)), 2.0 * np.sqrt(h / math.pi), 0.5
    else:
        tail, term, e = 0.0, np.ones(h.shape), 0.0
    tail = tail + _series(h, e, term, np.zeros(h.shape), itertools.repeat(1.0, df // 2))
    return np.minimum(tail, 1.0).reshape(x.shape)


def noncentral_chi2_sf_array(x, df, lam):
    """Upper tail of the noncentral chi-squared distribution with integer df
    and noncentrality lam (at most 1000), at each statistic of the array
    `x`, as an array of x's shape.

    The Poisson(lam/2)-weighted mixture of the central tails Q(df), Q(df+2),
    ..., truncated once the residual mixture mass drops below 1e-12.  As
    Q(df+2j) is Q(df) plus the terms i < j of chi2_sf's series continued
    from e = df/2, the mixture is Q(df) * sum_j w_j plus that series with
    term i weighted by the tail mass T_i = sum_{j>i} w_j.  Q(df) is one
    chi2_sf call per statistic; where lam/2 is 0 (lam = 0, or lam the
    least subnormal) the mixture is Q(df) exactly.  The statistics chi2_sf
    refuses are refused, the first of them named, and so is a lam outside
    [0, 1000].
    """
    x, df = _statistics(x, df)
    if not 0.0 <= lam <= _MAX_NONCENTRALITY:
        raise ValueError(f"the noncentrality must be finite and nonnegative, at most "
                         f"{_MAX_NONCENTRALITY:g}, got {lam}")
    h = x.ravel() / 2.0
    # Q(df) by scalar calls, not chi2_sf_array: perfbench/tests count these
    # calls on a noncentral infer (ROADMAP item 1a)
    sf = np.fromiter(map(chi2_sf, x.ravel().tolist(), itertools.repeat(df)),
                     dtype=np.float64, count=h.size)
    if lam / 2.0 == 0.0:
        return sf.reshape(x.shape)
    # the masses summed from the small end: masses[i] = sum_{j>=i} w_j
    masses = np.cumsum(_poisson_weights(lam)[::-1])[::-1].tolist()
    e = df / 2.0
    with np.errstate(divide="ignore"):
        log_scale = e * np.log(h) - math.lgamma(e + 1.0)
    acc = masses[0] * sf + _series(h, e, np.ones(h.shape), log_scale, masses[1:])
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
