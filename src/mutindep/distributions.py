"""Central and noncentral chi-squared tail probabilities."""

import functools
import math

from scipy.special import gammaincc

# Truncation point for the noncentral mixture: stop once the remaining
# Poisson mass is below this.
_MIXTURE_TAIL = 1e-12
_MAX_MIXTURE_TERMS = 100_000


def _check_args(x, df):
    if int(df) != df or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    if x < 0:
        raise ValueError(f"the statistic must be nonnegative, got {x}")


def chi2_sf(x, df):
    """Upper tail P(chi2_df > x), via the regularized incomplete gamma."""
    _check_args(x, df)
    return float(gammaincc(df / 2.0, x / 2.0))


def noncentral_chi2_sf(x, df, lam):
    """Upper tail of the noncentral chi-squared distribution.

    Evaluated as the Poisson(lam/2)-weighted mixture of central chi-squared
    tails with df, df+2, df+4, ... degrees of freedom, truncated once the
    residual mixture mass drops below 1e-12.  At lam == 0 this reduces
    exactly to chi2_sf.
    """
    _check_args(x, df)
    if lam < 0:
        raise ValueError(f"the noncentrality must be nonnegative, got {lam}")
    if lam == 0.0:
        return chi2_sf(x, df)
    acc = 0.0
    for j, weight in enumerate(_poisson_weights(lam)):
        acc += weight * chi2_sf(x, df + 2 * j)
    return min(acc, 1.0)


@functools.lru_cache(maxsize=64)
def _poisson_weights(lam):
    """Poisson(lam/2) weights of the mixture terms j = 0, 1, ..., up to the
    first at which the cumulative mass reaches 1 - 1e-12.

    They depend on lam alone, and lam takes only a few values per model (it
    depends on the block sizes and k), so they are computed once per value.
    """
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
    return tuple(weights)
