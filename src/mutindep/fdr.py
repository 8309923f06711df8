"""Multiple-comparison corrections over simultaneous dichotomy tests.

Each returns a boolean array of rejection flags aligned with the p-values.
"""

import numpy as np


def check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _validated(pvalues, alpha):
    p = np.asarray(list(pvalues), dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a nonempty sequence of p-values")
    if not np.isfinite(p).all() or (p < 0).any() or (p > 1).any():
        raise ValueError("p-values must lie in [0, 1]")
    check_alpha(alpha)
    return p


def bh_fdr(pvalues, alpha):
    """Benjamini-Hochberg step-up rule controlling the false discovery rate.

    Rejects the m_thres smallest p-values, where m_thres is the largest i
    such that the i-th smallest p-value is <= alpha * i / m.  The comparison
    is non-strict, and p-values tied at the cut are rejected together (the
    step-up rule applies to values, so a tie can never straddle the cut).
    """
    p = _validated(pvalues, alpha)
    m = p.size
    order = np.argsort(p, kind="stable")
    passing = np.flatnonzero(p[order] <= alpha * np.arange(1, m + 1) / m)
    m_thres = int(passing[-1] + 1) if passing.size else 0
    rejected = np.zeros(m, dtype=bool)
    rejected[order[:m_thres]] = True
    return rejected


def bonferroni(pvalues, alpha):
    """Family-wise correction: reject exactly the p-values <= alpha / m.

    Anything rejected here is also rejected by the step-up rule at the same
    alpha, so this is the more conservative of the two corrections.
    """
    p = _validated(pvalues, alpha)
    return p <= alpha / p.size
