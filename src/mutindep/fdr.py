"""Multiple-comparison corrections over simultaneous dichotomy tests.

Each returns a boolean array of rejection flags aligned with the p-values.
A 2-D `(rows, tests)` array holds one family of tests per row, and each
row is corrected on its own; 1-D input is one row.
"""

import numpy as np


def check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _validated(pvalues, alpha):
    if not isinstance(pvalues, np.ndarray):
        pvalues = list(pvalues)
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] == 0:
        raise ValueError("need a nonempty sequence of p-values, or rows of them")
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
    m = p.shape[-1]
    ascending = np.sort(p, axis=-1)
    passing = ascending <= alpha * np.arange(1, m + 1) / m
    # the cut is the largest passing p-value of each row (-1 when none
    # passes); a tie with it passes too, so the rejected are those at or
    # below it
    cut = np.where(passing, ascending, -1.0).max(axis=-1, keepdims=True)
    return p <= cut


def bonferroni(pvalues, alpha):
    """Family-wise correction: reject exactly the p-values <= alpha / m.

    Anything rejected here is also rejected by the step-up rule at the same
    alpha, so this is the more conservative of the two corrections.
    """
    p = _validated(pvalues, alpha)
    return p <= alpha / p.shape[-1]
