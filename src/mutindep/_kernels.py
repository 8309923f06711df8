"""The dichotomy-statistic kernel.

The dichotomy-test statistic for a correlation matrix R, sample count k and
a members bitmask a is (k-1) * [logdet(R_aa) + logdet(R_cc) - logdet(R)],
where c is the complement of a.  Statistics are returned raw (no clamping);
callers own the nonnegativity policy.

The batch reads every log-determinant off one table over all subsets of
the variables, built by rank-1 Schur-complement updates.  A subset fails
when a pivot drops to or below 1e-12 * dim * max(diagonal): the rule of an
in-order Cholesky factorization.  The table marks a failed subset NaN, and
so is every statistic that needs it; first_failure names the failure.  The
reference for that rule, the one-matrix factorization the table is tested
against, is chol_logdet in tests/oracles.py.  The table agrees with it to
about 1e-13 relative, not bit for bit: the summation order differs.
"""

import operator

import numpy as np

from .errors import not_pd_submatrix

PIVOT_TOL = 1e-12

# An analysis of n variables tests 2^(n-1) - 1 dichotomies off a table of
# 2^n subsets; past n = 20 it is refused rather than left to exhaust memory.
MAX_VARIABLES = 20


def _integer(field, value):
    """value as a Python int, a numpy integer included; a float (even 300.0),
    a string or any other non-integer is refused, not rounded."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{field}: {value!r} is not an integer") from None


def check_size(n, what="variables", least=2):
    """Refuse n variables (or a partition of n blocks) outside
    least..MAX_VARIABLES, before anything of size 2^n is allocated."""
    if not least <= n <= MAX_VARIABLES:
        raise ValueError(
            f"n={n} {what}: the limit is {least} <= n <= {MAX_VARIABLES}, as n "
            f"{what} give 2^(n-1) - 1 dichotomies"
        )


def _subset_logdets(r):
    """log det(R_SS) for every subset S of the variables, indexed by bitmask,
    for each matrix of a stack: (..., n, n) -> (..., 2^n).

    Entry 0 (the empty subset) is 0; an entry is NaN where S fails the pivot
    rule.  One pass over the variables j = 0..n-1 keeps, for each subset S
    of {0..j-1}, the Schur complement of R_SS on the indices j..n-1
    (Griffin & Tsatsomeros, "Principal minors, Part I", 2006).
    Extending S by j takes the leading entry as its pivot, which is exactly
    diag(L)^2 of the in-order Cholesky of R_SS, and updates the rest by a
    rank-1 term; the subsets without j drop the leading row and column.
    Every step is elementwise per matrix, so a matrix's table does not
    depend on the stack it comes in.
    """
    r = np.asarray(r, dtype=np.float64)
    n = r.shape[-1]
    check_size(n, least=1)
    stack = r.reshape(-1, n, n)
    schur = stack[:, None].copy()  # (matrix, subset, row, column)
    lds = np.zeros((len(stack), 1))
    lowest = np.full(lds.shape, np.inf)  # smallest pivot of each subset
    size = np.zeros(1)
    top = np.zeros(lds.shape)  # largest diagonal entry of each subset
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n):
            piv = schur[:, :, 0, 0]
            col = schur[:, :, 1:, 0]
            rest = schur[:, :, 1:, 1:]
            updated = rest - (col / piv[..., None])[..., :, None] * col[..., None, :]
            # the subsets holding j follow those without it, so bit j of an
            # index says whether j is in its subset
            schur = np.concatenate([rest, updated], axis=1)
            lds = np.concatenate([lds, lds + np.log(piv)], axis=1)
            # fmin ignores the NaN pivots below a failed one
            lowest = np.concatenate([lowest, np.fmin(lowest, piv)], axis=1)
            size = np.concatenate([size, size + 1])
            top = np.concatenate([top, np.maximum(top, stack[:, j, j, None])], axis=1)
    lds[lowest <= PIVOT_TOL * size * top] = np.nan
    return lds.reshape(r.shape[:-2] + (1 << n,))


def mdi_statistic_batch(lds, masks, k):
    """Raw dichotomy statistics for every members bitmask in `masks`, read
    off `lds`: the subset table of a matrix with sample count k, or a stack
    of tables (..., 2^n) with k one count for all or one per table.

    No Python loop runs per test or per table.  A statistic is NaN where the
    full matrix, its members or its complement submatrix fails the pivot
    rule.
    """
    n = lds.shape[-1].bit_length() - 1
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    everything = np.uint64((1 << n) - 1)
    # k - 1 is taken before the conversion to float, which rounds past 2^53
    scale = np.asarray(np.subtract(k, 1) if np.ndim(k) else k - 1, dtype=np.float64)
    raw = lds[..., masks & everything]
    raw += lds[..., ~masks & everything]
    raw -= lds[..., -1:]
    raw *= scale[..., None]
    return raw


def first_failure(lds, masks):
    """The NotPositiveDefiniteError for the first failure among the
    statistics of `masks` off the one table `lds`, or None.

    The full matrix is checked first; after it, the first mask in input
    order whose members or (then) complement submatrix fails.
    """
    n = lds.size.bit_length() - 1
    if np.isnan(lds[-1]):
        return not_pd_submatrix("full")
    everything = np.uint64((1 << n) - 1)
    masks = np.asarray(masks, dtype=np.uint64) & everything
    failed = np.isnan(lds[masks]) | np.isnan(lds[~masks & everything])
    if not failed.any():
        return None
    mask = int(masks[np.argmax(failed)])
    members = [i + 1 for i in range(n) if (mask >> i) & 1]
    if np.isnan(lds[mask]):
        return not_pd_submatrix("members", members)
    return not_pd_submatrix("complement", [i for i in range(1, n + 1) if i not in members])
