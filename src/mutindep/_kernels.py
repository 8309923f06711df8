"""The dichotomy-statistic kernel.

The dichotomy-test statistic for a correlation matrix R, sample count k and
a members bitmask a is (k-1) * [logdet(R_aa) + logdet(R_cc) - logdet(R)],
where c is the complement of a.  Statistics are returned raw (no clamping);
callers own the nonnegativity policy.

The batch reads every log-determinant off one table over all subsets of
the variables, built by rank-1 Schur-complement updates.  A subset fails,
with NotPositiveDefiniteError naming it, when a pivot drops to or below
1e-12 * dim * max(diagonal): the rule of the in-order Cholesky
factorization _chol_logdet, the reference the table is tested against.
The table agrees with that factorization to about 1e-13 relative, not bit
for bit: the summation order differs.
"""

import math

import numpy as np

from .errors import not_pd_submatrix

PIVOT_TOL = 1e-12

# The subset table has 2^n entries per running quantity, about 45 MiB at
# n = 20; a larger matrix is refused rather than left to exhaust memory.
MAX_VARIABLES = 20


def _chol_logdet(a):
    """In-place lower Cholesky; returns log det, or None on a failed pivot.

    The package reads log-determinants off _subset_logdets; this one-matrix
    factorization is the reference its pivot rule is tested against.
    """
    n = a.shape[0]
    tol = PIVOT_TOL * n * float(a.diagonal().max(initial=0.0))
    acc = 0.0
    for j in range(n):
        s = float(a[j, j] - a[j, :j] @ a[j, :j])
        if s <= tol:
            return None
        piv = math.sqrt(s)
        a[j, j] = piv
        acc += math.log(piv)
        if j + 1 < n:
            a[j + 1 :, j] = (a[j + 1 :, j] - a[j + 1 :, :j] @ a[j, :j]) / piv
    return 2.0 * acc


def _subset_logdets(r):
    """log det(R_SS) for every subset S of the variables, indexed by bitmask.

    Entry 0 (the empty subset) is 0; an entry is NaN where S fails the pivot
    rule of _chol_logdet.  One pass over the variables j = 0..n-1 keeps, for
    each subset S of {0..j-1}, the Schur complement of R_SS on the indices
    j..n-1 (Griffin & Tsatsomeros, "Principal minors, Part I", 2006).
    Extending S by j takes the leading entry as its pivot, which is exactly
    diag(L)^2 of the in-order Cholesky of R_SS, and updates the rest by a
    rank-1 term; the subsets without j drop the leading row and column.
    """
    schur = r[None].copy()
    lds = np.zeros(1)
    lowest = np.full(1, np.inf)  # smallest pivot of each subset
    size = np.zeros(1)
    top = np.zeros(1)  # largest diagonal entry of each subset
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(r.shape[0]):
            piv = schur[:, 0, 0]
            col = schur[:, 1:, 0]
            rest = schur[:, 1:, 1:]
            updated = rest - (col / piv[:, None])[:, :, None] * col[:, None, :]
            # the subsets holding j follow those without it, so bit j of an
            # index says whether j is in its subset
            schur = np.concatenate([rest, updated])
            lds = np.concatenate([lds, lds + np.log(piv)])
            # fmin ignores the NaN pivots below a failed one
            lowest = np.concatenate([lowest, np.fmin(lowest, piv)])
            size = np.concatenate([size, size + 1])
            top = np.concatenate([top, np.maximum(top, r[j, j])])
    lds[lowest <= PIVOT_TOL * size * top] = np.nan
    return lds


def mdi_statistic_batch(r, masks, k):
    """Raw dichotomy statistics for every members bitmask in `masks`.

    Every statistic is read off one table of subset log-determinants, so no
    Python loop runs per test.  The full matrix is checked first; after
    it, the first mask in input order whose members or (then) complement
    submatrix fails the pivot rule is reported.
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    n = r.shape[0]
    if r.ndim != 2 or r.shape[1] != n:
        raise ValueError("correlation matrix must be square")
    if n > MAX_VARIABLES:
        raise ValueError(
            f"n={n} variables needs a table of 2^{n} subset log-determinants; "
            f"the limit is n <= {MAX_VARIABLES}"
        )
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    lds = _subset_logdets(r)
    ld_full = lds[-1]
    if np.isnan(ld_full):
        raise not_pd_submatrix("full")
    everything = np.uint64((1 << n) - 1)
    ld_members = lds[masks & everything]
    ld_complement = lds[~masks & everything]
    failed = np.isnan(ld_members) | np.isnan(ld_complement)
    if failed.any():
        j = int(np.flatnonzero(failed)[0])
        mask = int(masks[j])
        members = [i + 1 for i in range(n) if (mask >> i) & 1]
        if np.isnan(ld_members[j]):
            raise not_pd_submatrix("members", members)
        complement = [i for i in range(1, n + 1) if i not in members]
        raise not_pd_submatrix("complement", complement)
    return float(k - 1) * (ld_members + ld_complement - ld_full)
