"""Factorization kernels: log-determinants and dichotomy statistics.

* Cholesky factorization of symmetric positive-definite input, failing with
  NotPositiveDefiniteError when a pivot drops to or below the tolerance
  1e-12 * dim * max(diagonal).
* The dichotomy-test statistic for a correlation matrix R, sample count k
  and a members bitmask a is (k-1) * [logdet(R_aa) + logdet(R_cc) -
  logdet(R)], where c is the complement of a.  Statistics are returned raw
  (no clamping); callers own the nonnegativity policy.

The batch factors its submatrices in stacks through LAPACK, so its
statistics agree with a one-matrix-at-a-time Cholesky to about 1e-13
relative, not bit for bit: the summation order differs.
"""

import math

import numpy as np

from .errors import not_pd_submatrix

PIVOT_TOL = 1e-12

# Submatrices factored per LAPACK call: bounds the gathered stack, at most
# _STACK * n^2 doubles, while keeping the per-call overhead amortised.
_STACK = 256


def _chol_logdet(a):
    """In-place lower Cholesky; returns log det, or None on a failed pivot."""
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


def logdet_spd(matrix):
    """Log-determinant of a symmetric positive-definite matrix."""
    a = np.array(matrix, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.shape[0] < 1:
        raise ValueError("expected dimension >= 1")
    ld = _chol_logdet(a)
    if ld is None:
        raise not_pd_submatrix("full")
    return ld


def _stack_logdets(r, subsets, size):
    """Log-determinants of the principal submatrices R_SS, one per bitmask
    in `subsets`, all of popcount `size`; NaN where a pivot fails.

    The submatrices are factored as one (B, size, size) stack.  A subset
    fails the pivot rule of _chol_logdet when some diag(L)^2 is at or below
    1e-12 * size * max(diag(R_SS)).  LAPACK refuses a whole stack when any
    member is not numerically positive definite; such a stack is redone one
    subset at a time with _chol_logdet.
    """
    # nonzero walks the bit matrix row by row, so each row of cols holds one
    # subset's variable indices in increasing order
    shifts = np.arange(r.shape[0], dtype=np.uint64)
    cols = np.nonzero((subsets[:, None] >> shifts) & np.uint64(1))[1].reshape(-1, size)
    stack = np.take(r, cols[:, :, None] * r.shape[0] + cols[:, None, :])
    try:
        diag = np.linalg.cholesky(stack).diagonal(axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        lds = [_chol_logdet(a) for a in stack]
        return np.array([np.nan if ld is None else ld for ld in lds])
    tol = PIVOT_TOL * size * stack.diagonal(axis1=1, axis2=2).max(axis=1)
    lds = 2.0 * np.log(diag).sum(axis=1)
    lds[(diag * diag <= tol[:, None]).any(axis=1)] = np.nan
    return lds


_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def _popcount(words, n):
    """Set bits of each uint64 word below bit n."""
    count = np.zeros(words.shape, dtype=np.int64)
    for shift in range(0, n, 8):
        count += _BYTE_POPCOUNT[(words >> np.uint64(shift)) & np.uint64(255)]
    return count


def mdi_statistic_batch(r, masks, k):
    """Raw dichotomy statistics for every members bitmask in `masks`.

    The members and complement subsets of all masks are grouped by size and
    each group is factored in stacks of at most _STACK submatrices, so no
    Python loop runs per test.  The full matrix is factored first; after
    it, the first mask in input order whose members or (then) complement
    submatrix fails the pivot rule is reported.
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    n = r.shape[0]
    if r.ndim != 2 or r.shape[1] != n:
        raise ValueError("correlation matrix must be square")
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    ld_full = _chol_logdet(r.copy())
    if ld_full is None:
        raise not_pd_submatrix("full")
    m = masks.shape[0]
    everything = np.uint64((1 << n) - 1)
    subsets = np.concatenate([masks & everything, ~masks & everything])
    sizes = _popcount(subsets, n)
    lds = np.zeros(2 * m)  # the empty subset has log-determinant 0
    for size in range(1, n + 1):
        group = np.flatnonzero(sizes == size)
        for lo in range(0, group.size, _STACK):
            chunk = group[lo : lo + _STACK]
            lds[chunk] = _stack_logdets(r, subsets[chunk], size)
    failed = np.isnan(lds)
    if failed.any():
        j = int(np.flatnonzero(failed[:m] | failed[m:])[0])
        mask = int(masks[j])
        members = [i + 1 for i in range(n) if (mask >> i) & 1]
        if failed[j]:
            raise not_pd_submatrix("members", members)
        complement = [i for i in range(1, n + 1) if i not in members]
        raise not_pd_submatrix("complement", complement)
    return float(k - 1) * (lds[:m] + lds[m:] - ld_full)
