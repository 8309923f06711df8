"""The minimum discrimination information test for one dichotomy.

For a bipartition a | c of the variables and a correlation model (r, k),
the statistic (k-1) * ln[det(R_aa) det(R_cc) / det(R)] is asymptotically
chi-squared with |a|*|c| degrees of freedom under the null hypothesis that
the two groups are independent; a noncentral chi-squared approximation with
an explicit noncentrality parameter is available as an alternative mode.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .distributions import chi2_sf, chi2_sf_array, noncentral_chi2_sf_array
from .errors import InternalNumericError
from .linalg import CorrelationModel, check_sample_count
from .partitions import Bipartition

MODES = ("central", "noncentral")


def check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


# A raw statistic is (k-1) * (ld_a + ld_c - ld_full), so an entailed split
# of an exactly block-diagonal model gives 0 up to rounding.  Cholesky
# rounding moves a log-determinant by at most about n(n+1) eps / lambda_min
# (a backward error of (n+1) eps per entry of a unit-diagonal matrix, for any
# order of summation, so also for the kernel's rank-1 Schur updates; and the
# eigenvalues of a principal submatrix interlace those of R), and summing
# the logs of pivots <= 1 adds n eps |ld|; for a correlation matrix
# |ld_a| + |ld_c| <= |ld_full| (Hadamard's and Fischer's inequalities).
# Negatives within (k-1) n eps (2 |ld_full| + 3 (n+1) / lambda_min), and
# never less than _ABSOLUTE_SLACK, are clamped to 0; anything more negative
# means a broken determinant.  ld_full (the sum of the logs of R's
# eigenvalues) and lambda_min both come from one eigenvalue solve.
_ABSOLUTE_SLACK = 1e-9

# p_values takes tails over at most this many statistics at a time
_TAIL_SLICE = 1 << 16


@dataclass(frozen=True, slots=True)
class TestResult:
    """Outcome of one dichotomy test."""

    bipartition: Bipartition
    statistic: float
    df: int
    p_value: float


def _odd_cubic(t):
    return 2 * t**3 + 3 * t**2 - t


def noncentrality(na, nc, k):
    """Noncentrality parameter of the noncentral chi-squared approximation
    for the test of a dichotomy with block sizes na and nc.

    Equals [(2n^3 + 3n^2 - n) - (2na^3 + 3na^2 - na) - (2nc^3 + 3nc^2 - nc)]
    / (12(k-1)) with n = na + nc; always nonnegative and O(1/k).
    """
    k = check_sample_count(k)
    n = na + nc
    return (_odd_cubic(n) - _odd_cubic(na) - _odd_cubic(nc)) / (12.0 * (k - 1))


def _clamped(raw, r, k):
    """Clamp rounding-sized negatives of raw statistics to 0, or raise.

    `raw` has one row (..., tests) per correlation matrix of `r` (..., n, n),
    with sample count k: one for all rows or one per row.  The rounding bound
    costs an eigenvalue solve, so it is computed only for a row with a
    statistic below -_ABSOLUTE_SLACK; the first row in C order past its
    bound raises.
    """
    low = np.asarray(raw.min(axis=-1, initial=0.0))
    r, k = np.broadcast_to(r, low.shape + r.shape[-2:]), np.broadcast_to(k, low.shape)
    for at in map(tuple, np.argwhere(low < -_ABSOLUTE_SLACK)):
        # k as a Python int, so (k - 1) * n cannot overflow
        slack = max(_ABSOLUTE_SLACK, _rounding_bound(r[at], int(k[at])))
        if low[at] < -slack:
            raise InternalNumericError(
                f"dichotomy statistic came out at {low[at]}, below the -{slack:.3g} "
                "slack; the determinant computation is inconsistent"
            )
    return np.maximum(raw, 0.0)


def _rounding_bound(r, k):
    n, eps = r.shape[0], np.finfo(np.float64).eps
    # a matrix whose Cholesky pivots all passed can still be singular to
    # working precision, where eigvalsh may return a value <= 0
    eigenvalues = np.maximum(np.linalg.eigvalsh(r), eps)
    ld_full = float(np.log(eigenvalues).sum())
    lambda_min = float(eigenvalues[0])
    return (k - 1) * n * eps * (2.0 * abs(ld_full) + 3.0 * (n + 1) / lambda_min)


def mdi_statistics(model, bipartitions):
    """Statistics for a batch of bipartitions over one shared model, read
    off its subset table and clamped; a submatrix that is not positive
    definite aborts the batch, named by _kernels.first_failure."""
    if not isinstance(model, CorrelationModel):
        raise TypeError("expected a CorrelationModel")
    n, masks = model.n, []
    for b in bipartitions:
        if b.n != n:
            raise ValueError(f"dimension mismatch: model has n={n}, test has n={b.n}")
        masks.append(b.members)
    masks = np.array(masks, dtype=np.uint64)
    lds = model.logdets
    raw = _kernels.mdi_statistic_batch(lds, masks, model.k)
    if np.isnan(lds[-1]) or np.isnan(raw).any():
        raise _kernels.first_failure(lds, masks)
    return _clamped(raw, model.r, model.k)


def p_values(stats, member_sizes, n, k, mode):
    """The tail probability of each statistic of `stats` (..., tests), one
    analysis per row with sample count k (one for all rows or one per row),
    as an array: a test whose members block has na of the n variables
    (`member_sizes`, one per test) is chi-squared with na*(n-na) df
    (central mode) or noncentral chi-squared with noncentrality(na, n-na, k)
    (noncentral mode).

    A tail depends on its test through the smaller block size alone, and in
    noncentral mode on the row's k, so a tail class is one smaller block
    size (central) or one smaller block size and one k (noncentral).  The
    statistics are flattened and taken in slices of at most _TAIL_SLICE,
    one chi2_sf_array or noncentral_chi2_sf_array call per class in a
    slice, so a tail depends on its statistic alone, whatever the rows
    around it, and the temporaries are bounded whatever the number of rows.
    """
    check_mode(mode)
    stats = np.asarray(stats, dtype=np.float64)
    # every row shares its classes in central mode, and the rows of one k
    # in noncentral mode; k as Python ints, as noncentrality takes them
    ks = np.broadcast_to(k, stats.shape[:-1]).ravel()
    ks, row_groups = np.unique(ks if mode == "noncentral" else np.zeros_like(ks),
                               return_inverse=True)
    ks = ks.tolist()
    sizes = np.asarray(member_sizes, dtype=np.intp)
    test_sizes = np.minimum(sizes, n - sizes)
    flat, out = stats.ravel(), np.empty(stats.size)
    tests, width = stats.shape[-1], n // 2 + 1
    for start in range(0, flat.size, _TAIL_SLICE):
        at = slice(start, min(start + _TAIL_SLICE, flat.size))
        index = np.arange(at.start, at.stop)
        # the class of each statistic of the slice, by its test and its row
        codes = row_groups[index // tests] * width + test_sizes[index % tests]
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            group, na = divmod(code, width)
            pick = codes == code
            x, df = flat[at][pick], na * (n - na)
            out[at][pick] = (
                chi2_sf_array(x, df) if mode == "central" else
                noncentral_chi2_sf_array(x, df, noncentrality(na, n - na, ks[group])))
    return out.reshape(stats.shape)


def test_bipartitions(model, bipartitions, mode="central"):
    """TestResults for a batch of bipartitions over one shared model; a bad
    `mode` is refused by p_values."""
    bipartitions = list(bipartitions)
    stats = mdi_statistics(model, bipartitions)
    n, sizes = model.n, [b.members.bit_count() for b in bipartitions]
    values = stats.tolist()
    if mode == "central":
        # one scalar chi2_sf per test: perfbench/tests pin that call count (ROADMAP item 1)
        pvalues = [chi2_sf(stat, na * (n - na)) for stat, na in zip(values, sizes)]
    else:
        pvalues = p_values(stats, sizes, n, model.k, mode).tolist()
    return [TestResult(b, stat, na * (n - na), p)
            for b, stat, na, p in zip(bipartitions, values, sizes, pvalues)]
