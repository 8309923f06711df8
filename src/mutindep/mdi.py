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
from .distributions import chi2_sf, noncentral_chi2_sf
from .errors import InternalNumericError
from .linalg import CorrelationModel
from .partitions import Bipartition

MODES = ("central", "noncentral")

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


@dataclass(frozen=True)
class TestResult:
    """Outcome of one dichotomy test."""

    bipartition: Bipartition
    statistic: float
    df: int
    p_value: float


def degrees_of_freedom(bipartition):
    """|a| * |complement| degrees of freedom for the test of a | complement."""
    na, nc = bipartition.sizes()
    return na * nc


def _odd_cubic(t):
    return 2 * t**3 + 3 * t**2 - t


def noncentrality(bipartition, k):
    """Noncentrality parameter of the noncentral chi-squared approximation.

    Equals [(2n^3 + 3n^2 - n) - (2na^3 + 3na^2 - na) - (2nc^3 + 3nc^2 - nc)]
    / (12(k-1)) for block sizes na, nc; always nonnegative and O(1/k).
    """
    if k < 2:
        raise ValueError(f"need a sample count of at least 2, got {k}")
    na, nc = bipartition.sizes()
    n = bipartition.n
    return (_odd_cubic(n) - _odd_cubic(na) - _odd_cubic(nc)) / (12.0 * (k - 1))


def _check_model(model, n):
    if not isinstance(model, CorrelationModel):
        raise TypeError("expected a CorrelationModel")
    if model.n != n:
        raise ValueError(f"dimension mismatch: model has n={model.n}, test has n={n}")
    if model.k < 3:
        raise ValueError(f"the test needs a sample count of at least 3, got {model.k}")


def _clamped(raw, model):
    """Clamp rounding-sized negatives of the raw statistics of `model` to 0,
    or raise.

    The rounding bound costs an eigenvalue solve, so it is computed only for
    a statistic below -_ABSOLUTE_SLACK.
    """
    low = raw.min(initial=0.0)
    if low < -_ABSOLUTE_SLACK:
        slack = max(_ABSOLUTE_SLACK, _rounding_bound(model))
        if low < -slack:
            raise InternalNumericError(
                f"dichotomy statistic came out at {low}, below the -{slack:.3g} "
                "slack; the determinant computation is inconsistent"
            )
    return np.maximum(raw, 0.0)


def _rounding_bound(model):
    n, eps = model.n, np.finfo(np.float64).eps
    # a matrix whose Cholesky pivots all passed can still be singular to
    # working precision, where eigvalsh may return a value <= 0
    eigenvalues = np.maximum(np.linalg.eigvalsh(model.r), eps)
    ld_full = float(np.log(eigenvalues).sum())
    lambda_min = float(eigenvalues[0])
    return (model.k - 1) * n * eps * (2.0 * abs(ld_full) + 3.0 * (n + 1) / lambda_min)


def mdi_statistics(model, bipartitions):
    """Statistics for a batch of bipartitions over one shared model.

    The full-matrix determinant is factored once; a positive-definiteness
    failure in any submatrix aborts the whole batch, naming the variables of
    the failing block.
    """
    bipartitions = list(bipartitions)
    for n in dict.fromkeys(b.n for b in bipartitions):
        _check_model(model, n)
    masks = np.array([b.members for b in bipartitions], dtype=np.uint64)
    raw = _kernels.mdi_statistic_batch(model.r, masks, model.k)
    return _clamped(raw, model)


def test_bipartitions(model, bipartitions, mode="central"):
    """TestResults for a batch of bipartitions over one shared model."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    bipartitions = list(bipartitions)
    stats = mdi_statistics(model, bipartitions)
    results = []
    for b, stat in zip(bipartitions, stats):
        stat = float(stat)
        df = degrees_of_freedom(b)
        if mode == "central":
            p = chi2_sf(stat, df)
        else:
            p = noncentral_chi2_sf(stat, df, noncentrality(b, model.k))
        results.append(TestResult(b, stat, df, p))
    return results
