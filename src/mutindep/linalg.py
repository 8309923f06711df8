"""Data matrices, correlation models, and the sample correlation."""

import sys

import numpy as np

from . import _kernels
from .errors import DegenerateDataError

_MODEL_TOL = 1e-12


def check_sample_count(k):
    """k as an int, once it passes the checks: an integer (300.0 is refused,
    not rounded), at least 3, as two rows correlate at +-1, and at most the
    largest float, so that k - 1 is a finite float."""
    k = _kernels._integer("k", k)
    if k < 3:
        raise ValueError(f"need a sample count of at least 3, got {k}")
    if k > sys.float_info.max:
        raise ValueError(f"need a sample count of at most {sys.float_info.max!r}")
    return k


class DataMatrix:
    """k >= 3 i.i.d. observation rows over n variables (immutable)."""

    __slots__ = ("values",)

    def __init__(self, values):
        if isinstance(values, DataMatrix):
            values = values.values
        v = np.array(values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("data must be two-dimensional (rows = observations)")
        check_sample_count(v.shape[0])
        if v.shape[1] < 1:
            raise ValueError("need at least 1 variable column")
        if not np.isfinite(v).all():
            raise ValueError("data contains non-finite entries")
        v.setflags(write=False)
        self.values = v

    @property
    def k(self):
        return self.values.shape[0]

    @property
    def n(self):
        return self.values.shape[1]

    def __repr__(self):
        return f"DataMatrix(k={self.k}, n={self.n})"


class CorrelationModel:
    """A correlation matrix together with the sample count behind it.

    These are the sufficient statistics for every dichotomy test: the
    statistic depends on the data only through (r, k), with k >= 3.
    """

    __slots__ = ("r", "k", "_logdets")

    def __init__(self, r, k):
        k = check_sample_count(k)
        r = np.array(r, dtype=np.float64)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {r.shape}")
        if not np.isfinite(r).all():
            raise ValueError("correlation matrix contains non-finite entries")
        if np.abs(r - r.T).max(initial=0.0) > _MODEL_TOL:
            raise ValueError("correlation matrix is not symmetric")
        if np.abs(np.diag(r) - 1.0).max(initial=0.0) > _MODEL_TOL:
            raise ValueError("correlation matrix must have a unit diagonal")
        if np.abs(r).max(initial=0.0) > 1.0 + _MODEL_TOL:
            raise ValueError("correlation entries must lie in [-1, 1]")
        r.setflags(write=False)
        self.r = r
        self.k = k
        self._logdets = None

    @property
    def n(self):
        return self.r.shape[0]

    @property
    def logdets(self):
        """The kernel's table of log det(R_SS) for every subset S, by bitmask:
        built on first read and kept, 2^n floats (8 MiB at n = 20)."""
        if self._logdets is None:
            self._logdets = _kernels._subset_logdets(self.r)
            self._logdets.setflags(write=False)
        return self._logdets

    def __repr__(self):
        return f"CorrelationModel(n={self.n}, k={self.k})"


def sample_correlation(data):
    """Pearson correlation model of a data matrix.

    Variances and covariances both use the (k-1) denominator, which cancels
    in the correlation itself.  Constant columns (zero sample variance) are
    rejected with their 1-based indices named.  The result does not depend
    on the scale of a column.
    """
    if not isinstance(data, DataMatrix):
        data = DataMatrix(data)
    r, constant = _correlations(data.values)
    if constant.any():
        cols = ", ".join(str(i + 1) for i in np.flatnonzero(constant))
        raise DegenerateDataError(
            f"column(s) {cols} are constant (zero sample variance)")
    return CorrelationModel(r, data.k)


def _correlations(x):
    """The correlation matrix of each data set of a samples-first stack
    (k, ..., n), and which of its columns are constant (those make the
    matrix meaningless).  A 2-D data matrix (k, n) is a stack of one, and
    the leading slice x[:size] of a stack is its data sets' first size
    samples."""
    k, n = x.shape[0], x.shape[-1]
    # the reductions run over the leading axis, so each adds whole rows of
    # the stack in sample order
    top, bottom = x.max(axis=0), x.min(axis=0)
    # the mean of equal values can round away from them, so a constant
    # column is told by its range, not by its sum of squares
    constant = top == bottom
    # dividing a column by the power of two at its largest |value| is exact,
    # and keeps the squares below from overflowing or underflowing; the
    # centering and the scaling to unit variance work in place on that copy
    z = np.ldexp(x, -np.frexp(np.maximum(top, -bottom))[1])
    z -= z.mean(axis=0)
    ss = np.einsum("i...j,i...j->...j", z, z)
    with np.errstate(divide="ignore", invalid="ignore"):  # constant columns
        z /= np.sqrt(ss / (k - 1))
    z = np.moveaxis(z, 0, -2)
    r = (np.swapaxes(z, -1, -2) @ z) / (k - 1)
    r = np.clip((r + np.swapaxes(r, -1, -2)) / 2.0, -1.0, 1.0)
    r[..., range(n), range(n)] = 1.0
    return r, constant
