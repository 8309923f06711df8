"""Data matrices, correlation models, and the sample correlation."""

import numpy as np

from .errors import DegenerateDataError

_MODEL_TOL = 1e-12


class DataMatrix:
    """k i.i.d. observation rows over n variables (immutable)."""

    __slots__ = ("values",)

    def __init__(self, values):
        if isinstance(values, DataMatrix):
            values = values.values
        v = np.array(values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("data must be two-dimensional (rows = observations)")
        if v.shape[0] < 2:
            raise ValueError(f"need at least 2 observation rows, got {v.shape[0]}")
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
    statistic depends on the data only through (r, k).
    """

    __slots__ = ("r", "k")

    def __init__(self, r, k):
        r = np.array(r, dtype=np.float64)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.isfinite(r).all():
            raise ValueError("correlation matrix contains non-finite entries")
        if np.abs(r - r.T).max(initial=0.0) > _MODEL_TOL:
            raise ValueError("correlation matrix is not symmetric")
        if np.abs(np.diag(r) - 1.0).max(initial=0.0) > _MODEL_TOL:
            raise ValueError("correlation matrix must have a unit diagonal")
        if np.abs(r).max(initial=0.0) > 1.0 + _MODEL_TOL:
            raise ValueError("correlation entries must lie in [-1, 1]")
        k = int(k)
        if k < 2:
            raise ValueError(f"need a sample count of at least 2, got {k}")
        r.setflags(write=False)
        self.r = r
        self.k = k

    @property
    def n(self):
        return self.r.shape[0]

    def __repr__(self):
        return f"CorrelationModel(n={self.n}, k={self.k})"


def sample_correlation(data):
    """Pearson correlation model of a data matrix.

    Variances and covariances both use the (k-1) denominator, which cancels
    in the correlation itself.  Columns with zero sample variance are
    rejected with their 1-based indices named.
    """
    if not isinstance(data, DataMatrix):
        data = DataMatrix(data)
    if data.k < 3:
        raise ValueError(f"sample correlation needs at least 3 rows, got {data.k}")
    x = data.values
    centered = x - x.mean(axis=0)
    ss = np.einsum("ij,ij->j", centered, centered)
    dead = np.flatnonzero(ss == 0.0)
    if dead.size:
        cols = ", ".join(str(i + 1) for i in dead)
        raise DegenerateDataError(
            f"column(s) {cols} are constant (zero sample variance)"
        )
    z = centered / np.sqrt(ss / (data.k - 1))
    r = (z.T @ z) / (data.k - 1)
    r = np.clip((r + r.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return CorrelationModel(r, data.k)
