"""Seeded sampling: reproducible streams, random correlation matrices,
Gaussian data, and uniform random partitions with a fixed block count."""

import numpy as np

from ._kernels import _integer
from .errors import NotPositiveDefiniteError
from .linalg import DataMatrix
from .partitions import Partition, _stirling2_exact

_U64 = 1 << 64

# a covariance is symmetric when no entry differs from its mirror image by
# more than this fraction of the matrix's largest |entry|
_SYMMETRY_TOL = 1e-12


class RngStream:
    """Deterministic random stream keyed by (seed, stream id).

    Built on the counter-based Philox generator, so distinct ids yield
    statistically independent streams and reproducibility does not depend
    on thread scheduling.  A stream is meant to be consumed by one logical
    task; concurrent tasks should hold distinct stream ids.
    """

    __slots__ = ("seed", "stream", "generator")

    def __init__(self, seed, stream=0):
        seed = _integer("seed", seed)
        stream = _integer("stream", stream)
        if not 0 <= seed < _U64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= stream < _U64:
            raise ValueError("stream id must fit in an unsigned 64-bit integer")
        self.seed = seed
        self.stream = stream
        self.generator = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((seed, stream)))
        )

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def sample_wishart_correlation(dim, rng):
    """Random correlation matrix from a rescaled Wishart draw.

    Draws W ~ Wishart(identity scale, dim + 1 degrees of freedom) through
    the Bartlett construction (chi-distributed diagonal, standard-normal
    subdiagonal) and rescales it to unit diagonal.  With dim + 1 degrees of
    freedom every correlation coefficient has a uniform marginal on (-1, 1),
    and the draw is almost surely positive definite.  A one-element call of
    the stacked draw that campaigns make; dim = 1 gives [[1]] and draws
    nothing.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if dim == 1:
        return np.ones((1, 1))
    factors = np.zeros((1, dim, dim))
    _bartlett_draws(factors[0], rng)
    return _wishart_correlations(factors)[0]


def _bartlett_draws(factor, rng):
    """Fill the zeroed square `factor` with one Bartlett draw from rng, row
    by row: a chi-squared draw with dim + 1 - i degrees of freedom on the
    diagonal of row i, then i standard normals left of it."""
    g = rng.generator
    df = len(factor) + 1
    for i, row in enumerate(factor):
        row[i] = g.chisquare(df - i)
        if i:
            g.standard_normal(out=row[:i])


def _wishart_correlations(factors):
    """The correlation matrices of W = F Fᵀ for a stack (m, dim, dim) of
    _bartlett_draws, whose diagonals take their square roots in place: one
    stacked product, scaling and symmetrisation, and a unit diagonal."""
    diagonal = (..., range(factors.shape[-1]), range(factors.shape[-1]))
    factors[diagonal] = np.sqrt(factors[diagonal])
    w = factors @ np.swapaxes(factors, -1, -2)
    d = np.sqrt(w[diagonal])
    r = w / (d[..., :, None] * d[..., None, :])
    r = (r + np.swapaxes(r, -1, -2)) / 2.0
    r[diagonal] = 1.0
    return r


def sample_mvn(covariance, k, rng):
    """DataMatrix of k i.i.d. zero-mean Gaussian rows with the given
    covariance, which must be square and symmetric: a one-element call of
    the stacked draw that campaigns make."""
    c = np.asarray(covariance, dtype=np.float64)
    return DataMatrix(_mvn_stack(c[np.newaxis], k, [rng])[0])


def _mvn_stack(covariances, k, rngs):
    """(runs, k, n) stack of k i.i.d. zero-mean Gaussian rows per covariance
    of a (runs, n, n) stack, run i drawn from rngs[i] as a (k, n) block of
    standard normals: one symmetry check, one stacked Cholesky factor L,
    one stacked product z Lᵀ and one finite check for the stack."""
    c = np.asarray(covariances, dtype=np.float64)
    if c.ndim != 3 or c.shape[1] != c.shape[2]:
        raise ValueError(f"covariance matrix must be square, got shape {c.shape[1:]}")
    # the factorisation reads the lower triangle alone, so an upper one
    # that differs would be ignored; a NaN fails the factorisation below
    with np.errstate(invalid="ignore"):
        asymmetry = np.abs(c - np.swapaxes(c, 1, 2)).max(axis=(1, 2), initial=0.0)
        if (asymmetry > _SYMMETRY_TOL * np.abs(c).max(axis=(1, 2), initial=0.0)).any():
            raise ValueError("covariance matrix is not symmetric")
    try:
        factors = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "covariance matrix is not positive definite"
        ) from None
    z = np.empty((len(c), k, c.shape[1]))
    for normals, rng in zip(z, rngs, strict=True):
        rng.generator.standard_normal(out=normals)
    x = z @ np.swapaxes(factors, 1, 2)
    if not np.isfinite(x).all():
        raise ValueError("data contains non-finite entries")
    return x


def random_partition_with_k_blocks(n, blocks, rng):
    """Uniform random partition of {1..n} with exactly `blocks` blocks.

    Walks elements n..2, deciding singleton-vs-join with probabilities given
    by the Stirling recurrence S(i, b) = S(i-1, b-1) + b * S(i-1, b); every
    partition with the requested block count then has equal probability.
    Each decision sets the element's restricted-growth label: with b blocks
    among 1..i, a new block at i ranks after the b - 1 blocks below it, and
    a join picks one of the b blocks below, by least element.
    """
    n, blocks = _integer("n", n), _integer("blocks", blocks)
    if not 1 <= blocks <= n:
        raise ValueError(f"need 1 <= blocks <= n, got blocks={blocks}, n={n}")
    g = rng.generator
    labels = [0] * n
    b = blocks
    for i in range(n, 1, -1):
        if b == 1:
            break  # the elements below all join block 0, with no draw
        if b == i or g.random() < _stirling2_exact(i - 1, b - 1) / _stirling2_exact(i, b):
            b -= 1
            labels[i - 1] = b
        else:
            labels[i - 1] = int(g.integers(b))
    return Partition(labels)
