"""Seeded sampling: reproducible streams, random correlation matrices,
Gaussian data, and uniform random partitions with a fixed block count."""

import math

import numpy as np

from .errors import NotPositiveDefiniteError
from .linalg import DataMatrix
from .partitions import Partition, _stirling2_exact

_U64 = 1 << 64


class RngStream:
    """Deterministic random stream keyed by (seed, stream id).

    Built on the counter-based Philox generator, so distinct ids yield
    statistically independent streams and reproducibility does not depend
    on thread scheduling.  A stream is meant to be consumed by one logical
    task; concurrent tasks should hold distinct stream ids.
    """

    __slots__ = ("seed", "stream", "generator")

    def __init__(self, seed, stream=0):
        seed = int(seed)
        stream = int(stream)
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
    and the draw is almost surely positive definite.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if dim == 1:
        return np.ones((1, 1))
    g = rng.generator
    df = dim + 1
    factor = np.zeros((dim, dim))
    for i in range(dim):
        factor[i, i] = math.sqrt(g.chisquare(df - i))
        if i:
            factor[i, :i] = g.standard_normal(i)
    w = factor @ factor.T
    d = np.sqrt(np.diag(w))
    r = w / np.outer(d, d)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    return r


def sample_mvn(covariance, k, rng):
    """DataMatrix of k i.i.d. zero-mean Gaussian rows with the given covariance."""
    c = np.asarray(covariance, dtype=np.float64)
    try:
        factor = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "covariance matrix is not positive definite"
        ) from None
    z = rng.generator.standard_normal((k, c.shape[0]))
    return DataMatrix(z @ factor.T)


def random_partition_with_k_blocks(n, blocks, rng):
    """Uniform random partition of {1..n} with exactly `blocks` blocks.

    Walks elements n..2, deciding singleton-vs-join with probabilities given
    by the Stirling recurrence S(i, b) = S(i-1, b-1) + b * S(i-1, b); every
    partition with the requested block count then has equal probability.
    """
    if not 1 <= blocks <= n:
        raise ValueError(f"need 1 <= blocks <= n, got blocks={blocks}, n={n}")
    g = rng.generator
    # choices[t] for element n-t: -1 = open a new block, u >= 0 = join the
    # u-th block (by least element) of the partition of the elements below.
    choices = []
    i, b = n, blocks
    while i > 1:
        if b == i:
            choices.append(-1)
            b -= 1
        elif b == 1:
            choices.append(0)
        else:
            p_new = _stirling2_exact(i - 1, b - 1) / _stirling2_exact(i, b)
            if g.random() < p_new:
                choices.append(-1)
                b -= 1
            else:
                choices.append(int(g.integers(b)))
        i -= 1
    out_blocks = [[1]]
    for element, choice in zip(range(2, n + 1), reversed(choices)):
        if choice < 0:
            out_blocks.append([element])
        else:
            out_blocks[choice].append(element)
    return Partition.from_blocks(out_blocks, n)
