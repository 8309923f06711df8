import numpy as np
import pytest

from mutindep.distributions import chi2_sf
from mutindep.errors import NotPositiveDefiniteError
from mutindep.partitions import Partition, stirling2
from mutindep.randomness import (
    RngStream,
    _mvn_stack,
    random_partition_with_k_blocks,
    sample_mvn,
    sample_wishart_correlation,
)

import oracles


def test_stream_determinism():
    a = RngStream(123, 7)
    b = RngStream(123, 7)
    draws_a = [a.generator.standard_normal() for _ in range(100)]
    draws_b = [b.generator.standard_normal() for _ in range(100)]
    assert draws_a == draws_b
    assert draws_a[0] == pytest.approx(-0.313067543267, abs=1e-12)


def test_distinct_streams_differ():
    base = [RngStream(123, s).generator.standard_normal() for s in range(20)]
    assert len(set(base)) == 20


def test_stream_key_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 1 << 64)


@pytest.mark.parametrize("seed, stream, field", [
    (1.5, 2, "seed"), (1, 2.9, "stream"), ("7", 0, "seed"), (0, "1", "stream"),
    (np.float64(3.0), 0, "seed"), (None, 0, "seed")])
def test_stream_key_must_be_an_integer(seed, stream, field):
    # int() would run RngStream(1.5, 2.9) as seed 1, stream 2
    with pytest.raises(ValueError, match=f"^{field}: .* is not an integer$"):
        RngStream(seed, stream)


def test_stream_stores_numpy_integers_as_ints():
    stream = RngStream(np.int64(3), np.uint32(9))
    assert type(stream.seed) is int and type(stream.stream) is int
    assert repr(stream) == "RngStream(seed=3, stream=9)"
    assert stream.generator.random(4).tolist() == RngStream(3, 9).generator.random(4).tolist()


def test_wishart_correlation_scalar():
    # a block of one draws nothing: generate_model calls this for every
    # singleton block, so a draw here would move every later campaign draw
    rng = RngStream(3)
    assert sample_wishart_correlation(1, rng).tolist() == [[1.0]]
    assert rng.generator.random(4).tolist() == RngStream(3).generator.random(4).tolist()


def test_wishart_correlation_invariants():
    rng = RngStream(20260812)
    for _ in range(200):
        dim = int(rng.generator.integers(2, 7))
        r = sample_wishart_correlation(dim, rng)
        assert np.allclose(r, r.T)
        assert np.allclose(np.diag(r), 1.0)
        assert np.abs(r).max() <= 1.0 + 1e-12
        np.linalg.cholesky(r)  # must be positive definite


def test_wishart_offdiagonal_uniform_marginal():
    # dim=2 rescaled Wishart with dim+1 df: correlation ~ uniform(-1, 1)
    rng = RngStream(20260813)
    draws = [sample_wishart_correlation(2, rng)[0, 1] for _ in range(10_000)]
    d = oracles.ks_statistic_uniform(draws, lo=-1.0, hi=1.0)
    assert d < oracles.ks_critical(10_000, alpha=0.01)


def test_mvn_identity_recovery():
    data = sample_mvn(np.eye(3), 100_000, RngStream(20260814))
    r = np.corrcoef(data.values, rowvar=False)
    off = r[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.02


def test_mvn_correlated_recovery():
    cov = np.array([[1.0, 0.9], [0.9, 1.0]])
    data = sample_mvn(cov, 100_000, RngStream(20260815))
    r = np.corrcoef(data.values, rowvar=False)[0, 1]
    assert r == pytest.approx(0.9, abs=0.01)


def test_mvn_deterministic_and_pd_guard():
    a = sample_mvn(np.eye(3), 50, RngStream(5, 9)).values
    b = sample_mvn(np.eye(3), 50, RngStream(5, 9)).values
    assert (a == b).all()
    with pytest.raises(NotPositiveDefiniteError):
        sample_mvn([[1.0, 1.0], [1.0, 1.0]], 10, RngStream(0))


@pytest.mark.parametrize("covariance, message", [
    ([[1.0, 0.9], [0.0, 1.0]], "not symmetric"),  # Cholesky reads the lower triangle
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "must be square"),
    ([1.0, 1.0], "must be square"),
])
def test_mvn_refuses_a_covariance_that_is_not_square_and_symmetric(covariance, message):
    rng = RngStream(7)
    with pytest.raises(ValueError, match=message):
        sample_mvn(covariance, 10, rng)
    assert rng.generator.random(4).tolist() == RngStream(7).generator.random(4).tolist()
    if np.ndim(covariance) == 2 and len(covariance) == len(covariance[0]):
        # in a stack, one such matrix refuses the stack
        rngs = [RngStream(7, i) for i in range(3)]
        with pytest.raises(ValueError, match=message):
            _mvn_stack(np.stack([np.eye(2), covariance, np.eye(2)]), 10, rngs)


def test_mvn_takes_a_covariance_symmetric_up_to_rounding():
    a = RngStream(8).generator.standard_normal((4, 4))
    cov = a @ np.diag([1.0, 2.0, 3.0, 4.0]) @ a.T
    assert not (cov == cov.T).all()
    assert sample_mvn(cov, 10, RngStream(8)).values.shape == (10, 4)


def test_mvn_stack_refuses_as_the_one_run_call_does():
    rngs = [RngStream(5, i) for i in range(3)]
    singular, infinite = np.ones((3, 3)), np.diag([np.inf, 1.0, 1.0])
    with pytest.raises(NotPositiveDefiniteError):
        _mvn_stack(np.stack([np.eye(3), singular, np.eye(3)]), 10, rngs)
    with pytest.raises(NotPositiveDefiniteError):
        sample_mvn(singular, 10, RngStream(5))
    with pytest.raises(ValueError, match="non-finite"):
        _mvn_stack(np.stack([np.eye(3), np.eye(3), infinite]), 10, rngs)
    with pytest.raises(ValueError, match="non-finite"):
        sample_mvn(infinite, 10, RngStream(5))


def test_random_partition_forced_cases():
    rng = RngStream(20260816)
    for n in (1, 3, 6):
        assert random_partition_with_k_blocks(n, n, rng) == Partition.singletons(n)
        assert random_partition_with_k_blocks(n, 1, rng) == Partition.one_block(n)
    with pytest.raises(ValueError):
        random_partition_with_k_blocks(4, 5, rng)
    with pytest.raises(ValueError):
        random_partition_with_k_blocks(4, 0, rng)


@pytest.mark.parametrize("n, blocks, field", [(4, 2.5, "blocks"), (4.0, 2, "n"), (4, 2.0, "blocks")])
def test_random_partition_counts_must_be_integers(n, blocks, field):
    # blocks = 2.5 recursed in the Stirling numbers to a RecursionError
    with pytest.raises(ValueError, match=f"^{field}: .* is not an integer$"):
        random_partition_with_k_blocks(n, blocks, RngStream(20261023))


def test_random_partition_takes_numpy_integers():
    drawn = random_partition_with_k_blocks(np.int64(6), np.uint8(3), RngStream(20261023))
    assert drawn == random_partition_with_k_blocks(6, 3, RngStream(20261023))


def _goodness_of_fit(counts, total):
    cells = len(counts)
    expected = total / cells
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    return chi2_sf(stat, cells - 1)


def test_random_partition_uniform_n4_k2():
    rng = RngStream(20260817)
    counts = {}
    draws = 70_000
    for _ in range(draws):
        p = random_partition_with_k_blocks(4, 2, rng)
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == stirling2(4, 2) == 7
    assert _goodness_of_fit(counts, draws) > 0.01


def test_random_partition_uniform_n6_k3():
    rng = RngStream(20260818)
    counts = {}
    draws = 90_000
    for _ in range(draws):
        p = random_partition_with_k_blocks(6, 3, rng)
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == stirling2(6, 3) == 90
    assert _goodness_of_fit(counts, draws) > 0.01
