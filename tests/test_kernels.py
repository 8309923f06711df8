"""The dichotomy kernel against brute-force oracles: numpy.linalg.slogdet
and cofactor determinants."""

import math

import numpy as np
import pytest

from mutindep import _kernels as kernels
from mutindep.errors import NotPositiveDefiniteError
from mutindep.randomness import RngStream, sample_wishart_correlation

import oracles


def test_logdet_parity_random_matrices():
    rng = RngStream(20260836)
    for _ in range(200):
        dim = int(rng.generator.integers(1, 13))
        r = sample_wishart_correlation(dim, rng)
        sign, expected = np.linalg.slogdet(r)
        assert sign == 1.0
        assert kernels.logdet_spd(r) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_non_pd_parity():
    bad = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        kernels.logdet_spd(bad)

    # a singular principal block makes the whole matrix singular, so the
    # batch fails on the full factorization
    r = np.eye(4)
    r[0, 1] = r[1, 0] = 1.0
    masks = np.array([0b0011], dtype=np.uint64)
    with pytest.raises(NotPositiveDefiniteError) as err:
        kernels.mdi_statistic_batch(r, masks, 10)
    assert err.value.part == "full"


def test_scalar_and_batch_agree():
    rng = RngStream(20260838)
    r = sample_wishart_correlation(6, rng)
    masks = np.arange(1, 2**6 - 1, 2, dtype=np.uint64)
    batch = kernels.mdi_statistic_batch(r, masks, 99)
    full = kernels.logdet_spd(r)
    for mask, stat in zip(masks, batch):
        sel = [i for i in range(6) if (int(mask) >> i) & 1]
        comp = [i for i in range(6) if not (int(mask) >> i) & 1]
        expected = 98.0 * (
            kernels.logdet_spd(r[np.ix_(sel, sel)])
            + kernels.logdet_spd(r[np.ix_(comp, comp)])
            - full
        )
        assert stat == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _slogdet_statistics(r, masks, k):
    """Per-mask statistics from numpy.linalg.slogdet (LU, not Cholesky)."""
    n = r.shape[0]
    full = np.linalg.slogdet(r)[1]
    out = []
    for mask in masks:
        mask = int(mask)
        total = -full
        for part in ([i for i in range(n) if (mask >> i) & 1],
                     [i for i in range(n) if not (mask >> i) & 1]):
            if part:  # the empty set has log-determinant 0
                total += np.linalg.slogdet(r[np.ix_(part, part)])[1]
        out.append((k - 1) * total)
    return np.array(out)


def _rounding_tolerance(r, k):
    # twice the rounding bound of mdi._clamped: each side may be off by it
    n, eps = r.shape[0], np.finfo(np.float64).eps
    ld_full = np.linalg.slogdet(r)[1]
    lambda_min = np.linalg.eigvalsh(r)[0]
    return 2.0 * (k - 1) * n * eps * (2.0 * abs(ld_full) + 3.0 * (n + 1) / lambda_min)


@pytest.mark.parametrize("stack", [3, kernels._STACK])
def test_batched_kernel_matches_slogdet(monkeypatch, stack):
    # stack=3 splits every size group into many stacks; at the default cap
    # n=11 still has a group (462 subsets of size 5) larger than one stack
    monkeypatch.setattr(kernels, "_STACK", stack)
    rng = RngStream(20260839)
    for n in range(2, 12):
        r = sample_wishart_correlation(n, rng)
        k = int(rng.generator.integers(3, 1000))
        enumeration = np.arange(1, 2**n - 1, 2, dtype=np.uint64)
        shuffled = rng.generator.permutation(enumeration)
        # repeats, complements (bit 0 clear) and the two trivial masks
        extra = rng.generator.integers(0, 2**n, size=2 * n).astype(np.uint64)
        trivial = np.array([0, 2**n - 1], dtype=np.uint64)
        masks = np.concatenate([shuffled, shuffled[: n], extra, trivial])
        got = kernels.mdi_statistic_batch(r, masks, k)
        np.testing.assert_allclose(
            got, _slogdet_statistics(r, masks, k), rtol=0,
            atol=_rounding_tolerance(r, k),
        )


def test_small_batches_match_cofactor_determinants():
    rng = RngStream(20260840)
    for n in range(2, 7):
        r = sample_wishart_correlation(n, rng)
        masks = np.arange(1, 2**n - 1, 2, dtype=np.uint64)
        full = math.log(oracles.det_cofactor(r))
        for mask, stat in zip(masks, kernels.mdi_statistic_batch(r, masks, 50)):
            sel = [i for i in range(n) if (int(mask) >> i) & 1]
            comp = [i for i in range(n) if not (int(mask) >> i) & 1]
            expected = 49.0 * (
                math.log(oracles.det_cofactor(r[np.ix_(sel, sel)]))
                + math.log(oracles.det_cofactor(r[np.ix_(comp, comp)]))
                - full
            )
            assert stat == pytest.approx(expected, rel=1e-10, abs=1e-10)


def _scalar_logdets(r, subsets):
    n = r.shape[0]
    out = []
    for mask in subsets:
        idx = [i for i in range(n) if (int(mask) >> i) & 1]
        ld = kernels._chol_logdet(r[np.ix_(idx, idx)])
        out.append(np.nan if ld is None else ld)
    return np.array(out)


def test_stack_fallback_and_pivot_rule_match_the_scalar_factorization():
    # variables 1 and 2 are identical: LAPACK refuses every stack that holds
    # a subset containing both, and the stack is redone one subset at a time
    singular = np.eye(4)
    singular[0, 1] = singular[1, 0] = 1.0
    # 1 and 2 correlate at 1 - 1e-14: LAPACK factors the pair, but its
    # second pivot (about 2e-14) fails the 1e-12 * dim * maxdiag rule
    near = np.eye(4)
    near[0, 1] = near[1, 0] = 1.0 - 1e-14
    for r in (singular, near):
        for size, subsets in ((2, [0b0011, 0b0101, 0b1100]),
                              (3, [0b0111, 0b1110, 0b1011, 0b1101])):
            subsets = np.array(subsets, dtype=np.uint64)
            got = kernels._stack_logdets(r, subsets, size)
            want = _scalar_logdets(r, subsets)
            assert np.isnan(got[0]) and np.isnan(want[0])
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular[np.ix_([0, 1], [0, 1])][None])


def test_first_failing_mask_in_input_order_is_named(monkeypatch):
    # a full matrix that passes the pivot rule has only passing principal
    # submatrices in exact arithmetic, so let the full factorization pass
    # to reach the per-mask reporting
    scalar = kernels._chol_logdet
    monkeypatch.setattr(
        kernels, "_chol_logdet", lambda a: 0.0 if a.shape[0] == 4 else scalar(a)
    )
    # variables 1, 2 and variables 3, 4 are identical pairs
    r = np.eye(4)
    r[0, 1] = r[1, 0] = r[2, 3] = r[3, 2] = 1.0
    passes = 0b0101  # 13 | 24
    fails_in_complement = 0b0100  # 3 | 124
    fails_in_both = 0b0011  # 12 | 34
    ok = kernels.mdi_statistic_batch(r, np.array([passes], dtype=np.uint64), 10)
    assert np.isfinite(ok).all()
    for masks, part, elements in (
        ([passes, fails_in_complement, fails_in_both], "complement", (1, 2, 4)),
        ([passes, fails_in_both, fails_in_complement], "members", (1, 2)),
    ):
        with pytest.raises(NotPositiveDefiniteError) as err:
            kernels.mdi_statistic_batch(r, np.array(masks, dtype=np.uint64), 10)
        assert err.value.part == part
        assert err.value.elements == elements


def test_statistics_are_invariant_under_relabelling():
    rng = RngStream(20260841)
    n = 8
    r = sample_wishart_correlation(n, rng)
    perm = rng.generator.permutation(n)
    # variable i of the relabelled matrix is variable perm[i] of r
    relabelled = r[np.ix_(perm, perm)]
    masks = np.arange(1, 2**n - 1, 2, dtype=np.uint64)
    moved = np.array(
        [sum(1 << i for i in range(n) if (int(mask) >> int(perm[i])) & 1)
         for mask in masks],
        dtype=np.uint64,
    )
    np.testing.assert_allclose(
        kernels.mdi_statistic_batch(relabelled, moved, 200),
        kernels.mdi_statistic_batch(r, masks, 200),
        rtol=0, atol=_rounding_tolerance(r, 200),
    )
