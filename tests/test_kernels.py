"""The dichotomy kernel against brute-force oracles: numpy.linalg.slogdet
and cofactor determinants."""

import math

import numpy as np
import pytest

from mutindep import _kernels as kernels
from mutindep.errors import NotPositiveDefiniteError
from mutindep.randomness import RngStream, sample_wishart_correlation

import oracles


def chol_logdet(matrix):
    """The reference factorization, on a copy (it factors in place)."""
    return kernels._chol_logdet(np.array(matrix, dtype=np.float64))


def test_logdet_parity_random_matrices():
    rng = RngStream(20260836)
    for _ in range(200):
        dim = int(rng.generator.integers(1, 13))
        r = sample_wishart_correlation(dim, rng)
        sign, expected = np.linalg.slogdet(r)
        assert sign == 1.0
        assert chol_logdet(r) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_non_pd_parity():
    assert chol_logdet([[1.0, 1.0], [1.0, 1.0]]) is None

    # a singular principal block makes the whole matrix singular, so the
    # batch fails on the full factorization
    r = np.eye(4)
    r[0, 1] = r[1, 0] = 1.0
    masks = np.array([0b0011], dtype=np.uint64)
    with pytest.raises(NotPositiveDefiniteError) as err:
        kernels.mdi_statistic_batch(r, masks, 10)
    assert err.value.part == "full"


def test_a_matrix_past_the_table_limit_is_refused():
    n = kernels.MAX_VARIABLES + 1
    masks = np.array([1], dtype=np.uint64)
    with pytest.raises(ValueError, match=f"n={n} .* n <= {kernels.MAX_VARIABLES}"):
        kernels.mdi_statistic_batch(np.eye(n), masks, 10)


def test_scalar_and_batch_agree():
    rng = RngStream(20260838)
    r = sample_wishart_correlation(6, rng)
    masks = np.arange(1, 2**6 - 1, 2, dtype=np.uint64)
    batch = kernels.mdi_statistic_batch(r, masks, 99)
    full = chol_logdet(r)
    for mask, stat in zip(masks, batch):
        sel = [i for i in range(6) if (int(mask) >> i) & 1]
        comp = [i for i in range(6) if not (int(mask) >> i) & 1]
        expected = 98.0 * (
            chol_logdet(r[np.ix_(sel, sel)])
            + chol_logdet(r[np.ix_(comp, comp)])
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


@pytest.mark.parametrize("chunk", [3, 256])
def test_batched_kernel_matches_slogdet(chunk):
    # the masks are fed in batches of `chunk`: a statistic must not depend on
    # which batch its mask arrives in (3 splits every enumeration into many
    # batches; 256 leaves n <= 9 whole and splits the larger ones)
    rng = RngStream(20260839)
    for n in range(2, 15):
        r = sample_wishart_correlation(n, rng)
        k = int(rng.generator.integers(3, 1000))
        enumeration = np.arange(1, 2**n - 1, 2, dtype=np.uint64)
        shuffled = rng.generator.permutation(enumeration)
        # repeats, complements (bit 0 clear) and the two trivial masks
        extra = rng.generator.integers(0, 2**n, size=2 * n).astype(np.uint64)
        trivial = np.array([0, 2**n - 1], dtype=np.uint64)
        masks = np.concatenate([shuffled, shuffled[: n], extra, trivial])
        got = np.concatenate([
            kernels.mdi_statistic_batch(r, masks[i : i + chunk], k)
            for i in range(0, len(masks), chunk)
        ])
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


def test_subset_table_and_pivot_rule_match_the_scalar_factorization():
    # variables 1 and 2 are identical: every subset holding both fails
    singular = np.eye(4)
    singular[0, 1] = singular[1, 0] = 1.0
    # 1 and 2 correlate at 1 - 1e-14: the pair's second pivot (about 2e-14)
    # is positive but fails the 1e-12 * dim * maxdiag rule
    near = np.eye(4)
    near[0, 1] = near[1, 0] = 1.0 - 1e-14
    rng = RngStream(20260842)
    wishart = [sample_wishart_correlation(n, rng) for n in (1, 2, 3, 5, 7)]
    for r in [singular, near] + wishart:
        n = r.shape[0]
        want = []
        for subset in range(2**n):
            idx = [i for i in range(n) if (subset >> i) & 1]
            ld = chol_logdet(r[np.ix_(idx, idx)])
            want.append(np.nan if ld is None else ld)
        got = kernels._subset_logdets(r)
        assert got.shape == (2**n,) and got[0] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    assert np.isnan(kernels._subset_logdets(singular)[0b0011])
    assert np.isnan(kernels._subset_logdets(near)[0b1011])


def test_first_failing_mask_in_input_order_is_named(monkeypatch):
    # a full matrix that passes the pivot rule has only passing principal
    # submatrices in exact arithmetic, so let the full matrix's entry of the
    # table pass to reach the per-mask reporting
    table = kernels._subset_logdets

    def full_passes(r):
        lds = table(r)
        lds[-1] = 0.0
        return lds

    monkeypatch.setattr(kernels, "_subset_logdets", full_passes)
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
