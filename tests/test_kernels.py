"""The dichotomy kernel against brute-force oracles: numpy.linalg.slogdet
and cofactor determinants."""

import math

import numpy as np
import pytest

from mutindep import _kernels as kernels
from mutindep.errors import NotPositiveDefiniteError
from mutindep.linalg import CorrelationModel
from mutindep.mdi import mdi_statistics
from mutindep.partitions import Bipartition, bipartition_masks
from mutindep.randomness import RngStream, sample_wishart_correlation

import oracles


def _batch(r, masks, k):
    """The statistics of one matrix: its subset table, then the batch."""
    return kernels.mdi_statistic_batch(kernels._subset_logdets(r), masks, k)


def test_logdet_parity_random_matrices():
    rng = RngStream(20260836)
    for _ in range(200):
        dim = int(rng.generator.integers(1, 13))
        r = sample_wishart_correlation(dim, rng)
        sign, expected = np.linalg.slogdet(r)
        assert sign == 1.0
        assert oracles.chol_logdet(r) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_non_pd_parity():
    assert oracles.chol_logdet([[1.0, 1.0], [1.0, 1.0]]) is None

    # a singular principal block makes the whole matrix singular, so every
    # statistic is NaN and the failure is named as the full factorization
    r = np.eye(4)
    r[0, 1] = r[1, 0] = 1.0
    masks = np.array([0b0011], dtype=np.uint64)
    assert np.isnan(_batch(r, masks, 10)).all()
    with pytest.raises(NotPositiveDefiniteError) as err:
        mdi_statistics(CorrelationModel(r, 10), _bipartitions(4, masks))
    assert err.value.part == "full"


def test_a_matrix_past_the_table_limit_is_refused():
    n = kernels.MAX_VARIABLES + 1
    masks = np.array([1], dtype=np.uint64)
    with pytest.raises(ValueError, match=f"n={n} .* n <= {kernels.MAX_VARIABLES}"):
        _batch(np.eye(n), masks, 10)


def test_scalar_and_batch_agree():
    rng = RngStream(20260838)
    r = sample_wishart_correlation(6, rng)
    masks = np.arange(1, 2**6 - 1, 2, dtype=np.uint64)
    batch = _batch(r, masks, 99)
    full = oracles.chol_logdet(r)
    for mask, stat in zip(masks, batch):
        sel = [i for i in range(6) if (int(mask) >> i) & 1]
        comp = [i for i in range(6) if not (int(mask) >> i) & 1]
        expected = 98.0 * (
            oracles.chol_logdet(r[np.ix_(sel, sel)])
            + oracles.chol_logdet(r[np.ix_(comp, comp)])
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
            _batch(r, masks[i : i + chunk], k)
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
        for mask, stat in zip(masks, _batch(r, masks, 50)):
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
            ld = oracles.chol_logdet(r[np.ix_(idx, idx)])
            want.append(np.nan if ld is None else ld)
        got = kernels._subset_logdets(r)
        assert got.shape == (2**n,) and got[0] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    assert np.isnan(kernels._subset_logdets(singular)[0b0011])
    assert np.isnan(kernels._subset_logdets(near)[0b1011])


def test_first_failing_mask_in_input_order_is_named():
    # variables 1, 2 and variables 3, 4 are identical pairs
    r = np.eye(4)
    r[0, 1] = r[1, 0] = r[2, 3] = r[3, 2] = 1.0
    # a full matrix that passes the pivot rule has only passing principal
    # submatrices in exact arithmetic, so let the full matrix's entry of the
    # table pass to reach the per-mask naming
    lds = kernels._subset_logdets(r)
    lds[-1] = 0.0
    passes = 0b0101  # 13 | 24
    fails_in_complement = 0b0100  # 3 | 124
    fails_in_both = 0b0011  # 12 | 34
    ok = np.array([passes], dtype=np.uint64)
    assert np.isfinite(kernels.mdi_statistic_batch(lds, ok, 10)).all()
    assert kernels.first_failure(lds, ok) is None
    for masks, part, elements in (
        ([passes, fails_in_complement, fails_in_both], "complement", (1, 2, 4)),
        ([passes, fails_in_both, fails_in_complement], "members", (1, 2)),
    ):
        masks = np.array(masks, dtype=np.uint64)
        stats = kernels.mdi_statistic_batch(lds, masks, 10)
        assert np.isnan(stats).tolist() == [False, True, True]
        err = kernels.first_failure(lds, masks)
        assert isinstance(err, NotPositiveDefiniteError)
        assert err.part == part
        assert err.elements == elements


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
        _batch(relabelled, moved, 200),
        _batch(r, masks, 200),
        rtol=0, atol=_rounding_tolerance(r, 200),
    )


def test_a_stacked_table_is_the_per_matrix_tables_bit_for_bit():
    rng = RngStream(20260843)
    n = 6
    matrices = [sample_wishart_correlation(n, rng) for _ in range(7)]
    # variables 2 and 5 identical; variables 1 and 3 at 1 - 1e-14
    singular = sample_wishart_correlation(n, rng)
    singular[4], singular[:, 4] = singular[1], singular[:, 1]
    near = np.eye(n)
    near[0, 2] = near[2, 0] = 1.0 - 1e-14
    failing = {2: singular, 5: near}
    for i, r in failing.items():
        matrices.insert(i, r)
    stack = np.array(matrices)
    tables = kernels._subset_logdets(stack)
    assert tables.shape == (len(matrices), 2**n)
    for i, r in enumerate(matrices):
        one = kernels._subset_logdets(r)
        assert tables[i].tobytes() == one.tobytes()
        assert np.isnan(tables[i]).any() == (i in failing)
    # any leading axes, and a stack of one
    assert kernels._subset_logdets(stack.reshape(3, 3, n, n)).tobytes() == tables.tobytes()
    assert kernels._subset_logdets(stack[:1]).tobytes() == tables[:1].tobytes()


def _bipartitions(n, masks):
    """The Bipartitions of n variables whose members bitmasks are `masks`."""
    return [Bipartition(n, mask) for mask in masks.tolist()]


def _mdi_statistics_raise(r, k, masks):
    try:
        mdi_statistics(CorrelationModel(r, k), _bipartitions(len(r), masks))
    except NotPositiveDefiniteError:
        return True
    return False


def test_a_stacked_batch_is_the_per_table_batches_bit_for_bit():
    rng = RngStream(20260845)
    n = 6
    stack = np.array([sample_wishart_correlation(n, rng) for _ in range(6)])
    # variables 2 and 5 identical; variables 1 and 3 at 1 - 1e-14
    stack[1, 4], stack[1, :, 4] = stack[1, 1], stack[1, :, 1]
    stack[4] = np.eye(n)
    stack[4, 0, 2] = stack[4, 2, 0] = 1.0 - 1e-14
    stack = stack.reshape(2, 3, n, n)
    tables = kernels._subset_logdets(stack)
    masks = bipartition_masks(n)
    ks = np.array([10, 300, 10**6])  # one count per column of tables
    got = kernels.mdi_statistic_batch(tables, masks, ks)
    common = kernels.mdi_statistic_batch(tables, masks, 300)
    assert got.shape == common.shape == (2, 3, masks.size)
    for i, j in np.ndindex(2, 3):
        r = stack[i, j]
        assert got[i, j].tobytes() == _batch(r, masks, int(ks[j])).tobytes()
        assert common[i, j].tobytes() == _batch(r, masks, 300).tobytes()
        # NaN rows are the analyses that mdi_statistics refuses
        failed = np.isnan(got[i, j])
        assert failed.any() == _mdi_statistics_raise(r, int(ks[j]), masks)
        assert failed.any() == ((i, j) in ((0, 1), (1, 1)))
