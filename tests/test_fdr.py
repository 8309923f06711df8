import numpy as np
import pytest

from mutindep.fdr import bh_fdr, bonferroni


def test_bh_worked_example():
    rejected = bh_fdr([0.01, 0.02, 0.2], 0.1)
    assert rejected.tolist() == [True, True, False]


def test_bh_extremes():
    assert not bh_fdr([1.0, 1.0, 1.0], 0.1).any()
    assert bh_fdr([0.0, 0.0, 0.0, 0.0], 0.1).all()


def test_bh_nonstrict_comparison():
    # the i-th smallest exactly at alpha*i/m is rejected
    assert bh_fdr([0.05], 0.05).tolist() == [True]


def test_bh_ties_share_the_verdict():
    rejected = bh_fdr([0.04, 0.04, 0.9], 0.06)
    # cuts are 0.02, 0.04, 0.06: position 2 passes, so both ties go together
    assert rejected.tolist() == [True, True, False]
    for pvals in ([0.03, 0.03], [0.05, 0.05, 0.05, 0.8]):
        rejected = bh_fdr(pvals, 0.1)
        verdicts = {r for p, r in zip(pvals, rejected.tolist()) if p == min(pvals)}
        assert len(verdicts) == 1
    # each row of (rows, tests) input is corrected on its own: the tie at
    # 0.06 passes in the second row and fails in the third
    rows = np.array([[0.04, 0.04, 0.9, 0.04], [0.9, 0.06, 0.06, 0.01],
                     [0.06, 0.9, 0.9, 0.06], [0.1, 0.1, 0.1, 0.1]])
    assert bh_fdr(rows, 0.1).tolist() == [[True, True, False, True], [False, True, True, True],
                                          [False] * 4, [True] * 4]
    assert bonferroni(rows, 0.1).tolist() == [[False] * 4, [False, False, False, True],
                                              [False] * 4, [False] * 4]
    for rule in (bh_fdr, bonferroni):
        assert rule(rows, 0.1).tolist() == [rule(row, 0.1).tolist() for row in rows]


def test_bonferroni_worked_example():
    rejected = bonferroni([0.01, 0.02, 0.2], 0.1)
    # alpha/m = 0.0333...: both of the small p-values pass
    assert rejected.tolist() == [True, True, False]


def test_single_pvalue_reduces_to_plain_threshold():
    for p in (0.02, 0.05, 0.5):
        for rule in (bh_fdr, bonferroni):
            assert rule([p], 0.05).tolist() == [p <= 0.05]


def test_validation():
    for rule in (bh_fdr, bonferroni):
        with pytest.raises(ValueError):
            rule([], 0.1)
        with pytest.raises(ValueError):
            rule(np.zeros((2, 0)), 0.1)
        with pytest.raises(ValueError):
            rule(np.zeros((2, 2, 2)), 0.1)
        with pytest.raises(ValueError):
            rule([[0.5, 0.5], [0.5, np.nan]], 0.1)
        assert rule(np.zeros((0, 3)), 0.1).shape == (0, 3)
        with pytest.raises(ValueError):
            rule([0.5, 1.5], 0.1)
        with pytest.raises(ValueError):
            rule([0.5], 0.0)
        with pytest.raises(ValueError):
            rule([0.5], 1.0)


def test_bonferroni_subset_of_bh():
    rng = np.random.default_rng(20260824)
    for _ in range(500):
        m = int(rng.integers(1, 40))
        p = rng.random(m)
        alpha = float(rng.uniform(0.01, 0.3))
        bh = bh_fdr(p, alpha)
        bp = bonferroni(p, alpha)
        for rej_bp, rej_bh in zip(bp, bh):
            assert not rej_bp or rej_bh
        assert bp.sum() <= bh.sum()


def test_permutation_equivariance():
    rng = np.random.default_rng(20260825)
    p = rng.random(15)
    base = bh_fdr(p, 0.1)
    perms = [rng.permutation(15) for _ in range(20)]
    for perm in perms:
        assert (bh_fdr(p[perm], 0.1) == base[perm]).all()
    # the permuted rows stacked: one call corrects each row as its 1-D call
    for rule in (bh_fdr, bonferroni):
        rows = rule(p[perms], 0.1)
        assert rows.shape == (20, 15)
        for row, perm in zip(rows, perms):
            assert (row == rule(p, 0.1)[perm]).all()


def test_bh_monotone_in_single_pvalue():
    rng = np.random.default_rng(20260826)
    for _ in range(300):
        m = int(rng.integers(2, 25))
        p = rng.random(m)
        before = set(np.flatnonzero(bh_fdr(p, 0.1)))
        i = int(rng.integers(m))
        lowered = p.copy()
        lowered[i] = p[i] * rng.random()
        after = set(np.flatnonzero(bh_fdr(lowered, 0.1)))
        assert before - {i} <= after


def test_bh_monotone_in_alpha():
    rng = np.random.default_rng(20260827)
    for _ in range(200):
        p = rng.random(int(rng.integers(1, 30)))
        previous = set()
        for alpha in (0.01, 0.05, 0.1, 0.2, 0.4):
            current = set(np.flatnonzero(bh_fdr(p, alpha)))
            assert previous <= current
            previous = current


def test_false_discovery_proportion_under_full_null():
    # all hypotheses true: mean FDP must stay near the nominal level
    rng = np.random.default_rng(20260828)
    fdp = []
    for _ in range(2000):
        fdp.append(1.0 if bh_fdr(rng.random(31), 0.1).any() else 0.0)
    assert np.mean(fdp) <= 0.1 + 0.02


def test_corrections_return_a_boolean_array():
    p = np.random.default_rng(20260843).random(2047) ** 4
    for rule in (bh_fdr, bonferroni):
        rejected = rule(p, 0.1)
        assert rejected.dtype == bool and rejected.shape == p.shape
        assert rejected.any()
