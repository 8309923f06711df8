import math

import numpy as np
import pytest

import mutindep._kernels
from mutindep.datasets import hiv_model
from mutindep.distributions import chi2_sf, noncentral_chi2_sf
from mutindep.errors import InternalNumericError, NotPositiveDefiniteError
from mutindep.inference import infer_from_model
from mutindep.linalg import CorrelationModel, DataMatrix, sample_correlation
# aliased: the package names start with "test_", which pytest would collect
from mutindep.mdi import test_bipartitions as run_tests
from mutindep.mdi import (
    degrees_of_freedom,
    mdi_statistics,
    noncentrality,
)
from mutindep.partitions import (
    Bipartition,
    Partition,
    entailed_masks,
    enumerate_bipartitions,
)
from mutindep.randomness import RngStream, sample_mvn, sample_wishart_correlation
from mutindep.simulation import generate_model

import oracles


def bip(n, elements):
    members = 0
    for e in elements:
        members |= 1 << (e - 1)
    return Bipartition(n, members)


def test_statistic_identity_model_is_zero():
    for n in (2, 4, 6):
        model = CorrelationModel(np.eye(n), 50)
        for b in enumerate_bipartitions(n):
            assert mdi_statistics(model, [b])[0] == 0.0


def test_statistic_2x2_hand_value():
    model = CorrelationModel([[1.0, 0.5], [0.5, 1.0]], 101)
    b = enumerate_bipartitions(2)[0]
    assert mdi_statistics(model, [b])[0] == pytest.approx(
        100.0 * -math.log(0.75), rel=1e-12
    )


def test_statistic_permutation_invariance():
    rng = RngStream(20260819)
    r = sample_wishart_correlation(5, rng)
    model = CorrelationModel(r, 80)
    perm = [2, 0, 4, 1, 3]
    permuted = CorrelationModel(r[np.ix_(perm, perm)], 80)
    b = bip(5, [1, 3, 4])
    # apply the same permutation to the member set
    mapped = [perm.index(e - 1) + 1 for e in b.to_partition().blocks()[0]]
    b_perm = bip(5, mapped) if 1 in mapped else bip(5, [
        e for e in range(1, 6) if e not in mapped
    ])
    assert mdi_statistics(model, [b])[0] == pytest.approx(
        mdi_statistics(permuted, [b_perm])[0], rel=1e-9
    )


def test_degrees_of_freedom():
    assert degrees_of_freedom(bip(6, [1, 2, 3])) == 9
    assert degrees_of_freedom(bip(10, [1])) == 9
    b = bip(4, [1, 2])
    na, nc = b.sizes()
    assert degrees_of_freedom(b) == 4
    assert (
        b.n * (b.n + 1) // 2 - na * (na + 1) // 2 - nc * (nc + 1) // 2
        == degrees_of_freedom(b)
    )


def test_noncentrality_hand_value():
    b = enumerate_bipartitions(2)[0]
    assert noncentrality(b, 101) == pytest.approx(18.0 / 1200.0, rel=1e-14)
    assert noncentrality(b, 101) == 0.015


def test_noncentrality_scaling():
    b = bip(6, [1, 4])
    assert noncentrality(b, 13) / noncentrality(b, 25) == pytest.approx(2.0, rel=1e-14)
    assert noncentrality(b, 10_000_000) < 1e-4
    with pytest.raises(ValueError):
        noncentrality(b, 1)


def test_noncentrality_nonnegative_everywhere():
    for n in range(2, 9):
        for b in enumerate_bipartitions(n):
            assert noncentrality(b, 50) >= 0.0


def test_test_bipartition_identity():
    model = CorrelationModel(np.eye(4), 100)
    for b in enumerate_bipartitions(4):
        res = run_tests(model, [b])[0]
        assert res.p_value == 1.0
        assert res.df == degrees_of_freedom(b)


def test_hiv_flagged_dichotomy():
    model = hiv_model()
    res = run_tests(model, [bip(6, [1, 2, 3, 5, 6])])[0]
    assert res.p_value == pytest.approx(0.332, abs=0.005)
    for b in enumerate_bipartitions(6):
        if b.to_partition().blocks()[0] == (1, 2, 3, 5, 6):
            continue
        assert run_tests(model, [b])[0].p_value < 1e-4


def test_batch_matches_singles():
    rng = RngStream(20260820)
    model = CorrelationModel(sample_wishart_correlation(5, rng), 60)
    bips = enumerate_bipartitions(5)
    batch = mdi_statistics(model, bips)
    for b, stat in zip(bips, batch):
        assert mdi_statistics(model, [b])[0] == stat


def test_dimension_and_sample_guards():
    model = CorrelationModel(np.eye(3), 100)
    with pytest.raises(ValueError):
        mdi_statistics(model, [bip(4, [1, 2])])
    small = CorrelationModel(np.eye(4), 2)
    with pytest.raises(ValueError):
        mdi_statistics(small, [bip(4, [1, 2])])
    with pytest.raises(ValueError):
        run_tests(model, [bip(3, [1])], mode="bogus")
    # the first bipartition whose size differs from the model's is named
    with pytest.raises(ValueError, match="model has n=3, test has n=4"):
        mdi_statistics(model, [bip(3, [1]), bip(4, [1]), bip(5, [1])])


def test_non_pd_submatrix_is_named():
    r = np.eye(4)
    r[0, 1] = r[1, 0] = 1.0  # variables 1 and 2 perfectly correlated
    model = CorrelationModel(r, 100)
    with pytest.raises(NotPositiveDefiniteError) as err:
        mdi_statistics(model, [bip(4, [1, 2])])
    assert err.value.part in ("full", "members", "complement")


def test_null_rejection_rate_grows_with_k():
    # dependent 2x2 model: power rises with sample size at alpha = 0.05
    rho = 0.3
    cov = np.array([[1.0, rho], [rho, 1.0]])
    b = enumerate_bipartitions(2)[0]
    sizes = (50, 100, 200, 400, 800)
    reps = 400
    rates = []
    for i, k in enumerate(sizes):
        rejected = 0
        for rep in range(reps):
            rng = RngStream(20260821, i * reps + rep)
            model = sample_correlation(sample_mvn(cov, k, rng))
            if run_tests(model, [b])[0].p_value <= 0.05:
                rejected += 1
        rates.append(rejected / reps)
    mc = 2.0 * math.sqrt(0.25 / reps)
    inversions = sum(1 for a, c in zip(rates, rates[1:]) if c < a - mc)
    assert inversions == 0
    assert rates[-1] > 0.95


def test_null_pvalues_uniform_under_block_truth():
    # nontrivial block-diagonal truth: the entailed dichotomies are true
    # nulls, so their p-values should be close to uniform
    sigma = np.eye(4)
    sigma[0, 1] = sigma[1, 0] = 0.5  # truth 12|3|4
    null_patterns = ("123|4", "124|3", "12|34")
    collected = {s: [] for s in null_patterns}
    for rep in range(2000):
        rng = RngStream(20260844, rep)
        model = sample_correlation(sample_mvn(sigma, 300, rng))
        for b in enumerate_bipartitions(4):
            if str(b) in collected:
                collected[str(b)].append(run_tests(model, [b])[0].p_value)
    critical = oracles.ks_critical(2000, alpha=0.01)
    for pattern, pvals in collected.items():
        assert oracles.ks_statistic_uniform(pvals) < critical, pattern


def test_clamp_policy():
    # cancellation-sized negatives are clamped, larger ones are an error
    from mutindep.errors import InternalNumericError
    from mutindep.mdi import _clamped

    # a well-conditioned model's rounding bound is below the 1e-9 floor
    model = CorrelationModel(np.eye(3), 10)
    out = _clamped(np.array([3.0, -5e-10, 0.0]), model)
    assert out.tolist() == [3.0, 0.0, 0.0]
    with pytest.raises(InternalNumericError):
        _clamped(np.array([3.0, -1e-8]), model)


def _ill_conditioned_two_blocks(seed):
    # two 6x6 correlation blocks with eigenvalues log-spaced over 1..1e-7
    rng = np.random.default_rng(seed)
    r = np.eye(12)
    for idx in (np.arange(6), np.arange(6, 12)):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        c = (q * np.logspace(0, -7, 6)) @ q.T
        d = np.sqrt(np.diag(c))
        r[np.ix_(idx, idx)] = c / np.outer(d, d)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    return Partition([0] * 6 + [1] * 6), r


def _wishart_blocks(n, seed):
    return generate_model(n, 2 + seed % (n - 1), RngStream(20261018, seed))


# Exactly block-diagonal models: their entailed statistics are 0 up to a
# rounding that grows with k and with the conditioning of the blocks.  Each
# of these raised InternalNumericError under a fixed -1e-9 slack.
BLOCK_DIAGONAL_MODELS = [
    pytest.param(lambda n=n, seed=seed: _wishart_blocks(n, seed), 10**9,
                 id=f"wishart-n{n}-seed{seed}")
    for n, seed in ((6, 5), (6, 15), (8, 3), (8, 15))
] + [
    pytest.param(lambda seed=seed: _ill_conditioned_two_blocks(seed), 300,
                 id=f"cond1e7-seed{seed}")
    for seed in (5, 16, 27)
]


@pytest.mark.parametrize("make, k", BLOCK_DIAGONAL_MODELS)
def test_exactly_block_diagonal_models_clamp_entailed_splits(make, k):
    truth, r = make()
    out = infer_from_model(CorrelationModel(r, k))
    entailed = entailed_masks([t.bipartition.members for t in out.tests], truth)
    assert entailed.any()
    kept = [t for t, e in zip(out.tests, entailed.tolist()) if e]
    # a positive rounding residue is not clamped, hence the tolerances
    assert max(t.statistic for t in kept) <= 1e-6
    assert min(t.p_value for t in kept) >= 1.0 - 1e-3
    assert out.mu_hat == truth


@pytest.mark.parametrize("make, k, margin", [
    (lambda: (None, hiv_model().r), 107, -1e-6),
    (lambda: _ill_conditioned_two_blocks(5), 300, -1.0),
])
def test_broken_determinant_margin_still_raises(monkeypatch, make, k, margin):
    _, r = make()
    model = CorrelationModel(r, k)
    kernel = mutindep._kernels.mdi_statistic_batch

    def broken(r, masks, k):
        raw = kernel(r, masks, k)
        raw[-1] = margin
        return raw

    monkeypatch.setattr(mutindep._kernels, "mdi_statistic_batch", broken)
    with pytest.raises(InternalNumericError, match="slack"):
        mdi_statistics(model, enumerate_bipartitions(model.n))


def test_central_noncentral_agree_for_large_k():
    rng = RngStream(20260822)
    model = CorrelationModel(sample_wishart_correlation(4, rng), 100_000)
    for b in enumerate_bipartitions(4):
        central = run_tests(model, [b], mode="central")[0].p_value
        noncentral = run_tests(model, [b], mode="noncentral")[0].p_value
        assert abs(central - noncentral) < 1e-3


def test_p_value_takes_the_noncentrality_only_in_noncentral_mode():
    b = bip(3, [1, 3])
    wishart = sample_wishart_correlation(3, RngStream(20260844))
    for r in (np.eye(3), wishart):
        model = CorrelationModel(r, 40)
        res = run_tests(model, [b], mode="central")[0]
        assert res.p_value == chi2_sf(res.statistic, res.df)
        res = run_tests(model, [b], mode="noncentral")[0]
        assert res.p_value == noncentral_chi2_sf(res.statistic, res.df,
                                                 noncentrality(b, 40))


def test_data_pipeline_commutes_with_permutation():
    rng = RngStream(20260823)
    data = sample_mvn(sample_wishart_correlation(4, rng), 200, rng).values
    perm = [3, 1, 0, 2]
    direct = run_tests(sample_correlation(DataMatrix(data)),
                               enumerate_bipartitions(4))
    permuted = run_tests(sample_correlation(DataMatrix(data[:, perm])),
                                 enumerate_bipartitions(4))
    by_members = {
        frozenset(t.bipartition.to_partition().blocks()[0]): t.statistic for t in direct
    }
    for t in permuted:
        members = t.bipartition.to_partition().blocks()[0]
        orig = frozenset(perm[e - 1] + 1 for e in members)
        if 1 not in orig:
            orig = frozenset(range(1, 5)) - orig
        assert t.statistic == pytest.approx(by_members[orig], rel=1e-9, abs=1e-12)
