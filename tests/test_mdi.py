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
from mutindep.mdi import MODES, mdi_statistics, noncentrality, p_values
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
    mapped = [perm.index(e - 1) + 1 for e in b.blocks()[0]]
    b_perm = bip(5, mapped) if 1 in mapped else bip(5, [
        e for e in range(1, 6) if e not in mapped
    ])
    assert mdi_statistics(model, [b])[0] == pytest.approx(
        mdi_statistics(permuted, [b_perm])[0], rel=1e-9
    )


def df_of(b):
    """|a| * |complement| for the test of a | complement."""
    na = b.members.bit_count()
    return na * (b.n - na)


def test_degrees_of_freedom():
    for b, df in ((bip(6, [1, 2, 3]), 9), (bip(10, [1]), 9), (bip(4, [1, 2]), 4)):
        assert run_tests(CorrelationModel(np.eye(b.n), 50), [b])[0].df == df
    # the parameters of R minus those of R_aa and R_cc
    for n in range(2, 8):
        model = CorrelationModel(np.eye(n), 50)
        for t in run_tests(model, enumerate_bipartitions(n)):
            na, nc = (len(block) for block in t.bipartition.blocks())
            assert t.df == n * (n + 1) // 2 - na * (na + 1) // 2 - nc * (nc + 1) // 2


def test_noncentrality_hand_value():
    assert noncentrality(1, 1, 101) == pytest.approx(18.0 / 1200.0, rel=1e-14)
    assert noncentrality(1, 1, 101) == 0.015


def test_noncentrality_scaling():
    assert noncentrality(2, 4, 13) / noncentrality(2, 4, 25) == pytest.approx(
        2.0, rel=1e-14)
    assert noncentrality(2, 4, 10_000_000) < 1e-4
    # the sample-count rule of every model: k >= 3
    for k in (1, 2):
        with pytest.raises(ValueError, match=f"at least 3, got {k}"):
            noncentrality(2, 4, k)
    assert noncentrality(2, 4, 3) > 0


def test_noncentrality_nonnegative_everywhere():
    for n in range(2, 9):
        for na in range(1, n):
            assert noncentrality(na, n - na, 50) >= 0.0


def test_test_bipartition_identity():
    model = CorrelationModel(np.eye(4), 100)
    for b in enumerate_bipartitions(4):
        res = run_tests(model, [b])[0]
        assert res.p_value == 1.0
        assert res.df == df_of(b)


def test_hiv_flagged_dichotomy():
    model = hiv_model()
    res = run_tests(model, [bip(6, [1, 2, 3, 5, 6])])[0]
    assert res.p_value == pytest.approx(0.332, abs=0.005)
    for b in enumerate_bipartitions(6):
        if b.blocks()[0] == (1, 2, 3, 5, 6):
            continue
        assert run_tests(model, [b])[0].p_value < 1e-4


def test_batch_matches_singles():
    rng = RngStream(20260820)
    model = CorrelationModel(sample_wishart_correlation(5, rng), 60)
    bips = enumerate_bipartitions(5)
    batch = mdi_statistics(model, bips)
    for b, stat in zip(bips, batch):
        assert mdi_statistics(model, [b])[0] == stat


def test_batch_constants_match_per_test_calls():
    # df and the noncentrality are computed once per members size; each
    # test must still get exactly what the public per-test calls give
    rng = RngStream(20260848)
    for n in range(2, 9):
        model = CorrelationModel(sample_wishart_correlation(n, rng), 40 + 10 * n)
        bips = enumerate_bipartitions(n)
        stats = mdi_statistics(model, bips).tolist()
        central = run_tests(model, bips, "central")
        noncentral = run_tests(model, bips, "noncentral")
        for b, stat, c, nc in zip(bips, stats, central, noncentral, strict=True):
            df = df_of(b)
            na = b.members.bit_count()
            assert c.bipartition == nc.bipartition == b
            assert c.statistic == nc.statistic == stat
            assert c.df == nc.df == df
            assert c.p_value == chi2_sf(stat, df)
            assert nc.p_value == noncentral_chi2_sf(stat, df,
                                                    noncentrality(na, n - na, model.k))


def test_p_values_of_stacked_rows_are_the_per_row_calls_bit_for_bit():
    # one analysis per row, each with its own sample count (one past any
    # machine integer), as one call and as one call per row; at n = 12 the
    # 36 rows hold 73,692 statistics, so the tails take two slices and the
    # first slice ends inside a row
    for n, ks in ((5, [10, 40, 40, 300, 10**9, 2**70]),
                  (12, [10, 40, 300, 10**9, 2**70, 41] * 6)):
        _check_stacked_p_values(n, ks, RngStream(20261021))


def _check_stacked_p_values(n, ks, rng):
    bips = enumerate_bipartitions(n)
    sizes = [b.members.bit_count() for b in bips]
    stats = np.array([mdi_statistics(CorrelationModel(sample_wishart_correlation(n, rng), k),
                                     bips) for k in ks])
    stats[1, :3] = 0.0
    for mode in MODES:
        rows = [p_values(row, sizes, n, k, mode) for row, k in zip(stats, ks)]
        for row, k, got in zip(stats, ks, rows):
            lams = [noncentrality(na, n - na, k) for na in sizes]
            assert got.tolist() == [
                chi2_sf(stat, df_of(b)) if mode == "central"
                else oracles.noncentral_recurrence(stat, df_of(b), lam)
                for stat, b, lam in zip(row.tolist(), bips, lams)]
        stacked = p_values(stats, sizes, n, np.array(ks, dtype=object), mode)
        assert stacked.tobytes() == np.array(rows).tobytes()
        deeper = p_values(stats.reshape(2, 3, -1, len(bips)), sizes, n,
                          np.array(ks, dtype=object).reshape(2, 3, -1), mode)
        assert deeper.tobytes() == stacked.tobytes()
        assert deeper.shape == (2, 3, len(ks) // 6, len(bips))
        # one k for every row is that k in each row's call
        common = p_values(stats, sizes, n, 40, mode)
        assert common.tobytes() == np.array([p_values(row, sizes, n, 40, mode)
                                             for row in stats]).tobytes()
        assert p_values(stats[:0], sizes, n, np.array([], dtype=int), mode).shape == (0, len(bips))
        assert p_values(stats[0, :0], [], n, 40, mode).shape == (0,)


def test_dimension_and_sample_guards():
    model = CorrelationModel(np.eye(3), 100)
    with pytest.raises(ValueError):
        mdi_statistics(model, [bip(4, [1, 2])])
    # no model has fewer than 3 samples, so no test sees one
    with pytest.raises(ValueError, match="sample count of at least 3, got 2"):
        CorrelationModel(np.eye(4), 2)
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
    out = _clamped(np.array([3.0, -5e-10, 0.0]), np.eye(3), 10)
    assert out.tolist() == [3.0, 0.0, 0.0]
    with pytest.raises(InternalNumericError, match="came out at -1e-08,"):
        _clamped(np.array([3.0, -1e-8]), np.eye(3), 10)
    # stacked rows, each with its own matrix and k: at k = 10^9 the rounding
    # bound of eye(3) is about 8e-6, so -1e-6 is clamped there and nowhere
    # else; the first row past its bound in C order raises
    r = np.broadcast_to(np.eye(3), (2, 2, 3, 3))
    k = np.array([[10, 10**9], [10, 10]])
    raw = np.array([[[3.0, -5e-10, 0.0], [1.0, -1e-6, 2.0]],
                    [[0.0, 0.0, 0.0], [2.0, -1e-6, 0.0]]])
    out = _clamped(raw[:, :1], r[:, :1], k[:, :1])
    assert out.tolist() == [[[3.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]]
    assert _clamped(raw[0], r[0], k[0]).tolist() == [[3.0, 0.0, 0.0], [1.0, 0.0, 2.0]]
    with pytest.raises(InternalNumericError, match="came out at -1e-06,"):
        _clamped(raw, r, k)
    raw[1, 0, 2] = -2e-6
    with pytest.raises(InternalNumericError, match="came out at -2e-06,"):
        _clamped(raw, r, k)
    # one k for every row
    with pytest.raises(InternalNumericError, match="came out at -1e-06,"):
        _clamped(raw[0], r[0], 10)


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

    def broken(lds, masks, k):
        raw = kernel(lds, masks, k)
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
                                                 noncentrality(2, 1, 40))


def test_data_pipeline_commutes_with_permutation():
    rng = RngStream(20260823)
    data = sample_mvn(sample_wishart_correlation(4, rng), 200, rng).values
    perm = [3, 1, 0, 2]
    direct = run_tests(sample_correlation(DataMatrix(data)),
                               enumerate_bipartitions(4))
    permuted = run_tests(sample_correlation(DataMatrix(data[:, perm])),
                                 enumerate_bipartitions(4))
    by_members = {
        frozenset(t.bipartition.blocks()[0]): t.statistic for t in direct
    }
    for t in permuted:
        members = t.bipartition.blocks()[0]
        orig = frozenset(perm[e - 1] + 1 for e in members)
        if 1 not in orig:
            orig = frozenset(range(1, 5)) - orig
        assert t.statistic == pytest.approx(by_members[orig], rel=1e-9, abs=1e-12)
