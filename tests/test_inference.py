
import numpy as np
import pytest

import mutindep.mdi
from mutindep import _kernels
from mutindep._kernels import MAX_VARIABLES
from mutindep.datasets import hiv_model
from mutindep.distributions import noncentral_chi2_sf
from mutindep.errors import DegenerateDataError, NotPositiveDefiniteError
from mutindep.inference import (
    classify_against_truth,
    infer_from_data,
    infer_from_model,
    resolve_pattern,
)
from mutindep.linalg import CorrelationModel, DataMatrix
from mutindep.partitions import (
    Partition,
    bipartition_masks,
    entailed_dichotomies,
    entailed_masks,
    enumerate_bipartitions,
    enumerate_partitions,
    is_refinement,
    parse_partition,
)
from mutindep.randomness import RngStream, sample_mvn, sample_wishart_correlation
from mutindep.simulation import generate_model


def oracle_pvalues(n, truth):
    """p = 1 on dichotomies entailed by the truth, p = 0 elsewhere."""
    entailed = set(entailed_dichotomies(truth))
    return [1.0 if b in entailed else 0.0 for b in enumerate_bipartitions(n)]


def survivors(bipartitions, rejected):
    return [b for b, rej in zip(bipartitions, rejected, strict=True) if not rej]


def negatives(truth):
    return entailed_masks(bipartition_masks(truth.n), truth.least_elements)


def test_worked_example_survivors():
    # survivors {123|4, 124|3, 12|34} meet to 12|3|4
    bips = enumerate_bipartitions(4)
    rejected = {"13|24", "14|23", "134|2", "1|234"}
    pvalues = [1e-10 if str(b) in rejected else 0.9 for b in bips]
    rejected, mu = resolve_pattern(4, bips, pvalues, 0.1)
    assert {str(b) for b in survivors(bips, rejected)} == {"123|4", "124|3", "12|34"}
    assert str(mu) == "12|3|4"
    assert sum(rejected) == 4


def test_oracle_pvalues_recover_every_truth():
    # end-to-end reconstruction on perfect p-values, all truths up to n = 7
    for n in range(2, 8):
        bips = enumerate_bipartitions(n)
        for truth in enumerate_partitions(n):
            rejected, mu = resolve_pattern(n, bips, oracle_pvalues(n, truth), 0.1)
            assert mu == truth
            assert set(survivors(bips, rejected)) == set(entailed_dichotomies(truth))


def test_empty_survivor_set_gives_one_block():
    bips = enumerate_bipartitions(4)
    rejected, mu = resolve_pattern(4, bips, [0.0] * len(bips), 0.1)
    assert survivors(bips, rejected) == []
    assert mu == Partition.one_block(4)
    assert rejected == (True,) * len(bips)


def test_resolve_pattern_validation():
    bips = enumerate_bipartitions(3)
    with pytest.raises(ValueError):
        resolve_pattern(3, bips, [0.5] * 3, 0.1, correction="storey")
    with pytest.raises(ValueError):
        resolve_pattern(3, bips, [0.5] * 2, 0.1)  # length mismatch


@pytest.mark.parametrize("option", [
    {"alpha": 1.5}, {"alpha": 0.0}, {"correction": "storey"}, {"mode": "bogus"},
], ids=["alpha-1.5", "alpha-0", "correction", "mode"])
def test_a_bad_option_is_refused_before_any_test_runs(option, monkeypatch):
    def no_tests(*args):
        pytest.fail("a dichotomy test ran before the options were checked")

    monkeypatch.setattr(_kernels, "mdi_statistic_batch", no_tests)
    [name] = option
    with pytest.raises(ValueError, match=f"^{name} must "):
        infer_from_model(CorrelationModel(np.eye(12), 300), **option)


def test_size_guard_refuses_before_allocating():
    n = MAX_VARIABLES + 1
    limit = f"n={n} variables: the limit is 2 <= n <= {MAX_VARIABLES}"
    with pytest.raises(ValueError, match=limit):
        infer_from_model(CorrelationModel(np.eye(n), 100))


def test_identity_model_keeps_everything():
    model = CorrelationModel(np.eye(5), 200)
    out = infer_from_model(model, alpha=0.1)
    assert out.m == 15
    assert out.m_thres == 0
    assert len(out.delta_hat) == 15
    assert out.mu_hat == Partition.singletons(5)
    assert all(t.p_value == 1.0 for t in out.tests)


def test_hiv_model_inference():
    out = infer_from_model(hiv_model(), alpha=0.1)
    assert [str(b) for b in out.delta_hat] == ["12356|4"]
    assert str(out.mu_hat) == "12356|4"
    for alpha in (0.001, 0.01, 0.05, 0.1, 0.2, 0.299):
        assert str(infer_from_model(hiv_model(), alpha=alpha).mu_hat) == "12356|4"


def test_outcome_invariants():
    out = infer_from_model(hiv_model(), alpha=0.1)
    assert out.m == 2 ** (6 - 1) - 1
    assert len(out.delta_hat) == out.m - out.m_thres
    for b in out.delta_hat:
        assert is_refinement(out.mu_hat, b)
    # two variables share a block of mu_hat iff they do in every survivor
    for i in range(1, 7):
        for j in range(i + 1, 7):
            together = all(
                (b.members >> (i - 1)) & 1 == (b.members >> (j - 1)) & 1
                for b in out.delta_hat
            )
            same_block = out.mu_hat.assignment[i - 1] == out.mu_hat.assignment[j - 1]
            assert together == same_block


def test_infer_from_data_golden_block_pattern():
    # seeded run, verified once: truth 12|3|4 with rho=0.8 is recovered
    sigma = np.eye(4)
    sigma[0, 1] = sigma[1, 0] = 0.8
    data = sample_mvn(sigma, 10_000, RngStream(20260801, 0))
    out = infer_from_data(data, alpha=0.1)
    assert str(out.mu_hat) == "12|3|4"


def test_infer_from_data_golden_independent_pair():
    data = sample_mvn(np.eye(2), 10_000, RngStream(20260802, 0))
    out = infer_from_data(data, alpha=0.1)
    assert str(out.mu_hat) == "1|2"


def test_mu_hat_is_invariant_when_columns_are_rescaled():
    # correlation ignores the scale of each variable, so the inferred
    # pattern must not depend on units, however large or small they are
    rng = RngStream(20260842)
    for blocks in (1, 2, 3, 6):
        truth, sigma = generate_model(6, blocks, rng)
        data = sample_mvn(sigma, 200, rng).values
        powers_of_two = np.ldexp(1.0, rng.generator.integers(-990, 991, size=6))
        for scales, exact in (
            (np.exp(rng.generator.uniform(-6.0, 6.0, size=6)), False),
            (10.0 ** rng.generator.uniform(-300.0, 300.0, size=6), False),
            (np.array([1e-300, 1e300, 1e-170, 1e200, 1.0, 3.7]), False),
            (powers_of_two, True),
        ):
            for mode in ("central", "noncentral"):
                direct = infer_from_data(data, alpha=0.1, mode=mode)
                rescaled = infer_from_data(data * scales, alpha=0.1, mode=mode)
                assert rescaled.mu_hat == direct.mu_hat
                assert rescaled.rejected == direct.rejected
                if exact:
                    assert rescaled.tests == direct.tests


def test_infer_from_data_guards():
    # the sample count and the variable count are refused before a
    # constant column is looked for
    for data in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 2.0]]):  # k = 2
        with pytest.raises(ValueError, match="sample count of at least 3, got 2"):
            infer_from_data(DataMatrix(data))
    for column in (np.zeros(10), np.arange(10.0)):  # single variable
        with pytest.raises(ValueError, match="n=1 variables: the limit is 2 <= n"):
            infer_from_data(column[:, None])
    constant = np.column_stack([np.arange(10.0), np.full(10, 2.0)])
    with pytest.raises(DegenerateDataError, match="2"):
        infer_from_data(constant)


def test_inference_aborts_on_singular_submatrix():
    rng = RngStream(20260829)
    base = rng.generator.standard_normal((100, 3))
    data = np.column_stack([base, base[:, 2]])  # duplicated column
    with pytest.raises((DegenerateDataError, NotPositiveDefiniteError)):
        infer_from_data(data)


def test_determinism():
    rng = RngStream(20260830)
    model = CorrelationModel(sample_wishart_correlation(5, rng), 120)
    a = infer_from_model(model, alpha=0.1)
    b = infer_from_model(model, alpha=0.1)
    assert [t.p_value for t in a.tests] == [t.p_value for t in b.tests]
    assert a.mu_hat == b.mu_hat and a.delta_hat == b.delta_hat


def test_alpha_monotonicity():
    # raising alpha rejects more, shrinking the survivor set; the meet over
    # fewer partitions can only get coarser (or stay equal)
    for seed in range(10):
        rng = RngStream(20260831, seed)
        model = CorrelationModel(sample_wishart_correlation(5, rng), 60)
        previous = None
        previous_delta = None
        for alpha in (0.01, 0.05, 0.1, 0.2, 0.4):
            out = infer_from_model(model, alpha=alpha)
            if previous is not None:
                assert set(out.delta_hat) <= set(previous_delta)
                assert is_refinement(previous, out.mu_hat)
            previous = out.mu_hat
            previous_delta = out.delta_hat


def test_classify_against_truth_worked_example():
    truth = parse_partition("12|3|4")
    out = infer_from_model(CorrelationModel(np.eye(4), 100), alpha=0.1)
    # identity data keeps all 7, truth entails 3: so 4 positives are missed
    conf = classify_against_truth(out.rejected, negatives(truth))
    assert (conf.tp, conf.fn, conf.tn, conf.fp) == (0, 4, 3, 0)
    assert conf.tp + conf.fn + conf.tn + conf.fp == out.m


def test_classify_against_truth_edge_patterns():
    out = infer_from_model(CorrelationModel(np.eye(4), 100), alpha=0.1)
    conf = classify_against_truth(out.rejected, negatives(Partition.one_block(4)))
    assert conf.tn + conf.fp == 0 and conf.tp + conf.fn == 7
    conf = classify_against_truth(out.rejected, negatives(Partition.singletons(4)))
    assert conf.tp + conf.fn == 0 and conf.tn + conf.fp == 7
    with pytest.raises(ValueError):
        classify_against_truth(out.rejected, negatives(Partition.one_block(5)))


def test_classify_against_truth_reads_the_rejection_flags():
    # 12|3|4 entails the 2nd, 4th and 6th of the seven splits of 1234; the
    # counts follow hand-set flags, with no inference behind them
    flags = (True, True, False, False, True, False, False)
    conf = classify_against_truth(flags, negatives(parse_partition("12|3|4")))
    assert (conf.tp, conf.fn, conf.tn, conf.fp) == (2, 2, 2, 1)
    # (rows, tests) flags, one analysis per row, give one count per row
    rows = np.array([flags, [True] * 7, [False] * 7])
    truths = np.array([negatives(parse_partition(t)) for t in ("12|3|4", "12|3|4", "1|2|3|4")])
    conf = classify_against_truth(rows, truths)
    assert [c.tolist() for c in (conf.tp, conf.fn, conf.tn, conf.fp)] == [
        [2, 4, 0], [2, 0, 0], [2, 0, 7], [1, 3, 0]]
    with pytest.raises(ValueError, match="one negative flag per test"):
        classify_against_truth(rows, truths[:2])


def test_rejected_is_a_tuple_of_python_bools():
    model = CorrelationModel(sample_wishart_correlation(12, RngStream(20260843)), 300)
    for correction in ("fdr", "bonferroni"):
        out = infer_from_model(model, alpha=0.1, correction=correction)
        assert type(out.rejected) is tuple and len(out.rejected) == len(out.tests)
        assert all(type(flag) is bool for flag in out.rejected)
        assert sum(out.rejected) == out.m_thres > 0
        assert out.delta_hat == tuple(survivors(
            [t.bipartition for t in out.tests], out.rejected))
        assert out.m == len(out.tests) == 2047


def test_noncentrality_is_computed_only_in_noncentral_mode(monkeypatch):
    calls = []
    original = mutindep.mdi.noncentrality

    def counted(na, nc, k):
        calls.append((na, nc, k))
        return original(na, nc, k)

    monkeypatch.setattr(mutindep.mdi, "noncentrality", counted)
    model = hiv_model()
    infer_from_model(model, mode="central")
    assert calls == []
    out = infer_from_model(model, mode="noncentral")
    # at most one call per members size, and every test's tail uses the
    # noncentrality of its own block sizes
    sizes = [na for na, nc, k in calls]
    assert calls and len(sizes) == len(set(sizes)) <= model.n - 1
    assert all(na + nc == model.n and k == model.k for na, nc, k in calls)
    for t in out.tests:
        na = t.bipartition.members.bit_count()
        lam = original(na, model.n - na, model.k)
        assert t.p_value == noncentral_chi2_sf(t.statistic, t.df, lam)
