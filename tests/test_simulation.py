import json

import numpy as np
import pytest

import mutindep.simulation
from mutindep.errors import NotPositiveDefiniteError
from mutindep.inference import (
    MAX_VARIABLES,
    ConfusionCounts,
    classify_against_truth,
    infer_from_model,
)
from mutindep.linalg import DataMatrix, sample_correlation
from mutindep.partitions import (
    Partition,
    bipartition_masks,
    entailed_dichotomies,
    entailed_masks,
    enumerate_bipartitions,
    parse_partition,
)
from mutindep.randomness import RngStream, sample_mvn
from mutindep.simulation import (
    SimulationConfig,
    auc,
    correct_ratio,
    generate_model,
    run_campaign,
    sensitivity,
    specificity,
    within_block_correlation,
)

import oracles


def negatives(truth):
    return entailed_masks(bipartition_masks(truth.n), truth)


# --- model generation -------------------------------------------------------


def test_generate_model_all_singletons_is_identity():
    truth, sigma = generate_model(6, 6, RngStream(20260832))
    assert truth == Partition.singletons(6)
    assert (sigma == np.eye(6)).all()


def test_generate_model_one_dense_block():
    truth, sigma = generate_model(5, 1, RngStream(20260833))
    assert truth == Partition.one_block(5)
    assert (np.abs(sigma[~np.eye(5, dtype=bool)]) > 0).all()


def test_generate_model_block_diagonal_structure():
    rng = RngStream(20260834)
    for blocks in (2, 3, 4, 5):
        truth, sigma = generate_model(6, blocks, rng)
        assert truth.block_count == blocks
        assert len(entailed_dichotomies(truth)) == 2 ** (blocks - 1) - 1
        labels = truth.assignment
        for i in range(6):
            for j in range(6):
                if labels[i] != labels[j]:
                    assert sigma[i, j] == 0.0
        assert np.allclose(np.diag(sigma), 1.0)
        np.linalg.cholesky(sigma)  # positive definite


# --- metrics ----------------------------------------------------------------


def test_auc_edge_values():
    truth = parse_partition("12|3|4")  # 3 negatives, 4 positives
    entailed = {str(b) for b in entailed_dichotomies(truth)}
    order = [str(b) for b in enumerate_bipartitions(4)]
    perfect = [1.0 if s in entailed else 0.0 for s in order]
    negative = negatives(truth)
    assert auc(perfect, negative) == 1.0
    assert auc([0.5] * 7, negative) == 0.5
    anti = [0.0 if s in entailed else 1.0 for s in order]
    assert auc(anti, negative) == 0.0


def test_auc_hand_example_via_oracle():
    # positives {0.01, 0.2} vs negatives {0.05, 0.5}: 3 of 4 pairs ordered
    assert oracles.roc_auc_sweep([0.01, 0.2], [0.05, 0.5]) == pytest.approx(0.75)


def test_auc_undefined_cases():
    assert auc([0.5] * 31, negatives(Partition.one_block(6))) is None
    assert auc([0.5] * 31, negatives(Partition.singletons(6))) is None


def test_auc_matches_threshold_sweep_oracle():
    rng = np.random.default_rng(20260835)
    truth = parse_partition("12|34|5|6")
    bips = enumerate_bipartitions(6)
    entailed = {str(b) for b in entailed_dichotomies(truth)}
    negative = negatives(truth)
    for _ in range(100):
        # discretized p-values force plenty of ties
        pvals = rng.integers(0, 6, size=31) / 5.0
        got = auc(pvals, negative)
        pos = [p for b, p in zip(bips, pvals) if str(b) not in entailed]
        neg = [p for b, p in zip(bips, pvals) if str(b) in entailed]
        assert got == pytest.approx(oracles.roc_auc_sweep(pos, neg), abs=1e-12)


def test_auc_equals_the_pairwise_count_bit_for_bit():
    rng = np.random.default_rng(20261019)
    truth = parse_partition("12|34|5|6")
    entailed = set(entailed_dichotomies(truth))
    negative = np.array([b in entailed for b in enumerate_bipartitions(6)])
    for trial in range(200):
        # coarse p-values tie often, fine ones rarely
        pvals = rng.integers(0, 6 if trial % 2 else 10**6, size=31) / 5.0
        pos, neg = pvals[~negative], pvals[negative]
        wins = np.count_nonzero(pos[:, None] < neg[None, :])
        ties = np.count_nonzero(pos[:, None] == neg[None, :])
        expected = float((wins + 0.5 * ties) / (pos.size * neg.size))
        assert auc(pvals, negative) == expected


def test_sensitivity_specificity_undefined_flags():
    assert sensitivity(ConfusionCounts(tp=0, fn=0, tn=3, fp=1)) is None
    assert specificity(ConfusionCounts(tp=2, fn=1, tn=0, fp=0)) is None
    c = ConfusionCounts(tp=3, fn=1, tn=5, fp=0)
    assert sensitivity(c) == 0.75
    assert specificity(c) == 1.0


def test_correct_ratio():
    assert correct_ratio([True, True, False, True]) == 0.75
    assert correct_ratio([None, True]) == 1.0
    assert correct_ratio([]) is None


def test_within_block_correlation():
    truth = parse_partition("12|3")
    m = np.eye(3)
    assert within_block_correlation(truth, m) == 0.0
    m[0, 1] = m[1, 0] = -0.7
    assert within_block_correlation(truth, m) == pytest.approx(0.7)
    assert within_block_correlation(Partition.singletons(4), np.eye(4)) is None
    truth = parse_partition("123|4")
    m = np.eye(4)
    m[0, 1] = m[1, 0] = 0.1
    m[0, 2] = m[2, 0] = -0.3
    m[1, 2] = m[2, 1] = 0.5
    assert within_block_correlation(truth, m) == pytest.approx(0.3)


# --- campaign ---------------------------------------------------------------


def small_config(**overrides):
    base = dict(
        n=6,
        block_counts=(1, 3, 6),
        runs_per_k=4,
        max_samples=120,
        subset_sizes=(50, 120),
        alpha=0.1,
        master_seed=99,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(n=6, block_counts=(7,))
    with pytest.raises(ValueError):
        SimulationConfig(subset_sizes=(50, 400))
    # the correlation of at most n rows is singular
    with pytest.raises(ValueError, match="subset size 6 outside 7"):
        SimulationConfig(n=6, subset_sizes=(6, 50))
    SimulationConfig(n=6, subset_sizes=(7, 50))
    with pytest.raises(ValueError):
        SimulationConfig(runs_per_k=0)
    with pytest.raises(ValueError):
        SimulationConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(correction="storey")
    with pytest.raises(ValueError, match=f"n <= {MAX_VARIABLES}"):
        SimulationConfig(n=MAX_VARIABLES + 1, block_counts=(1,))


def test_campaign_shape_and_determinism(tmp_path):
    config = small_config()
    campaign = run_campaign(config)
    assert campaign.run_count() == 12
    assert len(campaign.rows) == 24
    # one row per (run, size), runs in order, sizes in config order
    assert [(row.run_id, row.size) for row in campaign.rows] == [
        (run_id, size) for run_id in range(12) for size in config.subset_sizes
    ]
    assert [row.blocks for row in campaign.rows[::2]] == [1] * 4 + [3] * 4 + [6] * 4
    for row in campaign.rows:
        assert parse_partition(row.truth).block_count == row.blocks
        if not row.failed:
            for value in (row.sensitivity, row.specificity, row.auc):
                assert value is None or 0.0 <= value <= 1.0
            assert isinstance(row.correct, bool)

    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    campaign.write_csv(path_a)
    run_campaign(config).write_csv(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_campaign_nested_subsets_reuse_prefix():
    # the analysis at size s must equal inference on the first s rows of the
    # run's own dataset, reconstructed from the run's private stream
    config = small_config(block_counts=(3,), runs_per_k=1)
    campaign = run_campaign(config)
    rng = RngStream(config.master_seed, 0)
    truth, sigma = generate_model(config.n, 3, rng)
    assert campaign.rows[0].truth == str(truth)
    data = sample_mvn(sigma, config.max_samples, rng)
    negative = negatives(truth)
    for row in campaign.rows:
        assert not row.failed
        model = sample_correlation(DataMatrix(data.values[: row.size]))
        outcome = infer_from_model(model, alpha=config.alpha)
        confusion = classify_against_truth(outcome, negative)
        assert row.sensitivity == sensitivity(confusion)
        assert row.specificity == specificity(confusion)
        assert row.auc == auc([t.p_value for t in outcome.tests], negative)
        assert row.correct == (outcome.mu_hat == truth)


def test_campaign_records_failures_without_aborting(tmp_path, monkeypatch):
    correlate = mutindep.simulation.sample_correlation

    def fails_at_size_30(data):
        if data.k == 30:
            raise NotPositiveDefiniteError("not positive definite", part="full")
        return correlate(data)

    monkeypatch.setattr(mutindep.simulation, "sample_correlation", fails_at_size_30)
    config = small_config(block_counts=(2,), runs_per_k=3, subset_sizes=(30, 50))
    campaign = run_campaign(config)
    assert [row.failed for row in campaign.rows] == [True, False] * 3
    assert campaign.failure_count() == 3
    for row in campaign.rows[::2]:
        assert (row.sensitivity, row.specificity, row.auc, row.correct) == (None,) * 4
    path = tmp_path / "runs.csv"
    campaign.write_csv(path)
    lines = path.read_text().splitlines()[1:]
    for line in lines[::2]:
        # sensitivity, specificity, auc and correct are empty cells
        assert line.split(",")[4:8] == [""] * 4 and line.endswith(",1")


def test_campaign_finds_each_runs_negatives_once(monkeypatch):
    calls = []
    original = mutindep.simulation.entailed_masks

    def counted(masks, truth):
        calls.append(truth)
        return original(masks, truth)

    monkeypatch.setattr(mutindep.simulation, "entailed_masks", counted)
    campaign = run_campaign(small_config())
    assert campaign.run_count() == 12 and len(campaign.rows) == 24
    assert [str(truth) for truth in calls] == [row.truth for row in campaign.rows[::2]]


def test_summary_structure(tmp_path):
    config = small_config()
    campaign = run_campaign(config)
    summary = campaign.summary()
    assert summary["total_runs"] == 12
    cell = summary["by_block_count"]["3"]["120"]
    assert cell["runs"] == 4
    assert cell["auc"] is None or 0.0 <= cell["auc"]["median"] <= 1.0
    assert summary["by_block_count"]["1"]["120"]["specificity"] is None
    assert summary["by_block_count"]["6"]["120"]["sensitivity"] is None
    out = tmp_path / "summary.json"
    campaign.write_summary(out)
    parsed = json.loads(out.read_text())
    assert parsed == json.loads(json.dumps(summary))
