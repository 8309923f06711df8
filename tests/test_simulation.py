import json
import os

import numpy as np
import pytest

import mutindep._kernels
import mutindep.inference
import mutindep.mdi
import mutindep.partitions
import mutindep.simulation
from mutindep._kernels import MAX_VARIABLES
from mutindep.errors import (
    DegenerateDataError,
    InternalNumericError,
    NotPositiveDefiniteError,
)
from mutindep.inference import (
    ConfusionCounts,
    classify_against_truth,
    infer_from_model,
)
from mutindep.linalg import CorrelationModel, DataMatrix, _correlations, sample_correlation
from mutindep.partitions import (
    Partition,
    bipartition_masks,
    entailed_dichotomies,
    entailed_masks,
    enumerate_bipartitions,
    meet_labels,
    parse_partition,
)
from mutindep.randomness import RngStream, random_partition_with_k_blocks, sample_mvn
from mutindep.simulation import (
    SimulationConfig,
    auc,
    correct_ratio,
    generate_model,
    open_output,
    run_campaign,
    sensitivity,
    specificity,
    within_block_correlation,
    write_json,
)

import oracles


def negatives(truth):
    return entailed_masks(bipartition_masks(truth.n), truth.least_elements)


# --- model generation -------------------------------------------------------


def test_generate_model_all_singletons_is_identity():
    truth, sigma = generate_model(6, 6, RngStream(20260832))
    assert truth == Partition.singletons(6)
    assert (sigma == np.eye(6)).all()


def test_generate_model_refuses_a_fractional_block_count():
    with pytest.raises(ValueError, match=r"^blocks: 2\.0 is not an integer$"):
        generate_model(4, 2.0, RngStream(20261023))


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


@pytest.mark.parametrize("n", range(2, 21))
def test_a_stacked_draw_gives_each_run_its_one_run_draws(n):
    # a chunk of 2n runs, two of each block count 1..n, so it mixes every
    # block size; each run of the stack equals generate_model then
    # sample_mvn on a fresh stream of its key, and the matrix-at-a-time
    # draw, bit for bit, and leaves its stream where they leave theirs
    k = n + 3
    block_counts = [*range(1, n + 1)] * 2
    keys = [(20261022, 100 * n + i) for i in range(len(block_counts))]
    rngs = [RngStream(*key) for key in keys]
    truths, sigma = mutindep.simulation._draw_models(n, block_counts, rngs)
    data = mutindep.simulation._mvn_stack(sigma, k, rngs)
    assert sigma.shape == (2 * n, n, n) and data.shape == (2 * n, k, n)
    for i, (blocks, key) in enumerate(zip(block_counts, keys)):
        one, matrixwise = RngStream(*key), RngStream(*key)
        truth, one_sigma = generate_model(n, blocks, one)
        one_data = sample_mvn(one_sigma, k, one).values
        oracle_truth, oracle_sigma, oracle_data = oracles.model_and_samples(
            n, blocks, k, matrixwise)
        assert truths[i] == truth == oracle_truth
        assert truth.block_count == blocks
        assert sigma[i].tobytes() == one_sigma.tobytes() == oracle_sigma.tobytes()
        assert data[i].tobytes() == one_data.tobytes() == oracle_data.tobytes()
        after = [stream.generator.random(4).tolist() for stream in (rngs[i], one, matrixwise)]
        assert after[0] == after[1] == after[2]


@pytest.mark.parametrize("config", [
    SimulationConfig(n=6, block_counts=(1, 3, 6), runs_per_k=3, max_samples=120,
                     subset_sizes=(50, 120), master_seed=99),
    # a one-run chunk, whose stack is samples-first as drawn
    SimulationConfig(n=18, block_counts=(5,), runs_per_k=1, max_samples=40,
                     subset_sizes=(20, 40), master_seed=7),
], ids=["mixed", "one-run"])
def test_draw_chunk_holds_each_runs_one_run_draws(monkeypatch, config):
    draw = mutindep.simulation._mvn_stack
    stacks = []

    def kept(sigma, k, rngs):
        stacks.append(draw(sigma, k, rngs))
        return stacks[-1]

    monkeypatch.setattr(mutindep.simulation, "_mvn_stack", kept)
    run_ids = range(len(config.block_counts) * config.runs_per_k)
    truths, r, constant = mutindep.simulation._draw_chunk(config, run_ids)
    (data,) = stacks
    for run_id, (truth, sigma) in zip(run_ids, truths):
        rng = RngStream(config.master_seed, run_id)
        blocks = config.block_counts[run_id // config.runs_per_k]
        one_truth, one_sigma = generate_model(config.n, blocks, rng)
        one = sample_mvn(one_sigma, config.max_samples, rng).values
        assert truth == one_truth and sigma.tobytes() == one_sigma.tobytes()
        assert data[run_id].tobytes() == one.tobytes()
        for s, size in enumerate(config.subset_sizes):
            expected, flags = _correlations(one[:size])
            assert r[run_id, s].tobytes() == expected.tobytes()
            assert constant[run_id, s] == flags.any()


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
    # (rows, tests) input: one value per row, None where a side is empty
    truths = [Partition.one_block(6), parse_partition("12|3456"), Partition.singletons(6)]
    rows = np.array([negatives(truth) for truth in truths])
    assert auc(np.where(rows, 0.9, 0.1), rows) == [None, 1.0, None]
    assert auc(np.zeros((0, 31)), np.zeros((0, 31), dtype=bool)) == []


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
    trials, expected = [], []
    for trial in range(200):
        # coarse p-values tie often, fine ones rarely
        pvals = rng.integers(0, 6 if trial % 2 else 10**6, size=31) / 5.0
        pos, neg = pvals[~negative], pvals[negative]
        wins = np.count_nonzero(pos[:, None] < neg[None, :])
        ties = np.count_nonzero(pos[:, None] == neg[None, :])
        expected.append(float((wins + 0.5 * ties) / (pos.size * neg.size)))
        assert auc(pvals, negative) == expected[-1]
        trials.append(pvals)
    # the trials stacked as (rows, tests): one call, the same values
    assert auc(np.array(trials), np.tile(negative, (200, 1))) == expected


@pytest.mark.parametrize("n", range(4, 11))
def test_exact_recovery_equals_the_meet_of_the_survivors(n):
    # survivor sets around planted truths of every block count: none, all,
    # exactly the truth's negatives, some of them dropped, a positive or
    # two added, the negatives of another pattern with as many blocks, and
    # a random set; meet_labels gives the brute-force meet of each, named
    # by least elements, and exact recovery (the survivors' meet has the
    # truth's least-element labels) is the meet being the truth
    rng = np.random.default_rng(20261020 + n)
    masks = bipartition_masks(n)
    everything = frozenset(range(1, n + 1))
    sides = [frozenset(e for e in everything if mask >> (e - 1) & 1)
             for mask in masks.tolist()]
    survived, negative, truths = [], [], []
    for k in range(1, n + 1):
        stream = RngStream(20261020, 100 * n + k)
        truth, other = (random_partition_with_k_blocks(n, k, stream) for _ in range(2))
        entailed = entailed_masks(masks, truth.least_elements)
        for keep in (np.zeros(masks.size, dtype=bool), np.ones(masks.size, dtype=bool),
                     entailed, entailed & (rng.random(masks.size) < 0.5),
                     entailed | (rng.random(masks.size) < 2 / masks.size),
                     entailed_masks(masks, other.least_elements), rng.random(masks.size) < 0.3):
            survived.append(keep)
            negative.append(entailed)
            truths.append(truth)
    survived, negative = np.array(survived), np.array(negative)
    labels = meet_labels(masks, n, survived)
    assert labels.shape == (len(truths), n)
    truth_labels = np.array([truth.least_elements for truth in truths])
    # the meet of the truth's negatives is the truth, one block included
    assert (meet_labels(masks, n, negative) == truth_labels).all()
    recovered = (labels == truth_labels).all(axis=-1)
    for keep, row, truth, exact in zip(survived, labels.tolist(), truths, recovered.tolist()):
        expected = frozenset([everything])
        for members in (m for m, flag in zip(sides, keep) if flag):
            expected = oracles.meet_blocks(expected, {members, everything - members})
        blocks = {}
        for e, label in enumerate(row, start=1):
            blocks.setdefault(label, set()).add(e)
        assert all(label == min(block) - 1 for label, block in blocks.items())
        assert frozenset(map(frozenset, blocks.values())) == expected
        assert exact == (expected == oracles.as_block_sets(truth))
        assert meet_labels(masks, n, keep).tolist() == row
    assert 0 < recovered.sum() < len(truths)
    # stacked rows give the labels of the flat ones, and zero rows none
    stacked = meet_labels(masks, n, survived.reshape(n, -1, masks.size))
    assert (stacked == labels.reshape(n, -1, n)).all()
    assert meet_labels(masks, n, survived[:0]).shape == (0, n)
    assert meet_labels(masks, n, survived.reshape(n, -1, masks.size)[:, :0]).shape == (n, 0, n)


def test_sensitivity_specificity_undefined_flags():
    assert sensitivity(ConfusionCounts(tp=0, fn=0, tn=3, fp=1)) is None
    assert specificity(ConfusionCounts(tp=2, fn=1, tn=0, fp=0)) is None
    c = ConfusionCounts(tp=3, fn=1, tn=5, fp=0)
    assert sensitivity(c) == 0.75
    assert specificity(c) == 1.0
    # the (rows, tests) counts of classify_against_truth give one value a row
    stacked = classify_against_truth([[True, False, True], [False, False, False]],
                                     [[False, False, True], [True, True, True]])
    assert sensitivity(stacked) == [0.5, None]
    assert specificity(stacked) == [0.0, 1.0]
    empty = classify_against_truth(np.zeros((0, 3), bool), np.zeros((0, 3), bool))
    assert sensitivity(empty) == specificity(empty) == []


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
    with pytest.raises(ValueError, match="alpha must lie in"):
        SimulationConfig(alpha=1.5)
    with pytest.raises(ValueError, match="correction must be one of"):
        SimulationConfig(correction="storey")
    with pytest.raises(ValueError, match="mode must be one of"):
        SimulationConfig(mode="bogus")
    with pytest.raises(ValueError, match="n=1 variables: the limit is 2 <= n"):
        SimulationConfig(n=1, block_counts=(1,))
    with pytest.raises(ValueError, match=f"n <= {MAX_VARIABLES}"):
        SimulationConfig(n=MAX_VARIABLES + 1, block_counts=(1,))
    # a campaign keeps block counts x runs x subset sizes rows: a config at
    # MAX_CAMPAIGN_ROWS is accepted (constructed only, not run), and one row
    # more is refused with the count and the limit named
    cap = mutindep.simulation.MAX_CAMPAIGN_ROWS
    assert cap == 1 << 21
    SimulationConfig(block_counts=(1,), runs_per_k=cap, subset_sizes=(50,))
    SimulationConfig(block_counts=(1, 2), runs_per_k=cap // 4, subset_sizes=(50, 100))
    with pytest.raises(ValueError) as err:
        SimulationConfig(block_counts=(1,), runs_per_k=cap + 1, subset_sizes=(50,))
    assert str(err.value) == ("block counts x runs x subset sizes = 2097153 rows: the "
                              "limit is 2097152 (about 0.5 GiB of rows)")
    with pytest.raises(ValueError, match="= 2097156 rows: the limit is 2097152 "):
        SimulationConfig(block_counts=(1, 2), runs_per_k=cap // 4 + 1,
                         subset_sizes=(50, 100))


@pytest.mark.parametrize("field, value", [
    ("runs_per_k", 2.5), ("n", 6.0), ("max_samples", 60.0), ("master_seed", 1.5),
    ("subset_sizes", (30.5, 60)), ("block_counts", (1, 2.0))],
    ids=["runs_per_k", "n", "max_samples", "master_seed", "subset_sizes", "block_counts"])
def test_config_refuses_non_integer_counts(field, value):
    # refused up front with the field named, not inside range or a slice
    # mid-campaign, nor (master_seed) stored as 1.5 while the stream runs 1
    with pytest.raises(ValueError, match=f"^{field}: .* is not an integer$"):
        small_config(**{field: value})


def test_config_stores_numpy_integers_as_ints(tmp_path):
    # numpy integers are taken as the Python ints they stand for, so the
    # summary's config is JSON and both files equal those of plain ints
    config = small_config(block_counts=(np.int64(1), 3), runs_per_k=np.int64(2),
                          subset_sizes=(np.int64(30), 60), master_seed=np.uint64(3),
                          n=np.int32(6), max_samples=np.int64(120))
    plain = small_config(block_counts=(1, 3), runs_per_k=2, subset_sizes=(30, 60),
                         master_seed=3)
    assert config == plain
    for value in (config.n, config.runs_per_k, config.max_samples, config.master_seed,
                  *config.block_counts, *config.subset_sizes):
        assert type(value) is int
    for name, c in (("numpy", config), ("plain", plain)):
        campaign = run_campaign(c)
        campaign.write_csv(tmp_path / f"{name}.csv")
        campaign.write_summary(tmp_path / f"{name}.json")
    for suffix in ("csv", "json"):
        assert (tmp_path / f"numpy.{suffix}").read_bytes() == \
            (tmp_path / f"plain.{suffix}").read_bytes()


def test_campaign_shape_and_determinism(tmp_path):
    config = small_config()
    campaign = run_campaign(config)
    assert campaign.summary()["total_runs"] == 12
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
        confusion = classify_against_truth(outcome.rejected, negative)
        assert row.sensitivity == sensitivity(confusion)
        assert row.specificity == specificity(confusion)
        assert row.auc == auc([t.p_value for t in outcome.tests], negative)
        assert row.correct == (outcome.mu_hat == truth)


@pytest.mark.parametrize("mode, correction", [
    ("central", "fdr"), ("noncentral", "bonferroni"), ("noncentral", "fdr")])
def test_campaign_scores_equal_infer_from_model(monkeypatch, mode, correction):
    # every row of a campaign equals infer_from_model and
    # classify_against_truth on its run's data prefix; in run 4, the first
    # 30 rows duplicate a column, so its size-30 analysis fails; the data are
    # doctored, and kept by run id, in the chunk's stack of samples
    draw = mutindep.simulation._mvn_stack
    drawn = {}

    def doctored(sigma, k, rngs):
        data = draw(sigma, k, rngs)
        for run, rng in zip(data, rngs):
            if rng.stream == 4:
                run[:30, 3] = run[:30, 2]
            drawn[rng.stream] = run.copy()
        return data

    monkeypatch.setattr(mutindep.simulation, "_mvn_stack", doctored)
    config = small_config(block_counts=(1, 2, 3, 6), runs_per_k=3, subset_sizes=(30, 60, 120),
                          mode=mode, correction=correction, alpha=0.2)
    campaign = run_campaign(config)
    assert [row.run_id for row in campaign.rows if row.failed] == [4]
    for row in campaign.rows:
        model = sample_correlation(drawn[row.run_id][: row.size])
        try:
            outcome = infer_from_model(model, alpha=config.alpha, correction=correction,
                                       mode=mode)
        except NotPositiveDefiniteError:
            assert row.failed
            continue
        truth = parse_partition(row.truth)
        negative = negatives(truth)
        confusion = classify_against_truth(outcome.rejected, negative)
        assert not row.failed
        assert row.sensitivity == sensitivity(confusion)
        assert row.specificity == specificity(confusion)
        assert row.auc == auc([t.p_value for t in outcome.tests], negative)
        assert row.correct == (outcome.mu_hat == truth)


def test_campaign_builds_no_test_results(monkeypatch):
    built, met = [], []
    init = mutindep.mdi.TestResult.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def noted(name, fn):
        def wrapper(*args, **kwargs):
            met.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mutindep.mdi.TestResult, "__init__", counted)
    # the meet and the pattern step, under every name a caller may use
    for module in (mutindep.partitions, mutindep.inference, mutindep.simulation):
        for name in ("meet_all", "resolve_pattern"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, noted(name, getattr(module, name)))
    infer_from_model(CorrelationModel(np.eye(4), 50))
    assert len(built) == 7  # the patch sees infer_from_model's seven tests
    assert "resolve_pattern" in met and "meet_all" in met
    built.clear()
    met.clear()
    campaign = run_campaign(small_config())
    assert len(campaign.rows) == 24 and campaign.summary()["failed_analyses"] == 0
    assert built == [] and met == []


def test_campaign_records_failures_without_aborting(tmp_path, monkeypatch):
    # in one chunk of three runs, run 1's first 30 rows have a constant
    # column and run 2's a duplicated one; the rows after them vary, so only
    # the size-30 analyses of those two runs fail; the data are doctored,
    # and kept by run id, in the chunk's stack of samples
    draw = mutindep.simulation._mvn_stack
    drawn = {}

    def doctored(sigma, k, rngs):
        data = draw(sigma, k, rngs)
        for run, rng in zip(data, rngs):
            if rng.stream == 1:
                run[:30, 0] = 0.5
            elif rng.stream == 2:
                run[:30, 3] = run[:30, 2]
            drawn[rng.stream] = run.copy()
        return data

    config = small_config(block_counts=(2,), runs_per_k=3, subset_sizes=(30, 50))
    monkeypatch.setattr(mutindep.simulation, "CHUNK_BYTES", 1 << 30)  # one chunk
    clean = run_campaign(config)
    monkeypatch.setattr(mutindep.simulation, "_mvn_stack", doctored)
    campaign = run_campaign(config)
    with pytest.raises(DegenerateDataError):
        sample_correlation(drawn[1][:30])
    with pytest.raises(NotPositiveDefiniteError):
        infer_from_model(sample_correlation(drawn[2][:30]))
    assert [row.failed for row in campaign.rows] == [False, False, True, False, True, False]
    assert campaign.summary()["failed_analyses"] == 2
    # a failure flags its own row only
    assert campaign.rows[:2] == clean.rows[:2]
    for row, data in ((campaign.rows[3], drawn[1]), (campaign.rows[5], drawn[2])):
        outcome = infer_from_model(sample_correlation(data[:50]), alpha=config.alpha)
        negative = negatives(parse_partition(row.truth))
        assert row.auc == auc([t.p_value for t in outcome.tests], negative)
    for row in campaign.rows[2::2]:
        assert (row.sensitivity, row.specificity, row.auc, row.correct) == (None,) * 4
    path = tmp_path / "runs.csv"
    campaign.write_csv(path)
    lines = path.read_text().splitlines()[1:]
    for line in lines[2::2]:
        # sensitivity, specificity, auc and correct are empty cells
        assert line.split(",")[4:8] == [""] * 4 and line.endswith(",1")


def test_a_chunk_whose_analyses_all_fail_has_only_failed_rows(monkeypatch):
    draw = mutindep.simulation._mvn_stack
    # the mean of a column of 0.1s rounds away from 0.1, so its correlations
    # come out finite: only the constant-column flag fails those analyses
    for value in (0.5, 0.1):
        def constant_column(sigma, k, rngs):
            data = draw(sigma, k, rngs)
            data[:, :, 1] = value  # every run of the stack
            return data

        monkeypatch.setattr(mutindep.simulation, "_mvn_stack", constant_column)
        campaign = run_campaign(small_config())
        assert len(campaign.rows) == 24 and campaign.summary()["failed_analyses"] == 24
        for row in campaign.rows:
            assert (row.sensitivity, row.specificity, row.auc, row.correct) == (None,) * 4
        assert campaign.summary()["by_block_count"]["3"]["50"]["auc"] is None


def test_an_internal_error_aborts_the_campaign_at_the_first_in_run_order(monkeypatch):
    # analyses 3 and 5 (runs 1 and 2 at size 50) each get one statistic far
    # below the clamp's slack, by different margins
    batch = mutindep._kernels.mdi_statistic_batch
    shapes = []

    def breaks_third_and_fifth(lds, masks, k):
        shapes.append(lds.shape)
        raw = batch(lds, masks, k)
        rows = raw.reshape(-1, raw.shape[-1])
        rows[2, -1], rows[4, -1] = -1e6, -2e6
        return raw

    monkeypatch.setattr(mutindep._kernels, "mdi_statistic_batch", breaks_third_and_fifth)
    monkeypatch.setattr(mutindep.simulation, "CHUNK_BYTES", 1 << 30)  # one chunk
    config = small_config()  # 12 runs of sizes 50 and 120
    with pytest.raises(InternalNumericError, match=r"came out at -1000000\.0,"):
        run_campaign(config)
    # the chunk's 12 x 2 analyses are read in one stacked call
    assert shapes == [(12, 2, 2**config.n)]


def test_each_analysis_is_clamped_with_its_own_sample_count(monkeypatch):
    # the run's columns 1 and 2 nearly equal, so its rounding bound passes the
    # 1e-9 floor and grows with k: a statistic between the bounds at sizes 50
    # and 120 raises at size 50 and is clamped at size 120
    draw, batch = mutindep.simulation._mvn_stack, mutindep._kernels.mdi_statistic_batch

    def collinear(sigma, k, rngs):
        data = draw(sigma, k, rngs)
        data[:, :, 1] = data[:, :, 0] + 1e-4 * data[:, :, 1]  # every run of the stack
        return data

    monkeypatch.setattr(mutindep.simulation, "_mvn_stack", collinear)
    config = small_config(block_counts=(2,), runs_per_k=1)
    _, r, _ = mutindep.simulation._draw_chunk(config, [0])
    for s in (0, 1):
        low, high = (mutindep.mdi._rounding_bound(r[0, s], k) for k in config.subset_sizes)
        assert 1e-9 < low < high
        value = -(low * high) ** 0.5

        def injected(lds, masks, k, s=s, value=value):
            raw = batch(lds, masks, k)
            raw[0, s, -1] = value
            return raw

        monkeypatch.setattr(mutindep._kernels, "mdi_statistic_batch", injected)
        if s == 0:
            with pytest.raises(InternalNumericError, match=f"came out at {value},"):
                run_campaign(config)
        else:
            assert run_campaign(config).summary()["failed_analyses"] == 0


def test_campaign_builds_no_models_and_reads_the_tables_once_per_chunk(monkeypatch):
    built, called, shapes = [], [], []
    init = CorrelationModel.__init__
    statistics = mutindep.mdi.mdi_statistics
    batch = mutindep._kernels.mdi_statistic_batch

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def noted(*args, **kwargs):
        called.append(1)
        return statistics(*args, **kwargs)

    def stacked(lds, masks, k):
        shapes.append(lds.shape)
        return batch(lds, masks, k)

    monkeypatch.setattr(CorrelationModel, "__init__", counted)
    monkeypatch.setattr(mutindep._kernels, "mdi_statistic_batch", stacked)
    for module in (mutindep.mdi, mutindep.inference, mutindep.simulation):
        if hasattr(module, "mdi_statistics"):
            monkeypatch.setattr(module, "mdi_statistics", noted)
    infer_from_model(CorrelationModel(np.eye(4), 50))  # the one model built
    assert built == [1] and called == [1] and shapes == [(16,)]
    built.clear(), called.clear(), shapes.clear()
    campaign = run_campaign(small_config())
    assert len(campaign.rows) == 24 and campaign.summary()["failed_analyses"] == 0
    assert built == [] and called == []
    # one call per chunk (12 runs x 2 sizes fit one), with every analysis
    assert shapes == [(12, 2, 64)]


def test_campaign_finds_each_runs_negatives_once(monkeypatch):
    # one call for the chunk (its 12 runs fit one), with one row of
    # least-element labels per run
    calls = []
    original = mutindep.simulation.entailed_masks

    def counted(masks, labels):
        calls.append(np.asarray(labels).tolist())
        return original(masks, labels)

    monkeypatch.setattr(mutindep.simulation, "entailed_masks", counted)
    campaign = run_campaign(small_config())
    assert campaign.summary()["total_runs"] == 12 and len(campaign.rows) == 24
    assert calls == [[list(parse_partition(row.truth).least_elements)
                      for row in campaign.rows[::2]]]


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


_OLD_BYTES = b"old contents, longer than anything written below\n" * 4


def _write(path, text):
    with open_output(path, encoding="utf-8") as fh:
        fh.write(text)


def test_open_output_replaces_a_regular_file(tmp_path):
    # a rewrite makes a new file: a hard link keeps the old bytes and the
    # path gets exactly the new ones, with no stale tail
    path, link = tmp_path / "out.json", tmp_path / "link.json"
    path.write_bytes(_OLD_BYTES)
    os.link(path, link)
    write_json({"a": 1}, path)
    assert link.read_bytes() == _OLD_BYTES
    assert path.read_bytes() == b'{\n  "a": 1\n}\n'
    assert not os.path.samefile(path, link)


def test_open_output_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_bytes(_OLD_BYTES)
    link.symlink_to(target)
    _write(link, "new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"new\n"


def test_open_output_truncates_when_unlink_fails(tmp_path, monkeypatch):
    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(os, "unlink", refuse)
    path = tmp_path / "out.txt"
    path.write_bytes(_OLD_BYTES)
    _write(path, "new\n")
    assert path.read_bytes() == b"new\n"


def test_open_output_unlinks_only_regular_files(tmp_path, monkeypatch):
    unlinked = []
    monkeypatch.setattr(os, "unlink", unlinked.append)  # deletes nothing
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_bytes(_OLD_BYTES)
    link.symlink_to(target)
    _write(os.devnull, "new\n")
    _write(link, "new\n")
    _write(tmp_path / "missing.txt", "new\n")
    assert unlinked == []
    _write(target, "new\n")
    assert unlinked == [target]


def test_open_output_does_not_unlink_a_file_it_may_not_write(tmp_path, monkeypatch):
    # a write-protected file is opened "w" as before, so it is refused
    # unless the caller could have truncated it anyway
    unlinked = []
    monkeypatch.setattr(os, "unlink", unlinked.append)  # deletes nothing
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    path = tmp_path / "out.txt"
    path.write_bytes(_OLD_BYTES)
    _write(path, "new\n")
    assert unlinked == []
    assert path.read_bytes() == b"new\n"
