"""Acceptance gate: every shipping criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Statistical criteria are fully seeded, so outcomes are stable.
"""

import math
import time

import numpy as np
import pytest

from mutindep import simulation
from mutindep.datasets import hiv_model
from mutindep.distributions import chi2_sf, noncentral_chi2_sf
from mutindep.inference import infer_from_data, infer_from_model, resolve_pattern
from mutindep.linalg import CorrelationModel
from mutindep.mdi import mdi_statistics
from mutindep.partitions import (
    Bipartition,
    bell_number,
    entailed_dichotomies,
    enumerate_bipartitions,
    enumerate_coarsenings,
    enumerate_partitions,
    meet_all,
    stirling2,
)
from mutindep.randomness import RngStream, sample_mvn, sample_wishart_correlation
from mutindep.simulation import SimulationConfig, run_campaign

import oracles


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


# --- shared fixtures ---------------------------------------------------------

DESK_CONFIG = SimulationConfig(
    n=6,
    block_counts=(1, 2, 3, 4, 5, 6),
    runs_per_k=100,
    max_samples=300,
    subset_sizes=(50, 100, 150, 200, 250, 300),
    alpha=0.1,
    correction="fdr",
    mode="central",
    master_seed=1,
)


@pytest.fixture(scope="module")
def desk_campaign():
    start = time.perf_counter()
    campaign = run_campaign(DESK_CONFIG)
    elapsed = time.perf_counter() - start
    print(f"(desk-scale campaign: 600 runs x 6 sizes in {elapsed:.1f}s)")
    assert elapsed < 900.0
    return campaign


@pytest.fixture(scope="module")
def null_study():
    # 2000 seeded datasets from the 4-variable identity truth at k=300
    pmat = np.empty((2000, 7))
    any_rejection = np.empty(2000, dtype=bool)
    for i in range(2000):
        rng = RngStream(20260840, i)
        out = infer_from_data(sample_mvn(np.eye(4), 300, rng), alpha=0.1)
        pmat[i] = [t.p_value for t in out.tests]
        any_rejection[i] = out.m_thres > 0
    return pmat, any_rejection


def _median(values):
    return float(np.median(values))


# --- criteria ---------------------------------------------------------------


def test_criterion_1_counting_tables():
    start = time.perf_counter()
    bells = {n: bell_number(n) for n in range(1, 11)}
    expected = dict(zip(range(1, 11),
                        [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]))
    ok = bells == expected
    ok = ok and bell_number(20) == 51_724_158_235_372
    ok = ok and stirling2(20, 2) == 524_287
    ok = ok and all(stirling2(n, 2) == 2 ** (n - 1) - 1 for n in range(1, 21))
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0,
           f"Bell/Stirling table exact, {elapsed * 1000:.0f} ms")


def test_criterion_2_lattice_oracles():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            if mu.block_count >= 2:
                ok = ok and meet_all(entailed_dichotomies(mu)) == mu
            ok = ok and meet_all(enumerate_coarsenings(mu)) == mu
            checked += 1
    elapsed = time.perf_counter() - start
    report(2, ok and checked == 1155 and elapsed < 10.0,
           f"{checked} partitions reconstructed in {elapsed:.1f}s")


def test_criterion_3_worked_example_replay():
    bips = enumerate_bipartitions(4)
    rejected = {"13|24", "14|23", "134|2", "1|234"}
    pvalues = [1e-12 if str(b) in rejected else 0.8 for b in bips]
    rejected, mu = resolve_pattern(4, bips, pvalues, 0.1)
    survivors = {str(b) for b, rej in zip(bips, rejected) if not rej}
    ok = survivors == {"123|4", "124|3", "12|34"}
    ok = ok and str(mu) == "12|3|4"
    report(3, ok, f"survivors {{123|4, 124|3, 12|34}} meet to {mu}")


def test_criterion_4_hiv_reproduction():
    start = time.perf_counter()
    model = hiv_model()
    out = infer_from_model(model, alpha=0.1)
    by_pattern = {str(t.bipartition): t.p_value for t in out.tests}
    flagged = by_pattern.pop("12356|4")
    ok = abs(flagged - 0.332) <= 0.005
    ok = ok and all(p < 1e-4 for p in by_pattern.values())
    for alpha in (0.0011, 0.005, 0.01, 0.05, 0.1, 0.2, 0.299):
        ok = ok and str(infer_from_model(model, alpha=alpha).mu_hat) == "12356|4"
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 1.0,
           f"p(12356|4)={flagged:.4f}, 30 others < 1e-4, "
           f"stable over alpha, {elapsed * 1000:.0f} ms")


def _cell(campaign, blocks, size, metric):
    stats = campaign.summary()["by_block_count"][str(blocks)][str(size)][metric]
    return stats


def test_criterion_5a_specificity(desk_campaign):
    medians = {}
    ok = True
    for blocks in (2, 3, 4, 5, 6):
        stats = _cell(desk_campaign, blocks, 300, "specificity")
        medians[blocks] = stats["median"]
        ok = ok and stats["median"] >= 0.95
    report("5a", ok, f"median specificity at k=300: {medians}")


def test_criterion_5b_auc_level(desk_campaign):
    medians = {}
    ok = True
    for blocks in (2, 3, 4, 5):
        stats = _cell(desk_campaign, blocks, 300, "auc")
        medians[blocks] = round(stats["median"], 4)
        ok = ok and stats["median"] >= 0.90
    report("5b", ok, f"median AUC at k=300: {medians}")


def test_criterion_5c_auc_monotone(desk_campaign):
    ok = True
    details = []
    for blocks in (2, 3, 4, 5):
        medians = [
            _cell(desk_campaign, blocks, size, "auc")["median"]
            for size in DESK_CONFIG.subset_sizes
        ]
        dips = [max(a - b, 0.0) for a, b in zip(medians, medians[1:])]
        inversions = sum(1 for d in dips if d > 0)
        ok = ok and inversions <= 1 and max(dips, default=0.0) <= 0.02
        details.append(f"K={blocks}: {[round(m, 3) for m in medians]}")
    report("5c", ok, "; ".join(details))


def test_criterion_5d_null_model_recovery(desk_campaign):
    stats = desk_campaign.summary()["by_block_count"]["1"]["300"]
    ratio = stats["correct_ratio"]
    report("5d", ratio >= 0.9, f"K=1 correct-pattern ratio at k=300: {ratio:.3f}")


def test_criterion_6_null_calibration(null_study):
    start = time.perf_counter()
    pmat, any_rejection = null_study
    worst = 0.0
    critical = oracles.ks_critical(pmat.shape[0], alpha=0.01)
    ok = True
    for column in range(pmat.shape[1]):
        d = oracles.ks_statistic_uniform(pmat[:, column])
        worst = max(worst, d)
        ok = ok and d < critical
    fdp = float(np.mean(any_rejection))
    ok = ok and fdp <= 0.12
    elapsed = time.perf_counter() - start
    report(6, ok and elapsed < 120.0,
           f"worst KS {worst:.4f} < {critical:.4f}, null FDP {fdp:.3f} <= 0.12")


def test_criterion_7_statistic_brute_force():
    rng = RngStream(20260841)
    worst = 0.0
    ok = True
    for _ in range(1000):
        dim = int(rng.generator.integers(2, 6))
        r = sample_wishart_correlation(dim, rng)
        k = int(rng.generator.integers(3, 1000))
        model = CorrelationModel(r, k)
        members = 1 | (int(rng.generator.integers(0, 2 ** (dim - 1) - 1)) << 1)
        b = Bipartition(dim, members)
        sel = [i for i in range(dim) if (members >> i) & 1]
        comp = [i for i in range(dim) if not (members >> i) & 1]
        brute = (k - 1) * math.log(
            oracles.det_cofactor(r[np.ix_(sel, sel)])
            * oracles.det_cofactor(r[np.ix_(comp, comp)])
            / oracles.det_cofactor(r)
        )
        got = mdi_statistics(model, [b])[0]
        rel = abs(got - brute) / max(abs(brute), 1e-12)
        worst = max(worst, rel)
        ok = ok and rel <= 1e-9
    report(7, ok, f"1000 cases, worst relative error {worst:.2e} <= 1e-9")


def test_criterion_8_distribution_cross_check():
    worst = 0.0
    ok = True
    xs = np.linspace(0.0, 500.0, 25)
    dfs = (1, 2, 3, 5, 10, 50, 120, 200)
    count = 0
    for df in dfs:
        for x in xs:
            err = abs(chi2_sf(float(x), df) - oracles.chi2_sf_oracle(float(x), df))
            worst = max(worst, err)
            ok = ok and err <= 1e-10
            count += 1
    reduction = 0.0
    for df in (1, 4, 11):
        for x in (0.0, 0.7, 6.0, 42.0):
            reduction = max(
                reduction,
                abs(noncentral_chi2_sf(x, df, 0.0) - chi2_sf(x, df)),
            )
    ok = ok and reduction <= 1e-12
    report(8, ok, f"{count}-point grid, worst |err| {worst:.2e} <= 1e-10; "
                  f"lambda=0 reduction within {reduction:.1e}")


def test_criterion_9_wishart_marginal_uniformity():
    rng = RngStream(20260842)
    draws = [sample_wishart_correlation(2, rng)[0, 1] for _ in range(10_000)]
    d = oracles.ks_statistic_uniform(draws, lo=-1.0, hi=1.0)
    critical = oracles.ks_critical(10_000, alpha=0.01)
    report(9, d < critical, f"KS {d:.4f} < critical {critical:.4f}")


def test_criterion_10_campaign_determinism(tmp_path):
    config = SimulationConfig(
        n=5, block_counts=(1, 3, 5), runs_per_k=10, max_samples=100,
        subset_sizes=(50, 100), alpha=0.1, master_seed=424242,
    )
    paths = []
    for label in ("a", "b"):
        campaign = run_campaign(config)
        path = tmp_path / f"{label}.csv"
        campaign.write_csv(path)
        paths.append(path.read_bytes())
    # a run must depend on (master_seed, run_id) alone: executing the same
    # run ids last to first, one chunk each or as one chunk, and restoring
    # run order gives the same bytes; so do chunks of 1 run, 3 runs and the
    # whole campaign
    jobs = list(range(len(config.block_counts) * config.runs_per_k))
    orders = {
        "reversed": [[job] for job in reversed(jobs)],
        "reversed-chunk": [jobs[::-1]],
        "chunks-1": [[job] for job in jobs],
        "chunks-3": [jobs[i : i + 3] for i in range(0, len(jobs), 3)],
        "chunk-all": [jobs],
    }
    for label, chunks in orders.items():
        rows = [row for chunk in chunks
                for row in simulation._execute_chunk(config, chunk)]
        rows.sort(key=lambda row: row.run_id)  # stable: sizes stay in order
        path = tmp_path / f"{label}.csv"
        simulation.Campaign(config, tuple(rows)).write_csv(path)
        paths.append(path.read_bytes())
    ok = all(p == paths[0] for p in paths)
    report(10, ok, "byte-identical CSV across repeated campaigns, run order and "
                  "chunks of 1, 3 and all runs")
