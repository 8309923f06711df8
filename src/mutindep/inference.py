"""End-to-end pattern extraction.

Every bipartition of the variables is tested for dichotomic independence;
the corrected survivor set delta_hat collects the hypotheses that were not
rejected, and their lattice meet mu_hat is the inferred finest pattern of
mutual independence.  An empty survivor set means no detected independence,
so mu_hat falls back to the one-block partition (the empty meet in a
bounded lattice is the top element).
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import MAX_VARIABLES
from .fdr import bh_fdr, bonferroni
from .linalg import CorrelationModel, DataMatrix, sample_correlation
from .mdi import MODES, test_bipartitions
from .partitions import (
    Partition,
    entailed_masks,
    enumerate_bipartitions,
    meet_all,
)

CORRECTIONS = {"fdr": bh_fdr, "bonferroni": bonferroni}

# Every analysis tests all 2^(n-1) - 1 dichotomies.  Measured with
# tracemalloc at n = 13, infer_from_model peaks at about 590 bytes per test
# (360 of them the TestResults and Bipartitions the outcome keeps) and the
# command line's JSON rendering at about 1.8 KiB; BYTES_PER_TEST rounds the
# largest up.  The kernel's MAX_VARIABLES keeps an analysis within about
# 1 GiB.
BYTES_PER_TEST = 2048


@dataclass(frozen=True)
class InferenceOutcome:
    """All test results plus the surviving dichotomies and their meet."""

    tests: tuple
    delta_hat: tuple
    mu_hat: Partition
    alpha: float
    correction: str
    mode: str
    m: int
    m_thres: int


@dataclass(frozen=True)
class ConfusionCounts:
    """Bipartition-level confusion counts against a ground-truth pattern."""

    tp: int
    fn: int
    tn: int
    fp: int


def resolve_pattern(n, bipartitions, pvalues, alpha, correction="fdr"):
    """Correct the p-values, keep the survivors, and meet them.

    Returns (delta_hat, mu_hat, m_thres).  This is the combination step of
    the pipeline, usable directly when p-values come from elsewhere.
    """
    if correction not in CORRECTIONS:
        raise ValueError(
            f"correction must be one of {tuple(CORRECTIONS)}, got {correction!r}"
        )
    outcome = CORRECTIONS[correction](pvalues, alpha)
    delta_hat = tuple(
        b for b, rej in zip(bipartitions, outcome.rejected, strict=True) if not rej
    )
    if delta_hat:
        mu_hat = meet_all(b.to_partition() for b in delta_hat)
    else:
        mu_hat = Partition.one_block(n)
    return delta_hat, mu_hat, outcome.m_thres


def check_variable_count(n):
    """Refuse n above MAX_VARIABLES before anything is allocated."""
    if n > MAX_VARIABLES:
        m = 2 ** (n - 1) - 1
        raise ValueError(
            f"n={n} variables means {m} dichotomy tests, about "
            f"{m * BYTES_PER_TEST / 2**30:.1f} GiB at {BYTES_PER_TEST} bytes per "
            f"test; the limit is n <= {MAX_VARIABLES}"
        )


def infer_from_model(model, alpha=0.1, correction="fdr", mode="central"):
    """Run every dichotomy test on a correlation model and intersect survivors.

    A positive-definiteness failure in any submatrix aborts the whole
    inference: a silently skipped test would bias the survivor set.  Models
    over MAX_VARIABLES variables are refused with a ValueError.
    """
    if not isinstance(model, CorrelationModel):
        raise TypeError("expected a CorrelationModel")
    if model.n < 2:
        raise ValueError("inference needs at least 2 variables")
    check_variable_count(model.n)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    bipartitions = enumerate_bipartitions(model.n)
    tests = test_bipartitions(model, bipartitions, mode)
    delta_hat, mu_hat, m_thres = resolve_pattern(
        model.n, bipartitions, [t.p_value for t in tests], alpha, correction
    )
    return InferenceOutcome(
        tests=tuple(tests),
        delta_hat=delta_hat,
        mu_hat=mu_hat,
        alpha=alpha,
        correction=correction,
        mode=mode,
        m=len(bipartitions),
        m_thres=m_thres,
    )


def infer_from_data(data, alpha=0.1, correction="fdr", mode="central"):
    """Sample-correlation front end to infer_from_model."""
    if not isinstance(data, DataMatrix):
        data = DataMatrix(data)
    if data.n < 2:
        raise ValueError("inference needs at least 2 variable columns")
    if data.k < 3:
        raise ValueError(f"inference needs at least 3 rows, got {data.k}")
    model = sample_correlation(data)
    return infer_from_model(model, alpha=alpha, correction=correction, mode=mode)


def classify_against_truth(outcome, truth):
    """Confusion counts of an inference against a ground-truth pattern.

    Ground-truth negatives are the dichotomies entailed by the truth (the
    null hypothesis holds); all other bipartitions are positives.  A test is
    "detected positive" when it was rejected.
    """
    if truth.n != outcome.mu_hat.n:
        raise ValueError(
            f"dimension mismatch: truth has n={truth.n}, outcome has n={outcome.mu_hat.n}"
        )
    members = [t.bipartition.members for t in outcome.tests]
    kept = {b.members for b in outcome.delta_hat}
    negative = entailed_masks(members, truth)
    rejected = np.array([m not in kept for m in members], dtype=bool)

    def count(flags):
        return int(np.count_nonzero(flags))

    return ConfusionCounts(
        tp=count(rejected & ~negative),
        fn=count(~rejected & ~negative),
        tn=count(~rejected & negative),
        fp=count(rejected & negative),
    )
