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
from .partitions import Partition, enumerate_bipartitions, meet_all

CORRECTIONS = {"fdr": bh_fdr, "bonferroni": bonferroni}

# Every analysis tests all 2^(n-1) - 1 dichotomies.  Measured with
# tracemalloc at n = 13 (Python 3.11), infer_from_model peaks at about 300
# bytes per test (240 of them the TestResults and Bipartitions the outcome
# keeps) and the command line's JSON rendering at about 1.8 KiB;
# BYTES_PER_TEST rounds the largest up.  The kernel's MAX_VARIABLES keeps
# an analysis within about 1 GiB.
BYTES_PER_TEST = 2048


@dataclass(frozen=True)
class InferenceOutcome:
    """All test results, the correction's verdict on each, and the meet.

    `rejected` holds one Python bool per entry of `tests`, in the same
    order; it is the one record of the correction.  `delta_hat` (the
    bipartitions of the tests that were not rejected), `m` (the number of
    tests) and `m_thres` (the number rejected) are read off it.
    """

    tests: tuple
    rejected: tuple
    mu_hat: Partition
    alpha: float
    correction: str
    mode: str

    @property
    def delta_hat(self):
        return tuple(t.bipartition for t, r in zip(self.tests, self.rejected) if not r)

    @property
    def m(self):
        return len(self.tests)

    @property
    def m_thres(self):
        return sum(self.rejected)


@dataclass(frozen=True)
class ConfusionCounts:
    """Bipartition-level confusion counts against a ground-truth pattern."""

    tp: int
    fn: int
    tn: int
    fp: int


def resolve_pattern(n, bipartitions, pvalues, alpha, correction="fdr"):
    """Correct the p-values and meet the bipartitions that survive.

    Returns (rejected, mu_hat): a tuple of Python bools aligned with
    `bipartitions`, and the meet of the ones not rejected.  This is the
    combination step of the pipeline, usable directly when p-values come
    from elsewhere.
    """
    if correction not in CORRECTIONS:
        raise ValueError(
            f"correction must be one of {tuple(CORRECTIONS)}, got {correction!r}"
        )
    rejected = tuple(CORRECTIONS[correction](pvalues, alpha).tolist())
    survivors = [b.to_partition() for b, rej in zip(bipartitions, rejected, strict=True)
                 if not rej]
    mu_hat = meet_all(survivors) if survivors else Partition.one_block(n)
    return rejected, mu_hat


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
    rejected, mu_hat = resolve_pattern(
        model.n, bipartitions, [t.p_value for t in tests], alpha, correction
    )
    return InferenceOutcome(
        tests=tuple(tests),
        rejected=rejected,
        mu_hat=mu_hat,
        alpha=alpha,
        correction=correction,
        mode=mode,
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


def classify_against_truth(outcome, negative):
    """Confusion counts of an inference against a ground-truth pattern.

    `negative` flags, per test of `outcome`, the dichotomies entailed by the
    truth (the null hypothesis holds): `entailed_masks(bipartition_masks(n),
    truth)`.  All other bipartitions are positives.  A test is "detected
    positive" when it was rejected.
    """
    negative = np.asarray(negative, dtype=bool)
    if negative.shape != (outcome.m,):
        raise ValueError(f"need one negative flag per test: {outcome.m} tests, "
                         f"{negative.size} flags")
    rejected = np.array(outcome.rejected, dtype=bool)

    def count(flags):
        return int(np.count_nonzero(flags))

    return ConfusionCounts(
        tp=count(rejected & ~negative),
        fn=count(~rejected & ~negative),
        tn=count(~rejected & negative),
        fp=count(rejected & negative),
    )
