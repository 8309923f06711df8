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

from ._kernels import check_size
from .fdr import bh_fdr, bonferroni, check_alpha
from .linalg import CorrelationModel, DataMatrix, sample_correlation
from .mdi import check_mode, test_bipartitions
from .partitions import Partition, enumerate_bipartitions, meet_all

CORRECTIONS = {"fdr": bh_fdr, "bonferroni": bonferroni}


def check_correction(correction):
    if correction not in CORRECTIONS:
        raise ValueError(
            f"correction must be one of {tuple(CORRECTIONS)}, got {correction!r}"
        )


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
    """Bipartition-level confusion counts against a ground-truth pattern:
    ints, or int arrays with one entry per analysis."""

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
    check_correction(correction)
    rejected = tuple(CORRECTIONS[correction](pvalues, alpha).tolist())
    survivors = [b for b, rej in zip(bipartitions, rejected, strict=True) if not rej]
    mu_hat = meet_all(survivors) if survivors else Partition.one_block(n)
    return rejected, mu_hat


def infer_from_model(model, alpha=0.1, correction="fdr", mode="central"):
    """Run every dichotomy test on a correlation model and intersect survivors.

    A positive-definiteness failure in any submatrix aborts the whole
    inference: a silently skipped test would bias the survivor set.  A bad
    option, or a model over MAX_VARIABLES variables, is refused with a
    ValueError before any test runs.
    """
    if not isinstance(model, CorrelationModel):
        raise TypeError("expected a CorrelationModel")
    check_alpha(alpha)
    check_correction(correction)
    check_mode(mode)
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
    check_size(data.n)  # before a constant column is looked for
    model = sample_correlation(data)
    return infer_from_model(model, alpha=alpha, correction=correction, mode=mode)


def classify_against_truth(rejected, negative):
    """Confusion counts of an inference against a ground-truth pattern.

    `rejected` holds the correction's flag per test (an outcome's
    `rejected`), and `negative` flags, per test, the dichotomies entailed
    by the truth (the null hypothesis holds): `entailed_masks(
    bipartition_masks(n), truth.least_elements)`.  All other bipartitions
    are positives.  A test is "detected positive" when it was rejected.
    For `(rows, tests)` flags, one analysis per row, each count is an int
    array with one entry per row.
    """
    rejected = np.asarray(rejected, dtype=bool)
    negative = np.asarray(negative, dtype=bool)
    if negative.shape != rejected.shape:
        raise ValueError(f"need one negative flag per test: rejected has shape "
                         f"{rejected.shape}, negative {negative.shape}")

    def count(flags):
        counts = np.count_nonzero(flags, axis=-1)
        return int(counts) if flags.ndim == 1 else counts

    return ConfusionCounts(
        tp=count(rejected & ~negative),
        fn=count(~rejected & ~negative),
        tn=count(~rejected & negative),
        fp=count(rejected & negative),
    )
