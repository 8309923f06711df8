"""mutindep: blind extraction of the finest mutual-independence pattern.

Given i.i.d. multivariate normal data, every dichotomy (two-block split) of
the variables is tested for independence with a Gaussian
minimum-discrimination-information statistic; after multiple-comparison
correction, the surviving dichotomies are intersected in the partition
lattice, which recovers the finest pattern of mutual independence exactly.
"""

from .datasets import HIV_SAMPLE_COUNT, HIV_VARIABLE_NAMES, hiv_correlation, hiv_model
from .distributions import chi2_sf, noncentral_chi2_sf
from .errors import (
    DegenerateDataError,
    InternalNumericError,
    NotPositiveDefiniteError,
)
from .fdr import bh_fdr, bonferroni
from .inference import (
    ConfusionCounts,
    InferenceOutcome,
    classify_against_truth,
    infer_from_data,
    infer_from_model,
    resolve_pattern,
)
from .linalg import CorrelationModel, DataMatrix, sample_correlation
from .mdi import (
    TestResult,
    mdi_statistics,
    noncentrality,
    test_bipartitions,
)
from .partitions import (
    Bipartition,
    Partition,
    bell_number,
    entailed_dichotomies,
    enumerate_bipartitions,
    enumerate_coarsenings,
    enumerate_partitions,
    format_partition,
    is_refinement,
    join,
    meet,
    meet_all,
    parse_partition,
    stirling2,
)
from .randomness import (
    RngStream,
    random_partition_with_k_blocks,
    sample_mvn,
    sample_wishart_correlation,
)
from .simulation import (
    Campaign,
    SimulationConfig,
    auc,
    correct_ratio,
    generate_model,
    run_campaign,
    sensitivity,
    specificity,
    within_block_correlation,
)

__version__ = "0.1.0"

# The one kernel is the numpy one in _kernels; benchmark results record this
# name and refuse to compare runs whose names differ.
kernel_backend = "python"

__all__ = [
    "Bipartition",
    "Campaign",
    "ConfusionCounts",
    "CorrelationModel",
    "DataMatrix",
    "DegenerateDataError",
    "HIV_SAMPLE_COUNT",
    "HIV_VARIABLE_NAMES",
    "InferenceOutcome",
    "InternalNumericError",
    "NotPositiveDefiniteError",
    "Partition",
    "RngStream",
    "SimulationConfig",
    "TestResult",
    "auc",
    "bell_number",
    "bh_fdr",
    "bonferroni",
    "chi2_sf",
    "classify_against_truth",
    "correct_ratio",
    "entailed_dichotomies",
    "enumerate_bipartitions",
    "enumerate_coarsenings",
    "enumerate_partitions",
    "format_partition",
    "generate_model",
    "hiv_correlation",
    "hiv_model",
    "infer_from_data",
    "infer_from_model",
    "is_refinement",
    "join",
    "kernel_backend",
    "mdi_statistics",
    "meet",
    "meet_all",
    "noncentral_chi2_sf",
    "noncentrality",
    "parse_partition",
    "random_partition_with_k_blocks",
    "resolve_pattern",
    "run_campaign",
    "sample_correlation",
    "sample_mvn",
    "sample_wishart_correlation",
    "sensitivity",
    "specificity",
    "stirling2",
    "test_bipartitions",
    "within_block_correlation",
]
