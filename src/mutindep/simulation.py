"""Monte Carlo study of the inference pipeline.

Block-structured Gaussian ground truths are generated at random, data is
sampled from them once per run, and inference quality (sensitivity,
specificity, AUC, exact-pattern recovery) is evaluated on nested prefixes
of the dataset so that larger sample sizes refine the same experiment.
"""

import csv
import json
import os
import stat
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from ._kernels import check_size
from .errors import NotPositiveDefiniteError
from .fdr import check_alpha
from .inference import check_correction, classify_against_truth, resolve_pattern
from .linalg import sample_correlations
from .mdi import check_mode, mask_statistics, p_values
from .partitions import (
    bipartition_masks,
    entailed_masks,
    enumerate_bipartitions,
    format_partition,
)
from .randomness import (
    RngStream,
    random_partition_with_k_blocks,
    sample_mvn,
    sample_wishart_correlation,
)

CSV_COLUMNS = (
    "run_id",
    "blocks",
    "truth",
    "size",
    "sensitivity",
    "specificity",
    "auc",
    "correct",
    "mean_abs_within_block_corr",
    "failed",
)

# One campaign record: a CSV row, one per (run, subset size).  A failed
# analysis has None for sensitivity, specificity, auc and correct.
Row = namedtuple("Row", CSV_COLUMNS)

_DECILE_EDGES = [i / 10.0 for i in range(11)]

# Runs are drawn and analysed in chunks of at most CHUNK_BYTES of data
# (max_samples x n floats per run) and subset tables (2^n floats per run and
# size): 30 runs at the desk size of n = 6, 300 samples and 6 sizes.
CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class SimulationConfig:
    """Campaign parameters; defaults mirror the full reference study."""

    n: int = 6
    block_counts: tuple = (1, 2, 3, 4, 5, 6)
    runs_per_k: int = 500
    max_samples: int = 300
    subset_sizes: tuple = (50, 100, 150, 200, 250, 300)
    alpha: float = 0.1
    correction: str = "fdr"
    mode: str = "central"
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "block_counts", tuple(self.block_counts))
        object.__setattr__(self, "subset_sizes", tuple(self.subset_sizes))
        check_size(self.n)
        if not self.block_counts:
            raise ValueError("need at least one block count")
        for blocks in self.block_counts:
            if not 1 <= blocks <= self.n:
                raise ValueError(f"block count {blocks} outside 1..{self.n}")
        if self.runs_per_k < 1:
            raise ValueError("need at least one run per block count")
        if not self.subset_sizes:
            raise ValueError("need at least one subset size")
        for size in self.subset_sizes:
            if not self.n < size <= self.max_samples:
                raise ValueError(
                    f"subset size {size} outside {self.n + 1}..max_samples="
                    f"{self.max_samples}: the correlation of at most n={self.n} "
                    "rows is singular"
                )
        check_alpha(self.alpha)
        check_correction(self.correction)
        check_mode(self.mode)
        RngStream(self.master_seed)  # the stream's own range check on the seed


def generate_model(n, blocks, rng):
    """Random ground truth: a uniform partition with the given block count
    and a block-diagonal correlation matrix (identity across blocks, a
    rescaled Wishart draw inside each block of size >= 2)."""
    truth = random_partition_with_k_blocks(n, blocks, rng)
    sigma = np.eye(n)
    for block in truth.blocks():
        if len(block) == 1:
            continue
        idx = np.array(block) - 1
        sigma[np.ix_(idx, idx)] = sample_wishart_correlation(len(block), rng)
    return truth, sigma


def auc(pvalues, negative):
    """Probability a random positive bipartition has a smaller p-value than
    a random negative one, ties counted one half.

    `negative` flags, per p-value, the dichotomies entailed by the truth:
    `entailed_masks(bipartition_masks(n), truth)`.  The others are the
    positives, whose dichotomic independence fails.  None when either side
    is empty (e.g. a 1-block or all-singleton truth).
    """
    p = np.asarray(pvalues, dtype=np.float64)
    negative = np.asarray(negative, dtype=bool)
    if p.shape != negative.shape:
        raise ValueError("need one p-value per bipartition")
    pos = p[~negative]
    neg = np.sort(p[negative])
    if pos.size == 0 or neg.size == 0:
        return None
    # rank-sum (Mann-Whitney) count: for each positive, the negatives below,
    # tied with and above its p-value, from the sorted negatives
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    wins = int(pos.size * neg.size - not_above.sum())
    ties = int((not_above - below).sum())
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def sensitivity(confusion):
    """TP / (TP + FN); None when the truth has no positive case."""
    denom = confusion.tp + confusion.fn
    return confusion.tp / denom if denom else None


def specificity(confusion):
    """TN / (TN + FP); None when the truth has no negative case."""
    denom = confusion.tn + confusion.fp
    return confusion.tn / denom if denom else None


def correct_ratio(flags):
    """Fraction of runs whose inferred pattern equals the truth exactly."""
    flags = [f for f in flags if f is not None]
    if not flags:
        return None
    return sum(1 for f in flags if f) / len(flags)


def within_block_correlation(truth, matrix):
    """Mean absolute correlation over within-block pairs; None without any
    block of size >= 2."""
    matrix = np.asarray(matrix)
    if matrix.shape[0] != truth.n:
        raise ValueError("matrix dimension does not match the partition")
    values = []
    for block in truth.blocks():
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                values.append(abs(matrix[block[i] - 1, block[j] - 1]))
    if not values:
        return None
    return float(np.mean(values))


def _execute_chunk(config, runs):
    """The rows of a chunk of (run id, block count) runs, in the chunk's
    order, with one row per subset size, in config order, for each run."""
    return _score_chunk(config, runs, *_draw_chunk(config, runs))


def _draw_chunk(config, runs):
    """Each run's (truth, sigma), drawn from its own stream, and per subset
    size (in config order) the models of the runs' sample prefixes."""
    truths = []
    data = np.empty((len(runs), config.max_samples, config.n))
    for i, (run_id, blocks) in enumerate(runs):
        rng = RngStream(config.master_seed, run_id)
        truths.append(generate_model(config.n, blocks, rng))
        data[i] = sample_mvn(truths[-1][1], config.max_samples, rng).values
    by_size = [sample_correlations(data[:, :size]) for size in config.subset_sizes]
    return truths, by_size


def _score_chunk(config, runs, truths, by_size):
    """The rows of the runs from their drawn truths and models."""
    masks = bipartition_masks(config.n)
    bipartitions = enumerate_bipartitions(config.n)
    member_sizes = [b.members.bit_count() for b in bipartitions]
    rows = []
    for i, ((run_id, blocks), (truth, sigma)) in enumerate(zip(runs, truths)):
        truth_text = format_partition(truth)
        rho = within_block_correlation(truth, sigma)
        negative = entailed_masks(masks, truth)
        for size, models in zip(config.subset_sizes, by_size):
            metrics = _analyse(config, models[i], masks, bipartitions, member_sizes,
                               truth, negative)
            rows.append(Row(run_id, blocks, truth_text, size,
                            *(metrics or (None,) * 4), rho, metrics is None))
    return rows


def _analyse(config, model, masks, bipartitions, member_sizes, truth, negative):
    """Sensitivity, specificity, AUC and exact recovery of one analysis; None
    for a constant column (no model) or a submatrix not positive definite.

    The steps of infer_from_model, without its per-test objects: the
    statistics, their p-values, the correction and the meet.
    """
    if model is None:
        return None
    try:
        stats = mask_statistics(model, masks)
    except NotPositiveDefiniteError:
        return None
    p = p_values(stats.tolist(), member_sizes, model.n, model.k, config.mode)
    rejected, mu_hat = resolve_pattern(
        model.n, bipartitions, p, config.alpha, config.correction)
    confusion = classify_against_truth(rejected, negative)
    return (sensitivity(confusion), specificity(confusion), auc(p, negative),
            mu_hat == truth)


def run_campaign(config):
    """Execute the whole campaign; deterministic given config.master_seed.

    Runs execute in order on the calling thread, in chunks.  Each run draws
    from a private (master_seed, run id) stream, so a run's rows depend on
    nothing but the config and its id, not on its chunk.  An inference
    failure is recorded as a row with a failure flag instead of aborting.
    """
    runs = list(enumerate(
        b for b in config.block_counts for _ in range(config.runs_per_k)))
    per_run = 8 * (config.max_samples * config.n
                   + len(config.subset_sizes) * 2**config.n)
    step = max(1, CHUNK_BYTES // per_run)
    rows = [row for start in range(0, len(runs), step)
            for row in _execute_chunk(config, runs[start:start + step])]
    return Campaign(config, tuple(rows))


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def open_output(path, **kwargs):
    """Open `path` for writing, as `open(path, "w", **kwargs)` does, but
    replace an existing regular file with a new one instead of truncating it.

    On ext4 with its default `auto_da_alloc`, closing a file that was
    truncated and rewritten allocates its blocks at once, so the next
    truncate of it must free them: 25-50 ms a call on a 2-core virtual
    machine, every time `mutindep simulate` or a campaign loop rewrites the
    same output.  Renaming a new file over it frees them too.  A new file
    keeps its blocks unallocated until the kernel writes it back (about
    30 s later), so unlinking it before then frees nothing on disk.  Hard
    links to the old file keep its contents, and the new file takes the
    default permissions.  Anything that is not a regular file (a missing
    path, a symlink, a device, a FIFO) is opened as it is, and so is a file
    the caller may not write or cannot unlink, so a write-protected file
    is still refused.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:
        pass
    return open(path, "w", **kwargs)


def write_json(payload, path):
    """Write `payload` as key-sorted, indented JSON, the summary file format."""
    with open_output(path, encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


class Campaign:
    """Campaign results: the rows, in run order, and their aggregates."""

    def __init__(self, config, rows):
        self.config = config
        self.rows = rows

    def failure_count(self):
        return sum(1 for row in self.rows if row.failed)

    def run_count(self):
        return len({row.run_id for row in self.rows})

    def write_csv(self, path):
        with open_output(path, newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([_fmt_cell(v) for v in row])

    def summary(self):
        """Aggregate medians/quartiles per (block count, subset size), the
        exact-recovery ratio, failure counts, and AUC binned by within-block
        correlation deciles."""
        by_cell = {}
        for row in self.rows:
            cell = by_cell.setdefault(
                (row.blocks, row.size),
                {"auc": [], "sensitivity": [], "specificity": [], "correct": [],
                 "failed": 0, "runs": 0},
            )
            cell["runs"] += 1
            if row.failed:
                cell["failed"] += 1
                continue
            for metric in ("auc", "sensitivity", "specificity"):
                value = getattr(row, metric)
                if value is not None:
                    cell[metric].append(value)
            cell["correct"].append(row.correct)

        def quartiles(values):
            if not values:
                return None
            q25, med, q75 = np.percentile(values, [25.0, 50.0, 75.0])
            return {"q25": float(q25), "median": float(med), "q75": float(q75),
                    "count": len(values)}

        by_block = {}
        for (blocks, size), cell in sorted(by_cell.items()):
            target = by_block.setdefault(str(blocks), {})
            target[str(size)] = {
                "auc": quartiles(cell["auc"]),
                "sensitivity": quartiles(cell["sensitivity"]),
                "specificity": quartiles(cell["specificity"]),
                "correct_ratio": correct_ratio(cell["correct"]),
                "failed": cell["failed"],
                "runs": cell["runs"],
            }

        return {
            "config": asdict(self.config),
            "total_runs": self.run_count(),
            "failed_analyses": self.failure_count(),
            "by_block_count": by_block,
            "auc_by_within_block_correlation": self._correlation_auc_bins(),
        }

    def _correlation_auc_bins(self):
        # Deciles of mean |rho| within blocks vs AUC, pooled over subset
        # sizes, one table per block count that admits an AUC.
        out = {}
        for row in self.rows:
            rho = row.mean_abs_within_block_corr
            if rho is None or row.failed or row.auc is None:
                continue
            bin_idx = min(int(rho * 10), 9)
            key = out.setdefault(str(row.blocks), [[] for _ in range(10)])
            key[bin_idx].append(row.auc)
        tables = {}
        for blocks, bins in sorted(out.items()):
            tables[blocks] = [
                {
                    "lo": _DECILE_EDGES[i],
                    "hi": _DECILE_EDGES[i + 1],
                    "count": len(vals),
                    "mean_auc": float(np.mean(vals)) if vals else None,
                }
                for i, vals in enumerate(bins)
            ]
        return tables

    def write_summary(self, path):
        write_json(self.summary(), path)
