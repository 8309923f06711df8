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

from . import _kernels
from ._kernels import check_size
from .fdr import check_alpha
from .inference import CORRECTIONS, check_correction, classify_against_truth
from .linalg import _correlations
from .mdi import _clamped, check_mode, p_values
from .partitions import bipartition_masks, entailed_masks, format_partition, meet_labels
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

# the metrics whose quartiles a campaign summary gives per cell
_QUARTILE_METRICS = ("auc", "sensitivity", "specificity")

# Runs are drawn and analysed in chunks of at most CHUNK_BYTES, counted by
# run_campaign: per run, its data (max_samples x n floats); per run and
# subset size, its subset table (2^n floats), its statistics and p-values
# (two floats a test) and three flags a test (negative, rejected,
# survived).  That is 49 runs at the desk size of n = 6, 300 samples and 6
# sizes, so a 30-run campaign is one chunk.  The tails are not counted:
# they take at most mdi._TAIL_SLICE statistics at a time, one array call
# per tail class, so their temporaries are bounded whatever the chunk:
# tracemalloc puts p_values at 140-190 bytes a statistic of a slice that
# is one class (12 MB at most), of which the tail call itself takes 106
# (central) or 81 (noncentral).  Nor are other temporaries: tracemalloc
# puts a chunk's peak at 1.5-2.3 times the count (1.6 MB for a 49-run desk
# chunk; 63 MB for one n = 18 run, where the subset-table build and auc
# set it).
CHUNK_BYTES = 1 << 20

# Past these limits a campaign is refused rather than left to exhaust
# memory.  A run draws max_samples x n floats at once (2^24 are 128 MiB).  A
# campaign keeps one Row per (run, subset size), 210-250 bytes each
# (tracemalloc, on SimulationConfig() and a one-size campaign), so 2^21
# rows are about 0.5 GiB.
MAX_RUN_VALUES = 1 << 24
MAX_CAMPAIGN_ROWS = 1 << 21


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
        if self.max_samples * self.n > MAX_RUN_VALUES:
            raise ValueError(
                f"max_samples x n = {self.max_samples} x {self.n} values a run: the "
                f"limit is {MAX_RUN_VALUES} (128 MiB of floats)"
            )
        if not self.subset_sizes:
            raise ValueError("need at least one subset size")
        for size in self.subset_sizes:
            if not self.n < size <= self.max_samples:
                raise ValueError(
                    f"subset size {size} outside {self.n + 1}..max_samples="
                    f"{self.max_samples}: the correlation of at most n={self.n} "
                    "rows is singular"
                )
        rows = len(self.block_counts) * self.runs_per_k * len(self.subset_sizes)
        if rows > MAX_CAMPAIGN_ROWS:
            raise ValueError(f"block counts x runs x subset sizes = {rows} rows: the "
                             f"limit is {MAX_CAMPAIGN_ROWS} (about 0.5 GiB of rows)")
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
    is empty (e.g. a 1-block or all-singleton truth).  For `(rows, tests)`
    arrays, one analysis per row, a list with one value per row.
    """
    p = np.asarray(pvalues, dtype=np.float64)
    negative = np.asarray(negative, dtype=bool)
    if p.shape != negative.shape or p.ndim not in (1, 2):
        raise ValueError("need one p-value per bipartition")
    stacked = p.ndim == 2
    p, negative = p.reshape(-1, p.shape[-1]), negative.reshape(-1, p.shape[-1])
    # rank-sum (Mann-Whitney) count over each row sorted by p-value: a tie
    # group of equal p-values starts where the value changes, and the
    # elements before its start are the ones strictly below it
    order = np.argsort(p, axis=1, kind="stable")
    ascending = np.take_along_axis(p, order, axis=1)
    negative = np.take_along_axis(negative, order, axis=1)
    starts = np.ones(p.shape, dtype=bool)
    starts[:, 1:] = ascending[:, 1:] != ascending[:, :-1]
    start = np.maximum.accumulate(np.where(starts, np.arange(p.shape[1]), 0), axis=1)
    neg_below = np.take_along_axis(np.cumsum(negative, axis=1) - negative, start, axis=1)
    pos_below = start - neg_below
    neg_count = np.count_nonzero(negative, axis=1)
    pos_count = p.shape[1] - neg_count
    wins = (pos_below * negative).sum(axis=1)  # positive below negative
    losses = (neg_below * ~negative).sum(axis=1)  # negative below positive
    ties = pos_count * neg_count - wins - losses
    values = [float((w + 0.5 * t) / (pos * neg)) if pos and neg else None
              for w, t, pos, neg in zip(wins.tolist(), ties.tolist(),
                                        pos_count.tolist(), neg_count.tolist())]
    return values if stacked else values[0]


def _rate(hits, total):
    return hits / total if total else None


def sensitivity(confusion):
    """TP / (TP + FN); None when the truth has no positive case."""
    return _rate(confusion.tp, confusion.tp + confusion.fn)


def specificity(confusion):
    """TN / (TN + FP); None when the truth has no negative case."""
    return _rate(confusion.tn, confusion.tn + confusion.fp)


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


def _execute_chunk(config, run_ids):
    """The rows of a chunk of runs, given by their ids, in the chunk's order,
    with one row per subset size, in config order, for each run."""
    return _score_chunk(config, run_ids, *_draw_chunk(config, run_ids))


def _draw_chunk(config, run_ids):
    """Each run's (truth, sigma), drawn from its own stream with the block
    count config.block_counts[run_id // config.runs_per_k]; the correlations
    of the runs' sample prefixes, (runs, sizes, n, n) with the subset sizes
    in config order; and which of those prefixes have a constant column."""
    truths = []
    data = np.empty((len(run_ids), config.max_samples, config.n))
    for i, run_id in enumerate(run_ids):
        rng = RngStream(config.master_seed, run_id)
        blocks = config.block_counts[run_id // config.runs_per_k]
        truths.append(generate_model(config.n, blocks, rng))
        data[i] = sample_mvn(truths[-1][1], config.max_samples, rng).values
    r, constant = zip(*(_correlations(data[:, :size]) for size in config.subset_sizes))
    return truths, np.stack(r, axis=1), np.stack(constant, axis=1).any(axis=-1)


def _score_chunk(config, run_ids, truths, r, constant):
    """The rows of the runs from their drawn truths and correlations.

    Every analysis (a run at a subset size) has its statistics read off the
    chunk's subset tables in one kernel call.  A constant column, or a NaN
    statistic (a submatrix not positive definite), fails that analysis
    alone.  The others are clamped in run order, so an InternalNumericError
    stops the campaign at the first analysis that meets it, and are scored
    together as (analyses, tests) arrays: their p-values, the correction of
    each row, its confusion counts, AUC and exact recovery: the meet of the
    survivors equals the meet of the dichotomies the truth entails, the truth.
    """
    n, sizes = config.n, config.subset_sizes
    masks = bipartition_masks(n)
    member_sizes = [m.bit_count() for m in masks.tolist()]
    ks = np.array(sizes)
    stats = _kernels.mdi_statistic_batch(_kernels._subset_logdets(r), masks, ks)
    # analysis (i, s) is run i at size s; the scored ones stay, in run order
    scored = ~(constant | np.isnan(stats).any(axis=-1))
    run_at, size_at = np.nonzero(scored)
    stats = _clamped(stats[scored], r[scored], ks[size_at])
    p = p_values(stats, member_sizes, n, ks[size_at], config.mode)
    negative = np.array([entailed_masks(masks, truth) for truth, _ in truths])[run_at]
    rejected = CORRECTIONS[config.correction](p, config.alpha)
    counts = classify_against_truth(rejected, negative)
    tp, fn, tn, fp = (c.tolist() for c in (counts.tp, counts.fn, counts.tn, counts.fp))
    metrics = zip([_rate(hits, hits + misses) for hits, misses in zip(tp, fn)],
                  [_rate(hits, hits + misses) for hits, misses in zip(tn, fp)],
                  auc(p, negative),
                  (meet_labels(masks, n, ~rejected)
                   == meet_labels(masks, n, negative)).all(axis=-1).tolist())
    rows = []
    for i, (run_id, (truth, sigma)) in enumerate(zip(run_ids, truths)):
        truth_text = format_partition(truth)
        rho = within_block_correlation(truth, sigma)
        for s, size in enumerate(sizes):
            failed = not scored[i, s]
            rows.append(Row(run_id, truth.block_count, truth_text, size,
                            *((None,) * 4 if failed else next(metrics)), rho, failed))
    return rows


def run_campaign(config):
    """Execute the whole campaign; deterministic given config.master_seed.

    Runs execute in order on the calling thread, in chunks of consecutive
    ids.  Each run draws from a private (master_seed, run id) stream, so a
    run's rows depend on nothing but the config and its id, not on its
    chunk.  An analysis that fails is a row with a failure flag.
    """
    run_ids = range(len(config.block_counts) * config.runs_per_k)
    tests = 2 ** (config.n - 1) - 1
    per_run = (8 * config.max_samples * config.n
               + len(config.subset_sizes) * (8 * 2**config.n + 19 * tests))
    step = max(1, CHUNK_BYTES // per_run)
    rows = [row for start in range(0, len(run_ids), step)
            for row in _execute_chunk(config, run_ids[start:start + step])]
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
            for metric in _QUARTILE_METRICS:
                value = getattr(row, metric)
                if value is not None:
                    cell[metric].append(value)
            cell["correct"].append(row.correct)

        quartiles = self._quartiles(by_cell)
        by_block = {}
        for (blocks, size), cell in sorted(by_cell.items()):
            target = by_block.setdefault(str(blocks), {})
            target[str(size)] = {
                **{metric: quartiles.get((blocks, size, metric))
                   for metric in _QUARTILE_METRICS},
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

    @staticmethod
    def _quartiles(by_cell):
        # {(blocks, size, metric): quartiles} of each nonempty value list,
        # from one percentile call per list length
        by_length = {}
        for (blocks, size), cell in by_cell.items():
            for metric in _QUARTILE_METRICS:
                if cell[metric]:
                    by_length.setdefault(len(cell[metric]), []).append(
                        ((blocks, size, metric), cell[metric]))
        out = {}
        for length, lists in by_length.items():
            q = np.percentile([values for _, values in lists], [25.0, 50.0, 75.0], axis=1)
            for (key, _), (q25, med, q75) in zip(lists, q.T.tolist()):
                out[key] = {"q25": q25, "median": med, "q75": q75, "count": length}
        return out

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
