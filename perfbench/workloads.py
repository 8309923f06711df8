"""The three workloads: inputs made from the seed, their units, and how
each unit's output is checked.

A workload hands out rounds, each a fixed list of units.  The inputs of
round r depend on the seed and r alone, so a seed fixes every input no
matter how many rounds a run gets through, and no two rounds repeat an
input.  Units are closures over prepared inputs; the worker times only the
closure.  Right after each unit, untimed, `finish` turns its output into a
test count and, for units picked for checking, a compact record that
`check` compares with the reference once the timed phase is over.  A phase
keeps at most `checks` records, a count that does not grow with the run's
length, so that the memory they take stays the same from run to run.
"""

import csv
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from timing import ComputeProbe, PoolComputeProbe, StartupProbe

ALPHA = 0.1
INFER_CALLS = (("central", "fdr"), ("noncentral", "bonferroni"))


@dataclass
class Unit:
    label: str
    run: Callable
    context: object = None


def planted_correlation(n, blocks, rng):
    """Random pattern with exactly `blocks` blocks and a block-diagonal
    correlation matrix: identity across blocks, a rescaled Wishart draw
    with size + 1 degrees of freedom inside each block."""
    labels = np.empty(n, dtype=int)
    order = rng.permutation(n)
    labels[order[:blocks]] = np.arange(blocks)
    labels[order[blocks:]] = rng.integers(blocks, size=n - blocks)
    r = np.eye(n)
    for b in range(blocks):
        idx = np.flatnonzero(labels == b)
        if idx.size > 1:
            a = rng.standard_normal((idx.size, idx.size + 1))
            w = a @ a.T
            d = np.sqrt(np.diag(w))
            block = w / np.outer(d, d)
            block = (block + block.T) / 2.0
            np.fill_diagonal(block, 1.0)
            r[np.ix_(idx, idx)] = block
    return r


def sample_rows(r, k, rng):
    return rng.standard_normal((k, r.shape[0])) @ np.linalg.cholesky(r).T


def inference_record(outcome):
    """The outcome as numpy arrays, so that the records a run keeps for
    checking weigh little beside the program's own memory."""
    tests = outcome.tests

    def column(get, dtype):
        return np.fromiter((get(t) for t in tests), dtype=dtype, count=len(tests))

    return {
        "masks": column(lambda t: t.bipartition.members, np.int64),
        "stats": column(lambda t: t.statistic, np.float64),
        "df": column(lambda t: t.df, np.int64),
        "p": column(lambda t: t.p_value, np.float64),
        "kept": np.fromiter((b.members for b in outcome.delta_hat), dtype=np.int64),
        "mu_hat": outcome.mu_hat.blocks(),
    }


class InferWide:
    """Repeated infer_from_model on planted models, alternating
    (central, fdr) and (noncentral, bonferroni) calls."""

    name = "infer-wide"
    check_share = 0.2
    checks = 24
    probe = ComputeProbe
    probe_each_unit = True
    SIZES = {"full": (12, (1, 2, 3, 4, 6, 12), 300), "tiny": (5, (1, 2, 5), 300)}

    def __init__(self, seed, size, workdir):
        import mutindep.inference
        import mutindep.linalg

        self.inference = mutindep.inference
        self.model_type = mutindep.linalg.CorrelationModel
        self.seed = seed
        self.n, self.blocks, self.k = self.SIZES[size]

    def _units(self, rng, block_counts):
        units = []
        for blocks in block_counts:
            # the correlation of k rows drawn from the planted model, as the
            # program gets it from data; the exact block-diagonal matrix
            # makes entailed statistics 0 up to rounding, which the program's
            # fixed -1e-9 slack rejects on some ill-conditioned draws
            r = oracle.sample_correlation(
                sample_rows(planted_correlation(self.n, blocks, rng), self.k, rng))
            model = self.model_type(r, self.k)
            for mode, correction in INFER_CALLS:
                # the name is looked up at call time, where a traced run patches it
                def run(model=model, mode=mode, correction=correction):
                    return self.inference.infer_from_model(
                        model, alpha=ALPHA, correction=correction, mode=mode)
                units.append(Unit(f"{mode}/{correction}", run, (model, mode, correction)))
        return units

    def warmup(self):
        for unit in self._units(np.random.default_rng([self.seed, 0]), self.blocks[:1]):
            unit.run()

    def round(self, r):
        return self._units(np.random.default_rng([self.seed, r + 1]), self.blocks)

    def finish(self, unit, outcome, keep):
        record = None
        if keep:
            model, mode, correction = unit.context
            record = (inference_record(outcome), model.r, model.k, correction, mode)
        return len(outcome.tests), record

    def check(self, record):
        result, r, k, correction, mode = record
        return oracle.check_inference(result, r, k, ALPHA, correction, mode)


class CampaignDesk:
    """run_campaign, then the CSV and summary writes that `mutindep
    simulate` performs.  A round is ten campaigns of 30 runs, 1800
    analyses in all; a unit is one campaign, short enough that the speed
    probes between units track the machine (see timing.py)."""

    name = "campaign-desk"
    check_share = 1.0
    checks = 10
    probe = PoolComputeProbe
    probe_each_unit = True
    SIZES = {
        "full": (10, dict(n=6, block_counts=(1, 2, 3, 4, 5, 6), runs_per_k=5, max_samples=300,
                         subset_sizes=(50, 100, 150, 200, 250, 300))),
        "tiny": (2, dict(n=4, block_counts=(1, 2, 4), runs_per_k=2, max_samples=100,
                         subset_sizes=(50, 100))),
    }
    CHECKED_RUNS = 4
    REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

    def __init__(self, seed, size, workdir):
        import mutindep
        import mutindep.simulation

        self.mutindep = mutindep
        self.simulation = mutindep.simulation
        self.seed = seed
        self.size = size
        self.per_round, self.params = self.SIZES[size]
        self.csv_path = os.path.join(workdir, "campaign.csv")
        self.summary_path = os.path.join(workdir, "summary.json")
        self.digests = {}  # master seed -> sha256 of the CSV and the summary

    def _unit(self, index, runs_per_k):
        # seed 0, index 0 is the program's default master seed 0
        config = self.simulation.SimulationConfig(
            **dict(self.params, runs_per_k=runs_per_k), alpha=ALPHA,
            master_seed=self.seed * 2**20 + index)

        def run():
            campaign = self.simulation.run_campaign(config)
            campaign.write_csv(self.csv_path)
            campaign.write_summary(self.summary_path)
            return campaign

        return Unit("campaign", run, config)

    def warmup(self):
        self._unit(2**20 - 1, 1).run()

    def round(self, r):
        return [self._unit(r * self.per_round + j, self.params["runs_per_k"])
                for j in range(self.per_round)]

    def finish(self, unit, campaign, keep):
        with open(self.csv_path, "rb") as fh:
            csv_bytes = fh.read()
        with open(self.summary_path, "rb") as fh:
            summary_bytes = fh.read()
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        n = self.params["n"]
        tests = sum(1 for row in rows if row["failed"] == "0") * (2 ** (n - 1) - 1)
        record = (unit.context, csv_bytes, summary_bytes) if keep else None
        return tests, record

    def check(self, record):
        config, csv_bytes, summary_bytes = record
        errors = []
        digests = {"csv": hashlib.sha256(csv_bytes).hexdigest(),
                   "summary": hashlib.sha256(summary_bytes).hexdigest()}
        self.digests[config.master_seed] = digests
        if self.size == "full" and config.master_seed == 0:
            # float output may differ in the last bit across numpy builds and
            # CPUs, so a digest is kept per backend, numpy version and machine
            key = (f"{self.mutindep.kernel_backend} numpy-{np.__version__} "
                   f"{platform.machine()}")
            with open(self.REFERENCE, encoding="utf-8") as fh:
                expected = json.load(fh)["campaign-desk"].get(key)
            if expected is not None and expected != digests:
                errors.append(f"campaign output at the default seed changed: {digests}")
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        runs = len(config.block_counts) * config.runs_per_k
        if len(rows) != runs * len(config.subset_sizes):
            return errors + [f"{len(rows)} CSV rows for {runs} runs"]
        summary = json.loads(summary_bytes)
        failed = sum(1 for row in rows if row["failed"] == "1")
        if summary["total_runs"] != runs or summary["failed_analyses"] != failed:
            errors.append("summary totals disagree with the CSV")
        rng = np.random.default_rng([config.master_seed, 7])
        for run_id in rng.choice(runs, size=min(self.CHECKED_RUNS, runs), replace=False):
            run_rows = [row for row in rows if int(row["run_id"]) == run_id]
            errors.extend(self._check_run(config, int(run_id), run_rows))
        return errors

    def _check_run(self, config, run_id, rows):
        # Regenerate the run's inputs from its documented (master seed, run
        # id) stream, then redo every analysis with the reference.
        m = self.mutindep
        n = config.n
        blocks = config.block_counts[run_id // config.runs_per_k]
        stream = m.RngStream(config.master_seed, run_id)
        truth, sigma = m.generate_model(n, blocks, stream)
        data = m.sample_mvn(sigma, config.max_samples, stream).values
        truth_blocks = tuple(sorted(truth.blocks()))
        errors = []
        where = f"run {run_id}"
        if len(rows) != len(config.subset_sizes) or rows[0]["truth"] != oracle.format_blocks(truth_blocks, n):
            return [f"{where}: rows or truth column do not match the run"]
        pairs = [abs(sigma[a - 1, b - 1]) for blk in truth_blocks
                 for i, a in enumerate(blk) for b in blk[i + 1:]]
        rho = float(np.mean(pairs)) if pairs else None
        got = _float_cell(rows[0]["mean_abs_within_block_corr"])
        if (got is None) != (rho is None) or (rho is not None and abs(got - rho) > 1e-12):
            errors.append(f"{where}: within-block correlation {got} vs {rho}")
        masks = oracle.all_masks(n)
        negative = np.array([oracle.entailed(mask, truth_blocks) for mask in masks])
        for size, row in zip(config.subset_sizes, rows):
            if int(row["size"]) != size:
                errors.append(f"{where}: sizes out of order")
                break
            if row["failed"] == "1":
                continue  # a flagged analysis is a valid output
            r = oracle.sample_correlation(data[:size])
            p = oracle.p_values(oracle.statistics(r, size, masks), masks, n, size, "central")
            rejected = oracle.bh_rejected(p, config.alpha)
            kept = [mask for mask, rej in zip(masks, rejected) if not rej]
            tp = int(np.sum(rejected & ~negative))
            fn = int(np.sum(~rejected & ~negative))
            tn = int(np.sum(~rejected & negative))
            fp = int(np.sum(rejected & negative))
            expected = {
                "sensitivity": tp / (tp + fn) if tp + fn else None,
                "specificity": tn / (tn + fp) if tn + fp else None,
                "correct": "1" if oracle.meet(n, kept) == truth_blocks else "0",
            }
            for key in ("sensitivity", "specificity"):
                if _float_cell(row[key]) != expected[key]:
                    errors.append(f"{where} size {size}: {key} {row[key]} vs {expected[key]}")
            if row["correct"] != expected["correct"]:
                errors.append(f"{where} size {size}: correct {row['correct']}")
            pos, neg = p[~negative], p[negative]
            got = _float_cell(row["auc"])
            if pos.size and neg.size:
                wins = np.count_nonzero(pos[:, None] < neg[None, :])
                ties = np.count_nonzero(pos[:, None] == neg[None, :])
                auc = (wins + 0.5 * ties) / (pos.size * neg.size)
                # one near-tied pair may order differently under the two tails
                if got is None or abs(got - auc) > 1.0 / (pos.size * neg.size) + 1e-12:
                    errors.append(f"{where} size {size}: auc {got} vs {auc}")
            elif got is not None:
                errors.append(f"{where} size {size}: auc {got} for a one-sided truth")
        return errors


def _float_cell(text):
    return float(text) if text != "" else None


class CliCold:
    """Sequential fresh `python -m mutindep.cli` processes, rotating
    through a data-CSV inference, a correlation-file inference and `hiv`."""

    name = "cli-cold"
    check_share = 1.0
    checks = 30
    probe = StartupProbe
    probe_each_unit = False
    SIZES = {"full": (8, 1000, 10, 300), "tiny": (4, 50, 5, 50)}
    HIV_PATTERN = "12356|4"

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.data_n, self.data_k, self.corr_n, self.corr_k = self.SIZES[size]
        # argv prefix that replaces `python -m mutindep.cli` in a traced
        # phase, and the -X importtime reports its children leave on stderr
        self.traced_command = None
        self.child_stderr = []
        self.peak_rss_kb = 0
        self.workdir = workdir
        self.data_path = os.path.join(workdir, "data.csv")
        self.corr_path = os.path.join(workdir, "corr.txt")

    def command(self):
        return self.traced_command or [sys.executable, "-m", "mutindep.cli"]

    def _invoke(self, args):
        """Run one command; returns (stdout, stderr).  The child is reaped
        with wait4 so that its own peak RSS is known: the worker's other
        children (the start-up probes) must not count in peak_rss_mb."""
        with tempfile.TemporaryFile(dir=self.workdir) as err:
            proc = subprocess.Popen(self.command() + args, stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(60, proc.kill)
            watchdog.start()
            try:
                stdout = proc.stdout.read().decode()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"mutindep {' '.join(args)} exited {proc.returncode}: "
                               f"{stderr.strip()[-300:]}")
        return stdout, stderr

    def warmup(self):
        self._invoke(["hiv"])

    def round(self, r):
        rng = np.random.default_rng([self.seed, r + 1])
        data = sample_rows(planted_correlation(self.data_n, 3, rng), self.data_k, rng)
        header = [f"x{i + 1}" for i in range(self.data_n)]
        with open(self.data_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in data)
        corr = oracle.sample_correlation(
            sample_rows(planted_correlation(self.corr_n, 4, rng), self.corr_k, rng))
        with open(self.corr_path, "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(repr(float(v)) for v in row) + "\n" for row in corr)
        infer_corr = ["infer", "--correlation", self.corr_path, "--samples", str(self.corr_k),
                      "--mode", "noncentral", "--correction", "bonferroni", "--format", "csv"]
        return [
            Unit("infer-data", lambda: self._invoke(["infer", self.data_path]), (data, header)),
            Unit("infer-corr", lambda: self._invoke(infer_corr), corr),
            Unit("hiv", lambda: self._invoke(["hiv"])),
        ]

    def finish(self, unit, output, keep):
        stdout, stderr = output
        n = {"infer-data": self.data_n, "infer-corr": self.corr_n, "hiv": 6}[unit.label]
        if self.traced_command:
            self.child_stderr.append(stderr)
        return 2 ** (n - 1) - 1, ((unit.label, unit.context, stdout) if keep else None)

    def check(self, record):
        label, context, stdout = record
        if label == "hiv":
            if f"finest pattern: {self.HIV_PATTERN}" not in stdout.splitlines():
                return [f"hiv did not print the finest pattern {self.HIV_PATTERN}"]
            return []
        if label == "infer-data":
            data, header = context
            payload = json.loads(stdout)
            n = self.data_n
            if (payload["n"], payload["k"], payload.get("columns")) != (n, self.data_k, header):
                return ["infer JSON header fields do not match the input"]
            result = {
                "masks": [oracle.members_mask(oracle.parse_partition(t["bipartition"], n))
                          for t in payload["tests"]],
                "stats": [t["statistic"] for t in payload["tests"]],
                "df": [t["df"] for t in payload["tests"]],
                "p": [t["p_value"] for t in payload["tests"]],
                "kept": [oracle.members_mask(oracle.parse_partition(b, n))
                         for b in payload["delta_hat"]],
                "mu_hat": oracle.parse_partition(payload["mu_hat"], n),
            }
            return oracle.check_inference(result, oracle.sample_correlation(data), self.data_k,
                                          ALPHA, "fdr", "central")
        n = self.corr_n
        lines = stdout.splitlines()
        if lines[0] != "bipartition,statistic,df,p_value,rejected":
            return ["infer CSV header changed"]
        cells = [line.split(",") for line in lines[1:]]
        # the comma-separated partition text spans several cells
        parsed = [(oracle.members_mask(oracle.parse_partition(",".join(c[:-4]), n)),
                   float(c[-4]), int(c[-3]), float(c[-2]), c[-1]) for c in cells]
        kept = [mask for mask, *_, rejected in parsed if rejected == "0"]
        result = {
            "masks": [row[0] for row in parsed],
            "stats": [row[1] for row in parsed],
            "df": [row[2] for row in parsed],
            "p": [row[3] for row in parsed],
            "kept": kept,
            "mu_hat": oracle.meet(n, kept),  # the CSV form prints no pattern
        }
        return oracle.check_inference(result, context, self.corr_k, ALPHA, "bonferroni",
                                      "noncentral")


WORKLOADS = {w.name: w for w in (InferWide, CampaignDesk, CliCold)}
