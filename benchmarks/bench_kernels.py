"""Time the dichotomy kernel, `infer_from_model` and the simulation campaigns.

Usage: python benchmarks/bench_kernels.py [--out FILE]

Times the all-dichotomies statistic batch on correlation matrices of
growing size, then `infer_from_model` end to end in central and in
noncentral mode (on the same models) and on identity models, where
every dichotomy survives and the meet is the cost, `mdi.p_values` of one
analysis in each mode (n = 12, 18), `meet_all` alone on
surviving dichotomies (n = 6, 12, and all of them at n = 20, where the
meet's temporaries are largest) and on many-block Partitions (n = 2000,
5000), one desk campaign chunk (its drawing, its scoring and each step of
the scoring: subset tables, statistics, clamp, p-values, correction,
classification, AUC, the meets of exact recovery, negatives), the 300-run desk
simulation in central and in noncentral mode (five times each, reported as
the median with its quartiles), that central campaign's summary, the
rewrite of its CSV and summary onto the same two paths, as a campaign
re-run into the same files does, the default 3000-run reference campaign
(three times, reported like the desk one), a 2-run n = 18 campaign in each
mode (131,071 tests an analysis, three times, reported like the desk one),
and a `mutindep simulate` process re-run onto its own --csv and --summary.
The package measured is the one `import mutindep` finds, so running with
PYTHONPATH pointing at another checkout's `src` measures that checkout
(the re-run processes are given that package's directory as PYTHONPATH).

With --out, the printed rows are also written to FILE as JSON, together
with the kernel name, the number of cores and the python and numpy
versions.  Each row keeps its time under the kernel name ("python"), as in
the earlier BENCH_*.json files, so they compare row by row.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

import mutindep
from mutindep import _kernels, simulation
from mutindep.inference import infer_from_model
from mutindep.linalg import CorrelationModel
from mutindep.mdi import mdi_statistics, p_values
from mutindep.partitions import Partition, enumerate_bipartitions, meet_all
from mutindep.randomness import RngStream, sample_wishart_correlation
from mutindep.simulation import SimulationConfig, run_campaign


def _time(fn, min_seconds=0.2):
    fn()  # warm up
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls


def _row(bench, size, seconds, **extra):
    return {"bench": bench, "size": size,
            "seconds": {mutindep.kernel_backend: seconds}, **extra}


def _batch(r, masks, k):
    """The statistic batch of r, its subset table included."""
    return _kernels.mdi_statistic_batch(_kernels._subset_logdets(r), masks, k)


def bench_batch():
    print("mdi_statistic_batch over all dichotomies, subset table included (per batch)")
    rng = RngStream(2)
    rows = []
    for n in (4, 6, 10, 14, 16):
        r = sample_wishart_correlation(n, rng)
        masks = np.arange(1, 2**n - 1, 2, dtype=np.uint64)
        t = _time(lambda: _batch(r, masks, 300))
        print(f"{n:>5} {len(masks):>6} {t * 1e3:>10.2f}ms")
        rows.append(_row("mdi_statistic_batch", n, t))
    return rows


def bench_infer():
    rows = []
    # the central rows keep the bench name of the earlier BENCH_*.json files
    for mode, bench in (("central", "infer_from_model"),
                        ("noncentral", "infer_from_model_noncentral")):
        print()
        print(f"infer_from_model, {mode}, fdr (per call)")
        rng = RngStream(3)
        for n in (6, 10, 12, 14):
            model = CorrelationModel(sample_wishart_correlation(n, rng), 300)
            t = _time(lambda: infer_from_model(model, alpha=0.1, mode=mode))
            print(f"{n:>5} {2**(n - 1) - 1:>6} {t * 1e3:>10.2f}ms")
            rows.append(_row(bench, n, t))
    print()
    print("infer_from_model, central, fdr, identity model: every dichotomy "
          "survives (per call)")
    for n in (12, 14):
        model = CorrelationModel(np.eye(n), 300)
        t = _time(lambda: infer_from_model(model, alpha=0.1))
        print(f"{n:>5} {2**(n - 1) - 1:>6} {t * 1e3:>10.2f}ms")
        rows.append(_row("infer_from_model_identity", n, t))
    return rows


def bench_p_values():
    """mdi.p_values of one analysis over all dichotomies, per call, in
    each mode: at n = 12 and 18 on one Wishart model with 300 samples."""
    rows = []
    for mode, bench in (("central", "p_values"), ("noncentral", "p_values_noncentral")):
        print()
        print(f"mdi.p_values, {mode}, one analysis (per call)")
        rng = RngStream(3)
        for n in (12, 18):
            model = CorrelationModel(sample_wishart_correlation(n, rng), 300)
            bips = enumerate_bipartitions(n)
            stats = mdi_statistics(model, bips)
            sizes = [b.members.bit_count() for b in bips]
            t = _time(lambda: p_values(stats, sizes, n, model.k, mode))
            print(f"{n:>5} {len(bips):>6} {t * 1e3:>10.2f}ms")
            rows.append(_row(bench, n, t))
    return rows


def bench_meet():
    """meet_all on the inputs of an inference (Bipartitions at n = 6, 12 and
    20) and on many-block Partitions (meet, is_refinement), per call."""
    print()
    print("meet_all: surviving dichotomies, and Partitions with many blocks (per call)")
    rng = np.random.default_rng(0)
    fine = [Partition(rng.integers(0, 1000, size=2000)) for _ in range(2)]
    seven = Partition([i % 7 for i in range(5000)])
    cases = [
        ("meet_dichotomies", 6, enumerate_bipartitions(6)[:10]),
        ("meet_dichotomies", 12, enumerate_bipartitions(12)),
        ("meet_dichotomies", 20, enumerate_bipartitions(20)),
        ("meet_partitions", 2000, fine),
        ("meet_partitions", 5000, [Partition.singletons(5000), seven]),
    ]
    rows = []
    for bench, n, inputs in cases:
        t = _time(lambda: meet_all(inputs))
        print(f"  {bench:<17} n={n:<5} {len(inputs):>5} inputs {t * 1e3:>9.4f}ms")
        rows.append(_row(bench, n, t, inputs=len(inputs)))
    return rows


def bench_scoring(repeats=20):
    """The scoring of one desk chunk (30 runs x 6 sizes = 180 analyses, from
    their drawn correlations) through the campaign's own _score_chunk, and
    the time spent in each step it calls, taken by wrapping the name it calls
    the step by (in mutindep.simulation, in mutindep._kernels for the subset
    tables and the statistic batch, or the correction's entry of
    simulation.CORRECTIONS) while the chunk is scored `repeats` times."""
    print()
    print("one desk chunk, 30 runs x 6 sizes: drawing, scoring and each "
          "scoring step (per chunk)")
    config = SimulationConfig(n=6, runs_per_k=5, master_seed=3)
    runs = range(len(config.block_counts) * config.runs_per_k)
    drawn = simulation._draw_chunk(config, runs)
    timings = {
        "draw": _time(lambda: simulation._draw_chunk(config, runs)),
        "scoring": _time(lambda: simulation._score_chunk(config, runs, *drawn)),
    }
    module, kernels = vars(simulation), vars(_kernels)
    steps = {"tables": (kernels, "_subset_logdets"),
             "statistics": (kernels, "mdi_statistic_batch"),
             "clamp": (module, "_clamped"), "p_values": (module, "p_values"),
             "correction": (simulation.CORRECTIONS, config.correction),
             "classify": (module, "classify_against_truth"), "auc": (module, "auc"),
             "recovery": (module, "meet_labels"), "negatives": (module, "entailed_masks")}
    spent = dict.fromkeys(steps, 0.0)

    def timed(layer, fn):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[layer] += time.perf_counter() - start
        return wrapper

    originals = {layer: names[key] for layer, (names, key) in steps.items()}
    try:
        for layer, (names, key) in steps.items():
            names[key] = timed(layer, originals[layer])
        for _ in range(repeats):
            simulation._score_chunk(config, runs, *drawn)
    finally:
        for layer, (names, key) in steps.items():
            names[key] = originals[layer]
    timings.update((layer, t / repeats) for layer, t in spent.items())
    rows = []
    for layer, t in timings.items():
        print(f"  {layer:<16} {t * 1e3:>8.2f}ms")
        rows.append(_row(f"desk_chunk_{layer}", len(runs) * len(config.subset_sizes), t))
    return rows


def _time_campaign(label, bench, config, repeats):
    print()
    print(f"{label}, {repeats} runs: median [quartiles]")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        campaign = run_campaign(config)
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    print(f"  {median:.3f}s [{q1:.3f}, {q3:.3f}]")
    runs = len(config.block_counts) * config.runs_per_k
    row = _row(bench, runs, median, quartiles={mutindep.kernel_backend: [q1, q3]})
    return campaign, row


def bench_campaign(repeats=5):
    config = SimulationConfig(n=6, block_counts=(1, 2, 3, 4, 5, 6), runs_per_k=50,
                              max_samples=300,
                              subset_sizes=(50, 100, 150, 200, 250, 300),
                              master_seed=3)
    campaign, row = _time_campaign("desk simulation (300 runs x 6 sizes)",
                                   "desk_campaign", config, repeats)
    _, noncentral = _time_campaign("desk simulation, noncentral (300 runs x 6 sizes)",
                                   "desk_campaign_noncentral",
                                   replace(config, mode="noncentral"), repeats)
    rows = [row, noncentral]

    print()
    print("desk campaign summary (per call)")
    t = _time(campaign.summary)
    print(f"  {t * 1e3:.2f}ms")
    rows.append(_row("desk_summary", 300, t))

    print()
    print("desk campaign CSV + summary, rewritten onto the same paths (per rewrite)")
    with tempfile.TemporaryDirectory() as workdir:
        csv_path = os.path.join(workdir, "campaign.csv")
        summary_path = os.path.join(workdir, "summary.json")

        def rewrite():
            campaign.write_csv(csv_path)
            campaign.write_summary(summary_path)

        t = _time(rewrite, min_seconds=1.0)
    print(f"  {t * 1e3:.2f}ms")
    rows.append(_row("campaign_rewrite", 300, t))
    return rows


def bench_reference_campaign(repeats=3):
    # the study's default: 3000 runs x 6 sizes, the CLI's `simulate --seed 0`
    _, row = _time_campaign("reference simulation (3000 runs x 6 sizes)",
                            "reference_campaign", SimulationConfig(), repeats)
    return [row]


def bench_campaign_n18(repeats=3):
    config = SimulationConfig(n=18, block_counts=(3,), runs_per_k=2, master_seed=3)
    _, row = _time_campaign("n = 18 simulation (2 runs x 6 sizes)", "campaign_n18",
                            config, repeats)
    _, noncentral = _time_campaign("n = 18 simulation, noncentral (2 runs x 6 sizes)",
                                   "campaign_n18_noncentral",
                                   replace(config, mode="noncentral"), repeats)
    return [row, noncentral]


def bench_cli_rerun(repeats=7):
    print()
    print("mutindep simulate of a 30-run desk campaign, second run onto the same"
          " --csv and --summary (median per process)")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(mutindep.__file__)))
    command = [sys.executable, "-c", "from mutindep.cli import entrypoint; entrypoint()",
               "simulate", "--n", "6", "--runs", "5", "--samples", "300", "--seed", "0"]
    times = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as workdir:
            argv = command + ["--csv", os.path.join(workdir, "campaign.csv"),
                              "--summary", os.path.join(workdir, "summary.json")]

            def simulate():
                subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)

            simulate()  # writes the outputs the timed run replaces
            start = time.perf_counter()
            simulate()
            times.append(time.perf_counter() - start)
    t = statistics.median(times)
    print(f"  {t * 1e3:.1f}ms")
    return [_row("cli_simulate_rerun", 30, t)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="FILE",
                        help="also write the rows and the environment as JSON")
    args = parser.parse_args(argv)
    rows = (bench_batch() + bench_infer() + bench_p_values() + bench_meet() + bench_scoring()
            + bench_campaign() + bench_reference_campaign() + bench_campaign_n18()
            + bench_cli_rerun())
    if args.out:
        result = {
            "backend": mutindep.kernel_backend,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "rows": rows,
        }
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
