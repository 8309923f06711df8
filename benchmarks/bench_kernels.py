"""Time the dichotomy kernel, `infer_from_model` and the desk campaign.

Usage: python benchmarks/bench_kernels.py [--out FILE]

Times the all-dichotomies statistic batch on correlation matrices of
growing size, then `infer_from_model` end to end in central and in
noncentral mode (on the same models), and the 300-run desk simulation on
one thread.  The package measured is the one `import mutindep` finds, so
running with PYTHONPATH pointing at another checkout's `src` measures that
checkout.

With --out, the printed rows are also written to FILE as JSON, together
with the kernel name, the number of cores and the python and numpy
versions.  Each row keeps its time under the kernel name ("python"), as in
the earlier BENCH_*.json files, so they compare row by row.
"""

import argparse
import json
import os
import platform
import time

import numpy as np

import mutindep
from mutindep import _kernels
from mutindep.inference import infer_from_model
from mutindep.linalg import CorrelationModel
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


def _row(bench, size, seconds):
    return {"bench": bench, "size": size,
            "seconds": {mutindep.kernel_backend: seconds}}


def bench_batch():
    print("mdi_statistic_batch over all dichotomies (per batch)")
    rng = RngStream(2)
    rows = []
    for n in (4, 6, 10, 14, 16):
        r = sample_wishart_correlation(n, rng)
        masks = np.arange(1, 2**n - 1, 2, dtype=np.uint64)
        t = _time(lambda: _kernels.mdi_statistic_batch(r, masks, 300))
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
    return rows


def bench_campaign():
    print()
    print("desk simulation (300 runs x 6 sizes, single thread)")
    config = SimulationConfig(n=6, block_counts=(1, 2, 3, 4, 5, 6), runs_per_k=50,
                              max_samples=300,
                              subset_sizes=(50, 100, 150, 200, 250, 300),
                              master_seed=3)
    start = time.perf_counter()
    run_campaign(config)
    t = time.perf_counter() - start
    print(f"  {t:.2f}s")
    return [_row("desk_campaign", 300, t)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="FILE",
                        help="also write the rows and the environment as JSON")
    args = parser.parse_args(argv)
    rows = bench_batch() + bench_infer() + bench_campaign()
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
