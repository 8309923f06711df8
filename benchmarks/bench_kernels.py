"""Benchmark the compiled kernels against the pure-numpy fallback.

Usage: python benchmarks/bench_kernels.py [--out FILE]

Times the two hot operations (symmetric log-determinant and the
all-dichotomies statistic batch) on correlation matrices of growing size,
then `infer_from_model` end to end and the 300-run desk simulation through
each backend.  Only the backends that load are timed; the speedup column
needs both.  The package measured is the one `import mutindep` finds, so
running with PYTHONPATH pointing at another checkout's `src` measures that
checkout.

With --out, the printed rows are also written to FILE as JSON, together
with the kernel backend, the number of cores and the python, numpy and
scipy versions.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy

import mutindep
from mutindep import _kernels
from mutindep._kernels import load_backend
from mutindep.inference import infer_from_model
from mutindep.linalg import CorrelationModel
from mutindep.randomness import RngStream, sample_wishart_correlation


def _load_backends():
    """Map each loadable backend's column name to (module, MUTINDEP_KERNELS)."""
    backends = {"python": (load_backend("python"), "python")}
    try:
        backends["compiled"] = (load_backend("c"), "c")
    except ImportError:
        print("compiled backend absent (mutindep._kernels._fast is not built); "
              "timing python only")
    return backends


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


def _header(backends):
    names = "".join(f" {name:>12}" for name in backends)
    return names + (f" {'speedup':>9}" if len(backends) == 2 else "")


def _cells(times, scale, unit, digits):
    cells = "".join(f" {t * scale:>10.{digits}f}{unit}" for t in times)
    return cells + (f" {times[0] / times[1]:>8.1f}x" if len(times) == 2 else "")


def _row(bench, size, backends, times):
    return {"bench": bench, "size": size,
            "seconds": dict(zip(backends, times))}


def bench_logdet(backends):
    print("logdet_spd (per call)")
    print(f"{'dim':>5}{_header(backends)}")
    rng = RngStream(1)
    rows = []
    for dim in (4, 6, 10, 16, 24):
        r = sample_wishart_correlation(dim, rng)
        times = [_time(lambda: impl.logdet_spd(r)) for impl, _ in backends.values()]
        print(f"{dim:>5}{_cells(times, 1e6, 'us', 1)}")
        rows.append(_row("logdet_spd", dim, backends, times))
    return rows


def bench_batch(backends):
    print()
    print("mdi_statistic_batch over all dichotomies (per batch)")
    print(f"{'n':>5} {'tests':>6}{_header(backends)}")
    rng = RngStream(2)
    rows = []
    for n in (4, 6, 10, 14):
        r = sample_wishart_correlation(n, rng)
        masks = np.arange(1, 2**n - 1, 2, dtype=np.uint64)
        times = [_time(lambda: impl.mdi_statistic_batch(r, masks, 300))
                 for impl, _ in backends.values()]
        print(f"{n:>5} {len(masks):>6}{_cells(times, 1e3, 'ms', 2)}")
        rows.append(_row("mdi_statistic_batch", n, backends, times))
    return rows


@contextmanager
def _kernels_of(impl):
    saved = _kernels.logdet_spd, _kernels.mdi_statistic_batch
    _kernels.logdet_spd, _kernels.mdi_statistic_batch = (
        impl.logdet_spd, impl.mdi_statistic_batch)
    try:
        yield
    finally:
        _kernels.logdet_spd, _kernels.mdi_statistic_batch = saved


def bench_infer(backends):
    print()
    print("infer_from_model, central, fdr (per call)")
    print(f"{'n':>5} {'tests':>6}{_header(backends)}")
    rng = RngStream(3)
    rows = []
    for n in (6, 10, 12):
        model = CorrelationModel(sample_wishart_correlation(n, rng), 300)
        times = []
        for impl, _ in backends.values():
            with _kernels_of(impl):
                times.append(_time(lambda: infer_from_model(model, alpha=0.1)))
        print(f"{n:>5} {2**(n - 1) - 1:>6}{_cells(times, 1e3, 'ms', 2)}")
        rows.append(_row("infer_from_model", n, backends, times))
    return rows


_CAMPAIGN_SNIPPET = """
import time
from mutindep.simulation import SimulationConfig, run_campaign
config = SimulationConfig(n=6, block_counts=(1, 2, 3, 4, 5, 6), runs_per_k=50,
                          max_samples=300,
                          subset_sizes=(50, 100, 150, 200, 250, 300),
                          master_seed=3)
start = time.perf_counter()
run_campaign(config, threads=1)
print(time.perf_counter() - start)
"""


def bench_campaign(backends):
    # end to end, with the backend chosen the way it is in production:
    # at import time, via MUTINDEP_KERNELS
    print()
    print("desk simulation (300 runs x 6 sizes, single thread, fresh process)")
    results = {}
    for name, (_, forced) in backends.items():
        env = dict(os.environ, MUTINDEP_KERNELS=forced)
        out = subprocess.run(
            [sys.executable, "-c", _CAMPAIGN_SNIPPET],
            env=env, capture_output=True, text=True, check=True,
        )
        results[name] = float(out.stdout.strip())
        print(f"  {name:>9}: {results[name]:.2f}s")
    if len(results) == 2:
        print(f"  speedup: {results['python'] / results['compiled']:.1f}x")
    return [_row("desk_campaign", 300, backends, list(results.values()))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="FILE",
                        help="also write the rows and the environment as JSON")
    args = parser.parse_args(argv)
    backends = _load_backends()
    rows = (bench_logdet(backends) + bench_batch(backends)
            + bench_infer(backends) + bench_campaign(backends))
    if args.out:
        result = {
            "backend": mutindep.kernel_backend,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "rows": rows,
        }
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
