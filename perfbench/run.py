"""The mutindep benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds N]
                             [--trace 0|1] [--size full|tiny] [--out FILE]
                             [--program DIR]

Runs each workload in a fresh worker process against the package source in
DIR/src (default: the checkout holding this file) and prints every metric
by name with its unit.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spans  # noqa: E402
from timing import StartupProbe  # noqa: E402

CHECKOUT = os.path.dirname(HERE)
with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]
WORKLOADS = ("infer-wide", "campaign-desk", "cli-cold")
SETUP_PROCESSES = 3
DEADLINE_S = 170  # one workload, set-up included; the contract allows 180

END_TO_END = {"wall_s": "s", "tests_per_s": "1/s", "unit_p50_ms": "ms",
              "unit_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_ms": "ms", "ns_per_test": "ns", "_per_test": "count", ".calls": "count",
                   "busy_over_wall": "ratio", "_s": "s"}


def per_layer_unit(name):
    return next(unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix))


def environment(workload, args):
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def _worker(mode, workload, args, workdir, env, timeout, importtime=False):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.join(HERE, "worker.py"), mode, "--workload", workload,
        "--seed", str(args.seed), "--size", args.size, "--program", args.program,
        "--workdir", workdir, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own process group, so that a timeout also stops the CLI processes
    # the worker starts
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, cwd=CHECKOUT, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"{workload}: the {mode} worker ran past {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"{workload}: the {mode} worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), stderr


def run_workload(workload, args, env):
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(CHECKOUT, ".perfbench-work", f"{os.getpid()}-{workload}")
    os.makedirs(workdir)
    try:
        # set-up is mostly start-up work, so it is scaled by the start-up probe
        probe = StartupProbe()
        setup_s, raw_setup_s, import_ms = [], [], []
        for _ in range(SETUP_PROCESSES):
            result, stderr = _worker("setup", workload, args, workdir, env, 60, args.trace)
            scale = probe.ref_s / probe()
            raw_setup_s.append(result["setup_s"])
            setup_s.append(result["setup_s"] * scale)
            if args.trace:
                import_ms.append([None if v is None else v * scale
                                  for v in spans.import_times(stderr)])
        result, _ = _worker("run", workload, args, workdir, env,
                            max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it

    metrics = result["metrics"]
    if args.trace:
        import_ms += result["import_ms"]
        for i, name in enumerate(("import.mutindep_ms", "import.scipy_ms")):
            samples = [pair[i] for pair in import_ms if pair[0] is not None]
            # a package that is never imported costs nothing at start-up
            metrics[name] = statistics.median(p or 0.0 for p in samples) if samples else None
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setup_s)
        units = END_TO_END
    result["env"].update(environment(workload, args))
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in sorted(metrics)}
    result["raw_setup_s"] = raw_setup_s
    return result


def report(result):
    env = result["env"]
    print(f"== {env['workload']}  seed={env['seed']} seconds={env['seconds']} "
          f"size={env['size']} trace={env['trace']} backend={env['kernel_backend']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']}")
    for name, metric in result["metrics"].items():
        value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name:34s} {value:>14s} {metric['unit']}")
    detail = result["detail"]
    print(f"  {'failure_ratio':34s} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations, "
          f"{result['checked']} checked against the reference)")
    print(f"  units={detail['units']} rounds={detail['rounds']} "
          f"tail=p{detail['tail_percentile']} with {detail['tail_samples_beyond']} beyond; "
          f"unscaled: unit_p50_ms={detail['raw_unit_p50_ms']:.6g} "
          f"tests_per_s={detail['raw_tests_per_s']:.6g} "
          f"setup_s={statistics.median(result['raw_setup_s']):.6g}; "
          f"{detail['probe']} p50 {detail['probe_p50_ms']:.4g} ms "
          f"(reference {detail['probe_ref_ms']:g})")
    if result["digests"]:
        seed = min(result["digests"], key=int)
        digest = result["digests"][seed]
        print(f"  sha256 of the first campaign (master seed {seed}): csv {digest['csv']} "
              f"summary {digest['summary']}")
    for error in result["errors"]:
        print(error, file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description="The mutindep benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="also write the full result as JSON here")
    parser.add_argument("--program", default=CHECKOUT,
                        help="checkout whose src/ is measured (default: this one)")
    args = parser.parse_args(argv)
    args.program = os.path.abspath(args.program)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(args.program, "src", "mutindep", "__init__.py")):
        print(f"error: no package source at {args.program}/src/mutindep", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(args.program, "src"), env.get("PYTHONPATH")) if p)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        results.append(run_workload(name, args, env))
        report(results[-1])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results if args.workload == "all" else results[0], fh, indent=1)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['env']['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
