"""One workload in a fresh process; started by run.py, not by hand.

    worker.py setup --workload W --seed S --size Z --program DIR --workdir DIR
        times `import mutindep` plus the untimed warm-up unit
    worker.py run ... --seconds N --trace 0|1
        warms up, runs the closed loop of units for N seconds (with --trace 1:
        N/2 untraced, then N/2 traced), checks the outputs of a seeded sample
        of units against the reference, and prints one JSON line.

Only the standard library is imported before the set-up clock starts.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--program", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import mutindep

    source = os.path.realpath(os.path.join(args.program, "src"))
    if not os.path.realpath(mutindep.__file__).startswith(source + os.sep):
        sys.exit(f"mutindep was imported from {mutindep.__file__}, not from {source}")
    import numpy as np

    import spans
    from timing import Phase
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    workload.warmup()
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return

    check_rng = np.random.default_rng([args.seed, 99])

    def pick(r):
        return r == 0 or check_rng.random() < workload.check_share

    errors = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    phases = [Phase(workload, seconds, 0, pick, errors)]
    # cli-cold: the largest of its command processes, as the workload saw them
    rss_kb = getattr(workload, "peak_rss_kb", None) or resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    out = {"env": {"kernel_backend": mutindep.kernel_backend,
                   "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}}
    end_to_end, out["detail"] = phases[0].metrics()

    if args.trace:
        child_dir = os.path.join(args.workdir, "child-spans")
        os.makedirs(child_dir, exist_ok=True)
        if args.workload == "cli-cold":
            workload.traced_command = [sys.executable, "-X", "importtime",
                                       os.path.join(HERE, "cli_child.py"), child_dir]
        tracer = spans.Tracer().install()
        try:
            phases.append(Phase(workload, seconds, phases[0].next_round, pick, errors))
        finally:
            tracer.uninstall()
        summaries = [tracer.summary()]
        for name in sorted(os.listdir(child_dir)):
            with open(os.path.join(child_dir, name), encoding="utf-8") as fh:
                summaries.append(json.load(fh))
        traced, out["traced_detail"] = phases[1].metrics()
        metrics = spans.layer_metrics(spans.merge(summaries), len(phases[1].units),
                                      phases[1].tests)
        # span times are scaled like unit times, by the phase's median probe
        scale = phases[1].scale()
        for name, value in metrics.items():
            if value is not None and name.endswith(("_ms", "ns_per_test")):
                metrics[name] = value * scale
        metrics["trace.overhead_s"] = traced["wall_s"] - end_to_end["wall_s"]
        out["import_ms"] = [[None if v is None else v * scale for v in spans.import_times(text)]
                            for text in getattr(workload, "child_stderr", [])]
    else:
        metrics = dict(end_to_end, peak_rss_mb=rss_kb / 1024.0)

    failed = sum(p.failed for p in phases)
    for record in (rec for p in phases for rec in p.records):
        try:
            problems = workload.check(record)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            failed += 1
            errors.extend(problems[:3])
    out.update(
        metrics=metrics,
        attempted=sum(p.attempted for p in phases),
        failed=failed,
        checked=sum(len(p.records) for p in phases),
        errors=errors[:20],
        digests={str(k): v for k, v in getattr(workload, "digests", {}).items()},
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
