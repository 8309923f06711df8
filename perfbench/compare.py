"""Compare two commits with the benchmark.

    python3 perfbench/compare.py --base PARENT_CHECKOUT --change CHANGE_CHECKOUT \
        --workload infer-wide [--pairs 10]

Both sides run this file's copy of the benchmark, so the benchmark code and
settings are identical; only the package source (CHECKOUT/src) differs.
Every run lasts run.py's default, the run_seconds of BENCHMARK.json that
the bounds were set for.  Pair i uses seed FIRST_SEED + i on both sides
and alternates which side runs first.  For every end-to-end metric it
prints both sides' medians and quartiles, how many pairs the change won,
and a verdict:

* gain: the change won at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than the base's own spread, the
  distance between its quartiles;
* regression: the change's median is worse than the base's by more than
  the metric's bound in BENCHMARK.json;
* unresolved: the base's spread is wider than the bound, unless every
  change run beats every base run;
* same: none of the above.

A gain does not count when more operations failed than on the base.

Results whose kernel backend or nproc differ are never compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
FIRST_SEED = 1000


def load_spec():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def check_comparable(results):
    """Refuse to compare results measured on different backends or core
    counts: compiled and pure-numpy kernels are 10-200x apart."""
    for key in ("kernel_backend", "nproc"):
        seen = {r["env"][key] for r in results}
        if len(seen) > 1:
            raise ValueError(f"results differ in {key}: {sorted(map(str, seen))}")


def verdict(base, change, better, bound):
    """Verdict for one metric from paired runs (base[i] pairs change[i])."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    q1, _, q3 = statistics.quantiles(base, n=4)
    med_b, med_c = statistics.median(base), statistics.median(change)
    worse_by = sign * (med_b - med_c) / med_b
    if worse_by > bound:
        return wins, "regression"
    if 10 * wins >= 9 * len(base) and abs(med_c - med_b) > q3 - q1:
        return wins, "gain"
    if (q3 - q1) / med_b > bound and not all(sign * (c - b) > 0 for c in change for b in base):
        return wins, "unresolved"
    return wins, "same"


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def run_side(program, workload, seed):
    workdir = os.path.join(CHECKOUT, ".perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=workdir, delete=False) as fh:
        out = fh.name
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--program", program,
                        "--out", out], check=True, stdout=subprocess.DEVNULL)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("a comparison needs at least 10 pairs")

    base, change = [], []
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        sides = [(base, args.base), (change, args.change)]
        for results, program in (sides if i % 2 == 0 else sides[::-1]):
            results.append(run_side(program, args.workload, seed))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})", file=sys.stderr)
    try:
        check_comparable(base + change)
    except ValueError as exc:
        sys.exit(f"refusing to compare: {exc}")
    base_failed = sum(r["failed"] for r in base)
    change_failed = sum(r["failed"] for r in change)
    if base_failed or change_failed:
        print(f"failed operations: base {base_failed}, change {change_failed}")

    print(f"{'metric':14s} {'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'wins':>6s}  verdict")
    for name, spec in load_spec().items():
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        wins, word = verdict(b, c, spec["better"], spec["bound"])
        if word == "gain" and change_failed > base_failed:
            word = "no gain: more operations failed"
        print(f"{name:14s} {summary(b):>32s} {summary(c):>32s} {wins:>3d}/{len(b):<2d}  {word}")


if __name__ == "__main__":
    main()
