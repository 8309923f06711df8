"""Chain the change/parent ratios of the committed BENCH_*.json files.

Usage: python benchmarks/trajectory.py [FILE ...]

A BENCH file compares one change with its parent commit: runs labelled
`parent` and `change`, each a list of rows (bench, size, seconds per
backend), measured on one machine in one sitting.  Absolute seconds differ
up to 2x between sittings, so only ratios taken within a file are compared.

The ratio of a row in a file is the median of its `change` runs' seconds
over the median of its `parent` runs' seconds, each run's seconds being
the `python` backend's (the package's one backend); below 1 the change
is faster.  For each row, the script prints its ratio in each file (`-`
where the file lacks it) and the product of those ratios: the row's
trajectory over the files.  It then names, per file, the rows that only
one side measured.  The files are every benchmarks/BENCH_*.json in name
(date) order, or the FILEs given.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def sides(path):
    """{(bench, size): {side: [seconds of each run]}} of one BENCH file;
    runs under another label (BENCH_20261018's compiled kernel) are left
    out."""
    rows = {}
    for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        if run["label"] in SIDES:
            for row in run["rows"]:
                seconds = rows.setdefault((row["bench"], row["size"]), {})
                seconds.setdefault(run["label"], []).append(row["seconds"]["python"])
    return rows


def ratios(path):
    """({row: change/parent ratio of the medians}, [rows one side lacks])
    of one BENCH file."""
    found, lacking = {}, []
    for row, seconds in sides(path).items():
        if all(side in seconds for side in SIDES):
            found[row] = statistics.median(seconds["change"]) / statistics.median(seconds["parent"])
        else:
            lacking.append(row)
    return found, sorted(lacking)


def chains(paths):
    """{row: [its ratio in each file, or None]} over `paths`, in order,
    and {file name: [rows one side lacks]}."""
    per_file, lacking = [], {}
    for path in paths:
        found, missing = ratios(path)
        per_file.append(found)
        if missing:
            lacking[Path(path).name] = missing
    rows = sorted(set().union(*per_file))
    return {row: [found.get(row) for found in per_file] for row in rows}, lacking


def product(chain):
    """The product of the ratios a row has."""
    return math.prod(ratio for ratio in chain if ratio is not None)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="BENCH files to chain, in order (default: every one)")
    args = parser.parse_args(argv)
    paths = [Path(p) for p in args.files] or sorted(BENCH_DIR.glob("BENCH_*.json"))
    table, lacking = chains(paths)
    names = [p.stem.removeprefix("BENCH_") for p in paths]
    label = max((len(f"{bench} {size}") for bench, size in table), default=3)
    print("change/parent ratio of the medians, per file, and their product")
    print(f"{'row':<{label}} " + " ".join(f"{name:>9}" for name in names) + "   product")
    for (bench, size), chain in table.items():
        cells = " ".join(f"{'-' if r is None else format(r, '.2f'):>9}" for r in chain)
        print(f"{f'{bench} {size}':<{label}} {cells} {product(chain):9.2f}")
    for name, rows in lacking.items():
        print(f"{name}: one side only: " + ", ".join(f"{bench} {size}" for bench, size in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
