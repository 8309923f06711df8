"""Write the byte-identity set of the mutindep command line, with digests.

Usage: python benchmarks/golden_outputs.py OUTDIR

Runs the command line of the checkout this script lives in (its `src/`) on
seeded inputs and writes every output to OUTDIR, plus `SHA256SUMS` in the
format of `sha256sum`.  A change meant to keep outputs byte-identical is
checked by running this script from both commits and comparing the two
directories with `diff -r`.

The set:

* `infer` on two seeded data CSVs (n=8 with k=1000 rows, n=9 with k=400),
  each for {central, noncentral} x {fdr, bonferroni} x {json, csv, text};
* `hiv`;
* `simulate --runs 5 --seed 0` (the default n=6 campaign);
* `simulate --runs 5 --seed 3 --mode noncentral --correction bonferroni`.

The input data depend only on numpy's seeded generator, never on the
package, so both commits see the same inputs.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

# (name, n, k, seed, planted blocks as 0-based index lists)
DATASETS = (
    ("n8", 8, 1000, 8, ([0, 1, 2], [3, 4], [5], [6, 7])),
    ("n9", 9, 400, 9, ([0, 4, 8], [1, 2], [3], [5, 6, 7])),
)
MODES = ("central", "noncentral")
CORRECTIONS = ("fdr", "bonferroni")
FORMATS = ("json", "csv", "text")
SIMULATIONS = (
    ("simulate_seed0", ["--runs", "5", "--seed", "0"]),
    ("simulate_seed3_noncentral_bonferroni",
     ["--runs", "5", "--seed", "3", "--mode", "noncentral",
      "--correction", "bonferroni"]),
)


def planted_rows(n, k, seed, blocks):
    """k rows drawn from a block-diagonal correlation with a random
    positive-definite block on each planted group."""
    rng = np.random.default_rng(seed)
    r = np.eye(n)
    for block in blocks:
        if len(block) > 1:
            a = rng.standard_normal((len(block), len(block) + 2))
            w = a @ a.T
            d = np.sqrt(np.diag(w))
            r[np.ix_(block, block)] = w / np.outer(d, d)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    return rng.standard_normal((k, n)) @ np.linalg.cholesky(r).T


def write_csv(path, rows):
    header = ",".join(f"v{j + 1}" for j in range(rows.shape[1]))
    lines = [header] + [",".join(repr(float(x)) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_cli(main, argv, stdout_path=None):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"mutindep {' '.join(argv)} exited {code}")
    if stdout_path is not None:
        stdout_path.write_text(buffer.getvalue(), encoding="utf-8")


def main(argv):
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    from mutindep.cli import main as cli_main

    produced = []
    inputs = out / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, n, k, seed, blocks in DATASETS:
        data = inputs / f"{name}.csv"
        write_csv(data, planted_rows(n, k, seed, blocks))
        for mode in MODES:
            for correction in CORRECTIONS:
                for fmt in FORMATS:
                    target = out / f"infer_{name}_{mode}_{correction}.{fmt}"
                    run_cli(cli_main, ["infer", str(data), "--mode", mode,
                                       "--correction", correction, "--format", fmt,
                                       "--output", str(target)])
                    produced.append(target)
    target = out / "hiv.txt"
    run_cli(cli_main, ["hiv"], target)
    produced.append(target)
    for name, extra in SIMULATIONS:
        csv_path, summary, table = (out / f"{name}.csv", out / f"{name}.json",
                                    out / f"{name}.txt")
        run_cli(cli_main, ["simulate", *extra, "--csv", str(csv_path),
                           "--summary", str(summary)], table)
        produced.extend((csv_path, summary, table))

    digests = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
               for p in produced]
    (out / "SHA256SUMS").write_text("".join(digests), encoding="utf-8")
    print(f"{len(produced)} outputs and SHA256SUMS written to {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
