"""Command-line interface.

Subcommands:

* infer        -- run the full inference pipeline on a CSV dataset or on a
                  correlation matrix file with an explicit sample count
* dichotomies  -- list the dichotomies entailed by a partition
* meet         -- intersect partitions in the refinement lattice
* simulate     -- run a Monte Carlo campaign and write CSV + JSON summaries
* hiv          -- reproduce the bundled HIV example end to end

Exit codes: 0 success, 1 internal numerical error, 2 user-input error.
"""

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager

from .datasets import HIV_SAMPLE_COUNT, hiv_model
from .errors import DegenerateDataError, InternalNumericError, NotPositiveDefiniteError
from .inference import CORRECTIONS, infer_from_data, infer_from_model
from .linalg import CorrelationModel, DataMatrix
from .mdi import MODES
from .partitions import entailed_dichotomies, format_partition, meet_all, parse_partition
from .simulation import SimulationConfig, open_output, run_campaign, write_json

SEED_ENV_VAR = "MUTINDEP_SEED"

_EXIT_OK = 0
_EXIT_INTERNAL = 1
_EXIT_USAGE = 2


def _default_seed():
    raw = os.environ.get(SEED_ENV_VAR, "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


@contextmanager
def _file_errors(verb, path):
    """Report a failure to `verb` (read, write) `path` as a user-input error."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot {verb} {path}: {exc.strerror or exc}")


def _read_table(path, header=False):
    """The numeric rows of the table in `path`, and its column names or None.

    Blank rows are skipped. A data CSV (`header=True`) may open with a row
    that is not all numbers: its column names, one per column of the data
    rows. A correlation file has no header, and its cells are split on
    whitespace as well as on commas.
    Every error names the path, and an error in a row names the row's
    physical line, blank lines counted.
    """
    rows, names = [], None
    with _file_errors("read", path), open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for cells in reader:
                if not header:
                    cells = [c for cell in cells for c in cell.split()]
                if not any(c.strip() for c in cells):
                    continue
                if rows and len(cells) != len(rows[0]):
                    raise ValueError(f"{path}, line {reader.line_num}: ragged row of "
                                     f"{len(cells)} cells, expected {len(rows[0])}")
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    if header and names is None and not rows:
                        names, names_line = [c.strip() for c in cells], reader.line_num
                        continue
                    bad = next(c for c in cells if not _is_number(c))
                    raise ValueError(f"{path}, line {reader.line_num}: "
                                     f"non-numeric cell {bad!r}")
                if names and len(rows) == 1 and len(names) != len(cells):
                    raise ValueError(f"{path}, line {names_line}: ragged row of "
                                     f"{len(names)} cells, expected {len(cells)}")
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            # the decoder reads ahead, so no true line is known
            raise ValueError(f"{path} is not UTF-8 text: {exc.reason}")
    if not rows:
        raise ValueError(f"{path} has a header but no data rows" if names
                         else f"{path} is empty")
    return rows, names


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _outcome_payload(outcome, n, k, columns=None):
    payload = {
        "n": n,
        "k": k,
        "alpha": outcome.alpha,
        "correction": outcome.correction,
        "mode": outcome.mode,
        "m": outcome.m,
        "m_thres": outcome.m_thres,
        "tests": [
            {
                "bipartition": str(t.bipartition),
                "statistic": t.statistic,
                "df": t.df,
                "p_value": t.p_value,
            }
            for t in outcome.tests
        ],
        "delta_hat": [str(b) for b in outcome.delta_hat],
        "mu_hat": str(outcome.mu_hat),
    }
    if columns:
        payload["columns"] = columns
    return payload


def _emit(text, output_path):
    if output_path:
        with _file_errors("write", output_path), \
                open_output(output_path, encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_outcome(outcome, n, k, fmt, columns=None):
    if fmt == "json":
        return json.dumps(_outcome_payload(outcome, n, k, columns), sort_keys=True,
                          indent=2) + "\n"
    if fmt == "csv":
        lines = ["bipartition,statistic,df,p_value,rejected"]
        for t, rejected in zip(outcome.tests, outcome.rejected):
            lines.append(
                f"{t.bipartition},{t.statistic!r},{t.df},{t.p_value!r},{rejected:d}"
            )
        return "\n".join(lines) + "\n"
    lines = [
        f"variables: {n}   samples: {k}   tests: {outcome.m}",
        f"alpha: {outcome.alpha}   correction: {outcome.correction}   mode: {outcome.mode}",
        f"rejected: {outcome.m_thres}   kept: {outcome.m - outcome.m_thres}",
        "",
        "surviving dichotomies:",
    ]
    lines.extend([f"  {b}" for b in outcome.delta_hat] or ["  (none)"])
    lines.append("")
    lines.append(f"finest pattern: {outcome.mu_hat}")
    return "\n".join(lines) + "\n"


def cmd_infer(args):
    if (args.data is None) == (args.correlation is None) or (
            (args.samples is None) != (args.correlation is None)):
        raise ValueError("infer takes a data CSV, or --correlation FILE with --samples K")
    options = dict(alpha=args.alpha, correction=args.correction, mode=args.mode)
    if args.data is not None:
        rows, columns = _read_table(args.data, header=True)
        source = DataMatrix(rows)
        outcome = infer_from_data(source, **options)
    else:
        rows, columns = _read_table(args.correlation)
        source = CorrelationModel(rows, args.samples)
        outcome = infer_from_model(source, **options)
    _emit(_render_outcome(outcome, source.n, source.k, args.format, columns), args.output)
    return _EXIT_OK


def cmd_dichotomies(args):
    lines = [str(b) for b in entailed_dichotomies(parse_partition(args.partition))]
    _emit("".join(line + "\n" for line in lines), args.output)
    return _EXIT_OK


def cmd_meet(args):
    result = meet_all(parse_partition(text) for text in args.partitions)
    _emit(format_partition(result) + "\n", args.output)
    return _EXIT_OK


def _integers(flag, tokens):
    """The tokens of `flag`'s value as ints; a malformed one names the flag."""
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"{flag}: {tok!r} is not an integer")
    return out


def _parse_blocks_arg(text):
    text = text.strip()
    if ".." in text:
        lo, hi = _integers("--blocks", text.split("..", 1))
        return tuple(range(lo, hi + 1))
    return tuple(_integers("--blocks", [tok for tok in text.split(",") if tok]))


def _parse_sizes_arg(text):
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("--sizes range must look like start:stop:step")
        start, stop, step = _integers("--sizes", parts)
        if step <= 0:
            raise ValueError("--sizes step must be positive")
        return tuple(range(start, stop + 1, step))
    return tuple(_integers("--sizes", [tok for tok in text.split(",") if tok]))


def cmd_simulate(args):
    config = SimulationConfig(
        n=args.n,
        block_counts=_parse_blocks_arg(args.blocks),
        runs_per_k=args.runs,
        max_samples=args.samples,
        subset_sizes=_parse_sizes_arg(args.sizes),
        alpha=args.alpha,
        correction=args.correction,
        mode=args.mode,
        master_seed=args.seed if args.seed is not None else _default_seed(),
    )
    # report an unwritable output before the campaign, not after it; "a"
    # creates a missing file but leaves an existing one as it is
    for path in (args.csv, args.summary):
        if path:
            with _file_errors("write", path), open(path, "a", encoding="utf-8"):
                pass
    campaign = run_campaign(config)
    summary = campaign.summary()
    with _file_errors("write", args.csv):
        campaign.write_csv(args.csv)
    if args.summary:
        with _file_errors("write", args.summary):
            write_json(summary, args.summary)
    _print_campaign_table(campaign.config, summary)
    failed = summary["failed_analyses"]
    total = len(campaign.rows)
    if failed:
        print(f"analyses failed: {failed} of {total} (flagged in the CSV)")
    if failed == total:
        print("error: every analysis failed", file=sys.stderr)
        return _EXIT_INTERNAL
    return _EXIT_OK


def _print_campaign_table(config, summary):
    sizes = config.subset_sizes
    largest = str(max(sizes))
    print(f"campaign: {summary['total_runs']} runs, sizes {list(sizes)}, "
          f"alpha={config.alpha}, seed={config.master_seed}")
    header = f"{'blocks':>6} {'median AUC':>11} {'median sens':>12} {'median spec':>12} {'correct':>8}"
    print(header)
    for blocks in config.block_counts:
        cell = summary["by_block_count"][str(blocks)][largest]

        def fmt(metric):
            stats = cell[metric]
            return f"{stats['median']:.3f}" if stats else "-"

        ratio = cell["correct_ratio"]
        ratio_text = f"{ratio:.3f}" if ratio is not None else "-"
        print(f"{blocks:>6} {fmt('auc'):>11} {fmt('sensitivity'):>12} "
              f"{fmt('specificity'):>12} {ratio_text:>8}")
    print(f"(table shows subset size {largest}; full detail in the CSV/JSON outputs)")


def cmd_hiv(args):
    model = hiv_model()
    outcome = infer_from_model(model)
    ranked = sorted(outcome.tests, key=lambda t: -t.p_value)
    print(f"HIV example: n=6 variables, k={HIV_SAMPLE_COUNT} samples, "
          f"{outcome.m} dichotomies, alpha={outcome.alpha}")
    print(f"{'pattern':>14} {'p-value':>12}")
    for t in ranked:
        print(f"{str(t.bipartition):>14} {t.p_value:>12.4g}")
    print()
    survivors = ", ".join(str(b) for b in outcome.delta_hat) or "(none)"
    print(f"surviving dichotomies: {survivors}")
    print(f"finest pattern: {outcome.mu_hat}")
    top = ranked[0].bipartition
    if str(top) != "12356|4" or str(outcome.mu_hat) != "12356|4":
        print("error: HIV reproduction drifted from its expected outcome",
              file=sys.stderr)
        return _EXIT_INTERNAL
    return _EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mutindep",
        description="Blind extraction of the finest mutual-independence "
                    "pattern of Gaussian data via dichotomy tests.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    infer = sub.add_parser("infer", help="infer the finest pattern from data")
    infer.add_argument("data", nargs="?", help="CSV of k rows x n numeric columns")
    infer.add_argument("--correlation", metavar="PATH",
                       help="correlation matrix file (requires --samples)")
    infer.add_argument("--samples", type=int,
                       help="sample count behind --correlation")
    infer.add_argument("--alpha", type=float, default=0.1)
    infer.add_argument("--correction", choices=CORRECTIONS, default="fdr")
    infer.add_argument("--mode", choices=MODES, default="central")
    infer.add_argument("--format", choices=("json", "csv", "text"), default="json")
    infer.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    infer.set_defaults(func=cmd_infer)

    dich = sub.add_parser("dichotomies",
                          help="list the dichotomies entailed by a partition")
    dich.add_argument("partition", help='partition string, e.g. "12|3|4"')
    dich.add_argument("--output", metavar="PATH")
    dich.set_defaults(func=cmd_dichotomies)

    meet_cmd = sub.add_parser("meet", help="intersect partitions")
    meet_cmd.add_argument("partitions", nargs="+", metavar="PARTITION")
    meet_cmd.add_argument("--output", metavar="PATH")
    meet_cmd.set_defaults(func=cmd_meet)

    sim = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    sim.add_argument("--n", type=int, default=6)
    sim.add_argument("--blocks", default="1..6",
                     help='block counts, "1..6" or "2,4"')
    sim.add_argument("--runs", type=int, default=500, help="runs per block count")
    sim.add_argument("--samples", type=int, default=300, help="rows per run")
    sim.add_argument("--sizes", default="50:300:50",
                     help='subset sizes, "50:300:50" or "50,100"')
    sim.add_argument("--alpha", type=float, default=0.1)
    sim.add_argument("--correction", choices=CORRECTIONS, default="fdr")
    sim.add_argument("--mode", choices=MODES, default="central")
    sim.add_argument("--seed", type=int, default=None,
                     help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    sim.add_argument("--csv", required=True, metavar="PATH",
                     help="per-(run,size) metrics CSV")
    sim.add_argument("--summary", metavar="PATH", help="JSON campaign summary")
    sim.set_defaults(func=cmd_simulate)

    hiv = sub.add_parser("hiv", help="reproduce the bundled HIV example")
    hiv.set_defaults(func=cmd_hiv)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, matching the usage-error code
        return exc.code if exc.code is not None else _EXIT_USAGE
    try:
        return args.func(args)
    except (DegenerateDataError, NotPositiveDefiniteError) as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except InternalNumericError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
