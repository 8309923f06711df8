"""The outputs of benchmarks/golden_outputs.py against a committed record.

That script runs the command line on seeded inputs: `infer` on two data
sets in every mode, correction and format, `hiv`, and two `simulate`
campaigns.  This test writes them afresh and compares them with
golden_record.json, beside this file:

* exactly: m, m_thres, mu_hat, delta_hat, df, every rejection flag, the
  campaign CSV's non-float columns and summary counts, and all printed
  text (its numbers are rounded to 3-4 digits);
* within REL_TOL: statistics, p-values and the float campaign metrics.

numpy promises neither Generator streams nor BLAS summation order across
versions and platforms, so the record allows rounding-sized moves; byte
identity between two commits stays a `diff -r` of two golden_outputs.py
directories.  A change that moves a golden value on purpose rewrites the
record with `python tests/test_golden_outputs.py` and says why.
"""

import csv
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("golden_record.json")

# The largest relative move of a statistic, p-value or campaign metric that
# is taken for rounding; the changes that have moved them so far moved them
# by 1e-13 or less.
REL_TOL = 1e-9


def _golden_outputs():
    path = ROOT / "benchmarks" / "golden_outputs.py"
    spec = importlib.util.spec_from_file_location("golden_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _infer_record(out, name, golden):
    """One data set's tests, shared by its outputs, and each outcome."""
    tables, record = {}, {}
    for mode in golden.MODES:
        for correction in golden.CORRECTIONS:
            stem = f"infer_{name}_{mode}_{correction}"
            payload = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))
            table = [[t["bipartition"], t["df"], t["statistic"], t["p_value"]]
                     for t in payload.pop("tests")]
            rows = [[_cell(c) for c in row] for row in
                    csv.reader(_lines(out / f"{stem}.csv")[1:])]
            # the three formats render one outcome
            assert [row[:4] for row in rows] == [
                [b, stat, df, p] for b, df, stat, p in table], stem
            assert tables.setdefault(mode, table) == table, stem
            payload["rejected"] = "".join(str(row[4]) for row in rows)
            payload["text"] = _lines(out / f"{stem}.text")
            record[f"{mode}_{correction}"] = payload
    central, noncentral = (tables[mode] for mode in golden.MODES)
    assert [t[:3] for t in central] == [t[:3] for t in noncentral], name
    record["tests"] = [t + [other[3]] for t, other in zip(central, noncentral)]
    return record


def record_of(out, golden):
    """The record of one golden_outputs.py directory."""
    record = {f"infer_{name}": _infer_record(out, name, golden)
              for name, *_ in golden.DATASETS}
    record["hiv"] = _lines(out / "hiv.txt")
    for name, _ in golden.SIMULATIONS:
        record[name] = {
            "csv": [[_cell(c) for c in row] for row in
                    csv.reader(_lines(out / f"{name}.csv"))],
            "summary": json.loads((out / f"{name}.json").read_text(encoding="utf-8")),
            "table": _lines(out / f"{name}.txt"),
        }
    return record


def assert_matches(got, want, where="record"):
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL), (
            f"{where}: {got!r} != {want!r}")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def dump(value, depth=0):
    """JSON text with each list or dict of scalars on one line."""
    items = list(value.values()) if isinstance(value, dict) else value
    if not isinstance(value, (dict, list)) or not any(
            isinstance(v, (dict, list)) for v in items):
        return json.dumps(value)
    pad = " " * (depth + 1)
    if isinstance(value, dict):
        parts = [f"{json.dumps(k)}: {dump(v, depth + 1)}" for k, v in value.items()]
        brackets = "{}"
    else:
        parts = [dump(v, depth + 1) for v in value]
        brackets = "[]"
    return (brackets[0] + "\n" + ",\n".join(pad + p for p in parts) + "\n"
            + " " * depth + brackets[1])


def test_golden_outputs_match_the_record(tmp_path, monkeypatch, capsys):
    golden = _golden_outputs()
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends src/
    golden.main([str(tmp_path)])
    capsys.readouterr()
    want = json.loads(RECORD.read_text(encoding="utf-8"))
    assert_matches(record_of(tmp_path, golden), want)


if __name__ == "__main__":
    golden = _golden_outputs()
    with tempfile.TemporaryDirectory() as out:
        golden.main([out])
        RECORD.write_text(dump(record_of(Path(out), golden)) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
