"""The shape of every committed benchmarks/BENCH_*.json.

A BENCH file is one `bench_kernels.py` comparison: the parent commit it was
measured against, and runs labelled `parent` or `change`, each a list of
rows with the bench name, its size and the seconds per backend.  Reading
the trajectory across files needs every file in that shape, so a
malformed one fails here rather than in a later reader.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("BENCH_*.json"))

# the one file with a third run: the change with its compiled kernel, a
# backend the package no longer has
HISTORICAL_LABELS = {"BENCH_20261018.json": {"change+compiled"}}


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_shape(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(bench.get("parent_commit"), str) and bench["parent_commit"]
    labels = {"parent", "change"} | HISTORICAL_LABELS.get(path.name, set())
    assert bench["runs"]
    for run in bench["runs"]:
        assert run["label"] in labels, run["label"]
        assert run["rows"]
        for row in run["rows"]:
            assert isinstance(row["bench"], str) and row["bench"], row
            assert isinstance(row["size"], int), row
            seconds = row["seconds"]
            assert isinstance(seconds, dict) and seconds, row
            for value in seconds.values():
                assert isinstance(value, (int, float)) and not isinstance(value, bool), row
                assert 0.0 < value < math.inf, row


def _trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", BENCH_DIR / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_chains_the_campaign_rows():
    # the four files from BENCH_20261020d to BENCH_20261022 chain to the
    # products the ROADMAP Baseline read off them by hand
    trajectory = _trajectory()
    names = ["20261020d", "20261020e", "20261021", "20261022"]
    table, lacking = trajectory.chains([BENCH_DIR / f"BENCH_{name}.json" for name in names])
    for row, expected in ((("reference_campaign", 3000), 0.68), (("desk_campaign", 300), 0.74),
                          (("desk_campaign_noncentral", 300), 0.65),
                          (("campaign_n18_noncentral", 2), 0.76)):
        assert None not in table[row]
        assert trajectory.product(table[row]) == pytest.approx(expected, abs=0.01), row
    assert [round(r, 2) for r in table[("desk_campaign", 300)]] == [0.99, 1.09, 0.84, 0.82]
    assert lacking == {}


def test_trajectory_names_the_rows_one_side_lacks(capsys):
    trajectory = _trajectory()
    _, lacking = trajectory.chains([BENCH_DIR / "BENCH_20261020b.json"])
    assert lacking == {"BENCH_20261020b.json": [("desk_chunk_clamp", 180),
                                                ("desk_chunk_tables", 180)]}
    assert trajectory.main([]) == 0
    out = capsys.readouterr().out
    assert "BENCH_20261020b.json: one side only: desk_chunk_clamp 180, desk_chunk_tables 180" in out
    assert len(out.splitlines()[1].split()) == len(BENCH_FILES) + 2
