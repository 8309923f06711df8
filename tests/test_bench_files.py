"""The shape of every committed benchmarks/BENCH_*.json.

A BENCH file is one `bench_kernels.py` comparison: the parent commit it was
measured against, and runs labelled `parent` or `change`, each a list of
rows with the bench name, its size and the seconds per backend.  Reading
the trajectory across files needs every file in that shape, so a
malformed one fails here rather than in a later reader.
"""

import json
import math
from pathlib import Path

import pytest

BENCH_FILES = sorted((Path(__file__).resolve().parents[1] / "benchmarks").glob("BENCH_*.json"))

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
