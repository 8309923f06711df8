import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mutindep
from mutindep.cli import main
from mutindep.datasets import hiv_correlation
from mutindep.errors import NotPositiveDefiniteError
from mutindep.randomness import RngStream, sample_mvn


@pytest.fixture
def two_column_csv(tmp_path):
    data = sample_mvn(np.eye(2), 500, RngStream(20260839)).values
    path = tmp_path / "pair.csv"
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in data]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def hiv_matrix_file(tmp_path):
    path = tmp_path / "hiv_corr.csv"
    rows = [",".join(repr(float(v)) for v in row) for row in hiv_correlation()]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_infer_json_output(two_column_csv, capsys):
    assert main(["infer", str(two_column_csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2
    assert payload["k"] == 500
    assert payload["m"] == 1
    assert payload["mu_hat"] == "1|2"
    assert payload["delta_hat"] == ["1|2"]
    assert payload["columns"] == ["x", "y"]
    assert payload["alpha"] == 0.1
    assert payload["correction"] == "fdr"
    assert payload["mode"] == "central"
    assert list(payload) == sorted(payload)  # key-sorted, diff-friendly


def test_infer_round_trip_with_meet(two_column_csv, capsys, tmp_path):
    assert main(["infer", str(two_column_csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_hat"]
    assert main(["meet", *payload["delta_hat"]]) == 0
    assert capsys.readouterr().out.strip() == payload["mu_hat"]


def test_infer_correlation_input(hiv_matrix_file, capsys):
    code = main([
        "infer", "--correlation", str(hiv_matrix_file), "--samples", "107",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu_hat"] == "12356|4"
    assert payload["m_thres"] == 30
    assert "columns" not in payload


def test_infer_output_file_and_formats(two_column_csv, tmp_path, capsys):
    out = tmp_path / "res.json"
    assert main(["infer", str(two_column_csv), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["mu_hat"] == "1|2"
    assert main(["infer", str(two_column_csv), "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "finest pattern: 1|2" in text
    assert main(["infer", str(two_column_csv), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "bipartition,statistic,df,p_value,rejected"
    assert csv_text.splitlines()[1].startswith("1|2,")


def test_infer_bad_inputs(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["infer", str(empty)]) == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    assert main(["infer", str(ragged)]) == 2

    alpha = tmp_path / "alpha.csv"
    alpha.write_text("1,2\n3,boom\n")
    assert main(["infer", str(alpha)]) == 2

    narrow = tmp_path / "one_col.csv"
    narrow.write_text("1\n2\n3\n")
    assert main(["infer", str(narrow)]) == 2

    missing = tmp_path / "nope.csv"
    assert main(["infer", str(missing)]) == 2

    assert main(["infer"]) == 2  # neither data nor --correlation
    capsys.readouterr()


def test_infer_degenerate_data_exit_code(tmp_path, capsys):
    path = tmp_path / "constant.csv"
    path.write_text("1,5\n2,5\n3,5\n4,5\n")
    assert main(["infer", str(path)]) == 2
    err = capsys.readouterr().err
    assert "degenerate" in err and "2" in err


def test_correlation_input_validation(tmp_path, capsys):
    path = tmp_path / "notsym.csv"
    path.write_text("1,0.5\n0.4,1\n")
    assert main(["infer", "--correlation", str(path), "--samples", "50"]) == 2
    assert main(["infer", "--correlation", str(path)]) == 2  # missing --samples
    capsys.readouterr()


def test_infer_over_the_size_limit_is_a_usage_error(tmp_path, capsys):
    from mutindep.inference import MAX_VARIABLES

    path = tmp_path / "identity.txt"
    np.savetxt(path, np.eye(MAX_VARIABLES + 1))
    assert main(["infer", "--correlation", str(path), "--samples", "100"]) == 2
    err = capsys.readouterr().err
    assert f"n={MAX_VARIABLES + 1}" in err and f"n <= {MAX_VARIABLES}" in err


def test_dichotomies_command(capsys):
    assert main(["dichotomies", "12|3|4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == ["123|4", "124|3", "12|34"]

    assert main(["dichotomies", "123456"]) == 0
    assert capsys.readouterr().out == ""

    assert main(["dichotomies", "1|2|3|4|5|6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 31

    assert main(["dichotomies", "1|1|2"]) == 2
    capsys.readouterr()


def test_dichotomies_over_the_size_limit_is_a_usage_error(capsys):
    from mutindep.inference import MAX_VARIABLES

    singletons = "|".join(str(i) for i in range(1, MAX_VARIABLES + 2))
    assert main(["dichotomies", singletons]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {MAX_VARIABLES + 1} blocks have {2 ** MAX_VARIABLES - 1} "
                       f"dichotomies; enumerating them is limited to {MAX_VARIABLES} "
                       "blocks\n")


def test_meet_command(capsys):
    assert main(["meet", "123|4", "124|3", "12|34"]) == 0
    assert capsys.readouterr().out.strip() == "12|3|4"

    assert main(["meet", "12356|4"]) == 0
    assert capsys.readouterr().out.strip() == "12356|4"

    assert main(["meet", "12|3", "12"]) == 2  # dimension mismatch
    capsys.readouterr()


def test_hiv_command(capsys):
    assert main(["hiv"]) == 0
    out = capsys.readouterr().out
    assert "finest pattern: 12356|4" in out
    assert "k=107" in out
    first_pattern_line = out.splitlines()[2]
    assert "12356|4" in first_pattern_line
    # the reproduction runs at the paper's alpha only
    assert main(["hiv", "--alpha", "0.5"]) == 2


def test_hiv_ignores_a_stale_kernel_override():
    # a stale kernel override left in the environment must not break a
    # command: there is one kernel and nothing reads the variable
    src = str(Path(mutindep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for override in (None, "fortran"):
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("MUTINDEP_KERNELS", None)
        if override:
            env["MUTINDEP_KERNELS"] = override
        proc = subprocess.run([sys.executable, "-m", "mutindep.cli", "hiv"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "finest pattern: 12356|4" in outputs[0]


def test_simulate_smoke_and_determinism(tmp_path, capsys):
    args = [
        "simulate", "--n", "4", "--blocks", "1..4", "--runs", "3",
        "--samples", "60", "--sizes", "30,60", "--seed", "7",
    ]
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    sum_a, sum_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--csv", str(csv_a), "--summary", str(sum_a)]) == 0
    assert main(args + ["--csv", str(csv_b), "--summary", str(sum_b)]) == 0
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert sum_a.read_bytes() == sum_b.read_bytes()
    header = csv_a.read_text().splitlines()[0]
    assert header == ("run_id,blocks,truth,size,sensitivity,specificity,"
                      "auc,correct,mean_abs_within_block_corr,failed")
    summary = json.loads(sum_a.read_text())
    assert summary["total_runs"] == 12


def test_simulate_seed_env_override(tmp_path, capsys, monkeypatch):
    args = [
        "simulate", "--n", "4", "--blocks", "2", "--runs", "2",
        "--samples", "50", "--sizes", "50",
    ]
    explicit = tmp_path / "explicit.csv"
    assert main(args + ["--seed", "31337", "--csv", str(explicit)]) == 0
    monkeypatch.setenv("MUTINDEP_SEED", "31337")
    from_env = tmp_path / "env.csv"
    assert main(args + ["--csv", str(from_env)]) == 0
    capsys.readouterr()
    assert explicit.read_bytes() == from_env.read_bytes()


def test_simulate_total_failure_exits_nonzero(tmp_path, capsys, monkeypatch):
    # every analysis fails, and the campaign reports it
    def not_positive_definite(data):
        raise NotPositiveDefiniteError("not positive definite", part="full")

    monkeypatch.setattr(mutindep.simulation, "sample_correlation",
                        not_positive_definite)
    code = main([
        "simulate", "--n", "6", "--blocks", "2", "--runs", "2",
        "--samples", "50", "--sizes", "50", "--seed", "3",
        "--csv", str(tmp_path / "fail.csv"),
    ])
    assert code == 1
    out = capsys.readouterr()
    assert "analyses failed: 2 of 2" in out.out
    assert "every analysis failed" in out.err
    csv_lines = (tmp_path / "fail.csv").read_text().splitlines()
    assert len(csv_lines) == 3
    assert all(line.endswith(",1") for line in csv_lines[1:])


_SMALL_CAMPAIGN = ["simulate", "--n", "4", "--blocks", "2", "--runs", "1",
                   "--samples", "50", "--sizes", "50"]


def test_simulate_bad_config(tmp_path, capsys):
    # a config error is reported before the output file is created
    # sizes of at most n rows give a singular correlation
    for bad in (["--blocks", "9"], ["--seed", "-1"],
                ["--seed", str(1 << 64)], ["--n", "6", "--sizes", "4"]):
        argv = _SMALL_CAMPAIGN + bad + ["--csv", str(tmp_path / "x.csv")]
        assert main(argv) == 2, bad
        capsys.readouterr()
        assert not (tmp_path / "x.csv").exists(), bad


@pytest.mark.parametrize("argv", [
    ["meet", "12|3", "--output", "{missing}"],
    _SMALL_CAMPAIGN + ["--csv", "{missing}"],
    _SMALL_CAMPAIGN + ["--csv", "{ok}", "--summary", "{missing}"],
], ids=["meet-output", "simulate-csv", "simulate-summary"])
def test_unwritable_output_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    # the outputs are checked before the campaign runs
    def no_campaign(config):
        pytest.fail("the campaign ran before its outputs were checked")

    monkeypatch.setattr(mutindep.cli, "run_campaign", no_campaign)
    missing = tmp_path / "no" / "such" / "dir" / "out"
    ok = tmp_path / "ok.csv"
    argv = [a.format(missing=missing, ok=ok) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {missing}: ")
    assert "Traceback" not in err
    assert not ok.exists() or ok.stat().st_size == 0


def test_simulate_summarizes_the_campaign_once(tmp_path, capsys, monkeypatch):
    # one summary serves the --summary file and the printed table
    campaign_class = mutindep.simulation.Campaign
    summarize = campaign_class.summary
    campaigns = []

    def counted(self):
        campaigns.append(self)
        return summarize(self)

    monkeypatch.setattr(campaign_class, "summary", counted)
    path = tmp_path / "summary.json"
    argv = _SMALL_CAMPAIGN + ["--csv", str(tmp_path / "runs.csv"), "--summary", str(path)]
    assert main(argv) == 0
    assert len(campaigns) == 1
    assert "campaign: 1 runs" in capsys.readouterr().out
    expected = tmp_path / "expected.json"
    campaigns[0].write_summary(expected)
    assert path.read_bytes() == expected.read_bytes()


def test_infer_accepts_crlf(tmp_path, capsys):
    data = sample_mvn(np.eye(2), 100, RngStream(20260843)).values
    lines = [f"{float(a)!r},{float(b)!r}" for a, b in data]
    path = tmp_path / "crlf.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert main(["infer", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 100


def test_unknown_flags_rejected(capsys):
    assert main(["infer", "--bogus"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
