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


def test_infer_output_replaces_a_longer_file(two_column_csv, tmp_path):
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    reused.write_text("x" * 100_000)
    for out in (fresh, reused):
        assert main(["infer", str(two_column_csv), "--output", str(out)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()


def test_infer_output_refuses_a_read_only_file(two_column_csv, tmp_path, capsys):
    out = tmp_path / "out.json"
    out.write_bytes(b"old\n")
    out.chmod(0o444)
    if os.access(out, os.W_OK):
        pytest.skip("this process may write a read-only file (root)")
    assert main(["infer", str(two_column_csv), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert out.read_bytes() == b"old\n"


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
    capsys.readouterr()
    assert main(["infer", str(narrow)]) == 2
    assert "n=1 variables: the limit is 2 <= n" in capsys.readouterr().err

    # a cell that parses to NaN or an infinity
    for cell in ("nan", "inf", "-inf"):
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text(f"1,2\n3,{cell}\n5,6\n7,9\n")
        assert main(["infer", str(nonfinite)]) == 2, cell
        assert "non-finite" in capsys.readouterr().err, cell

    # a cell past the csv module's field limit (128 KiB) is a usage error
    huge = tmp_path / "huge.csv"
    huge.write_text("1,2\n\n3," + "4" * ((1 << 17) + 1) + "\n")
    capsys.readouterr()
    assert main(["infer", str(huge)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {huge}, line 3: field larger than")

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

    def infer(samples="50"):
        code = main(["infer", "--correlation", str(path), "--samples", samples,
                     "--format", "text"])
        return code, capsys.readouterr()

    path.write_text("1,0,0\n0,1,0\n")
    assert infer() == (2, ("", "error: correlation matrix must be square, "
                              "got shape (2, 3)\n"))
    np.savetxt(path, np.eye(3))
    assert infer("2") == (2, ("", "error: need a sample count of at least 3, got 2\n"))
    # a sample count past any machine integer is taken as it is, up to the
    # largest float
    largest = int(sys.float_info.max)
    for samples in (2**64 + 1, largest):
        code, out = infer(str(samples))
        assert code == 0 and "finest pattern: 1|2|3" in out.out
    assert infer(str(largest + 1)) == (2, ("", "error: need a sample count of at most "
                                              "1.7976931348623157e+308\n"))
    # an entry just past or just inside +-1 passes the range check, and the
    # pivot rule refuses the matrix
    for entry in (1 + 1e-12, 1 - 1e-12, -1 - 1e-12):
        r = np.eye(3)
        r[0, 1] = r[1, 0] = entry
        np.savetxt(path, r)
        code, out = infer()
        assert code == 2 and "not positive definite" in out.err, entry

    # a file that cannot be read as a table
    missing = tmp_path / "nope.txt"
    assert main(["infer", "--correlation", str(missing), "--samples", "50"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: No such file or directory\n")
    assert main(["infer", "--correlation", str(tmp_path), "--samples", "50"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")
    for text, message in (
            (b"", f"{path} is empty"),
            (b"\n  \n\t\n", f"{path} is empty"),
            (b"1 0\n0 1 0\n", f"{path}, line 2: ragged row of 3 cells, expected 2"),
            (b"1,0\n0,x\n", f"{path}, line 2: non-numeric cell 'x'"),
            (b"a b\n1 0\n0 1\n", f"{path}, line 1: non-numeric cell 'a'"),  # no header
            (b"1 0\n0 \xff\n", f"{path} is not UTF-8 text: invalid start byte")):
        path.write_bytes(text)
        assert infer() == (2, ("", f"error: {message}\n")), text


@pytest.mark.parametrize("mode", ["central", "noncentral"])
def test_infer_refuses_a_sample_count_past_the_largest_float(mode, tmp_path, capsys):
    # k - 1 scales every statistic as a float, so k must not exceed the
    # largest one; 2**1023 is below it and runs
    path = tmp_path / "r.csv"
    path.write_text("1,0.3,0\n0.3,1,0.2\n0,0.2,1\n")
    argv = ["infer", "--correlation", str(path), "--mode", mode, "--samples"]
    assert main(argv + [str(2**1023)]) == 0
    capsys.readouterr()
    assert main(argv + [str(2**1024)]) == 2
    assert capsys.readouterr() == (
        "", "error: need a sample count of at most 1.7976931348623157e+308\n")


@pytest.mark.parametrize("kind", ["data", "correlation"])
def test_reader_errors_name_the_physical_line(kind, tmp_path, capsys):
    # blank lines count: each error names the line as an editor shows it
    path = tmp_path / "table.txt"
    argv = (["infer", str(path)] if kind == "data"
            else ["infer", "--correlation", str(path), "--samples", "50"])
    head = "x,y\n\n" if kind == "data" else "\n\n"
    for body, line, problem in (("1,0\n\n \n0\n", 6, "ragged row of 1 cells, expected 2"),
                                ("1,0\n\n0,boom\n", 5, "non-numeric cell 'boom'")):
        path.write_text(head + body)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}, line {line}: {problem}\n"
    # a quoted cell may span lines: the row is named by its last line
    path.write_text('"x\ny",z\n1,2\n3\n')
    assert main(["infer", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}, line 4: ragged row of 1 cells, expected 2\n")


def test_a_header_of_another_width_than_the_data_is_refused(tmp_path, capsys):
    # the header is named as a ragged row, by its physical line
    path = tmp_path / "data.csv"
    rows = "".join(f"{i},{i * i % 7}\n" for i in range(6))
    for head, line, width in (("a,b,c\n", 1, 3), ("\nx\n", 2, 1)):
        path.write_text(head + rows)
        assert main(["infer", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}, line {line}: ragged row of {width} cells, expected 2\n")
    path.write_text("a,b\n" + rows)
    assert main(["infer", str(path)]) == 0
    assert '"columns": [\n    "a",\n    "b"\n  ]' in capsys.readouterr().out


def test_reader_takes_blank_rows_quotes_and_mixed_separators(tmp_path, capsys):
    r = np.array([[1.0, 0.25, -0.5], [0.25, 1.0, 0.125], [-0.5, 0.125, 1.0]])
    plain, mixed = tmp_path / "plain.txt", tmp_path / "mixed.txt"
    np.savetxt(plain, r)
    mixed.write_text("\n1,\t0.25  -0.5\n\n  0.25 ,1,0.125\r\n-0.5\t0.125,,1\n\n")
    outputs = []
    for path in (plain, mixed):
        assert main(["infer", "--correlation", str(path), "--samples", "40"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    data = sample_mvn(np.eye(2), 50, RngStream(20260844)).values
    path = tmp_path / "quoted.csv"
    path.write_text('"first, x"," y"\n\n'
                    + "".join(f'"{a!r}",{b!r}\n\n' for a, b in data.tolist()))
    assert main(["infer", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == ["first, x", "y"] and payload["k"] == 50


@pytest.mark.parametrize("argv", [
    ["{data}", "--samples", "7"],
    ["{data}", "--correlation", "{corr}", "--samples", "7"],
    ["--correlation", "{corr}"],
    ["--samples", "7"],
    [],
], ids=["data-samples", "both", "correlation-alone", "samples-alone", "neither"])
def test_infer_takes_samples_only_with_correlation(argv, two_column_csv, hiv_matrix_file,
                                                   capsys):
    argv = [a.format(data=two_column_csv, corr=hiv_matrix_file) for a in argv]
    assert main(["infer", *argv]) == 2
    assert capsys.readouterr() == (
        "", "error: infer takes a data CSV, or --correlation FILE with --samples K\n")


def test_infer_over_the_size_limit_is_a_usage_error(tmp_path, capsys):
    from mutindep._kernels import MAX_VARIABLES

    path = tmp_path / "identity.txt"
    np.savetxt(path, np.eye(MAX_VARIABLES + 1))
    assert main(["infer", "--correlation", str(path), "--samples", "100"]) == 2
    err = capsys.readouterr().err
    assert f"n={MAX_VARIABLES + 1}" in err and f"n <= {MAX_VARIABLES}" in err


@pytest.mark.parametrize("source", ["data", "correlation"])
def test_infer_refuses_a_bad_alpha_before_any_test_runs(
        source, two_column_csv, hiv_matrix_file, capsys, monkeypatch):
    def no_tests(*args):
        pytest.fail("a dichotomy test ran before alpha was checked")

    monkeypatch.setattr(mutindep._kernels, "mdi_statistic_batch", no_tests)
    argv = ([str(two_column_csv)] if source == "data"
            else ["--correlation", str(hiv_matrix_file), "--samples", "107"])
    assert main(["infer", *argv, "--alpha", "1.5"]) == 2
    assert capsys.readouterr().err == "error: alpha must lie in (0, 1), got 1.5\n"


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
    from mutindep._kernels import MAX_VARIABLES

    singletons = "|".join(str(i) for i in range(1, MAX_VARIABLES + 2))
    assert main(["dichotomies", singletons]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: n={MAX_VARIABLES + 1} blocks: the limit is "
                       f"1 <= n <= {MAX_VARIABLES}, as n blocks give 2^(n-1) - 1 "
                       "dichotomies\n")
    # the limit on elements is the Bipartition's: past 64 elements a block
    # no longer fits a 64-bit mask
    elements = " ".join(str(i) for i in range(2, 66))
    assert main(["dichotomies", "1 " + elements]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(["dichotomies", "1|" + elements]) == 2
    assert capsys.readouterr() == (
        "", "error: bipartitions support 2 <= n <= 32, got n=65\n")


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
    monkeypatch.setenv("MUTINDEP_SEED", "abc")
    malformed = tmp_path / "malformed.csv"
    assert main(args + ["--csv", str(malformed)]) == 2
    assert capsys.readouterr().err == "error: MUTINDEP_SEED must be an integer, got 'abc'\n"
    assert not malformed.exists()


def test_simulate_total_failure_exits_nonzero(tmp_path, capsys, monkeypatch):
    # every analysis fails, and the campaign reports it: run 0's data have a
    # constant column, run 1's a duplicated one, doctored in the chunk's
    # stack of samples, one (k, n) block a run
    draw = mutindep.simulation._mvn_stack

    def degenerate(sigma, k, rngs):
        data = draw(sigma, k, rngs)
        for run, rng in zip(data, rngs):
            if rng.stream:
                run[:, 4] = run[:, 1]
            else:
                run[:, 2] = -1.5
        return data

    monkeypatch.setattr(mutindep.simulation, "_mvn_stack", degenerate)
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
                ["--seed", str(1 << 64)], ["--n", "6", "--sizes", "4"],
                ["--alpha", "1.5"], ["--n", "1", "--blocks", "1"]):
        argv = _SMALL_CAMPAIGN + bad + ["--csv", str(tmp_path / "x.csv")]
        assert main(argv) == 2, bad
        capsys.readouterr()
        assert not (tmp_path / "x.csv").exists(), bad
    # a malformed integer names its flag
    for flag, value in (("--blocks", "a"), ("--sizes", "a"), ("--blocks", "1..a"),
                        ("--sizes", "50:a:50")):
        argv = _SMALL_CAMPAIGN + [flag, value, "--csv", str(tmp_path / "x.csv")]
        assert main(argv) == 2, value
        assert capsys.readouterr().err == f"error: {flag}: 'a' is not an integer\n"
        assert not (tmp_path / "x.csv").exists(), value


def test_simulate_refuses_a_run_past_the_data_limit(tmp_path, capsys, monkeypatch):
    # a run draws max_samples x n floats at once: past MAX_RUN_VALUES the
    # campaign is refused with the limit named (exit 2, not an out-of-memory
    # traceback), before the output file or any run's data is made
    from mutindep.simulation import MAX_RUN_VALUES, SimulationConfig

    monkeypatch.setattr(mutindep.cli, "run_campaign",
                        lambda config: pytest.fail("the campaign ran"))
    argv = ["simulate", "--n", "6", "--blocks", "1", "--runs", "1", "--samples",
            str(10**12), "--sizes", "50", "--csv", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: max_samples x n = 1000000000000 x 6 values a run: the limit is "
        "16777216 (128 MiB of floats)\n")
    assert not (tmp_path / "x.csv").exists()
    assert MAX_RUN_VALUES == 1 << 24
    SimulationConfig(n=16, max_samples=MAX_RUN_VALUES // 16, subset_sizes=(50,))
    with pytest.raises(ValueError, match="limit is 16777216"):
        SimulationConfig(n=16, max_samples=MAX_RUN_VALUES // 16 + 1, subset_sizes=(50,))


def test_simulate_refuses_a_campaign_past_the_row_cap(tmp_path, capsys, monkeypatch):
    # 6 block counts x 10^8 runs x 6 sizes rows: refused with the limit named
    # (exit 2, not an out-of-memory kill), before the output file is made
    monkeypatch.setattr(mutindep.cli, "run_campaign",
                        lambda config: pytest.fail("the campaign ran"))
    path = tmp_path / "x.csv"
    assert main(["simulate", "--runs", "100000000", "--csv", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: block counts x runs x subset sizes = 3600000000 rows: the limit is "
        "2097152 (about 0.5 GiB of rows)\n")
    assert not path.exists()


def test_simulate_rerun_onto_the_same_paths(tmp_path, capsys):
    def simulate(name):
        paths = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        argv = _SMALL_CAMPAIGN + ["--csv", str(paths[0]), "--summary", str(paths[1])]
        assert main(argv) == 0
        return [path.read_bytes() for path in paths]

    fresh = simulate("fresh")
    simulate("reused")
    assert simulate("reused") == fresh
    capsys.readouterr()


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
