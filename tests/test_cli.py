import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobweb import crosscheck
from cobweb.chains import fibonomial_via_chains
from cobweb.cli import main
from cobweb.digits import decimal
from cobweb.fib_core import fib, fibonomial_def


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "cobweb", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_fib_command(capsys):
    assert main(["fib", "10"]) == 0
    assert capsys.readouterr().out == "55\n"


def test_fibonomial_default_method(capsys):
    assert main(["fibonomial", "5", "0"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_fibonomial_all_methods(capsys):
    assert main(["fibonomial", "4", "2", "--method", "all"]) == 0
    assert capsys.readouterr().out == "6\n" * 5


def test_fibonomial_gv_method(capsys):
    assert main(["fibonomial", "5", "3", "--method", "gv"]) == 0
    assert capsys.readouterr().out == "15\n"


def test_fibonomial_usage_error():
    assert main(["fibonomial", "3", "5"]) == 2  # k > n


def test_zeta_dense_first_row(capsys):
    assert main(["zeta", "--levels", "5", "--source", "order", "--format", "dense"]) == 0
    first = capsys.readouterr().out.split("\n")[0]
    assert first == " ".join(["1"] * 13)


def test_zeta_sources_byte_identical(capsys):
    for fmt in ("dense", "csv", "json"):
        main(["zeta", "--levels", "6", "--source", "order", "--format", fmt])
        order_out = capsys.readouterr().out
        main(["zeta", "--levels", "6", "--source", "explicit", "--format", fmt])
        explicit_out = capsys.readouterr().out
        assert order_out == explicit_out


def test_zeta_json_roundtrip(capsys):
    assert main(["zeta", "--levels", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["size"] == 8
    assert len(doc["rows"]) == 8
    assert doc["rows"][0] == [1] * 8


def test_zeta_level_bound():
    assert main(["zeta", "--levels", "13"]) == 2


def test_mobius_json(capsys):
    assert main(["mobius", "--levels", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["rows"][0][0] == 1
    assert doc["rows"][0][1] == -1


def test_chains_text_and_json(capsys):
    assert main(["chains", "3", "5"]) == 0
    assert capsys.readouterr().out == "k=3 n=5 per_source=15 total=30 fibonomial=15\n"
    assert main(["chains", "2", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["per_source"] == "6"
    assert doc["fibonomial"] == "6"


def test_copies_command(capsys):
    assert main(["copies", "2", "1", "2"]) == 0
    assert capsys.readouterr().out == "6\n"


def test_konvalina_command(capsys):
    assert main(["konvalina", "--weights", "1,2,4", "--k", "2", "--kind", "second"]) == 0
    assert capsys.readouterr().out == "35\n"
    assert main(["konvalina", "--weights", "1,2,4", "--k", "2", "--kind", "second", "--brute"]) == 0
    capsys.readouterr()
    assert main(["konvalina", "--weights", "2,1", "--k", "1"]) == 2  # not nondecreasing


def test_gv_command_verbose(capsys):
    assert main(["gv", "4", "2", "--verbose"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "R=[0, 1] N=0"
    assert "R=[1, 3] N=3" in lines
    assert lines[-1] == "6"


def test_fence_command(capsys):
    assert main(["fence", "4"]) == 0
    assert capsys.readouterr().out == "8\n"
    assert main(["fence", "10", "--brute"]) == 0
    assert capsys.readouterr().out == "144\n"


def test_hasse_writes_dot(tmp_path, capsys):
    out = tmp_path / "h.dot"
    assert main(["hasse", "--levels", "5", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("label=") == 13
    assert text.count("->") == 1 * 1 + 1 * 1 + 1 * 2 + 2 * 3 + 3 * 5
    assert main(["hasse", "--levels", "0", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("label=") == 1
    assert text.count("->") == 0


def test_hasse_level_bound_and_io_error(tmp_path):
    assert main(["hasse", "--levels", "11", "--out", str(tmp_path / "x.dot")]) == 2
    assert main(["hasse", "--levels", "3", "--out", str(tmp_path / "no-dir" / "x.dot")]) == 1


def test_usage_error_exit_code_via_subprocess():
    proc = run_cli("fibonomial", "4")  # missing k
    assert proc.returncode == 2
    proc = run_cli("nonsense")
    assert proc.returncode == 2


def test_cli_runs_are_deterministic():
    for args in (
        ["fibonomial", "6", "3", "--method", "all"],
        ["zeta", "--levels", "5", "--format", "json"],
        ["gv", "5", "2", "--verbose"],
        ["mobius", "--levels", "4", "--format", "csv"],
    ):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_crosscheck_small_bounds(capsys):
    assert main(["crosscheck", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(rows) >= 12
    assert all(row.startswith("PASS") for row in rows)


def test_crosscheck_detects_mutation(capsys, monkeypatch):
    # harness sensitivity: corrupt one route and the table must go red
    monkeypatch.setattr(
        crosscheck.chains, "max_chains_from_fixed", lambda k, n: 1 + 10 * n + k
    )
    assert main(["crosscheck", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_crosscheck_writes_to_file(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["crosscheck", "--max-n", "4", "--out", str(out)]) == 0
    assert "checks:" in out.read_text()


def test_oracle_env_propagates_to_subprocess(tmp_path):
    import os

    env = dict(os.environ, COBWEB_ORACLE_MAX="2")
    proc = run_cli("crosscheck", "--max-n", "4", env=env)
    # the clamped oracle bound 4 exceeds the budget 2 read from the environment
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "exceeds the DFS oracle bound (2)" in proc.stderr


def test_bad_oracle_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COBWEB_ORACLE_MAX", "0")
    assert main(["crosscheck", "--max-n", "4"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" not in captured.out
    assert "COBWEB_ORACLE_MAX must be >= 1" in captured.err


def test_oracle_bound_above_the_dfs_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COBWEB_ORACLE_MAX", "3")
    assert main(["crosscheck", "--max-n", "4", "--oracle-max-n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle_max_n (4) exceeds the DFS oracle bound (3)" in captured.err
    assert main(["crosscheck", "--max-n", "4", "--oracle-max-n", "3"]) == 0


@pytest.mark.parametrize("argv", [
    ["zeta", "--source", "order"],
    ["zeta", "--source", "explicit"],
    ["mobius"],
    ["hasse"],
])
def test_negative_levels_are_a_usage_error(capsys, argv):
    for levels in ("-1", "-2", "-3"):
        assert main([*argv, "--levels", levels]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        cap = 10 if argv[0] == "hasse" else 12
        assert captured.err == f"error: levels must be in 0..{cap}, got {levels}\n"


def test_crosscheck_checks_chain_count_against_dfs(capsys, monkeypatch):
    real = crosscheck.incidence.chain_count
    monkeypatch.setattr(
        crosscheck.incidence, "chain_count", lambda z, x, y, t: real(z, x, y, t) + (t == 2)
    )
    assert main(["crosscheck", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  strict-chains-dfs: chain_count totals" in out
    assert out.count("FAIL") == 1


def test_gv_negative_k_is_a_cobweb_usage_error(capsys):
    assert main(["gv", "3", "-1"]) == 2
    assert capsys.readouterr().err == "error: need n, k >= 0, got n=3, k=-1\n"


def test_crosscheck_compares_level_and_dense_mobius(capsys, monkeypatch):
    # a dense route that disagrees must turn mobius-inverse red even though
    # the level route still inverts zeta exactly
    monkeypatch.setattr(
        crosscheck.incidence, "_back_substitute", lambda z: crosscheck.incidence.eta(z)
    )
    assert main(["crosscheck", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  mobius-inverse: level and dense mu disagree at L=0" in out
    assert out.count("FAIL") == 1


# SHA-256 of `cobweb <cmd> --levels L --format <fmt>` for L = 0..8 in order,
# recorded before the level-block Moebius route replaced back-substitution
MATRIX_OUTPUT_SHA256 = {
    ("zeta", "dense"): "d45a658ad9442d479d26d3aee8ebc34872caeab07a72c96cd5b19c3e6424c05c",
    ("zeta", "csv"): "fe818aa867f4f3cd923e403c24edba64fbae786275204332b8170c1404fbd9d6",
    ("zeta", "json"): "0f546b0d8235b460075dd5a9ae3dacc165390076ef25e9db04ba040f8e8f5dcd",
    ("mobius", "dense"): "d77bf56cdf778675e45e51ded0e9230f9efffde7e65c8bac9d1d5e9beccb29cb",
    ("mobius", "csv"): "e557db89ea61b4f84e27cd8bb0414c10828eff1177d9fbaf5ce2c174d1e3f4c6",
    ("mobius", "json"): "6e9533ef9bf661b9b23c5cf0dea628c88b5a05acc294d81d01a4247a69d06e66",
}


@pytest.mark.parametrize("cmd, fmt", sorted(MATRIX_OUTPUT_SHA256))
def test_matrix_output_bytes_unchanged(capsys, cmd, fmt):
    h = hashlib.sha256()
    for L in range(9):
        assert main([cmd, "--levels", str(L), "--format", fmt]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == MATRIX_OUTPUT_SHA256[cmd, fmt]


def unlimited_str(value):
    # reference rendering with the interpreter's digit limit lifted, then restored
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@given(st.integers(-(10**1500), 10**1500) | st.integers(0, 3).map(lambda e: 10 ** (600 * e)))
def test_decimal_matches_str(value):
    assert decimal(value) == unlimited_str(value)


def test_results_above_the_digit_limit_print_in_full(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["fib", "30000"]) == 0
    assert capsys.readouterr().out == unlimited_str(fib(30000)) + "\n"
    assert main(["fibonomial", "300", "150"]) == 0
    out = capsys.readouterr().out
    assert len(out) > 4301 and out == unlimited_str(fibonomial_def(300, 150)) + "\n"
    assert main(["chains", "3", "400", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fibonomial"] == unlimited_str(fibonomial_via_chains(400, 3))
    assert sys.get_int_max_str_digits() == limit  # library callers keep their limit


def test_big_fib_via_subprocess():
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300")
    proc = run_cli("fib", "30000", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == unlimited_str(fib(30000)) + "\n"
