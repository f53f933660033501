import ast
import contextlib
import decimal as stdlib_decimal
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import bigint, chains, cli, crosscheck, fib_core, incidence
from cobweb.chains import fibonomial_via_chains
from cobweb.cli import (
    FENCE_MAX_N,
    FIB_MAX_N,
    HASSE_MAX_LEVELS,
    KONVALINA_MAX,
    KONVALINA_MAX_WEIGHT,
    ZETA_MAX_LEVELS,
    main,
)
from cobweb.bigint import decimal
from cobweb.fib_core import REC_MAX_N, fib, fibonomial_def
from cobweb.paths_fences import GV_MAX_N


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


# crosscheck writes row by row, and the reader closes the pipe after the first; `fib` buffers
# its one line, and the reader closes the pipe before it is flushed
@pytest.mark.parametrize(
    "argv, unbuffered, lines", [(["crosscheck"], True, 1), (["fib", "10"], False, 0)], ids=["rows", "buffered"]
)
def test_closed_stdout_is_a_quiet_exit_1(argv, unbuffered, lines):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "cobweb", *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert all(line.startswith(b"PASS  ") for line in head)
    assert err == b""


def test_usage_error_exit_code_via_subprocess():
    proc = run_cli("fibonomial", "4")  # missing k
    assert proc.returncode == 2
    proc = run_cli("nonsense")
    assert proc.returncode == 2


PARSER_ARGV = [
    [name, *tail] for name, args, bad in [
        ("fib", ["5"], ["x"]), ("fibonomial", ["5", "2"], ["5", "x"]), ("zeta", ["--levels", "2"], ["--levels", "x"]),
        ("mobius", ["--levels", "2"], ["--levels", "x"]), ("chains", ["2", "5"], ["2", "x"]),
        ("copies", ["3", "1", "2"], ["3", "1", "x"]), ("konvalina", ["--weights", "1,2", "--k", "1"], ["--k", "x"]),
        ("gv", ["5", "2"], ["5", "x"]), ("fence", ["5"], ["x"]), ("hasse", ["--levels", "2"], ["--levels", "x"]),
        ("crosscheck", ["--max-n", "1"], ["--max-n", "x"]),
    ] for tail in (["-h"], args[:-1], bad, [*args, "extra"], ["--bogus", *args], [*args, "-h"])
] + [
    ["fibonomial", "5", "2", "--method", "nope"], ["zeta", "--levels", "2", "--format", "nope"],
    ["chains", "2", "5", "--format", "xml"], ["konvalina", "--weights", "1,2", "--k", "1", "--kind", "third"],
    [], ["-h"], ["nope"], ["--out", "x"], ["fib", "--out"], ["fib", "-h", "extra"], ["FIB", "5"], ["fi", "5"],
]


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or "no-argv")
def test_one_subcommand_parser_reads_and_reports_as_the_full_one(capsys, argv):
    # each argv here ends in help or a usage error, which the full parser prints and exits with
    with pytest.raises(SystemExit) as full:
        cli._build_parser().parse_args(argv)
    want = full.value.code, *capsys.readouterr()
    with pytest.raises(SystemExit) as lean:
        main(list(argv))
    assert (lean.value.code, *capsys.readouterr()) == want


def test_a_subcommand_builds_its_parser_alone(monkeypatch):
    built, full = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or full(command))
    assert main(["fib", "5"]) == 0
    assert built == ["fib"]
    choices = full("fib")._subparsers._group_actions[0].choices
    assert list(choices) == ["fib"]
    assert list(full()._subparsers._group_actions[0].choices) == list(cli._COMMANDS)


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


def test_oracle_bound_above_the_dfs_budget_is_a_usage_error(capsys):
    bound = chains.ORACLE_MAX_N
    above = str(bound + 1)
    assert main(["crosscheck", "--max-n", above, "--oracle-max-n", above]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: oracle_max_n ({bound + 1}) exceeds the DFS oracle bound ({bound})\n"
    )
    assert main(["crosscheck", "--max-n", above, "--oracle-max-n", str(bound)]) == 0


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
    assert "FAIL  mobius-inverse: Hall's alternating chain sum at L=2, 0 < 2" in out  # t = 2 from L = 2 on
    assert out.count("FAIL") == 2


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


def test_crosscheck_compares_level_text_with_the_rows(capsys, monkeypatch):
    # level text that loses its signs turns export-level-vs-rows red, and only it, since the rows
    # every other row reads are unchanged; the FAIL row shows each text on one line
    real = crosscheck.incidence.TriangularMatrix._lines

    def unsigned(self, sep):
        lines = real(self, sep)
        return [line.replace("-", "") for line in lines] if self.level_form() else lines

    monkeypatch.setattr(crosscheck.incidence.TriangularMatrix, "_lines", unsigned)
    assert main(["crosscheck", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  export-level-vs-rows: to_dense_text at mu, L=1: got 1 1\\n0 1\\n, want 1 -1\\n0 1\\n\n" in out
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


# the same for L = 9..12, recorded before export rendered from the level tables
LARGE_MATRIX_OUTPUT_SHA256 = {
    ("zeta", "dense"): "a15ee75a93f1e97a2f885f0be73041e9043f27a0c97d4f089cc52cbce67a0a09",
    ("zeta", "csv"): "e8f3c1ee4f1770b7ec92f6bd8fbf1e0aaf68721585ab950b260ed1bc1fa71f8a",
    ("zeta", "json"): "462ab12a0c9936037fc8f880d682826d8b3943e2f67fb8eba38c2408d4d918b7",
    ("mobius", "dense"): "c79c4f4026446b55c90f2027ca00d7b7d57354d2b03cb6e6bec73afa41071abf",
    ("mobius", "csv"): "b2c86c9f008950e9787f30ba3498ee2eeacc6004fda48efa048a0b3d969fbf4f",
    ("mobius", "json"): "300a8aee43acadd134b15493449aedd3042c849d292b2b4fa2fe94bf31cf1659",
}


def assert_matrix_output_digest(capsys, cmd, fmt, levels, digest):
    # zeta from the closed staircase must print the bytes of zeta read off the order
    for source in (["order", "explicit"] if cmd == "zeta" else [None]):
        h = hashlib.sha256()
        for L in levels:
            argv = [cmd, "--levels", str(L), "--format", fmt]
            assert main(argv + (["--source", source] if source else [])) == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == digest


@pytest.mark.parametrize("cmd, fmt", sorted(MATRIX_OUTPUT_SHA256))
def test_matrix_output_bytes_unchanged(capsys, cmd, fmt):
    assert_matrix_output_digest(capsys, cmd, fmt, range(9), MATRIX_OUTPUT_SHA256[cmd, fmt])


@pytest.mark.parametrize("cmd, fmt", sorted(LARGE_MATRIX_OUTPUT_SHA256))
def test_large_matrix_output_bytes_unchanged(capsys, cmd, fmt):
    assert_matrix_output_digest(capsys, cmd, fmt, range(9, 13), LARGE_MATRIX_OUTPUT_SHA256[cmd, fmt])


@pytest.mark.parametrize("cmd", ["zeta", "mobius"])
def test_matrix_json_matches_json_dumps(capsys, cmd):
    # the level-form JSON renderer against the generic encoder, at every allowed level
    for L in range(ZETA_MAX_LEVELS + 1):
        assert main([cmd, "--levels", str(L), "--format", "json"]) == 0
        z = incidence.zeta_from_order(L)
        doc = {"schema": 1, **(z if cmd == "zeta" else incidence.mobius(z)).to_json_dict()}
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def unlimited_str(value):
    # reference rendering with the interpreter's digit limit lifted, then restored
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def split_values(draw):
    # values decimal() takes apart at one to six levels: around a power of ten or of two at a split
    # width, with a run of zero digits or zero bits across a split point, or random up to about 2*10^5 bits
    i = draw(st.integers(0, 5))
    digits, bits = 600 * 2**i, 1024 * 2**i
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["power", "zeros", "power2", "zero bits", "random"]))
    if shape == "power":
        value = 10**digits + draw(st.integers(-1, 1))
    elif shape == "power2":
        value = (1 << bits) + draw(st.integers(-1, 1))
    elif shape == "zero bits":  # zero bits from bit bits - right to bits + left - 1
        left, right = draw(st.integers(1, 2000)), draw(st.integers(1, bits))
        high = rng.getrandbits(rng.randint(1, 100_000)) | 1
        value = high << (bits + left) | rng.getrandbits(bits - right)
    elif shape == "zeros":  # zeros from digit digits - right to digits + left - 1, counted from the last
        left, right = draw(st.integers(1, 700)), draw(st.integers(1, min(700, digits)))
        high = rng.getrandbits(rng.randint(1, 40_000)) | 1
        value = high * 10 ** (digits + left) + rng.randrange(10 ** (digits - right))
    else:
        value = rng.getrandbits(rng.randint(0, 200_000))
    return draw(st.sampled_from([1, -1])) * value


@settings(deadline=None)
@given(st.integers(-(10**1500), 10**1500) | st.integers(0, 3).map(lambda e: 10 ** (600 * e)) | split_values())
def test_decimal_matches_str(value):
    assert decimal(value) == unlimited_str(value)


def test_results_above_the_digit_limit_print_in_full(capsys):
    limit = sys.get_int_max_str_digits()
    context = stdlib_decimal.getcontext()
    settings_before = (context.prec, context.Emax, context.Emin, dict(context.traps), dict(context.flags))
    assert main(["fib", "30000"]) == 0
    assert capsys.readouterr().out == unlimited_str(fib(30000)) + "\n"
    assert main(["fibonomial", "300", "150"]) == 0
    out = capsys.readouterr().out
    assert len(out) > 4301 and out == unlimited_str(fibonomial_def(300, 150)) + "\n"
    assert main(["chains", "3", "400", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fibonomial"] == unlimited_str(fibonomial_via_chains(400, 3))
    assert sys.get_int_max_str_digits() == limit  # library callers keep their limit
    assert stdlib_decimal.getcontext() is context  # and their decimal context, as it was
    assert (context.prec, context.Emax, context.Emin, dict(context.traps), dict(context.flags)) == settings_before


def test_a_rounding_in_the_decimal_conversion_is_an_internal_error(capsys, monkeypatch):
    # with too few digits of precision a join would round: Inexact is raised, and no digit is printed
    monkeypatch.setattr(stdlib_decimal, "MAX_PREC", 1000)
    with pytest.raises(stdlib_decimal.Inexact):
        decimal(fib(30000))
    assert main(["fib", "30000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")


@pytest.mark.parametrize(
    "n, digits, digest",
    [
        (2872, 600, "c9da07259034649d6f4c52c195d67cbf203a89145f783943135cc1129a1d5135"),  # str()
        (2873, 601, "2f9c4df1b560c56c5fd39a961a1e009b4d4410670eadfeb0633d0cb35acbb27d"),  # libmpdec
    ],
)
def test_fib_at_the_str_boundary_prints_the_recorded_bytes(capsys, n, digits, digest):
    # SHA-256 of stdout recorded from the 10^600 splitting ladder that libmpdec replaced
    assert main(["fib", str(n)]) == 0
    out = capsys.readouterr().out
    assert len(out) == digits + 1 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_big_fib_via_subprocess():
    # the least digit limit the interpreter accepts, and the default; F_3100 has 648 digits
    for limit, n in (("640", 3100), ("640", 30000), ("4300", 30000)):
        proc = run_cli("fib", str(n), env=dict(os.environ, PYTHONINTMAXSTRDIGITS=limit))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == unlimited_str(fib(n)) + "\n"


@pytest.mark.parametrize("method", ["def", "recA", "recB", "chains", "gv", "all"])
@pytest.mark.parametrize("n, k", [(5, -1), (5, 7), (0, -1), (0, 2), (-1, 0)])
def test_fibonomial_arguments_checked_once_for_every_method(capsys, method, n, k):
    assert main(["fibonomial", str(n), str(k), "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need 0 <= k <= n, got n={n}, k={k}\n"


def test_cost_bounds_are_usage_errors(capsys):
    assert main(["fib", str(FIB_MAX_N + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: fib is bounded by n <= {FIB_MAX_N}, got n={FIB_MAX_N + 1}\n"
    assert main(["copies", str(FIB_MAX_N + 1), "1", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: copies is bounded by level <= {FIB_MAX_N}, got level={FIB_MAX_N + 1}\n"
    for method in ("recA", "recB"):
        assert main(["fibonomial", str(REC_MAX_N + 1), "3", "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the recurrence is bounded by n <= {REC_MAX_N}, got n={REC_MAX_N + 1}\n"
        )


def test_crosscheck_detects_wrong_fib_above_the_table(capsys, monkeypatch):
    # a wrong doubling step shows only above the table cap
    real = crosscheck.fib_core.fib
    monkeypatch.setattr(
        crosscheck.fib_core, "fib", lambda n: real(n) + (n > fib_core._FIB_CAP)
    )
    assert main(["crosscheck", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  fence-fibonacci: fence ideals" in out
    want = fib(fib_core._FIB_CAP + 1)
    row = f"at n={fib_core._FIB_CAP - 1}: got {shortened(want)}, want {shortened(want + 1)}\n"
    assert row in out
    assert out.count("FAIL") == 1
    # a fault at indices 4j + 3 above the cap, the odd last bit from an odd half index, shows only at n = 3 cap + 1
    cap = fib_core._FIB_CAP
    monkeypatch.setattr(crosscheck.fib_core, "fib", lambda n: real(n) + (n > cap and n % 4 == 3))
    assert main(["crosscheck", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    want = fib(3 * cap + 3)
    assert f"at n={3 * cap + 1}: got {shortened(want)}, want {shortened(want + 1)}\n" in out
    assert "FAIL  fence-fibonacci: fence ideals" in out
    assert out.count("FAIL") == 1


def test_crosscheck_detects_a_wrong_digit_in_a_big_decimal(capsys, monkeypatch):
    # a decimal() that alters one digit above 10^600, where it leaves str(); the FAIL row prints through str() below it
    real = bigint.decimal

    def wrong(value):
        text = real(value)
        if abs(value) < 10**600:
            return text
        return text[:-300] + str((int(text[-300]) + 1) % 10) + text[-299:]

    monkeypatch.setattr(bigint, "decimal", wrong)
    assert main(["crosscheck", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    want = fib_core.psi_falling(fib_core.FIBONACCI, 241, 121)
    assert "FAIL  fibonomial-integrality: decimal does not read back at 15065-bit value 0: got " in out
    assert f"want {shortened(want)}\n" in out
    assert out.count("FAIL") == 1


def test_crosscheck_detects_a_big_decimal_with_a_leading_zero(capsys, monkeypatch):
    # a leading zero reads back to the right value by int(), so only the row's canonical-form test sees it
    real = bigint.decimal
    monkeypatch.setattr(bigint, "decimal", lambda value: "0" * (abs(value) >= 10**600) + real(value))
    assert main(["crosscheck", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    want = fib_core.psi_falling(fib_core.FIBONACCI, 241, 121)
    row = f"FAIL  fibonomial-integrality: decimal does not read back at 15065-bit value 0: got None, want {shortened(want)}\n"
    assert row in out
    assert out.count("FAIL") == 1


def shortened(value):
    # a FAIL row prints a value past 60 characters as its head, tail and length
    text = decimal(value)
    return f"{text[:24]}...{text[-24:]} ({len(text)} chars)"


def test_crosscheck_fail_row_names_the_first_disagreement(capsys, monkeypatch):
    real = crosscheck.fib_core.fibonomial_rec
    monkeypatch.setattr(
        crosscheck.fib_core,
        "fibonomial_rec",
        lambda n, k, form="A": real(n, k, form) + ((n, k) == (15, 7)),
    )
    assert main(["crosscheck", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    want = fibonomial_def(15, 7)
    assert f"FAIL  fibonomial-recurrences: form A at (15, 7): got {want + 1}, want {want}\n" in out
    assert out.count("FAIL") == 1


def test_crosscheck_check_without_cases_or_with_a_crash_fails(capsys, monkeypatch):
    def empty(cfg):
        yield from range(cfg.max_n, 0)  # a bounds slip: nothing to compare

    def crash(cfg):
        yield "quotient", 0, 1 // 0, 0

    checks = [("empty", empty), *crosscheck.CHECKS, ("crash", crash)]
    monkeypatch.setattr(crosscheck, "CHECKS", checks)
    assert main(["crosscheck", "--max-n", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL  empty: no cases ran\n")
    assert "FAIL  crash: ZeroDivisionError: integer division or modulo by zero\n" in out
    assert out.endswith("28 checks: 26 passed, 2 failed\n")


# SHA-256 of the green `cobweb crosscheck` table, the same at every --max-n
GREEN_TABLE_SHA256 = "cf25de22d91f8eb1e340e6b25bc623a6080b0d6cda26f3b2801b3a1286778467"


@pytest.mark.parametrize("max_n", ["1", "4", "10"])
def test_green_crosscheck_table_bytes_unchanged(capsys, max_n):
    assert main(["crosscheck", "--max-n", max_n]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GREEN_TABLE_SHA256


def test_crosscheck_max_n_is_bounded(capsys):
    bound = crosscheck.CROSSCHECK_MAX_N
    assert main(["crosscheck", "--max-n", str(bound + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_n is bounded by {bound}, got {bound + 1}\n"
    assert crosscheck.CrosscheckConfig(max_n=bound).max_n == bound


def test_fib_negative_index_is_a_usage_error(capsys):
    assert main(["fib", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fib expects n >= 0, got -1\n"


def test_chains_negative_k_is_a_usage_error(capsys):
    assert main(["chains", "-1", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 0 <= k <= n, got k=-1, n=5\n"


# every subcommand once at a small legal input
SMALL_INPUTS = [
    ["fib", "10"],
    ["fibonomial", "6", "3", "--method", "all"],
    ["zeta", "--levels", "3", "--source", "explicit"],
    ["mobius", "--levels", "3", "--format", "json"],
    ["chains", "2", "5"],
    ["copies", "2", "1", "2"],
    ["konvalina", "--weights", "1,2,3", "--k", "2", "--brute"],
    ["gv", "5", "2"],
    ["fence", "6", "--brute"],
    ["hasse", "--levels", "3"],
    ["crosscheck", "--max-n", "1"],
]

# each stated bound, and an input just past it
PAST_BOUNDS = [
    (FIB_MAX_N, ["fib", str(FIB_MAX_N + 1)]),
    (FIB_MAX_N, ["copies", str(FIB_MAX_N + 1), "1", "0"]),
    (REC_MAX_N, ["fibonomial", str(REC_MAX_N + 1), "3", "--method", "recA"]),
    (GV_MAX_N, ["gv", str(GV_MAX_N + 1), "2"]),
    (FENCE_MAX_N, ["fence", str(FENCE_MAX_N + 1)]),
    (KONVALINA_MAX, ["konvalina", "--weights", "2", "--k", str(KONVALINA_MAX + 1), "--kind", "second"]),
    (KONVALINA_MAX, ["konvalina", "--weights", ",".join(["2"] * (KONVALINA_MAX + 1)), "--k", "1"]),
    (KONVALINA_MAX_WEIGHT, ["konvalina", "--weights", f"1,{KONVALINA_MAX_WEIGHT + 1}", "--k", "2"]),
    # a weight past int()'s own digit limit
    (KONVALINA_MAX_WEIGHT, ["konvalina", "--weights", "1," + "9" * 5000, "--k", "1"]),
    (ZETA_MAX_LEVELS, ["zeta", "--levels", str(ZETA_MAX_LEVELS + 1)]),
    (ZETA_MAX_LEVELS, ["zeta", "--levels", str(ZETA_MAX_LEVELS + 1), "--source", "explicit"]),
    (ZETA_MAX_LEVELS, ["mobius", "--levels", str(ZETA_MAX_LEVELS + 1)]),
    (HASSE_MAX_LEVELS, ["hasse", "--levels", str(HASSE_MAX_LEVELS + 1)]),
    (crosscheck.CROSSCHECK_MAX_N, ["crosscheck", "--max-n", str(crosscheck.CROSSCHECK_MAX_N + 1)]),
    (chains.ORACLE_MAX_N, ["crosscheck", "--max-n", "9", "--oracle-max-n", str(chains.ORACLE_MAX_N + 1)]),
]


def argv_id(argv):
    return " ".join(argv)[:48]


@pytest.mark.parametrize("argv", SMALL_INPUTS, ids=argv_id)
def test_cli_contract_small_inputs_succeed(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize("bound, argv", PAST_BOUNDS, ids=[argv_id(argv) for _, argv in PAST_BOUNDS])
def test_cli_contract_past_a_bound_is_a_usage_error(bound, argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and str(bound) in proc.stderr


@pytest.mark.parametrize("exc", [RecursionError, MemoryError, KeyboardInterrupt])
def test_aborts_are_one_line_and_exit_1(capsys, monkeypatch, exc):
    def abort(args):
        raise exc("deep inside")

    monkeypatch.setattr(cli, "_cmd_fib", abort)
    assert main(["fib", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: aborted by {exc.__name__}\n"


# cobweb modules and heavy modules each subcommand imports, run as `python -m cobweb`
IMPORT_BUDGET = {
    ("fib", "10"): {"bigint", "cli", "fib_core", "record"},
    ("fib", "2872"): {"bigint", "cli", "fib_core", "record"},  # 600 digits, the most str() prints here
    ("fib", "30000"): {"bigint", "cli", "fib_core", "record", "decimal"},  # above 10^600 it prints through libmpdec
    ("fibonomial", "6", "3", "--method", "def"): {"bigint", "cli", "fib_core", "record"},
    ("hasse", "--levels", "3"): {"bigint", "cli", "fib_core", "poset", "record"},
    ("zeta", "--levels", "3"): {"bigint", "cli", "fib_core", "incidence", "poset", "record"},
    ("copies", "2", "1", "2"): {"bigint", "cli", "fib_core", "poset", "record"},
    ("konvalina", "--weights", "1,2,4", "--k", "2"): {"bigint", "cli", "konvalina", "record"},
}
HEAVY_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "json"}
MODULES_AT_EXIT = """
import runpy, sys
try:
    runpy.run_module("cobweb", run_name="__main__", alter_sys=True)
finally:
    print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", sorted(IMPORT_BUDGET), ids=argv_id)
def test_subcommands_import_only_what_they_run(argv):
    proc = subprocess.run([sys.executable, "-c", MODULES_AT_EXIT, *argv], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout
    modules = set(proc.stderr.split())
    ours = {m.partition(".")[2] for m in modules if m.startswith("cobweb.")}
    assert ours | (modules & HEAVY_MODULES) == IMPORT_BUDGET[argv]


@pytest.mark.parametrize(
    "argv",
    sorted(IMPORT_BUDGET)
    + [("fibonomial", "6", "3", "--method", "all"), ("chains", "2", "5"), ("crosscheck", "--max-n", "1")],
    ids=argv_id,
)
def test_subcommands_load_no_typing(argv):
    # -S: site start-up may import typing on its own, which would hide an import by cobweb
    proc = subprocess.run([sys.executable, "-S", "-c", MODULES_AT_EXIT, *argv], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout
    assert "typing" not in proc.stderr.split()


def test_no_library_module_imports_dataclasses():
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "dataclasses" not in {name.partition(".")[0] for name in names}, path.name


def cli_args(*parts):
    """argv after the subcommand: each part a strategy for one token, or a list of tokens."""
    return st.tuples(*parts).map(lambda drawn: [t for part in drawn for t in (part if isinstance(part, list) else [part])])


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def flag(name):
    return st.sampled_from([[], [name]])


def choice(option, values):
    return st.sampled_from([[]] + [[option, v] for v in values])


# every subcommand, its sizes drawn inside the stated bounds so that each case takes milliseconds
FUZZ = {
    "fib": cli_args(ints(-3, 5000)),
    "fibonomial": cli_args(ints(-2, 30), ints(-2, 30),
                           st.sampled_from([["--method", m] for m in ("def", "recA", "recB", "chains", "gv", "all")])),
    "zeta": cli_args(choice("--levels", [str(L) for L in range(-2, 9)]), choice("--source", ["order", "explicit"]),
                     choice("--format", ["dense", "csv", "json"])),
    "mobius": cli_args(choice("--levels", [str(L) for L in range(-2, 9)]), choice("--format", ["dense", "csv", "json"])),
    "chains": cli_args(ints(-2, 40), ints(-2, 40), choice("--format", ["text", "json"])),
    "copies": cli_args(ints(-1, 10), ints(-1, 60), ints(-1, 6)),
    "konvalina": cli_args(
        choice("--weights", ["1,2,3", "1,1,2,5,8", "3,2", "0,1", "1,x", "", "9999,9999", "1," + "9" * 5000, "+0_7, 8"]),
        choice("--k", [str(k) for k in range(-1, 9)]), choice("--kind", ["first", "second"]), flag("--brute")),
    "gv": cli_args(ints(-2, 15), ints(-2, 15), flag("--verbose")),
    "fence": st.one_of(cli_args(ints(-2, 300)), cli_args(ints(-2, 20), flag("--brute"))),
    "hasse": cli_args(choice("--levels", [str(L) for L in range(-2, 12)])),
    "crosscheck": cli_args(choice("--max-n", ["-1", "0", "1", "101"]), choice("--oracle-max-n", ["-1", "0", "1", "9"])),
}
JUNK = st.lists(st.sampled_from(["-1", "0", "x", "--format", "json", "--brute", "--levels", "--help", "1e3", ""]),
                max_size=2)


@pytest.mark.parametrize("command", sorted(FUZZ))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_argv_fuzz_exits_0_1_or_2_without_a_traceback(command, data):
    argv = [command, *data.draw(FUZZ[command]), *data.draw(JUNK)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: a usage error, or --help
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert rc != 0 or not err.getvalue()
