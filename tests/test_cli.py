"""End-to-end tests of the command-line interface."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from entroconj import METRIC_NAMES, expression_to_json, metric_expression
from entroconj import cli
from entroconj.cli import main

from helpers import csv_texts

XOR_CSV = "x1,x2,x3,p\n0,0,0,0.25\n0,1,1,0.25\n1,0,1,0.25\n1,1,0,0.25\n"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_on_xor(runner, tmp_path):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    result = invoke(runner, ["metrics", str(path)])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["tc"] == pytest.approx(1.0, abs=1e-9)
    assert report["dtc"] == pytest.approx(2.0, abs=1e-9)
    assert report["oinfo"] == pytest.approx(-1.0, abs=1e-9)
    assert report["sinfo"] == pytest.approx(3.0, abs=1e-9)
    assert report["u"] == pytest.approx([0.0, 1.0], abs=1e-9)
    assert report["n"] == 3


def test_metrics_subset_selection(runner, tmp_path):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    result = invoke(runner, ["metrics", str(path), "--metric", "oinfo"])
    report = json.loads(result.output)
    assert set(report) == {"oinfo", "u", "n"}


def test_metrics_natural_log(runner, tmp_path):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    result = invoke(runner, ["--log-base", "e", "metrics", str(path)])
    report = json.loads(result.output)
    assert report["sinfo"] == pytest.approx(3.0 * math.log(2.0), abs=1e-9)


def test_metrics_missing_file(runner):
    result = runner.invoke(main, ["metrics", "/nonexistent/xor.csv"])
    assert result.exit_code == 2
    assert "/nonexistent/xor.csv" in result.output + (result.stderr or "")


def test_metrics_malformed_csv(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,p\n0,0,0.5\n0,zebra,0.5\n")
    result = runner.invoke(main, ["metrics", str(path)])
    assert result.exit_code == 2
    assert "line 3" in result.output + (result.stderr or "")


def _assert_input_error(result, *needles):
    _assert_error(result, 2, *needles)


def _assert_error(result, code, *needles):
    # an error line and the exit code; invoke() re-raises any uncaught exception
    assert result.exit_code == code
    text = result.output + (result.stderr or "")
    assert "error:" in text
    assert "Traceback" not in text
    for needle in needles:
        assert needle in text


def test_metrics_rejects_nan_probability(runner, tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("x1,x2,p\n0,0,0.5\n0,1,nan\n1,0,0.25\n1,1,0.25\n")
    _assert_input_error(invoke(runner, ["metrics", str(path)]), "line 3", "not finite")


def test_metrics_sparse_sample_codes_match_dense_codes(runner, tmp_path):
    rows = [(0, 0, 1), (1, 2, 0), (2, 1, 1), (0, 0, 0), (1, 2, 1), (2, 2, 0), (0, 1, 1)]
    sparse_codes = (0, 65537, 99991)
    dense = tmp_path / "dense.csv"
    dense.write_text("x1,x2,x3\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("x1,x2,x3\n" + "".join(
        f"{sparse_codes[a]},{sparse_codes[b]},{c}\n" for a, b, c in rows
    ))
    dense_result = invoke(runner, ["metrics", str(dense)])
    sparse_result = invoke(runner, ["metrics", str(sparse)])
    assert sparse_result.exit_code == 0
    assert json.loads(sparse_result.output) == json.loads(dense_result.output)


def test_metrics_refuses_oversized_table(runner, tmp_path):
    # a p-table keeps its symbols, so these two rows span 10^10 cells
    path = tmp_path / "wide.csv"
    path.write_text("x1,x2,p\n0,0,0.5\n99999,99999,0.5\n")
    _assert_input_error(invoke(runner, ["metrics", str(path)]), "dense table")


@pytest.mark.parametrize("command", [["metrics"], ["pid", "decompose"]])
@pytest.mark.parametrize("field", ["7" * 140_000, "0" * 140_000 + "1"], ids=["digits", "zero-padded"])
def test_csv_field_past_the_csv_limit_is_an_input_error(runner, tmp_path, command, field):
    # csv refuses fields longer than 131072 characters; numpy's reader would
    # take the zero-padded one, so this also checks that it leaves it alone
    path = tmp_path / "long.csv"
    path.write_text(f"x1,x2,x3,p\n0,0,0,0.25\n0,{field},1,0.25\n1,0,1,0.25\n1,1,0,0.25\n")
    result = invoke(runner, [*command, str(path)])
    _assert_input_error(result, "line 3: field larger than field limit")
    assert result.stdout == ""


# ---------------------------------------------------------------------------
# symbolic commands
# ---------------------------------------------------------------------------


def _write_expr(tmp_path, name, expr):
    path = tmp_path / name
    path.write_text(json.dumps(expression_to_json(expr)))
    return path


def test_conjugate_negates_oinfo(runner, tmp_path):
    omega = metric_expression("oinfo", 3)
    path = _write_expr(tmp_path, "omega.json", omega)
    result = invoke(runner, ["conjugate", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output) == expression_to_json(-omega)


def test_basis_of_tse(runner, tmp_path):
    path = _write_expr(tmp_path, "tse.json", metric_expression("tse", 5))
    result = invoke(runner, ["basis", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"n": 5, "c": ["2", "3", "3", "2"]}


def test_basis_rejects_out_of_span(runner, tmp_path):
    from entroconj import entropy_term

    path = _write_expr(tmp_path, "h12.json", entropy_term(2, [1, 2]))
    result = runner.invoke(main, ["basis", str(path)])
    assert result.exit_code == 3
    assert "residual" in result.output + (result.stderr or "")


def test_classify_ii(runner, tmp_path):
    path = _write_expr(tmp_path, "ii5.json", metric_expression("ii", 5))
    result = invoke(runner, ["classify", str(path)])
    assert json.loads(result.output) == "skew-symmetric"


def test_bad_expression_json(runner, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["conjugate", str(path)])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# pid commands
# ---------------------------------------------------------------------------


def test_pid_list_atoms(runner):
    result = invoke(runner, ["pid", "list-atoms", "--n", "2"])
    atoms = json.loads(result.output)
    assert len(atoms) == 4
    assert {"antichain", "table"} <= set(atoms[0])


def test_pid_dual_worked_example(runner):
    result = invoke(
        runner, ["pid", "dual", "--n", "3", "--antichain", "[[1,2],[1,3]]"]
    )
    assert json.loads(result.output)["antichain"] == [[1], [2, 3]]


def test_pid_cmi_set(runner):
    result = invoke(runner, ["pid", "cmi-set", "--n", "2", "--a", "[1]", "--b", "[2]"])
    atoms = json.loads(result.output)
    assert sorted(a["table"] for a in atoms) == ["0001", "0101"]


def test_pid_verify_theorem1_sweep(runner):
    result = invoke(runner, ["pid", "verify-theorem1", "--n", "3"])
    report = json.loads(result.output)
    assert report["all_hold"] is True
    assert report["pairs_checked"] == 3**3 - 2**3


def test_pid_decompose_xor(runner, tmp_path):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    result = invoke(runner, ["pid", "decompose", str(path)])
    atoms = json.loads(result.output)
    by_antichain = {json.dumps(a["antichain"]): a["value"] for a in atoms}
    assert by_antichain["[[1, 2]]"] == pytest.approx(1.0, abs=1e-9)
    assert by_antichain["[[1], [2]]"] == pytest.approx(0.0, abs=1e-9)


def test_natural_log_output_is_the_bit_output_times_ln2(runner, tmp_path):
    # the library computes in bits and the CLI converts each reported value
    # with one product, so nats must equal bits * ln 2 exactly
    pmf = np.random.default_rng(10).random((2, 3, 2, 2))
    pmf /= pmf.sum()
    path = tmp_path / "three_sources.csv"
    path.write_text("x1,x2,x3,x4,p\n" + "".join(
        ",".join(map(str, state)) + f",{float(p)!r}\n" for state, p in np.ndenumerate(pmf)
    ))
    ln2 = math.log(2.0)
    bits, nats = (invoke(runner, [*base, "metrics", str(path)]) for base in ([], ["--log-base", "e"]))
    assert bits.exit_code == nats.exit_code == 0
    bits, nats = json.loads(bits.stdout), json.loads(nats.stdout)
    assert set(nats) == set(METRIC_NAMES) | {"u", "n"}
    for name in METRIC_NAMES:
        assert nats[name] == bits[name] * ln2, name
    assert nats["u"] == [x * ln2 for x in bits["u"]]
    assert len(nats["u"]) == nats["n"] - 1 == 3
    bits, nats = (invoke(runner, [*base, "pid", "decompose", str(path)]) for base in ([], ["--log-base", "e"]))
    assert bits.exit_code == nats.exit_code == 0
    bits, nats = json.loads(bits.stdout), json.loads(nats.stdout)
    assert len(nats) == len(bits) == 18  # the atoms over three sources
    for in_bits, in_nats in zip(bits, nats):
        assert in_nats["antichain"] == in_bits["antichain"]
        assert in_nats["value"] == in_bits["value"] * ln2


@pytest.mark.parametrize("n", ["0", "-1", "6"])
def test_pid_verify_theorem1_sweep_checks_source_count_first(runner, n):
    result = invoke(runner, ["pid", "verify-theorem1", "--n", n])
    _assert_input_error(result, f"source count {n} outside 1..5")


def test_tolerance_is_an_option_of_pid_decompose(runner, tmp_path, monkeypatch):
    assert "--tolerance" not in invoke(runner, ["--help"]).output
    assert "--tolerance" in invoke(runner, ["pid", "decompose", "--help"]).output
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    default = invoke(runner, ["pid", "decompose", str(path)])
    assert invoke(runner, ["pid", "decompose", "--tolerance", "1e-6", str(path)]).output == default.output
    assert invoke(runner, ["pid", "decompose", "--tolerance", "0", str(path)]).exit_code == 0
    # a decomposition off by 1e-3 must trip the default guard and pass a looser one
    exact = cli.reference_pid

    def off_by_a_little(dist):
        values = exact(dist)
        atom = min(values, key=lambda f: f.table())
        return {**values, atom: values[atom] + 1e-3}

    monkeypatch.setattr(cli, "reference_pid", off_by_a_little)
    _assert_error(invoke(runner, ["pid", "decompose", str(path)]), 3, "decomposition inconsistent")
    assert invoke(runner, ["pid", "decompose", "--tolerance", "1e-2", str(path)]).exit_code == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_pid_decompose_refuses_bad_tolerance_before_reading(runner, tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,p\n0,zebra,1\n")
    result = invoke(runner, ["pid", "decompose", "--tolerance", value, str(path)])
    _assert_input_error(result, "--tolerance must be finite and >= 0")
    assert "line" not in result.output
    assert result.stdout == ""


def test_pid_decompose_too_many_sources(runner, tmp_path):
    path = tmp_path / "wide.csv"
    rows = ["x1,x2,x3,x4,x5"] + ["0,0,0,0,0", "1,1,1,1,1"]
    path.write_text("\n".join(rows) + "\n")
    result = runner.invoke(main, ["pid", "decompose", str(path)])
    assert result.exit_code == 2


def test_pid_bad_antichain(runner):
    result = runner.invoke(main, ["pid", "dual", "--n", "2", "--antichain", "oops"])
    assert result.exit_code == 2


def test_pid_dual_checks_source_count_before_building_the_table(runner):
    start = time.perf_counter()
    result = invoke(runner, ["pid", "dual", "--n", "64", "--antichain", "[[1]]"])
    assert time.perf_counter() - start < 1.0
    _assert_input_error(result, "source count 64 outside 1..10")


@pytest.mark.parametrize("command, a, b, needle", [
    ("verify-theorem1", "[1.5]", "[2.9]", "variable index 1.5 is not an integer"),
    ("verify-theorem1", "[true]", "[]", "variable index True is not an integer"),
    ("cmi-set", "[1]", "[2.0]", "variable index 2.0 is not an integer"),
    ("cmi-set", '["1"]', "[]", "variable index '1' is not an integer"),
    ("cmi-set", '"12"', "[]", "--a must be a JSON list of integers"),
    ("cmi-set", "[1]", '{"2": 0}', "--b must be a JSON list of integers"),
])
def test_pid_source_index_lists_refuse_non_integers(runner, command, a, b, needle):
    result = invoke(runner, ["pid", command, "--n", "3", "--a", a, "--b", b])
    _assert_input_error(result, needle)
    assert result.stdout == ""


@pytest.mark.parametrize("antichain, needle", [("[[1.5]]", "1.5"), ("[[true, 2]]", "True")])
def test_pid_antichain_refuses_non_integers(runner, antichain, needle):
    result = invoke(runner, ["pid", "dual", "--n", "3", "--antichain", antichain])
    _assert_input_error(result, f"variable index {needle} is not an integer")


@pytest.mark.parametrize("subset, needle", [([1.7], "1.7"), ([True, 3], "True")])
def test_expression_json_refuses_non_integer_members(runner, tmp_path, subset, needle):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"n": 3, "terms": [{"subset": subset, "coeff": "1"}]}))
    _assert_input_error(invoke(runner, ["conjugate", str(path)]), f"variable index {needle} is not an integer")


SYMBOLIC_COMMANDS = ("conjugate", "basis", "classify")


@pytest.mark.parametrize("command", SYMBOLIC_COMMANDS)
@pytest.mark.parametrize("n, needle", [(2.9, "2.9"), (True, "True"), ("3", "'3'")])
def test_expression_json_refuses_non_integer_n(runner, tmp_path, command, n, needle):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"n": n, "terms": [{"subset": [1], "coeff": "1"}]}))
    result = invoke(runner, [command, str(path)])
    _assert_input_error(result, f'"n" {needle} is not an integer')
    assert result.stdout == ""


@pytest.mark.parametrize("command", SYMBOLIC_COMMANDS)
@pytest.mark.parametrize("n", [65, 2**27])
def test_expression_json_refuses_n_past_the_cap(runner, tmp_path, command, n):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"n": n, "terms": [{"subset": [n], "coeff": "1"}]}))
    result = invoke(runner, [command, str(path)])
    _assert_input_error(result, f'"n" {n} is above the limit of 64')
    assert result.stdout == ""


def test_expression_json_takes_n_at_the_cap(runner, tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"n": 64, "terms": [{"subset": [64], "coeff": "1"}]}))
    result = invoke(runner, ["conjugate", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["terms"] == [
        {"subset": list(range(1, 64)), "coeff": "1"},
        {"subset": list(range(1, 65)), "coeff": "-1"},
    ]


def _write_coefficients(tmp_path, *coeffs):
    path = tmp_path / "e.json"
    terms = [{"subset": [i], "coeff": c} for i, c in enumerate(coeffs, start=1)]
    path.write_text(json.dumps({"n": len(coeffs), "terms": terms}))
    return path


@pytest.mark.parametrize("command", SYMBOLIC_COMMANDS)
@pytest.mark.parametrize("coeff, needle", [
    ("1e4301", "more than 4300 digits"),
    ("1e-4300", "more than 4300 digits"),
    ("1." + "0" * 4299 + "1", "more than 4300 digits"),
    ("1e-400000", "exponent -400000 is out of range"),
], ids=["1e4301", "1e-4300", "4300-decimals", "1e-400000"])
def test_expression_json_refuses_unprintable_coefficients(runner, tmp_path, command, coeff, needle):
    path = _write_coefficients(tmp_path, coeff, coeff)
    result = invoke(runner, [command, str(path)])
    _assert_input_error(result, needle)
    assert result.stdout == ""


@pytest.mark.parametrize("coeff, printed", [("1e4299", str(10**4299)), ("1e-4299", f"1/{10**4299}")])
def test_expression_json_accepts_the_longest_printable_coefficients(runner, tmp_path, coeff, printed):
    result = invoke(runner, ["conjugate", str(_write_coefficients(tmp_path, coeff, "0"))])
    assert result.exit_code == 0
    assert json.loads(result.output)["terms"] == [
        {"subset": [2], "coeff": printed},
        {"subset": [1, 2], "coeff": "-" + printed},
    ]


def test_expression_json_refuses_a_huge_exponent_at_once(tmp_path):
    # Fraction would build a billion-digit int before any size check
    path = _write_coefficients(tmp_path, "1e999999999", "1")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "entroconj.cli", "conjugate", str(path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2
    assert "exponent 999999999 is out of range" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", SYMBOLIC_COMMANDS)
def test_results_past_the_digit_limit_are_domain_errors(runner, tmp_path, command):
    # each coefficient prints, but their sum (the conjugate's full-set term)
    # and the u-basis residual 2 * 9e4299 do not
    result = invoke(runner, [command, str(_write_coefficients(tmp_path, "9e4299", "9e4299"))])
    _assert_error(result, 3, "4300 digits")
    assert result.stdout == ""


# ---------------------------------------------------------------------------
# in-process runs
# ---------------------------------------------------------------------------


def _run_redirected(args):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, prog_name="entroconj")
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), weakref.ref(out), weakref.ref(err)


@pytest.mark.parametrize("args, code", [
    (["pid", "list-atoms", "--n", "2"], 0),
    (["pid", "verify-theorem1", "--n", "0"], 2),
])
def test_redirected_output_streams_are_released(args, code):
    exit_code, stdout, stderr, out_ref, err_ref = _run_redirected(args)
    assert exit_code == code
    assert (stdout != "") == (code == 0)
    assert stderr.startswith("error:") == (code != 0)
    gc.collect()
    assert out_ref() is None and err_ref() is None


# ---------------------------------------------------------------------------
# spinlab
# ---------------------------------------------------------------------------


def test_spinlab_writes_files(runner, tmp_path):
    out = tmp_path / "run"
    result = invoke(
        runner,
        [
            "spinlab",
            "--n", "4",
            "--count", "2",
            "--seed", "5",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0
    for name in ("u_profiles.csv", "loadings.csv", "scores.csv", "manifest.json"):
        assert (out / name).exists()
    scores = (out / "scores.csv").read_text().splitlines()
    assert len(scores) == 1 + 6


def test_spinlab_rejects_bad_config(runner, tmp_path):
    result = runner.invoke(
        main, ["spinlab", "--n", "1", "--out", str(tmp_path / "x")]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("option, value", [("--beta", "nan"), ("--mu", "inf"), ("--sigma2", "nan")])
def test_spinlab_rejects_non_finite_parameters(runner, tmp_path, option, value):
    out = tmp_path / "x"
    result = invoke(runner, ["spinlab", option, value, "--out", str(out)])
    _assert_input_error(result, "must be finite")
    assert not out.exists()


def test_spinlab_overflowing_weights_are_a_domain_error(runner, tmp_path):
    # finite, but beta * energy overflows and the Boltzmann weights are not finite
    out = tmp_path / "x"
    result = invoke(runner, ["spinlab", "--n", "3", "--count", "1", "--beta", "1e308", "--out", str(out)])
    _assert_error(result, 3, "Boltzmann")
    assert not out.exists()


# ---------------------------------------------------------------------------
# fuzzed input
# ---------------------------------------------------------------------------

# each mixes well-formed values, values out of range and malformed text
SOURCE_SETS = st.lists(st.integers(1, 3), unique=True, max_size=2)
INDEX_LISTS = st.one_of(
    SOURCE_SETS.map(json.dumps),
    st.lists(st.integers(-1, 5), max_size=4).map(json.dumps),
    st.sampled_from(["", "[", "[1.5]", "[true]", '["1"]', '"1"', "{}", "null", "[[1]]"]),
)
ANTICHAINS = st.one_of(
    st.lists(st.lists(st.integers(1, 3), unique=True, min_size=1, max_size=2), min_size=1, max_size=3)
    .map(json.dumps),
    st.lists(st.lists(st.integers(-1, 5), max_size=3), max_size=4).map(json.dumps),
    st.sampled_from(["", "oops", "[1]", "[[1.5]]", '[["1"]]', "null"]),
)
SOURCE_COUNTS = st.one_of(
    st.integers(2, 4).map(str), st.sampled_from(["1", "0", "-1", "", "x", "1.5"])
)


@st.composite
def expression_texts(draw):
    """Expression JSON: metric expansions, random terms, or broken JSON."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(METRIC_NAMES))
        obj = expression_to_json(metric_expression(name, draw(st.integers(2, 6))))
    else:
        member = st.one_of(st.integers(-1, 7), st.sampled_from([1.5, True, "1", None]))
        coeff = st.one_of(
            st.fractions(max_denominator=12).map(str),
            st.sampled_from(["1/0", "x", "", "1e99999", 1, 0.5, None]),
        )
        term = st.fixed_dictionaries({"subset": st.lists(member, max_size=4), "coeff": coeff})
        obj = {
            "n": draw(st.one_of(st.integers(-1, 6), st.sampled_from([65, 2.0, True, "3", None]))),
            "terms": draw(st.lists(term, max_size=6)),
        }
    text = json.dumps(obj)
    if draw(st.booleans()):
        return text
    return draw(st.sampled_from([text[: len(text) // 2], "[]", "null"]))


@st.composite
def cli_jobs(draw):
    """One command line and the text it reads from stdin."""
    family = draw(st.sampled_from(["csv", "expression", "lattice"]))
    if family == "csv":
        command = draw(st.sampled_from([["metrics"], ["pid", "decompose"]]))
        return [*command, "-"], draw(csv_texts(max_vars=4))
    if family == "expression":
        command = draw(st.sampled_from(["conjugate", "basis", "classify"]))
        return [command, "-"], draw(expression_texts())
    n = draw(SOURCE_COUNTS)
    command = draw(st.sampled_from(["dual", "cmi-set", "verify-theorem1", "sweep"]))
    if command == "dual":
        return ["pid", "dual", "--n", n, "--antichain", draw(ANTICHAINS)], ""
    if command == "sweep":
        return ["pid", "verify-theorem1", "--n", n], ""
    return ["pid", command, "--n", n, "--a", draw(INDEX_LISTS), "--b", draw(INDEX_LISTS)], ""


@given(cli_jobs(), st.sampled_from([[], ["--log-base", "e"]]))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_fuzzed_input_ends_in_a_report_or_a_worded_error(job, base):
    args, stdin = job
    result = CliRunner().invoke(main, [*base, *args], input=stdin)
    assert result.exit_code in (0, 2, 3), (args, stdin, result.exception)
    assert "Traceback" not in result.output + (result.stderr or "")
    if result.exit_code == 0 and args[0] == "metrics":
        report = json.loads(result.stdout)
        values = [report.pop("n"), *report.pop("u"), *report.values()]
        assert all(math.isfinite(v) for v in values), report
