"""End-to-end tests of the command-line interface."""

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from entroconj import (
    METRIC_NAMES,
    EntropyExpression,
    SpinEnsembleConfig,
    antichain_to_bf,
    cmi_atom_set,
    dual,
    enumerate_atoms,
    expression_to_json,
    mask_members,
    metric_expression,
)
from entroconj import cli, pid
from entroconj.cli import main

from helpers import (
    atom_json,
    csv_texts,
    oracle_antichain,
    outside_dual,
    random_antichain,
    swapped_dual,
)

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


def _json_oracle(e):
    # the one-generator-per-term form that expression_to_json builds faster
    return {
        "n": e.n,
        "terms": [{"subset": list(mask_members(m)), "coeff": str(c)} for m, c in e.items()],
    }


@st.composite
def printed_expressions(draw):
    """Expressions on 1..14 variables whose terms share, negate and copy coefficients."""
    n = draw(st.integers(1, 14))
    full = (1 << n) - 1
    if draw(st.booleans()):  # dense: a run of consecutive masks
        start = draw(st.integers(1, full))
        masks = range(start, min(full, start + draw(st.integers(0, 1023))) + 1)
    else:
        masks = draw(st.sets(st.integers(1, full), max_size=40))
    pool = draw(st.lists(
        st.one_of(
            st.fractions(max_denominator=50),
            st.integers(1, 10**400).map(lambda k: Fraction(10**299 + k, 7)),
        ).filter(bool),
        min_size=1, max_size=6,
    ))
    pool += [-c for c in pool] + [Fraction(c.numerator, c.denominator) for c in pool]
    return EntropyExpression(n, {m: draw(st.sampled_from(pool)) for m in masks})


@given(printed_expressions())
@example(EntropyExpression(1))
@example(EntropyExpression(9))
@example(EntropyExpression(64, {1 << 63: Fraction(1, 3), (1 << 63) | 5: Fraction(-2), 6: Fraction(1, 3)}))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_expression_text_is_the_indented_json_dump(e):
    obj = expression_to_json(e)
    assert obj == _json_oracle(e)
    assert cli._expression_text(obj) == json.dumps(obj, indent=2)


def test_expression_json_prints_each_coefficient_object_once():
    shared, copy = Fraction(1, 3), Fraction(1, 3)
    obj = expression_to_json(EntropyExpression(3, {1: shared, 2: shared, 3: copy, 4: -shared}))
    texts = [term["coeff"] for term in obj["terms"]]
    assert texts == ["1/3", "1/3", "1/3", "-1/3"]
    assert texts[0] is texts[1]


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


@pytest.mark.parametrize("n", ["0", "6"])
def test_pid_list_atoms_refuses_a_source_count_outside_the_range(runner, n):
    result = invoke(runner, ["pid", "list-atoms", "--n", n])
    _assert_input_error(result, f"source count {n} outside 1..5")
    assert result.stdout == ""


@pytest.mark.parametrize("n", ["0", "-1", "6"])
def test_pid_cmi_set_checks_source_count_first(runner, n):
    result = invoke(runner, ["pid", "cmi-set", "--n", n, "--a", "[1]"])
    _assert_input_error(result, f"source count {n} outside 1..5")
    assert result.stdout == ""


@pytest.mark.parametrize("row", [0b0100, 0, 0b1111, 0b10000], ids=["non-monotone", "zero", "full", "too-wide"])
def test_list_atoms_checks_its_tables_as_the_constructor_does(runner, monkeypatch, row):
    good = pid._atom_tables(2)
    monkeypatch.setattr(pid, "_atom_tables", lambda n: np.append(good, np.uint64(row)))
    enumerate_atoms.cache_clear()
    with pytest.raises(ValueError) as caught:
        pid.MonotoneBooleanFunction(2, row)
    result = invoke(runner, ["pid", "list-atoms", "--n", "2"])
    enumerate_atoms.cache_clear()
    _assert_input_error(result, str(caught.value))
    assert result.stdout == ""


@pytest.mark.parametrize("args", [
    ["pid", "cmi-set", "--n", "5", "--a", "[2]", "--b", "[1,4,5]"],
    ["pid", "list-atoms", "--n", "4"],
    ["pid", "verify-theorem1", "--n", "4"],
], ids=["cmi-set", "list-atoms", "verify-sweep"])
def test_row_commands_print_from_tables_without_building_atoms(runner, monkeypatch, args):
    expected = invoke(runner, args).stdout
    enumerate_atoms.cache_clear()
    # object.__new__ refuses a non-type, so building any atom raises
    monkeypatch.setattr(pid, "MonotoneBooleanFunction", lambda *fields: pytest.fail("an atom was built"))
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert result.stdout == expected
    assert enumerate_atoms.cache_info().currsize == 0


def test_verify_sweep_compares_the_dual_sets(runner, monkeypatch):
    monkeypatch.setattr(pid, "_dual_tables", lambda tables, n: tables)
    result = invoke(runner, ["pid", "verify-theorem1", "--n", "3"])
    assert json.loads(result.stdout) == {"n": 3, "pairs_checked": 3**3 - 2**3, "all_hold": False}


@pytest.mark.parametrize("fault", [swapped_dual, outside_dual], ids=["swapped", "outside"])
def test_verify_sweep_fails_on_a_dual_that_is_not_the_duality(runner, monkeypatch, fault):
    monkeypatch.setattr(pid, "_dual_tables", fault(3))
    result = invoke(runner, ["pid", "verify-theorem1", "--n", "3"])
    assert json.loads(result.stdout) == {"n": 3, "pairs_checked": 3**3 - 2**3, "all_hold": False}


@pytest.mark.parametrize("b", ["garbage", "[]"])  # "[1]" is in REFUSALS
def test_verify_sweep_refuses_b_without_a(runner, b):
    result = invoke(runner, ["pid", "verify-theorem1", "--n", "3", "--b", b])
    _assert_input_error(result, "--b needs --a")
    assert result.stdout == ""


def test_verify_pair_without_b_takes_the_empty_set(runner):
    result = invoke(runner, ["pid", "verify-theorem1", "--n", "3", "--a", "[1]"])
    assert json.loads(result.stdout) == {"n": 3, "a": [1], "b": [], "holds": True}
    assert "  --b TEXT     [default: []]\n" in invoke(runner, ["pid", "verify-theorem1", "--help"]).stdout


# The pid commands print atoms with their own renderer; its text must be
# what json.dumps(indent=2) prints for the oracle dicts, byte for byte.


def _assert_prints_indented(result, obj, context=None):
    # lines, not one string: pytest's diff of two long strings takes minutes
    assert result.exit_code == 0
    assert result.stdout.split("\n") == (json.dumps(obj, indent=2) + "\n").split("\n"), context


def _disjoint_pairs(n: int) -> list:
    return [
        (mask_members(ma), mask_members(mb))
        for ma in range(1, 1 << n)
        for mb in range(1 << n)
        if not ma & mb
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_list_atoms_prints_the_indented_json_of_every_atom(runner, n):
    result = invoke(runner, ["pid", "list-atoms", "--n", str(n)])
    _assert_prints_indented(result, [atom_json(f) for f in enumerate_atoms(n)])


def test_cmi_set_prints_the_indented_json_of_its_atoms(runner):
    jobs = [(n, a, b) for n in (1, 2, 3, 4) for a, b in _disjoint_pairs(n)]
    at_five = _disjoint_pairs(5)
    picks = np.random.default_rng(13).choice(len(at_five), size=20, replace=False)
    jobs += [(5, *at_five[i]) for i in picks.tolist()]
    oracle = {f: atom_json(f) for n in range(1, 6) for f in enumerate_atoms(n)}
    for n, a, b in jobs:
        args = ["pid", "cmi-set", "--n", str(n), "--a", json.dumps(a), "--b", json.dumps(b)]
        _assert_prints_indented(invoke(runner, args), [oracle[f] for f in cmi_atom_set(n, a, b)], args)


def test_dual_prints_the_indented_json_of_the_dual_atom(runner):
    atoms = [f for n in (1, 2, 3) for f in enumerate_atoms(n)]
    # past 6 sources a table is wider than a uint64
    inputs = [(6, [[1], [2, 3, 4, 5, 6]]), (7, [[1, 2], [3, 4, 5], [6, 7]]), (10, [[1, 2], [3, 4, 5], [8], [9, 10]])]
    rng = np.random.default_rng(16)
    inputs += [(n, random_antichain(rng, n)) for n in range(1, 11) for _ in range(10)]
    atoms += [antichain_to_bf(antichain, n) for n, antichain in inputs]
    for f in atoms:
        antichain = json.dumps(oracle_antichain(f.n, f.bits))
        result = invoke(runner, ["pid", "dual", "--n", str(f.n), "--antichain", antichain])
        _assert_prints_indented(result, atom_json(dual(f)), antichain)


@pytest.mark.parametrize("base, scale", [("2", 1.0), ("e", math.log(2.0))])
def test_decompose_prints_each_value_as_json_does(runner, tmp_path, monkeypatch, base, scale):
    path = tmp_path / "copy.csv"
    path.write_text("x1,x2,x3,y,p\n0,0,0,0,0.5\n1,1,1,1,0.5\n")
    odd = [0.0, -0.0, 5e-324, 1e300, -0.375, math.nan, math.inf, 1 / 3]
    atoms = enumerate_atoms(3)  # table order, as reference_pid returns them
    values = {f: odd[i % len(odd)] for i, f in enumerate(atoms)}
    monkeypatch.setattr(cli, "reference_pid", lambda dist: values)
    monkeypatch.setattr(cli, "_DECOMPOSE_TOLERANCE", math.inf)  # these values fail the guard
    result = invoke(runner, ["--log-base", base, "pid", "decompose", str(path)])
    _assert_prints_indented(result, [atom_json(f, values[f] * scale) for f in atoms])


def test_pid_decompose_guard_refuses_an_inconsistent_decomposition(runner, tmp_path, monkeypatch):
    assert "--tolerance" not in invoke(runner, ["pid", "decompose", "--help"]).output
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    assert invoke(runner, ["pid", "decompose", str(path)]).exit_code == 0
    # a decomposition off by 1e-3 must trip the consistency guard
    exact = cli.reference_pid

    def off_by_a_little(dist):
        values = exact(dist)
        atom = min(values, key=lambda f: f.table())
        return {**values, atom: values[atom] + 1e-3}

    monkeypatch.setattr(cli, "reference_pid", off_by_a_little)
    _assert_error(invoke(runner, ["pid", "decompose", str(path)]), 3, "decomposition inconsistent")


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


def _terms(*pairs):
    return [{"subset": subset, "coeff": coeff} for subset, coeff in pairs]


@pytest.mark.parametrize("obj, message", [
    # a bad text carried by several terms is reported at its first
    ({"n": 3, "terms": _terms(([1], "1"), ([2], "x"), ([3], "1"), ([1, 2], "x"))},
     "malformed term 1: Invalid literal for Fraction: 'x'"),
    # the coefficient is read before the subset
    ({"n": 3, "terms": _terms(([9], "1/0"), ([1], "1/0"))}, "malformed term 0: Fraction(1, 0)"),
    ({"n": 3, "terms": _terms(([1], "1"), ([9], "1"))}, "malformed term 1: variable index 9 outside 1..3"),
    # a zero coefficient still claims its subset
    ({"n": 3, "terms": _terms(([1], "0"), ([1], "1"))}, "duplicate subset [1]"),
    ({"n": 0, "terms": []}, "an expression needs at least one variable"),
    ({"n": 0, "terms": _terms(([], "1"))}, "an expression needs at least one variable"),
    # an exponent that is not an integer is left to Fraction to word
    ({"n": 3, "terms": _terms(([1], "1e1.5"),)}, "malformed term 0: Invalid literal for Fraction: '1e1.5'"),
])
def test_expression_json_errors_are_worded_exactly(runner, obj, message):
    for command in SYMBOLIC_COMMANDS:
        result = runner.invoke(main, [command, "-"], input=json.dumps(obj), catch_exceptions=False)
        assert result.exit_code == 2
        assert result.stderr == f"error: bad expression JSON: {message}\n"
        assert result.stdout == ""


def test_version_runs_from_the_source_tree(tmp_path):
    # click's default reads the version from the installed package's metadata
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "entroconj.cli", "--version"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("version 0.1.0")


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
    # nothing of the result is printed, not even the conjugate's terms ahead
    # of the full set's; the error is the one line on stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


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


# a command that prints, one that refuses (exit 2) and one that click refuses
# as a usage error after the group callback has run
GC_JOBS = [
    (["pid", "list-atoms", "--n", "2"], 0),
    (["pid", "verify-theorem1", "--n", "0"], 2),
    (["pid", "list-atoms", "--no-such-option"], 2),
]


def test_commands_run_with_the_collector_paused(runner, tmp_path, monkeypatch):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    states = []
    echo = cli._echo
    monkeypatch.setattr(cli, "_echo", lambda text: (states.append(gc.isenabled()), echo(text)))
    jobs = [["pid", "list-atoms", "--n", "2"], ["metrics", str(path)], ["--log-base", "e", "pid", "decompose", str(path)]]
    for args in jobs:
        assert invoke(runner, args).exit_code == 0
    assert states == [False, False, False]
    assert gc.isenabled()


@pytest.mark.parametrize("args, code", GC_JOBS, ids=[" ".join(job[0]) for job in GC_JOBS])
def test_each_exit_gives_the_caller_its_collector_state(runner, args, code):
    assert gc.isenabled()
    assert runner.invoke(main, args).exit_code == code
    assert gc.isenabled()
    gc.disable()
    try:
        assert runner.invoke(main, args).exit_code == code
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_spinlab_leaves_no_cycles_per_system(tmp_path):
    # each Boltzmann table must be freed as it is dropped: under the paused
    # collector a table in a reference cycle would live to the command's end
    def leftover(count):
        gc.collect()
        args = ["spinlab", "--n", "4", "--count", str(count), "--out", str(tmp_path / f"c{count}")]
        assert _run_redirected(args)[0] == 0
        return gc.collect()

    leftover(1)  # first-use imports and caches
    assert leftover(1) == leftover(4)


def _raise(text):
    raise AssertionError("strip_ansi called")


def test_reports_skip_the_ansi_scan_and_print_the_same_bytes(runner, tmp_path, monkeypatch):
    csv_path = tmp_path / "xor.csv"
    csv_path.write_text(XOR_CSV)
    expr = _write_expr(tmp_path, "tse.json", metric_expression("tse", 5))
    jobs = [
        ["conjugate", str(expr)],
        ["basis", str(expr)],
        ["pid", "cmi-set", "--n", "3", "--a", "[1]", "--b", "[2]"],
        ["metrics", str(csv_path)],
    ]
    # what click printed when it scanned: the text with its ANSI codes stripped
    scanned = []
    for args in jobs:
        result = invoke(runner, args)
        assert result.exit_code == 0
        scanned.append(click.utils.strip_ansi(result.stdout))
    monkeypatch.setattr(click.utils, "strip_ansi", _raise)
    for args, text in zip(jobs, scanned):
        result = invoke(runner, args)
        assert result.exit_code == 0
        assert result.stdout_bytes == text.encode()


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


def test_spinlab_rejects_a_negative_seed_before_writing(runner, tmp_path):
    out = tmp_path / "x"
    result = invoke(runner, ["spinlab", "--n", "3", "--count", "1", "--seed", "-1", "--out", str(out)])
    _assert_input_error(result, "seed -1 is negative")
    assert not out.exists()


def test_spinlab_options_are_the_config_fields():
    options = [param for param in cli.spinlab.params if param.name != "out"]
    names = [field.name for field in dataclasses.fields(SpinEnsembleConfig)]
    assert [param.name for param in options] == names
    published = SpinEnsembleConfig()
    assert [param.default for param in options] == [getattr(published, name) for name in names]


def test_spinlab_defaults_are_the_published_run(runner, tmp_path):
    out = tmp_path / "run"
    assert invoke(runner, ["spinlab", "--out", str(out)]).exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == SpinEnsembleConfig().to_dict()


@pytest.mark.parametrize("option, value", [("--beta", "nan"), ("--mu", "inf"), ("--sigma2", "nan")])
def test_spinlab_rejects_non_finite_parameters(runner, tmp_path, option, value):
    out = tmp_path / "x"
    result = invoke(runner, ["spinlab", option, value, "--out", str(out)])
    _assert_input_error(result, "must be finite")
    assert not out.exists()


def test_spinlab_output_it_cannot_write_is_an_input_error(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    result = invoke(runner, ["spinlab", "--n", "3", "--count", "1", "--out", str(blocker / "run")])
    _assert_input_error(result, "cannot write experiment outputs under")


def test_spinlab_overflowing_weights_are_a_domain_error(runner, tmp_path):
    # finite, but beta * energy overflows and the Boltzmann weights are not finite
    out = tmp_path / "x"
    result = invoke(runner, ["spinlab", "--n", "3", "--count", "1", "--beta", "1e308", "--out", str(out)])
    _assert_error(result, 3, "Boltzmann")
    assert not out.exists()


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

REFUSAL_FILES = {
    "bad.csv": "x1,x2,p\n0,0,0.5\n0,zebra,0.5\n",
    "one.csv": "x1,p\n0,1\n",
    "wide.csv": "x1,x2,x3,x4,x5\n0,0,0,0,0\n1,1,1,1,1\n",
    "junk.json": "{not json",
    # each coefficient prints, their sum does not
    "big.json": json.dumps({"n": 2, "terms": _terms(([1], "9e4299"), ([2], "9e4299"))}),
    "h12.json": json.dumps({"n": 2, "terms": _terms(([1, 2], "1"),)}),
    "blocker": "not a directory\n",
}


# one input for each place the CLI turns a library exception into a refusal
REFUSALS = [
    (["metrics", "bad.csv"], 2, "error: line 3: symbol 'zebra'"),
    (["metrics", "one.csv"], 2, "error: metrics need at least two variables"),
    (["conjugate", "junk.json"], 2, "error: bad expression JSON: Expecting property name"),
    (["conjugate", "big.json"], 3, "error: Exceeds the limit (4300 digits)"),
    (["basis", "h12.json"], 3, "error: expression is outside the u-basis span"),
    (["classify", "h12.json"], 3, "error: expression is outside the u-basis span"),
    (["pid", "list-atoms", "--n", "6"], 2, "error: source count 6 outside 1..5"),
    (["pid", "dual", "--n", "3", "--antichain", "[1]"], 2, "error: bad antichain: antichain must be"),
    (["pid", "cmi-set", "--n", "3", "--a", "[4]"], 2, "error: variable index 4 outside 1..3"),
    (["pid", "verify-theorem1", "--n", "0"], 2, "error: source count 0 outside 1..5"),
    (["pid", "verify-theorem1", "--n", "3", "--b", "[1]"], 2, "error: --b needs --a; omit both"),
    (["pid", "decompose", "wide.csv"], 2, "error: the reference decomposition supports 1..3 sources"),
    (["spinlab", "--n", "1", "--out", "run"], 2, "error: need at least two spins"),
    (["spinlab", "--n", "3", "--count", "1", "--beta", "1e308", "--out", "run"], 3,
     "error: cannot build the Boltzmann distributions: beta * energy is not finite"),
    (["spinlab", "--n", "3", "--count", "1", "--out", "blocker/run"], 2,
     "error: cannot write experiment outputs under"),
]


@pytest.mark.parametrize("args, code, start", REFUSALS, ids=[" ".join(case[0]) for case in REFUSALS])
def test_each_refusal_is_one_error_line_and_its_exit_code(runner, args, code, start):
    with runner.isolated_filesystem():
        for name, text in REFUSAL_FILES.items():
            Path(name).write_text(text)
        result = invoke(runner, args)
    assert result.exit_code == code
    assert result.stderr.startswith(start)
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("antichain", ["[1]", "null", "5", "[[1], 2]"])
def test_dual_refuses_an_antichain_that_is_not_a_sequence_of_sets(runner, antichain):
    result = invoke(runner, ["pid", "dual", "--n", "3", "--antichain", antichain])
    assert result.exit_code == 2
    assert result.stderr == "error: bad antichain: antichain must be a sequence of source sets\n"
    assert result.stdout == ""


# deeper than the JSON parser's recursion limit
DEEP = "[" * 3000
DEEP_JSON = [
    ["conjugate", "deep.json"],
    ["basis", "deep.json"],
    ["classify", "deep.json"],
    ["pid", "cmi-set", "--n", "3", "--a", DEEP],
    ["pid", "cmi-set", "--n", "3", "--a", "[1]", "--b", DEEP],
    ["pid", "verify-theorem1", "--n", "3", "--a", DEEP],
    ["pid", "verify-theorem1", "--n", "3", "--a", "[1]", "--b", DEEP],
    ["pid", "dual", "--n", "3", "--antichain", DEEP],
]


@pytest.mark.parametrize("args", DEEP_JSON, ids=[" ".join(a[:-1]) for a in DEEP_JSON])
def test_json_nested_too_deeply_is_an_input_error(runner, args):
    with runner.isolated_filesystem():
        Path("deep.json").write_text("[" * 200_000)
        result = invoke(runner, args)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


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
