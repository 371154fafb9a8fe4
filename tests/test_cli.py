"""End-to-end tests of the command-line interface."""

import json
import math

import pytest
from click.testing import CliRunner

from entroconj import expression_to_json, metric_expression
from entroconj.cli import main

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
    # exit 2 with an error line; invoke() re-raises any uncaught exception
    assert result.exit_code == 2
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


def test_pid_decompose_too_many_sources(runner, tmp_path):
    path = tmp_path / "wide.csv"
    rows = ["x1,x2,x3,x4,x5"] + ["0,0,0,0,0", "1,1,1,1,1"]
    path.write_text("\n".join(rows) + "\n")
    result = runner.invoke(main, ["pid", "decompose", str(path)])
    assert result.exit_code == 2


def test_pid_bad_antichain(runner):
    result = runner.invoke(main, ["pid", "dual", "--n", "2", "--antichain", "oops"])
    assert result.exit_code == 2


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
