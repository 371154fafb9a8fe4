"""Tests of the benchmark's own helpers: calibration, percentiles, checkers,
input generation, the cache scan and the traced run."""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, measure, run, runner, workloads
from perfbench.tracing import ROOT_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent


# -- calibration and percentiles -------------------------------------------

def test_calibrate_scales_to_reference_speed():
    # a machine whose kernel slice is twice the reference runs at half speed
    assert measure.calibrate(10.0, 2 * measure.C_REF_MS, 2 * measure.C_REF_MS) == pytest.approx(5.0)
    assert measure.calibrate(10.0, measure.C_REF_MS / 2, 1.5 * measure.C_REF_MS) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        measure.calibrate(1.0, 0.0, 0.0)


def test_kernel_runs_and_takes_time():
    assert measure.kernel_ms() > 0.0


def test_percentile_interpolates_between_ranks():
    assert measure.percentile([5, 1, 3, 2, 4], 50) == 3
    assert measure.percentile([1, 2], 50) == 1.5
    assert measure.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 90) == 10


def test_tail_percentile_needs_ten_beyond():
    need = measure.min_samples_for_tail(90)
    assert need == 92
    value, beyond = measure.tail_percentile(list(range(need)), 90)
    assert beyond == 10 and value < need - 10
    with pytest.raises(ValueError, match="only 9"):
        measure.tail_percentile(list(range(need - 1)), 90)
    with pytest.raises(ValueError):
        measure.tail_percentile([1.0] * 200, 90)  # ties: nothing lies above


# -- checkers reject corrupted outputs --------------------------------------

def _cli(args):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = runner._cli_call(args, stdout, stderr)()
    assert code == 0, stderr.getvalue()
    return json.loads(stdout.getvalue()) if stdout.getvalue() else None


def _rejects(kind, job, output):
    with pytest.raises(checks.CheckError):
        checks.CHECKERS[kind](job, output)


def _ptable(tmp_path, pmf):
    path = tmp_path / "p.csv"
    path.write_text(workloads._ptable_csv(pmf), encoding="utf-8")
    return str(path)


def test_metrics_checker(tmp_path):
    pmf = np.random.default_rng(0).dirichlet(np.ones(16)).reshape((2,) * 4)
    tc, dtc = workloads._tc_dtc(pmf)
    job = {"check": {"n": 4, "tc": tc, "dtc": dtc}}
    report = _cli(["metrics", _ptable(tmp_path, pmf)])
    checks.check_metrics(job, report)
    for field, delta in (("sinfo", 1e-3), ("tc", 1e-3), ("ii", 1e-3)):
        bad = dict(report, **{field: report[field] + delta})
        _rejects("metrics", job, bad)
    _rejects("metrics", job, dict(report, u=[x + 1e-3 for x in report["u"]]))
    _rejects("metrics", job, dict(report, tc=float("nan")))
    zeros = {k: ([0.0] * 3 if k == "u" else 0.0) for k in report}
    _rejects("metrics", job, dict(zeros, n=4))  # the all-zero report of a nan table


def test_symbolic_checkers(tmp_path):
    from entroconj.metrics import metric_expression

    expr = tmp_path / "e.json"
    expr.write_text(workloads._expression_json(5, dict(metric_expression("oinfo", 5).terms)))
    basis_job = {"check": {"c": [str(x) for x in workloads.metric_coefficients("oinfo", 5)]}}
    out = _cli(["basis", str(expr)])
    checks.check_basis(basis_job, out)
    _rejects("basis", basis_job, dict(out, c=out["c"][::-1]))

    class_job = {"check": {"class": "skew-symmetric"}}
    checks.check_classify(class_job, _cli(["classify", str(expr)]))
    _rejects("classify", class_job, "symmetric")

    terms = {3: Fraction(1, 2), 5: Fraction(-2), 31: Fraction(1)}
    expr.write_text(workloads._expression_json(5, terms))
    conj_job = {"check": {"n": 5, "terms": {str(m): str(c) for m, c in terms.items()}}}
    out = _cli(["conjugate", str(expr)])
    checks.check_conjugate(conj_job, out)
    _rejects("conjugate", conj_job, dict(out, terms=out["terms"][1:]))

    c = [Fraction(1), Fraction(-3, 2), Fraction(2)]
    skew_job = {"call": "sym_skew", "args": {"n": 4, "c": [str(x) for x in c]},
                "check": {"n": 4, "terms": {str(m): str(v) for m, v in workloads._expansion(4, c).items()}}}
    e, s, t = runner._library_call(skew_job)()
    checks.check_sym_skew(skew_job, (e, s, t))
    _rejects("sym_skew", skew_job, (e, t, s))
    _rejects("sym_skew", skew_job, (e, s, s))

    to_u_job = {"call": "to_u_basis", "args": {"metric": "ii", "n": 6},
                "check": {"c": [str(x) for x in workloads.metric_coefficients("ii", 6)]}}
    checks.check_to_u_basis(to_u_job, runner._library_call(to_u_job)())
    _rejects("to_u_basis", dict(to_u_job, check={"c": [str(x) for x in workloads.metric_coefficients("tc", 6)]}),
             runner._library_call(to_u_job)())


def test_lattice_checkers(tmp_path):
    sweep = _cli(["pid", "verify-theorem1", "--n", "3"])
    checks.check_verify_sweep({"check": {"n": 3}}, sweep)
    _rejects("verify_sweep", {"check": {"n": 3}}, dict(sweep, pairs_checked=18))
    _rejects("verify_sweep", {"check": {"n": 3}}, dict(sweep, all_hold=False))

    pair_job = {"check": {"n": 3, "a": [1], "b": [2]}}
    pair = _cli(["pid", "verify-theorem1", "--n", "3", "--a", "[1]", "--b", "[2]"])
    checks.check_verify_pair(pair_job, pair)
    _rejects("verify_pair", pair_job, dict(pair, holds=False))

    atoms = _cli(["pid", "list-atoms", "--n", "3"])
    assert len(atoms) == 18
    checks.check_list_atoms({"check": {"n": 3}}, atoms)
    _rejects("list_atoms", {"check": {"n": 3}}, atoms[1:])
    _rejects("list_atoms", {"check": {"n": 3}}, atoms + atoms[:1])

    cmi_job = {"check": {"n": 3, "a": [1], "b": [3]}}
    cmi = _cli(["pid", "cmi-set", "--n", "3", "--a", "[1]", "--b", "[3]"])
    checks.check_cmi_set(cmi_job, cmi)
    _rejects("cmi_set", cmi_job, cmi + [a for a in atoms if a not in cmi][:1])

    dual_job = {"check": {"n": 3, "antichain": [[1], [2, 3]]}}
    out = _cli(["pid", "dual", "--n", "3", "--antichain", "[[1],[2,3]]"])
    checks.check_dual(dual_job, out)
    _rejects("dual", dual_job, {"antichain": [[1], [2, 3]], "table": "01010111"})
    flipped = dict(out, table=out["table"][:-1] + "0")
    _rejects("dual", dual_job, flipped)

    pmf = workloads._decompose_pmf(np.random.default_rng(1), 2, "xor")
    decompose_job = {"check": {"sources": 2, "mi": workloads._mi_by_source_mask(pmf)}}
    values = _cli(["pid", "decompose", _ptable(tmp_path, pmf)])
    assert len(values) == 4
    checks.check_decompose(decompose_job, values)
    shifted = copy.deepcopy(values)
    shifted[0]["value"] += 1e-3
    _rejects("decompose", decompose_job, shifted)
    _rejects("decompose", decompose_job, values[1:])


def test_spinlab_checker(tmp_path):
    job = {"check": {"n": 4, "count": 2}}
    _cli(["spinlab", "--n", "4", "--count", "2", "--seed", "3", "--out", str(tmp_path / "out")])
    checks.check_spinlab(job, tmp_path / "out")
    _rejects("spinlab", dict(job, check={"n": 4, "count": 3}), tmp_path / "out")
    (tmp_path / "out" / "scores.csv").unlink()
    _rejects("spinlab", job, tmp_path / "out")


def test_judge_expectations():
    ok_job = {"kind": "classify", "expect": "ok", "check": {"class": "neither"}}
    assert runner.judge(ok_job, 0, lambda: "neither", "") is None
    assert "wrong output" in runner.judge(ok_job, 0, lambda: "symmetric", "")
    assert "exit 2" in runner.judge(ok_job, 2, lambda: None, "error: bad")
    bad_job = dict(ok_job, expect="error")
    assert runner.judge(bad_job, 2, lambda: None, "error: probabilities must be finite\n") is None
    assert runner.judge(bad_job, 0, lambda: "neither", "") is not None
    assert runner.judge(bad_job, 2, lambda: None, "Traceback (most recent call last):\nerror: x") is not None
    either = dict(ok_job, expect="ok_or_error")
    assert runner.judge(either, 0, lambda: "neither", "") is None
    assert runner.judge(either, 2, lambda: None, "error: too large\n") is None
    assert runner.judge(either, 1, lambda: None, "Traceback ...\nMemoryError") is not None


# -- reference values the checkers rely on ------------------------------------

def test_closed_forms_match_the_package():
    from entroconj.algebra import UBasisVector, from_u_basis
    from entroconj.metrics import METRIC_NAMES, metric_conjugation_class, metric_u_coefficients

    for n in range(2, 9):
        for metric in METRIC_NAMES:
            c = workloads.metric_coefficients(metric, n)
            assert c == list(metric_u_coefficients(metric, n).c)
            if n >= 3:  # at n = 2 oinfo is zero, which the package calls skew-symmetric
                assert workloads.u_class(c) == metric_conjugation_class(metric, n).value
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        c = workloads._random_c(rng, n, "neither")
        assert workloads._expansion(n, c) == dict(from_u_basis(UBasisVector(n, tuple(c))).terms)


def test_reference_lattice_counts():
    # Dedekind numbers D(n), OEIS A000372; the atoms drop the two constants
    assert [len(checks.monotone_tables(n)) for n in range(6)] == [2, 3, 6, 20, 168, 7581]
    assert [len(checks.atom_tables(n)) for n in (1, 2, 3)] == [1, 4, 18]


# -- inputs ------------------------------------------------------------------

def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_inputs_are_byte_identical_for_a_seed(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path / "a")
    second = workloads.generate(workload, 7, tmp_path / "b")
    assert _snapshot(tmp_path / "a") == _snapshot(tmp_path / "b")
    strip = lambda jobs: json.dumps(jobs).replace(str(tmp_path / "a"), "").replace(str(tmp_path / "b"), "")  # noqa: E731
    assert strip(first) == strip(second)
    workloads.generate(workload, 8, tmp_path / "c")
    if workload != "lattice" or any(p.suffix == ".csv" for p in (tmp_path / "c").iterdir()):
        assert _snapshot(tmp_path / "a") != _snapshot(tmp_path / "c")
    info = workloads.describe(workload, first)
    assert info["jobs_per_pass"] == len(first) and info["why"] == workloads.WHY[workload]


def test_malformed_shares():
    assert workloads.describe("samples", [{"kind": "k", "expect": e, "input": {"n": 5}}
                                          for e in ["ok"] * 19 + ["ok_or_error"]])["malformed_share"] == 0.05


# -- cache scan, traced run and benchmark contract -----------------------------

def test_cache_scan_finds_the_package_caches():
    import entroconj.cli  # noqa: F401

    assert set(runner.find_caches()) == {
        "entroconj.algebra.u_expression",
        "entroconj.algebra.r_expression",
        "entroconj.pid.enumerate_atoms",
    }


def test_self_times_partition_the_root():
    tracer = Tracer()
    for _ in range(2):
        root = tracer.open(ROOT_SPAN)
        outer = tracer.open("algebra.from_u_basis")
        inner = tracer.open("algebra.u_expression")
        tracer.close(inner)
        tracer.close(outer)
        tracer.close(root)
    summary = tracer.summary([1e3, 2e3])
    selfs = sum(v for k, v in summary.items() if k.endswith(".self_ms"))
    assert selfs == pytest.approx(summary["trace.job_ms"])
    assert summary["algebra.u_expression.calls"] == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["setup_s", "job_p50_ms", "job_p90_ms", "jobs_per_s", "peak_rss_mb", "success_rate"]
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_traced_run_covers_every_layer_metric(tmp_path):
    """One small job of every kind through the runner process, traced."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    pmf = np.random.default_rng(2).dirichlet(np.ones(8)).reshape((2,) * 3)
    samples = inputs / "s.csv"
    samples.write_text("x1,x2,x3\n0,1,1\n1,0,1\n1,1,0\n0,0,0\n")
    expr = inputs / "e.json"
    expr.write_text(workloads._expression_json(4, workloads._expansion(4, [Fraction(1)] * 3)))
    tc, dtc = workloads._tc_dtc(pmf)
    jobs = [
        {"kind": "metrics", "cli": ["metrics", _ptable(inputs, pmf)], "expect": "ok",
         "check": {"n": 3, "tc": tc, "dtc": dtc}},
        {"kind": "metrics", "cli": ["metrics", str(samples)], "expect": "ok",
         "check": dict(zip(("n", "tc", "dtc"), (3, *workloads._tc_dtc(
             np.array([[[0.25, 0], [0, 0.25]], [[0, 0.25], [0.25, 0]]])))))},
        {"kind": "spinlab", "cli": ["spinlab", "--n", "3", "--count", "1"], "expect": "ok",
         "check": {"n": 3, "count": 1}},
        {"kind": "basis", "cli": ["basis", str(expr)], "expect": "ok", "check": {"c": ["1"] * 3}},
        {"kind": "conjugate", "cli": ["conjugate", str(expr)], "expect": "ok",
         "check": {"n": 4, "terms": {str(m): str(c) for m, c in checks.conjugate_terms(
             4, workloads._expansion(4, [Fraction(1)] * 3)).items()}}},
        {"kind": "sym_skew", "call": "sym_skew", "args": {"n": 3, "c": ["1", "2"]}, "expect": "ok",
         "check": {"n": 3, "terms": {str(m): str(v) for m, v in workloads._expansion(
             3, [Fraction(1), Fraction(2)]).items()}}},
        {"kind": "verify_pair", "cli": ["pid", "verify-theorem1", "--n", "3", "--a", "[1]", "--b", "[]"],
         "expect": "ok", "check": {"n": 3, "a": [1], "b": []}},
        {"kind": "dual", "cli": ["pid", "dual", "--n", "2", "--antichain", "[[1]]"], "expect": "ok",
         "check": {"n": 2, "antichain": [[1]]}},
        {"kind": "decompose", "cli": ["pid", "decompose", str(inputs / "p.csv")], "expect": "ok",
         "check": {"sources": 2, "mi": workloads._mi_by_source_mask(pmf)}},
    ]
    (tmp_path / "jobs.json").write_text(json.dumps({"workload": "test", "jobs": jobs, "spans_dir": str(tmp_path)}))
    subprocess.run([sys.executable, "-m", "perfbench.runner", str(tmp_path), "0.01", "1"],
                   cwd=ROOT, env=run._env(), check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert [r["problem"] for r in result["records"] + result["traced"]] == [None] * (2 * len(jobs))
    layers = result["layers"]
    selfs = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    assert selfs == pytest.approx(layers["trace.job_ms"], rel=1e-9)
    assert "cli.enumerate_atoms" not in result["spans_installed"]  # aliases reuse the defining module's name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    computed_by_run = {"calib.slice_ms", "raw.job_p50_ms", "trace.overhead_pct"}
    computed_by_run.add("python.gc_collections")  # absent when no collection fell inside a job
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers and m["name"] not in computed_by_run]
    assert missing == []
    assert layers["pid.atoms_constructed"] > 0 and layers["spins.bytes_written"] > 0
    assert (tmp_path / "spans-test.jsonl.gz").is_file()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "numeric", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
