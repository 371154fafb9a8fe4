"""The console script, run as a process the way an installed package runs it.

A shim for the ``[project.scripts]`` entry point of ``pyproject.toml`` is
written to a temporary ``bin`` directory and found on ``PATH``; the package
comes from ``src`` through ``PYTHONPATH``.  Each check runs from its own
temporary directory and writes its inputs there.
"""

import json
import os
import subprocess
import sys
import tomllib
from fractions import Fraction as F
from pathlib import Path

import pytest

import entroconj
from entroconj import (
    UBasisVector,
    conjugate,
    expression_from_json,
    expression_to_json,
    from_u_basis,
    metric_expression,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def script_env(tmp_path_factory):
    """Environment whose ``PATH`` finds a shim for each console script."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    bin_dir = tmp_path_factory.mktemp("bin")
    for name, target in scripts.items():
        module, _, func = target.partition(":")
        shim = bin_dir / name
        shim.write_text(
            f"#!{sys.executable}\nimport sys\nfrom {module} import {func}\nsys.exit({func}())\n",
            encoding="utf-8",
        )
        shim.chmod(0o755)
    return {
        **os.environ,
        "PATH": os.pathsep.join(filter(None, (str(bin_dir), os.environ.get("PATH")))),
        "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))),
    }


@pytest.fixture
def entroconj_cmd(script_env, tmp_path):
    """``entroconj ARGS`` run in ``tmp_path``; returns the finished process."""
    def run(*args, text=True):
        return subprocess.run(
            ["entroconj", *args], cwd=tmp_path, env=script_env,
            capture_output=True, text=text, timeout=120,
        )
    return run


def _stdout(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_version_is_the_package_version(entroconj_cmd):
    got = _stdout(entroconj_cmd("--version")).rstrip("\n")
    expected = f"entroconj, version {entroconj.__version__}"
    assert got == expected, f"entroconj --version printed {got!r}, expected {expected!r}"


def test_list_atoms_prints_four_atoms_at_two_sources(entroconj_cmd):
    n = len(json.loads(_stdout(entroconj_cmd("pid", "list-atoms", "--n", "2"))))
    assert n == 4, f"pid list-atoms --n 2 printed {n} atoms, expected 4"


def test_dual_prints_the_whole_table_at_ten_sources(entroconj_cmd):
    out = _stdout(entroconj_cmd("pid", "dual", "--n", "10", "--antichain", "[[1,2],[3]]"))
    w = len(json.loads(out)["table"])
    assert w == 1024, f"pid dual --n 10 printed a {w}-character table, expected 1024"


def test_conjugating_twice_prints_the_input_back(entroconj_cmd, tmp_path):
    a = {"n": 3, "terms": [{"subset": [1], "coeff": "1/2"}, {"subset": [2, 3], "coeff": "-2"}]}
    (tmp_path / "expr.json").write_text(json.dumps(a))
    (tmp_path / "conj.json").write_text(_stdout(entroconj_cmd("conjugate", "expr.json")))
    b = json.loads(_stdout(entroconj_cmd("conjugate", "conj.json")))
    assert a == b, f"two conjugate runs printed {b}, expected {a}"


def test_conjugate_prints_the_bytes_of_the_indented_json(entroconj_cmd, tmp_path):
    # conjugate writes its JSON directly: the bytes must be those of json.dumps(..., indent=2)
    u6 = json.dumps(expression_to_json(from_u_basis(UBasisVector(6, (F(1, 2), F(-3), F(2, 7), F(5), F(-1, 9))))))
    (tmp_path / "u6.json").write_text(u6)
    got = _stdout(entroconj_cmd("conjugate", "u6.json", text=False))
    want = json.dumps(expression_to_json(conjugate(expression_from_json(json.loads(u6)))), indent=2) + "\n"
    assert got == want.encode(), (
        "entroconj conjugate on u6.json printed other bytes than json.dumps(..., indent=2) of the conjugate"
    )


def test_classify_calls_s_information_symmetric(entroconj_cmd, tmp_path):
    (tmp_path / "sinfo.json").write_text(json.dumps(expression_to_json(metric_expression("sinfo", 5))))
    got = _stdout(entroconj_cmd("classify", "sinfo.json")).rstrip("\n")
    assert got == '"symmetric"', f"entroconj classify printed {got!r} for sinfo, expected \"symmetric\""


def test_metrics_of_the_xor_p_table(entroconj_cmd, tmp_path):
    # the XOR triple: pure synergy, O-information -1 bit and S-information 3 bits
    (tmp_path / "xor.csv").write_text("x1,x2,x3,p\n0,0,0,0.25\n0,1,1,0.25\n1,0,1,0.25\n1,1,0,0.25\n")
    r = json.loads(_stdout(entroconj_cmd("metrics", "xor.csv")))
    assert abs(r["oinfo"] + 1) <= 1e-9 and abs(r["sinfo"] - 3) <= 1e-9, (
        f"entroconj metrics printed {r} for XOR, expected oinfo -1 and sinfo 3"
    )


def test_metrics_of_the_xor_samples(entroconj_cmd, tmp_path):
    # the same triple as raw samples, one row per observation
    (tmp_path / "xor_samples.csv").write_text("x1,x2,x3\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
    r = json.loads(_stdout(entroconj_cmd("metrics", "xor_samples.csv")))
    assert abs(r["oinfo"] + 1) <= 1e-9, f"entroconj metrics printed {r} for XOR samples, expected oinfo -1"


def test_a_repeated_state_is_a_worded_refusal(entroconj_cmd, tmp_path):
    # a state repeated on line 3: exit 2, the refusal worded, no traceback
    (tmp_path / "repeated.csv").write_text("x1,x2,p\n0,1,0.5\n0,1,0.5\n")
    proc = entroconj_cmd("metrics", "repeated.csv")
    assert proc.returncode == 2, (
        f"entroconj metrics exited {proc.returncode} on a repeated state, expected 2\n{proc.stderr}"
    )
    assert any(line.startswith("error: line 3: duplicate state") for line in proc.stderr.splitlines()), (
        f"no 'error: line 3: duplicate state' line on stderr:\n{proc.stderr}"
    )
    assert "Traceback" not in proc.stderr, f"a traceback on a repeated state:\n{proc.stderr}"
