"""Tests of the package surface: its public names and what importing it costs."""

import ast
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import entroconj
from entroconj import algebra, distributions, expression_to_json, metric_expression, metrics, pid, spins

MODULES = (algebra, distributions, metrics, pid, spins)


def test_every_public_name_resolves():
    for name in entroconj.__all__:
        assert hasattr(entroconj, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(entroconj, name) is getattr(module, name), name


def test_package_all_is_the_union_of_the_module_alls():
    union = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert len(entroconj.__all__) == len(set(entroconj.__all__))
    assert set(entroconj.__all__) == union


def _fresh(code: str, *args: str) -> str:
    """The last line ``code`` prints in a fresh interpreter that finds this package."""
    src = str(Path(entroconj.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    code = "import sys, entroconj.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh(code) == "[]"


# runs each command in process and reports, after each, whether numpy is loaded
_COMMANDS_THEN_NUMPY = """
import contextlib, io, json, sys
import entroconj.cli
loaded = {"import entroconj.cli": "numpy" in sys.modules}
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            entroconj.cli.main(args)
        except SystemExit as exc:
            assert exc.code == 0, (args, exc.code)
    assert out.getvalue(), args
    loaded[" ".join(args)] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_symbolic_commands_load_no_numpy(tmp_path):
    expr = tmp_path / "sinfo.json"
    expr.write_text(json.dumps(expression_to_json(metric_expression("sinfo", 4))), encoding="utf-8")
    commands = [[name, str(expr)] for name in ("basis", "classify", "conjugate")] + [["--help"], ["--version"]]
    loaded = json.loads(_fresh(_COMMANDS_THEN_NUMPY, json.dumps(commands)))
    assert loaded == {"import entroconj.cli": False, **{" ".join(args): False for args in commands}}
    # the check sees numpy when a command loads it
    dist = tmp_path / "pair.csv"
    dist.write_text("x1,x2,p\n0,0,0.5\n1,1,0.5\n", encoding="utf-8")
    loaded = json.loads(_fresh(_COMMANDS_THEN_NUMPY, json.dumps([["metrics", str(dist)]])))
    assert loaded == {"import entroconj.cli": False, f"metrics {dist}": True}


# after one numeric call, every name in the package that held the stand-in is numpy
_NUMPY_BOUND_AFTER = """
import sys
import entroconj.cli
from entroconj import JointDistribution, enumerate_atoms
{call}
numpy = sys.modules["numpy"]
modules = {{name: vars(m) for name, m in sys.modules.items() if name.split(".")[0] == "entroconj"}}
stand_ins = [f"{{m}}.{{a}}" for m, scope in modules.items() for a, v in scope.items()
             if type(v).__name__ == "_NumpyOnFirstUse"]
print(sorted(m for m, scope in modules.items() if scope.get("np") is numpy), stand_ins)
"""


@pytest.mark.parametrize("call", [
    "JointDistribution([0.5, 0.5]).u_values()",
    "enumerate_atoms(2)",
    "entroconj.cli.main(['pid', 'list-atoms', '--n', '2'], standalone_mode=False)",
], ids=["distribution", "atoms", "cli-pid"])
def test_the_first_numeric_call_binds_numpy_in_every_module(call):
    bound = "['entroconj.cli', 'entroconj.distributions', 'entroconj.pid', 'entroconj.spins'] []"
    assert _fresh(_NUMPY_BOUND_AFTER.format(call=call)) == bound


_THREADS_FIRST_CALL = """
import sys, threading
import entroconj
sys.setswitchinterval(1e-6)  # switch threads often, inside the import too
errors, start = [], threading.Barrier(8)

def first_call():
    start.wait()
    try:
        entroconj.JointDistribution([0.25, 0.25, 0.25, 0.25]).u_values()
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_call) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(errors, sum(t.is_alive() for t in threads))
"""


def test_eight_threads_make_the_first_numeric_call_at_once():
    # a thread that reads np while another imports numpy waits for the whole module
    assert _fresh(_THREADS_FIRST_CALL) == "[] 0"


def test_every_click_echo_names_its_stream():
    # without file=, click keeps each redirected sys.stdout/sys.stderr alive
    # for the life of the process (see cli._echo)
    package = Path(entroconj.__file__).resolve().parent
    unnamed = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "echo"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "click"
                and not any(kw.arg == "file" for kw in node.keywords)
            ):
                unnamed.append(f"{path.name}:{node.lineno}")
    assert unnamed == []


def test_every_cli_json_parse_goes_through_the_depth_guard():
    # a bare json.loads ends in a RecursionError traceback on deeply nested input
    tree = ast.parse((Path(entroconj.__file__).resolve().parent / "cli.py").read_text(encoding="utf-8"))
    (helper,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_load_json"]
    guarded = set(map(id, ast.walk(helper)))
    bare = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            bare.append(node.lineno)  # `from json import loads` would hide the call
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "loads"
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
            and id(node) not in guarded
        ):
            bare.append(node.lineno)
    assert bare == []


def test_only_refusing_exits_or_writes_to_stderr():
    # one exit path: every refusal is one `error:` line and an exit code, from _refusing
    tree = ast.parse((Path(entroconj.__file__).resolve().parent / "cli.py").read_text(encoding="utf-8"))
    (helper,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_refusing"]
    inside = set(map(id, ast.walk(helper)))
    found, outside = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("exit", "stderr"):
            name = ast.unparse(node)  # sys.exit, sys.stderr, ctx.exit ...
        elif isinstance(node, ast.keyword) and node.arg == "err":
            name = "err="  # click.echo(..., err=True)
        elif isinstance(node, ast.Name) and node.id == "SystemExit":
            name = node.id
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            name = "from sys import"  # would hide the attribute
        else:
            continue
        (found if id(node) in inside else outside).append(f"{name}:{node.lineno}")
    assert outside == []
    assert sorted(name.split(":")[0] for name in found) == ["sys.exit", "sys.stderr"]


def _leading_literal(comment: str):
    """The Python literal a result comment starts with: ``(4, 3), exact`` -> (4, 3)."""
    words = comment.split(" ")
    for end in range(1, len(words) + 1):
        try:
            return ast.literal_eval(" ".join(words[:end]).rstrip(","))
        except (ValueError, SyntaxError):
            continue
    raise AssertionError(f"no literal at the start of {comment!r}")


def test_readme_quick_start_gives_its_commented_results():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        comment = lines[statement.end_lineno - 1][statement.end_col_offset :].strip()
        if not comment:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(statement, ast.Expr) and comment.startswith("#"), comment
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        assert value == _leading_literal(comment[1:].strip()), (ast.unparse(statement), value)
        checked += 1
    assert checked == block.count("#") > 0


def test_the_version_is_written_once():
    # pyproject takes the version from the package, so the two cannot disagree
    root = Path(__file__).resolve().parents[1]
    config = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "entroconj.__version__"}
    # setuptools reads a literal assignment without importing the package,
    # whose dependencies a build environment need not have
    init = ast.parse(Path(entroconj.__file__).read_text(encoding="utf-8"))
    literals = [
        node.value.value
        for node in init.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["__version__"]
        and isinstance(node.value, ast.Constant)
    ]
    assert literals == [entroconj.__version__]
