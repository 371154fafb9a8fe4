"""Tests of the package surface: its public names and what importing it costs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import entroconj
from entroconj import algebra, distributions, metrics, pid, spins

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


def test_cli_import_loads_no_scipy():
    src = str(Path(entroconj.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, entroconj.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert proc.stdout.strip() == "[]"


def test_every_click_echo_names_its_stream():
    # without file=, click keeps each redirected sys.stdout/sys.stderr alive
    # for the life of the process (see cli._fail)
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
