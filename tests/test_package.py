"""Tests of the package surface: its public names and what importing it costs."""

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
