"""Check that the committed mutants are killed by the tests named for them.

Each entry of ``tests/mutants.json`` names a file under ``src/``, an exact
``old`` text that occurs once in it, the ``new`` text that replaces it, and
the tests that must fail once it is replaced.  For every entry this copies
``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` into a temporary
directory, applies the replacement there, and runs only the named tests in a
fresh pytest process.  The checkout itself is never modified.

    python tests/mutants.py            # every mutant
    python tests/mutants.py ID [ID..]  # only these

Before the mutants, the named tests run once on the unmodified copy and must
pass.  Exit status: 0 when every mutant is killed, 1 when one survives or
the unmodified copy fails, 2 on a bad entry or a pytest run that did not
test (no test collected, usage error).  Needs only the standard library and
the test suite's own dependencies; pytest is not meant to collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tests" / "mutants.json"
COPIED = ("src", "tests", "pyproject.toml", "README.md")


def load() -> list[dict]:
    return json.loads(MUTANTS.read_text(encoding="utf-8"))


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _pytest(tree: Path, tests: list[str]) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def _last_line(output: str) -> str:
    lines = [line for line in output.splitlines() if line.strip()]
    return lines[-1] if lines else "(no output)"


def main(argv: list[str]) -> int:
    mutants = load()
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
            return 2
        mutants = [m for m in mutants if m["id"] in argv]
    for m in mutants:
        count = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"])
        if count != 1:
            print(f"{m['id']}: old text occurs {count} times in {m['file']}", file=sys.stderr)
            return 2

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="entroconj-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        _copy_tree(tree)
        union = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
        code, output = _pytest(tree, union)
        if code != 0:
            print(f"the named tests fail on the unmodified copy (pytest exit {code}):\n{output}")
            return 1
        print(f"baseline: {len(union)} named tests pass ({time.perf_counter() - started:.1f} s)")

        survived, broken = [], []
        for m in mutants:
            t0 = time.perf_counter()
            target = tree / m["file"]
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m["old"], m["new"], 1), encoding="utf-8")
            try:
                code, output = _pytest(tree, m["tests"])
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:>8}  {m['id']}  ({time.perf_counter() - t0:.1f} s)  {_last_line(output)}")
            if code == 0:
                survived.append(m["id"])
            elif code != 1:
                broken.append(m["id"])

    total = time.perf_counter() - started
    print(f"{len(mutants) - len(survived) - len(broken)}/{len(mutants)} mutants killed in {total:.1f} s")
    if broken:
        print(f"runs that did not test: {broken}")
        return 2
    if survived:
        print(f"survivors: {survived}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
