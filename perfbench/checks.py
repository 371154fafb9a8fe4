"""Output checks, one per job kind, run outside the timed interval.

Each checker takes the job record and its output (parsed stdout JSON for a
CLI job, the return value for a library call) and raises ``CheckError`` with
a reason when the output is wrong.  The expected values come from the job
record, which the generator computed with its own numpy code and closed
forms, and from the reference lattice below; the checkers call nothing in
the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .workloads import metric_coefficients

NUMERIC_TOL = 1e-7
METRICS = ("tc", "dtc", "tse", "ii", "oinfo", "sinfo")


class CheckError(AssertionError):
    """An output failed its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= NUMERIC_TOL * max(1.0, abs(a), abs(b))


# -- metrics ---------------------------------------------------------------

def check_metrics(job: dict, report: dict) -> None:
    n = job["check"]["n"]
    _require(report.get("n") == n, f"n is {report.get('n')!r}, expected {n}")
    u = report.get("u")
    _require(isinstance(u, list) and len(u) == n - 1, "u profile missing or of wrong length")
    values = {m: report.get(m) for m in METRICS}
    for name, value in list(values.items()) + [(f"u{k + 1}", x) for k, x in enumerate(u)]:
        _require(isinstance(value, (int, float)) and math.isfinite(value), f"{name} = {value!r} is not finite")
    _require(min(u) >= -1e-9, f"negative u_k: {min(u)!r}")
    _require(_close(values["sinfo"], values["tc"] + values["dtc"]), "sinfo != tc + dtc")
    _require(_close(values["oinfo"], values["tc"] - values["dtc"]), "oinfo != tc - dtc")
    for name, value in values.items():
        expected = sum(float(c) * x for c, x in zip(metric_coefficients(name, n), u))
        _require(_close(value, expected), f"{name} = {value!r} but sum c_k u_k = {expected!r}")
    for name in ("tc", "dtc"):
        _require(_close(values[name], job["check"][name]),
                 f"{name} = {values[name]!r}, expected {job['check'][name]!r}")


def check_spinlab(job: dict, out_dir: Path) -> None:
    names = ("u_profiles.csv", "loadings.csv", "scores.csv", "manifest.json")
    for name in names:
        _require((out_dir / name).is_file(), f"{name} was not written")
    n, count = job["check"]["n"], job["check"]["count"]
    lines = (out_dir / "u_profiles.csv").read_text(encoding="utf-8").splitlines()
    _require(len(lines) == 1 + 3 * count, f"u_profiles.csv has {len(lines) - 1} rows, expected {3 * count}")
    for line in lines[1:]:
        cells = line.split(",")
        _require(len(cells) == 2 + n - 1, f"u_profiles.csv row has {len(cells)} fields")
        _require(all(math.isfinite(float(x)) for x in cells[2:]), "non-finite u value")
    for name in ("loadings.csv", "scores.csv"):
        for line in (out_dir / name).read_text(encoding="utf-8").splitlines()[1:]:
            _require(all(math.isfinite(float(x)) for x in line.split(",")[-2:]), f"non-finite value in {name}")


# -- symbolic --------------------------------------------------------------

def _terms(obj: dict) -> tuple[int, dict[int, Fraction]]:
    n = obj["n"]
    terms = {}
    for entry in obj["terms"]:
        mask = sum(1 << (i - 1) for i in entry["subset"])
        terms[mask] = Fraction(entry["coeff"])
    return n, terms


def conjugate_terms(n: int, terms: dict[int, Fraction]) -> dict[int, Fraction]:
    """H(a) -> H(complement of a) - H(all), extended linearly; zeros dropped."""
    full = (1 << n) - 1
    out: dict[int, Fraction] = {}
    for mask, c in terms.items():
        for target, delta in ((full ^ mask, c), (full, -c)):
            out[target] = out.get(target, Fraction(0)) + delta
    return {m: c for m, c in out.items() if m and c}


def _expected_terms(job: dict) -> dict[int, Fraction]:
    return {int(m): Fraction(c) for m, c in job["check"]["terms"].items()}


def check_basis(job: dict, out: dict) -> None:
    got = [Fraction(x) for x in out["c"]]
    expected = [Fraction(x) for x in job["check"]["c"]]
    _require(got == expected, f"u-basis coordinates {out['c']} differ from {job['check']['c']}")


def check_classify(job: dict, out) -> None:
    _require(out == job["check"]["class"], f"class {out!r}, expected {job['check']['class']!r}")


def check_conjugate(job: dict, out: dict) -> None:
    n, terms = _terms(out)
    _require(n == job["check"]["n"], f"n is {n}, expected {job['check']['n']}")
    _require(conjugate_terms(n, terms) == _expected_terms(job), "conjugating the output does not give the input back")


def check_sym_skew(job: dict, out: tuple) -> None:
    e, s, t = (dict(x.terms) for x in out)
    n = job["check"]["n"]
    _require(e == _expected_terms(job), "from_u_basis(c) differs from the closed-form expansion")
    total = {m: s.get(m, 0) + t.get(m, 0) for m in set(s) | set(t)}
    _require({m: c for m, c in total.items() if c} == e, "s + t != e")
    _require(conjugate_terms(n, s) == s, "conjugate(s) != s")
    _require(conjugate_terms(n, t) == {m: -c for m, c in t.items()}, "conjugate(t) != -t")


def check_to_u_basis(job: dict, out) -> None:
    check_basis(job, {"c": [str(x) for x in out.c]})


# -- lattice ---------------------------------------------------------------

@lru_cache(maxsize=None)
def monotone_tables(n: int) -> frozenset[int]:
    """Truth tables of every monotone Boolean function of n inputs, constants included.

    Shannon expansion on the top input: f = (f0, f1) with f0 <= f1 pointwise,
    f0 filling the low half of the table.
    """
    if n == 0:
        return frozenset({0, 1})
    half = 1 << (n - 1)
    lower = sorted(monotone_tables(n - 1))
    return frozenset(f0 | (f1 << half) for f0 in lower for f1 in lower if f0 & ~f1 == 0)


@lru_cache(maxsize=None)
def atom_tables(n: int) -> frozenset[int]:
    """Nonconstant monotone truth tables: the lattice atoms."""
    return monotone_tables(n) - {0, (1 << (1 << n)) - 1}


def _table_bits(table: str) -> int:
    _require(set(table) <= {"0", "1"}, f"truth table {table!r} is not a 0/1 string")
    return sum(1 << m for m, ch in enumerate(table) if ch == "1")


def _atom_bits(n: int, atom: dict) -> int:
    table = atom["table"]
    _require(len(table) == 1 << n, f"truth table of length {len(table)} for n = {n}")
    bits = _table_bits(table)
    _require(bits in atom_tables(n), f"{table} is not a nonconstant monotone function")
    minimal = sorted(sum(1 << (i - 1) for i in member) for member in atom["antichain"])
    _require(_antichain_bits(n, minimal) == bits, f"antichain {atom['antichain']} disagrees with {table}")
    return bits


def _antichain_bits(n: int, masks) -> int:
    return sum(1 << m for m in range(1 << n) if any(a & m == a for a in masks))


def _mask(members) -> int:
    return sum(1 << (i - 1) for i in members)


def cmi_tables(n: int, a, b) -> frozenset[int]:
    ab, mb = _mask(a) | _mask(b), _mask(b)
    return frozenset(f for f in atom_tables(n) if (f >> ab) & 1 and not (f >> mb) & 1)


def check_atom_list(job: dict, atoms: list, expected: frozenset[int]) -> None:
    n = job["check"]["n"]
    got = [_atom_bits(n, atom) for atom in atoms]
    _require(len(got) == len(set(got)), "an atom is listed twice")
    _require(set(got) == expected, f"{len(got)} atoms listed, expected {len(expected)}")


def check_list_atoms(job: dict, atoms: list) -> None:
    check_atom_list(job, atoms, atom_tables(job["check"]["n"]))


def check_cmi_set(job: dict, atoms: list) -> None:
    c = job["check"]
    check_atom_list(job, atoms, cmi_tables(c["n"], c["a"], c["b"]))


def check_dual(job: dict, atom: dict) -> None:
    n = job["check"]["n"]
    size, full = 1 << n, (1 << n) - 1
    f = _antichain_bits(n, [_mask(m) for m in job["check"]["antichain"]])
    expected = sum(1 << m for m in range(size) if not (f >> (full ^ m)) & 1)
    _require(_atom_bits(n, atom) == expected, f"dual table {atom['table']} is wrong")


def check_verify_sweep(job: dict, out: dict) -> None:
    n = job["check"]["n"]
    _require(out.get("pairs_checked") == 3**n - 2**n,
             f"pairs_checked = {out.get('pairs_checked')!r}, expected {3**n - 2**n}")
    _require(out.get("all_hold") is True, "Theorem 1 reported not to hold")


def check_verify_pair(job: dict, out: dict) -> None:
    c = job["check"]
    _require(out.get("holds") is True, "Theorem 1 reported not to hold")
    _require([out.get("n"), out.get("a"), out.get("b")] == [c["n"], c["a"], c["b"]], "echoed pair differs")


def check_decompose(job: dict, atoms: list) -> None:
    sources = job["check"]["sources"]
    bits = [_atom_bits(sources, atom) for atom in atoms]
    _require(sorted(bits) == sorted(atom_tables(sources)),
             f"{len(atoms)} atoms, expected each of the {len(atom_tables(sources))} once")
    values = [atom.get("value") for atom in atoms]
    _require(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), "non-finite atom value")
    for mask_text, mi in job["check"]["mi"].items():
        mask = int(mask_text)
        total = sum(v for f, v in zip(bits, values) if (f >> mask) & 1)
        _require(_close(total, mi), f"atoms accessible from {mask:b} add to {total!r}, I = {mi!r}")


CHECKERS = {
    "metrics": check_metrics,
    "spinlab": check_spinlab,
    "basis": check_basis,
    "classify": check_classify,
    "conjugate": check_conjugate,
    "sym_skew": check_sym_skew,
    "to_u_basis": check_to_u_basis,
    "list_atoms": check_list_atoms,
    "cmi_set": check_cmi_set,
    "dual": check_dual,
    "verify_sweep": check_verify_sweep,
    "verify_pair": check_verify_pair,
    "decompose": check_decompose,
}
