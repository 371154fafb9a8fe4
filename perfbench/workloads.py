"""Seeded inputs and job lists for the four workloads.

``generate(workload, seed, out_dir)`` writes every input file under
``out_dir`` and returns the job list with what each job is expected to do.
The structure of a job list (kinds, sizes, alphabets, row counts, where the
malformed inputs sit) is fixed; the seed only draws the contents, so runs on
different seeds measure the same mix of work.

A job is a dict:

* ``kind``: what it runs; ``cli`` (argument list for the ``entroconj``
  command) or ``call`` (name of a library call in :mod:`perfbench.runner`)
  with ``args``;
* ``expect``: ``ok`` (exit 0, output passes its check), ``error`` (exit 2
  with an ``error:`` line and no traceback) or ``ok_or_error`` (either);
* ``check``: the data its checker compares against, computed here without
  the package's own evaluation code.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

WHY = {
    "numeric": "metrics on Boltzmann p-tables (n 9-12) plus small spinlab runs: time goes to the dense marginal table and u_k profile",
    "samples": "metrics on raw-observation CSVs (2k-20k rows, n 5-8): time goes to CSV parse, counting and the dense fill",
    "symbolic": "basis, classify and conjugate on expression JSON plus sym/skew and u-basis calls: exact Fraction algebra only",
    "lattice": "pid jobs (Theorem-1 checks, cmi-set, dual, decompose): the only workload that runs the atom lattice",
}


def _rng(seed: int, workload: str, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2**63 - 1), sorted(WHY).index(workload), slot])


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _tc_dtc(pmf: np.ndarray) -> tuple[float, float]:
    """Total and dual total correlation of a dense pmf, in bits."""
    n = pmf.ndim
    h_all = _entropy_bits(pmf.ravel())
    h_single = [
        _entropy_bits(pmf.sum(axis=tuple(j for j in range(n) if j != i)).ravel())
        for i in range(n)
    ]
    h_rest = [_entropy_bits(pmf.sum(axis=i).ravel()) for i in range(n)]
    return sum(h_single) - h_all, sum(h_rest) - (n - 1) * h_all


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8", newline="\n")
    return str(path)


def _ptable_csv(pmf: np.ndarray, nan_row: int | None = None) -> str:
    n = pmf.ndim
    lines = [",".join([f"x{i + 1}" for i in range(n)] + ["p"])]
    for row, idx in enumerate(np.ndindex(pmf.shape)):
        p = "nan" if row == nan_row else repr(float(pmf[idx]))
        lines.append(",".join(map(str, idx)) + "," + p)
    return "\n".join(lines) + "\n"


# -- numeric ---------------------------------------------------------------

# (n, number of p-tables), sized so that the median falls among the n = 10
# tables and the 90th percentile in the middle of the n = 11 ones; the nan
# table is one of the n = 10 ones.
NUMERIC_TABLES = ((9, 6), (10, 15), (11, 4), (12, 1))
NUMERIC_SPINLAB = ((4, 2), (5, 2), (6, 3), (6, 3))  # (n, systems per condition)


def _numeric(seed: int, out: Path) -> list[dict]:
    from entroconj.spins import CONDITIONS, SpinEnsembleConfig, boltzmann_distribution, sample_couplings

    jobs = []
    pick = _rng(seed, "numeric", 0)
    nan_slot = int(pick.integers(NUMERIC_TABLES[0][1], NUMERIC_TABLES[0][1] + NUMERIC_TABLES[1][1]))
    slot = 0
    for n, count in NUMERIC_TABLES:
        for _ in range(count):
            rng = _rng(seed, "numeric", 1 + slot)
            config = SpinEnsembleConfig(n=n, seed=int(rng.integers(2**31)))
            couplings = sample_couplings(config, CONDITIONS[slot % 3], slot)
            pmf = boltzmann_distribution(couplings, float(rng.uniform(0.5, 1.5))).pmf
            malformed = slot == nan_slot
            nan_row = int(rng.integers(pmf.size)) if malformed else None
            path = _write(out / f"ptable{slot:02d}.csv", _ptable_csv(pmf, nan_row))
            tc, dtc = _tc_dtc(pmf)
            jobs.append({
                "kind": "metrics",
                "cli": ["metrics", path],
                "expect": "error" if malformed else "ok",
                "check": {"n": n, "tc": tc, "dtc": dtc},
                "input": {"n": n, "rows": pmf.size, "alphabet": 2},
            })
            slot += 1
    for i, (n, count) in enumerate(NUMERIC_SPINLAB):
        spin_seed = int(_rng(seed, "numeric", 100 + i).integers(2**31))
        jobs.append({
            "kind": "spinlab",
            "cli": ["spinlab", "--n", str(n), "--count", str(count), "--seed", str(spin_seed)],
            "expect": "ok",
            "check": {"n": n, "count": count},
            "input": {"n": n, "rows": 3 * count, "alphabet": 2},
        })
    return jobs


# -- samples ---------------------------------------------------------------

# (n, alphabet, rows), sized so that the median falls among the 10k-row n = 6
# inputs and the 90th percentile among the 20k-row n = 7 ones; the last slot
# uses sparse codes.
SAMPLE_SLOTS = (
    (5, 2, 2000), (7, 4, 2000), (8, 2, 2000), (8, 3, 2000),
    (6, 2, 10000), (6, 3, 10000), (6, 4, 10000), (6, 2, 10000), (6, 3, 10000),
    (6, 4, 10000), (6, 2, 10000), (6, 3, 10000), (6, 4, 10000),
    (7, 2, 20000), (7, 3, 20000), (7, 3, 20000), (7, 2, 20000), (7, 3, 20000),
    (8, 4, 20000), (6, 3, 2000),
)
SPARSE_CODES = (0, 65537, 99991)  # two such columns: a dense table of >= 1 TiB


def _planted_samples(rng: np.random.Generator, n: int, k: int, rows: int) -> np.ndarray:
    """Uniform base columns plus sum (k = 3) or XOR columns, with 15 % noise."""
    base = (n + 1) // 2
    data = np.empty((rows, n), dtype=np.int64)
    data[:, :base] = rng.integers(0, k, size=(rows, base))
    for j in range(base, n):
        a, b = rng.choice(j, size=2, replace=False)
        data[:, j] = (data[:, a] + data[:, b]) % k if k == 3 else data[:, a] ^ data[:, b]
        noisy = rng.random(rows) < 0.15
        data[noisy, j] = rng.integers(0, k, size=int(noisy.sum()))
    return data


def _samples(seed: int, out: Path) -> list[dict]:
    jobs = []
    for slot, (n, k, rows) in enumerate(SAMPLE_SLOTS):
        rng = _rng(seed, "samples", slot)
        data = _planted_samples(rng, n, k, rows)
        pmf = np.zeros((k,) * n)
        np.add.at(pmf, tuple(data.T), 1.0)
        tc, dtc = _tc_dtc(pmf / rows)
        sparse = slot == len(SAMPLE_SLOTS) - 1
        if sparse:
            codes = np.array(SPARSE_CODES)
            data[:, :2] = codes[data[:, :2]]
        header = ",".join(f"x{i + 1}" for i in range(n))
        body = "\n".join(",".join(map(str, row)) for row in data.tolist())
        path = _write(out / f"samples{slot:02d}.csv", header + "\n" + body + "\n")
        jobs.append({
            "kind": "metrics",
            "cli": ["metrics", path],
            # entropy does not depend on labels, so a correct report is as good as a refusal
            "expect": "ok_or_error" if sparse else "ok",
            "check": {"n": n, "tc": tc, "dtc": dtc},
            "input": {"n": n, "rows": rows, "alphabet": int(SPARSE_CODES[-1]) + 1 if sparse else k},
        })
    return jobs


# -- symbolic --------------------------------------------------------------

def _expansion(n: int, c: list[Fraction]) -> dict[int, Fraction]:
    """Subset coefficients of sum_k c_k u_k.

    u_k puts 2 on the size-k average entropy r_k and -1 on r_{k-1} and
    r_{k+1}; r_s spreads its weight evenly over the C(n, s) subsets.
    """
    cc = [Fraction(0)] + list(c) + [Fraction(0), Fraction(0)]
    terms = {}
    for s in range(1, n + 1):
        a_s = 2 * cc[s] - cc[s - 1] - cc[s + 1]
        if a_s:
            w = a_s / math.comb(n, s)
            for members in combinations(range(n), s):
                terms[sum(1 << i for i in members)] = w
    return terms


def _expression_json(n: int, terms: dict[int, Fraction]) -> str:
    return json.dumps({
        "n": n,
        "terms": [
            {"subset": [i + 1 for i in range(n) if (mask >> i) & 1], "coeff": str(c)}
            for mask, c in sorted(terms.items())
        ],
    })


def _random_c(rng: np.random.Generator, n: int, shape: str) -> list[Fraction]:
    c = [Fraction(int(x)) for x in rng.integers(-9, 10, size=n - 1)]
    for k in range(1, n // 2 + 1):
        if shape == "symmetric":
            c[n - k - 1] = c[k - 1]
        elif shape == "skew-symmetric":
            c[n - k - 1] = -c[k - 1] if n - k != k else Fraction(0)
    return c


def u_class(c: list[Fraction]) -> str:
    """Conjugation class read off u-basis coordinates (zero counts as symmetric)."""
    if c == c[::-1]:
        return "symmetric"
    if c == [-x for x in reversed(c)]:
        return "skew-symmetric"
    return "neither"


def metric_coefficients(metric: str, n: int) -> list[Fraction]:
    """Closed-form u-basis coordinates of a metric (the table in PAPER.md)."""
    ks = range(1, n)
    return {
        "tc": [Fraction(n - k) for k in ks],
        "dtc": [Fraction(k) for k in ks],
        "tse": [Fraction(k * (n - k), 2) for k in ks],
        "ii": [Fraction((-1) ** (k + 1) * math.comb(n - 2, k - 1)) for k in ks],
        "oinfo": [Fraction(n - 2 * k) for k in ks],
        "sinfo": [Fraction(n) for _ in ks],
    }[metric]


# Sized so that the median falls among the n = 10 full expansions and the
# 90th percentile among the n = 10 sym/skew jobs, whatever the pass count.
SYMBOLIC_METRIC_CLI = (  # (command, metric, n)
    ("basis", "tc", 8), ("basis", "dtc", 12), ("basis", "sinfo", 10), ("basis", "ii", 10),
    ("classify", "tc", 12), ("classify", "oinfo", 9), ("classify", "sinfo", 11),
    ("classify", "tse", 10), ("classify", "ii", 12),
)
SYMBOLIC_UCOMBO_CLI = tuple(
    (command, 10, shape)
    for command in ("basis", "classify")
    for shape in ("symmetric", "skew-symmetric", "neither")
)
SYMBOLIC_CONJUGATE = (("ucombo", 11), ("ucombo", 11), ("ii", 12))
SYMBOLIC_SYM_SKEW = (8, 9, 10, 10, 10, 10, 11)
SYMBOLIC_TO_U = (("tc", 12), ("dtc", 11), ("oinfo", 10), ("sinfo", 9), ("tse", 12), ("ii", 12))


def _symbolic(seed: int, out: Path) -> list[dict]:
    from entroconj.metrics import metric_expression

    def cli_job(command: str, name: str, n: int, terms: dict[int, Fraction], check: dict) -> dict:
        path = _write(out / f"{name}.json", _expression_json(n, terms))
        return {"kind": command, "cli": [command, path], "expect": "ok", "check": check, "input": {"n": n}}

    def expected(command: str, c: list[Fraction], cls: str) -> dict:
        return {"c": [str(x) for x in c]} if command == "basis" else {"class": cls}

    jobs = []
    for i, (command, metric, n) in enumerate(SYMBOLIC_METRIC_CLI):
        terms = dict(metric_expression(metric, n).terms)
        coefficients = metric_coefficients(metric, n)
        check = expected(command, coefficients, u_class(coefficients))
        jobs.append(cli_job(command, f"metric{i}", n, terms, check))
    for i, (command, n, shape) in enumerate(SYMBOLIC_UCOMBO_CLI):
        c = _random_c(_rng(seed, "symbolic", i), n, shape)
        jobs.append(cli_job(command, f"ucombo{i}", n, _expansion(n, c), expected(command, c, u_class(c))))
    for i, (source, n) in enumerate(SYMBOLIC_CONJUGATE):
        if source == "ucombo":
            terms = _expansion(n, _random_c(_rng(seed, "symbolic", 20 + i), n, "neither"))
        else:
            terms = dict(metric_expression(source, n).terms)
        check = {"n": n, "terms": {str(m): str(c) for m, c in terms.items()}}
        jobs.append(cli_job("conjugate", f"conjugate{i}", n, terms, check))
    for i, n in enumerate(SYMBOLIC_SYM_SKEW):
        c = _random_c(_rng(seed, "symbolic", 30 + i), n, "neither")
        jobs.append({"kind": "sym_skew", "call": "sym_skew", "args": {"n": n, "c": [str(x) for x in c]},
                     "expect": "ok",
                     "check": {"n": n, "terms": {str(m): str(v) for m, v in _expansion(n, c).items()}},
                     "input": {"n": n}})
    for metric, n in SYMBOLIC_TO_U:
        jobs.append({"kind": "to_u_basis", "call": "to_u_basis", "args": {"metric": metric, "n": n},
                     "expect": "ok",
                     "check": {"c": [str(x) for x in metric_coefficients(metric, n)]},
                     "input": {"n": n}})
    return jobs


# -- lattice ---------------------------------------------------------------

# The median falls among the 3-source decompositions and n = 3 sweeps.
LATTICE_DUAL = (3, 4, 5, 5, 4)
LATTICE_DECOMPOSE = ((2, "xor"), (2, "and"), (2, "copy"), (3, "xor"), (3, "sum"), (3, "and"), (3, "copy"))
LATTICE_LIST = (2, 3, 4)
LATTICE_SWEEP = (3, 3, 4, 4)
# (|a|, |b|) at n = 5: each selects 1840 of the 7579 atoms, so jobs of one
# kind cost the same; the 90th percentile falls among the four cmi-set jobs.
LATTICE_PAIR = ((1, 1), (1, 3))
LATTICE_CMI = ((1, 3), (1, 1), (1, 3), (1, 1))


def _random_antichain(rng: np.random.Generator, n: int) -> list[list[int]]:
    masks = sorted({int(m) for m in rng.integers(1, 1 << n, size=int(rng.integers(1, 5)))})
    kept = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    return [[i + 1 for i in range(n) if (m >> i) & 1] for m in kept]


def _disjoint_sets(rng: np.random.Generator, n: int, size_a: int, size_b: int):
    order = [int(x) + 1 for x in rng.permutation(n)]
    return sorted(order[:size_a]), sorted(order[size_a:size_a + size_b])


def _decompose_pmf(rng: np.random.Generator, sources: int, rule: str) -> np.ndarray:
    """Random source distribution with a noisy target Y = rule(sources)."""
    p_x = rng.dirichlet(np.full(2 ** sources, 2.0)).reshape((2,) * sources)
    ny = 3 if rule == "sum" else 2
    pmf = np.zeros((2,) * sources + (ny,))
    for x in np.ndindex(p_x.shape):
        y = {"xor": sum(x) % 2, "and": int(all(x)), "copy": x[0], "sum": min(sum(x), 2)}[rule]
        cond = np.full(ny, 0.1 / (ny - 1))
        cond[y] = 0.9
        pmf[x] = p_x[x] * cond
    return pmf


def _mi_by_source_mask(pmf: np.ndarray) -> dict[str, float]:
    """I(X^a ; Y) in bits for every nonempty source mask a (target last)."""
    m = pmf.ndim - 1
    out = {}
    for mask in range(1, 1 << m):
        drop = tuple(i for i in range(m) if not (mask >> i) & 1)
        joint = pmf.sum(axis=drop) if drop else pmf
        h_a = _entropy_bits(joint.sum(axis=-1).ravel())
        h_y = _entropy_bits(joint.reshape(-1, joint.shape[-1]).sum(axis=0))
        out[str(mask)] = h_a + h_y - _entropy_bits(joint.ravel())
    return out


def _lattice(seed: int, out: Path) -> list[dict]:
    jobs = []
    for i, n in enumerate(LATTICE_DUAL):
        antichain = _random_antichain(_rng(seed, "lattice", i), n)
        jobs.append({"kind": "dual", "cli": ["pid", "dual", "--n", str(n), "--antichain", json.dumps(antichain)],
                     "expect": "ok", "check": {"n": n, "antichain": antichain}, "input": {"n": n}})
    for i, (sources, rule) in enumerate(LATTICE_DECOMPOSE):
        pmf = _decompose_pmf(_rng(seed, "lattice", 10 + i), sources, rule)
        path = _write(out / f"decompose{i}.csv", _ptable_csv(pmf))
        jobs.append({"kind": "decompose", "cli": ["pid", "decompose", path], "expect": "ok",
                     "check": {"sources": sources, "mi": _mi_by_source_mask(pmf)},
                     "input": {"n": sources + 1, "rows": pmf.size, "alphabet": pmf.shape[-1]}})
    for n in LATTICE_LIST:
        jobs.append({"kind": "list_atoms", "cli": ["pid", "list-atoms", "--n", str(n)], "expect": "ok",
                     "check": {"n": n}, "input": {"n": n}})
    for n in LATTICE_SWEEP:
        jobs.append({"kind": "verify_sweep", "cli": ["pid", "verify-theorem1", "--n", str(n)], "expect": "ok",
                     "check": {"n": n}, "input": {"n": n}})
    for i, (size_a, size_b) in enumerate(LATTICE_PAIR):
        a, b = _disjoint_sets(_rng(seed, "lattice", 20 + i), 5, size_a, size_b)
        jobs.append({"kind": "verify_pair",
                     "cli": ["pid", "verify-theorem1", "--n", "5", "--a", json.dumps(a), "--b", json.dumps(b)],
                     "expect": "ok", "check": {"n": 5, "a": a, "b": b}, "input": {"n": 5}})
    for i, (size_a, size_b) in enumerate(LATTICE_CMI):
        a, b = _disjoint_sets(_rng(seed, "lattice", 30 + i), 5, size_a, size_b)
        jobs.append({"kind": "cmi_set",
                     "cli": ["pid", "cmi-set", "--n", "5", "--a", json.dumps(a), "--b", json.dumps(b)],
                     "expect": "ok", "check": {"n": 5, "a": a, "b": b}, "input": {"n": 5}})
    return jobs


_BUILDERS = {"numeric": _numeric, "samples": _samples, "symbolic": _symbolic, "lattice": _lattice}


def generate(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's inputs under ``out_dir``; return its job list.

    The order is shuffled by the seed so that job kinds interleave.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = _BUILDERS[workload](seed, out_dir)
    order = _rng(seed, workload, 999).permutation(len(jobs))
    return [jobs[int(i)] for i in order]


def describe(workload: str, jobs: list[dict]) -> dict:
    """Input properties of a job list, for the provenance record."""
    kinds: dict[str, int] = {}
    for job in jobs:
        kinds[job["kind"]] = kinds.get(job["kind"], 0) + 1
    ns = [job["input"]["n"] for job in jobs]
    rows = [job["input"]["rows"] for job in jobs if "rows" in job["input"]]
    alphabets = [job["input"]["alphabet"] for job in jobs if "alphabet" in job["input"]]
    return {
        "why": WHY[workload],
        "jobs_per_pass": len(jobs),
        "jobs_by_kind": dict(sorted(kinds.items())),
        "n_range": [min(ns), max(ns)],
        "rows_range": [min(rows), max(rows)] if rows else None,
        "alphabet_range": [min(alphabets), max(alphabets)] if alphabets else None,
        "malformed_share": sum(job["expect"] != "ok" for job in jobs) / len(jobs),
    }
