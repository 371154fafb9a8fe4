"""Conjugation read on distributions, by two paths kept apart from the library's.

Uniform distributions on binary linear codes have integer entropies (GF(2)
ranks), so every metric has an exact value, and conjugation is code duality:
(conjugate e)(r_C) = e(r_{C-perp}) - e(|a|).  On any distribution,
conjugation is the reversed entropy table H*[m] = H[full ^ m] - H[full],
on which every expression e reads (conjugate e)(H).
"""

from fractions import Fraction

import numpy as np
import pytest

from entroconj import (
    METRIC_NAMES,
    JointDistribution,
    UBasisVector,
    conjugate,
    from_u_basis,
    metric_expression,
    u_expression,
)

from helpers import (
    codewords,
    dual_basis,
    exact_value,
    gf2_rank,
    random_distribution,
    random_expression,
    random_generator,
    rank_table,
    reversed_table,
    table_value,
)

# round-off of a float evaluation at these sizes (measured below 3e-14)
TOLERANCE = 1e-12


def _codes(n: int):
    """A seeded full-rank generator for each dimension k in {1, n // 2, n - 1}."""
    for k in sorted({1, n // 2, n - 1}):
        yield k, random_generator(np.random.default_rng([14, n, k]), k, n)


@pytest.mark.parametrize("n", range(2, 15))
def test_code_entropies_are_ranks_and_metrics_are_exact(n):
    for k, g in _codes(n):
        ranks = rank_table(g)
        d = JointDistribution.from_samples(codewords(g))
        assert d._entropy_table().tolist() == ranks, k
        for name in METRIC_NAMES:
            e = metric_expression(name, n)
            assert abs(d.evaluate(e) - exact_value(e, ranks)) <= TOLERANCE, (name, k)
        for j, u in enumerate(d.u_values(), start=1):  # the closed form against u_j's expansion
            assert abs(u - exact_value(u_expression(j, n), ranks)) <= TOLERANCE, (j, k)


@pytest.mark.parametrize("n", range(2, 15))
def test_conjugation_is_code_duality(n):
    sizes = [mask.bit_count() for mask in range(1 << n)]  # m(a) = |a|
    for k, g in _codes(n):
        h = dual_basis(g)
        assert gf2_rank(h) == len(h) == n - k and not (g.astype(int) @ h.T % 2).any(), k
        ranks, dual_ranks = rank_table(g), rank_table(h)
        code, dual_code = (JointDistribution.from_samples(codewords(x)) for x in (g, h))
        # both tables, so each evaluate reads one instead of summing its marginals
        assert code._entropy_table().tolist() == ranks and dual_code._entropy_table().tolist() == dual_ranks, k
        for name in METRIC_NAMES:
            e = metric_expression(name, n)
            shift = exact_value(e, sizes)
            assert exact_value(conjugate(e), ranks) == exact_value(e, dual_ranks) - shift, (name, k)
            conjugated = code.evaluate(conjugate(e))
            assert abs(conjugated - (dual_code.evaluate(e) - float(shift))) <= TOLERANCE, (name, k)
        rng = np.random.default_rng([14, n, k, 1])
        for _ in range(3):  # the identity holds for every expression, not only the symmetric ones
            e = random_expression(rng, n)
            assert exact_value(conjugate(e), ranks) == exact_value(e, dual_ranks) - exact_value(e, sizes), (e, k)


# binary pmfs up to n = 12, ternary ones up to n = 10
PMF_SHAPES = [(2, n) for n in range(2, 13)] + [(3, n) for n in range(2, 11)]


@pytest.mark.parametrize("states, n", PMF_SHAPES)
def test_expressions_read_on_the_reversed_table_are_their_conjugates(states, n):
    rng = np.random.default_rng([13, n, states])
    d = random_distribution(rng, [states] * n)
    starred = reversed_table(d)
    expressions = [metric_expression(name, n) for name in METRIC_NAMES]
    for _ in range(3):
        c = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(n - 1)]
        expressions += [from_u_basis(UBasisVector(n, tuple(c))), random_expression(rng, n)]
    for e in expressions:
        assert abs(table_value(e, starred) - d.evaluate(conjugate(e))) <= TOLERANCE, e
    u = d.u_values()
    for k in range(1, n):  # u*_k = u_{n-k}
        assert abs(table_value(u_expression(k, n), starred) - u[n - k - 1]) <= TOLERANCE, k
    tc, dtc = metric_expression("tc", n), metric_expression("dtc", n)
    assert abs(table_value(tc, starred) - d.evaluate(dtc)) <= TOLERANCE


@pytest.mark.parametrize("states, n", PMF_SHAPES)
def test_the_part_the_class_forbids_reads_zero(states, n):
    # oinfo is skew-symmetric (v* = -v), sinfo and tse symmetric (v* = v)
    d = random_distribution(np.random.default_rng([13, n, states, 1]), [states] * n)
    starred = reversed_table(d)
    for name, sign in (("oinfo", 1), ("sinfo", -1), ("tse", -1)):
        e = metric_expression(name, n)
        part = (d.evaluate(e) + sign * table_value(e, starred)) / 2
        assert abs(part) <= TOLERANCE, (name, part)


def _self_dual_pairs(n: int) -> np.ndarray:
    """The generator of n/2 copied pairs: each row repeats one bit in two columns."""
    return np.kron(np.eye(n // 2, dtype=np.uint8), np.ones((1, 2), dtype=np.uint8))


@pytest.mark.parametrize("g", [
    _self_dual_pairs(14),
    random_generator(np.random.default_rng([14, 14, 7]), 7, 14),  # _codes(14) at k = 7
], ids=["copied-pairs", "seeded"])
def test_a_code_with_zero_oinfo_reads_zero(g):
    e = metric_expression("oinfo", g.shape[1])
    assert exact_value(e, rank_table(g)) == 0
    assert abs(JointDistribution.from_samples(codewords(g)).evaluate(e)) <= TOLERANCE
