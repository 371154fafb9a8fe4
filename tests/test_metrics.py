"""Tests for the named metric constructors and their closed forms."""

from fractions import Fraction

import numpy as np
import pytest

from entroconj import (
    EntropyExpression,
    Metric,
    SymmetryClass,
    conjugate,
    metric_conjugation_class,
    metric_expression,
    metric_u_coefficients,
    mutual_information_expr,
    to_u_basis,
    u_expression,
)

from helpers import (
    definitional_metric_expression,
    distinct_term_count,
    random_distribution,
    unhalved_tse_expression,
)


def test_everything_collapses_to_mi_at_n2():
    mi = mutual_information_expr(2, [1], [2])
    assert metric_expression("tc", 2) == mi
    assert metric_expression("dtc", 2) == mi
    assert metric_expression("ii", 2) == mi


def test_sinfo_n3_expansion():
    expected = EntropyExpression(
        3,
        {
            0b001: 1,
            0b010: 1,
            0b100: 1,
            0b011: 1,
            0b101: 1,
            0b110: 1,
            0b111: -3,
        },
    )
    assert metric_expression("sinfo", 3) == expected


def test_oinfo_equals_interaction_information_at_n3():
    assert metric_expression("oinfo", 3) == metric_expression("ii", 3)


def test_oinfo_is_zero_at_n2():
    assert metric_expression("oinfo", 2) == EntropyExpression(2)


def test_closed_form_vectors():
    assert metric_u_coefficients("tse", 5).c == (2, 3, 3, 2)
    assert metric_u_coefficients("ii", 4).c == (1, -2, 1)
    assert metric_u_coefficients("oinfo", 4).c == (2, 0, -2)


def test_closed_forms_match_definitional_expansions():
    for n in range(2, 9):
        for metric in Metric:
            assert to_u_basis(definitional_metric_expression(metric, n)) == metric_u_coefficients(
                metric, n
            ), (metric, n)


def test_n_below_two_rejected():
    with pytest.raises(ValueError):
        metric_expression("tc", 1)
    with pytest.raises(ValueError):
        metric_u_coefficients("tc", 1)


@pytest.mark.parametrize("n", [3.7, 3.0, True])
def test_variable_count_must_be_an_integer(n):
    with pytest.raises(ValueError, match="variable count"):
        metric_u_coefficients("tc", n)
    assert metric_u_coefficients("tc", np.int64(3)) == metric_u_coefficients("tc", 3)


def test_conjugation_classes():
    assert metric_conjugation_class("ii", 4) is SymmetryClass.SYMMETRIC
    assert metric_conjugation_class("ii", 5) is SymmetryClass.SKEW_SYMMETRIC
    assert metric_conjugation_class("tc", 2) is SymmetryClass.SYMMETRIC
    for n in range(3, 13):
        assert metric_conjugation_class("tc", n) is SymmetryClass.NEITHER
        assert metric_conjugation_class("dtc", n) is SymmetryClass.NEITHER
    for n in range(2, 13):
        assert metric_conjugation_class("sinfo", n) is SymmetryClass.SYMMETRIC
        assert metric_conjugation_class("tse", n) is SymmetryClass.SYMMETRIC
        assert metric_conjugation_class("oinfo", n) is SymmetryClass.SKEW_SYMMETRIC


def test_tc_conjugates_to_dtc():
    for n in range(2, 9):
        assert conjugate(metric_expression("tc", n)) == metric_expression("dtc", n)


def test_tc_plus_dtc_is_sinfo():
    for n in range(2, 9):
        total = metric_expression("tc", n) + metric_expression("dtc", n)
        assert total == metric_expression("sinfo", n)


def test_term_count_growth():
    for n in range(3, 9):
        assert distinct_term_count(metric_expression("sinfo", n)) == 2 * n + 1
        assert distinct_term_count(metric_expression("oinfo", n)) == 2 * n + 1
        assert distinct_term_count(metric_expression("tc", n)) == n + 1
        assert distinct_term_count(metric_expression("dtc", n)) == n + 1
        assert distinct_term_count(metric_expression("tse", n)) == 2**n - 1
        assert distinct_term_count(metric_expression("ii", n)) == 2**n - 1


def test_term_count_stays_linear_bound():
    for n in range(2, 9):
        for name in ("sinfo", "oinfo", "tc", "dtc"):
            assert distinct_term_count(metric_expression(name, n)) <= 2 * n + 1


def test_tse_equal_bipartition_halving():
    # with the unordered-bipartition reading the decomposition holds exactly
    for n in (2, 4, 6, 8):
        c = to_u_basis(definitional_metric_expression("tse", n))
        assert c.c == tuple(Fraction(k * (n - k), 2) for k in range(1, n))
    # without halving, n=2 overshoots the k=1 coefficient by exactly 2x
    unhalved = unhalved_tse_expression(2)
    assert unhalved == u_expression(1, 2)
    assert unhalved == definitional_metric_expression("tse", 2) * 2
    assert to_u_basis(unhalved).c == (Fraction(1),)
    assert to_u_basis(definitional_metric_expression("tse", 2)).c == (Fraction(1, 2),)


def test_nonnegative_metrics_on_random_distributions():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d = random_distribution(rng, rng.integers(2, 4, size=n))
        for name in ("tc", "dtc", "tse", "sinfo"):
            assert d.evaluate(metric_expression(name, n)) >= -1e-9, name
