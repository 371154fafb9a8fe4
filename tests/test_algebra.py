"""Tests for the symbolic entropy-expression layer.

Everything here is exact: the algebra works over rational coefficients and
the identities are asserted with zero tolerance.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroconj import (
    METRIC_NAMES,
    EntropyExpression,
    NotInSpanError,
    NotLabelSymmetricError,
    SymmetryClass,
    UBasisVector,
    classify,
    conjugate,
    entropy_term,
    expression_from_json,
    expression_to_json,
    from_u_basis,
    is_label_symmetric,
    mask_members,
    metric_expression,
    metric_u_coefficients,
    mutual_information_expr,
    r_expression,
    span_dimensions,
    subset_mask,
    sym_skew_decompose,
    to_u_basis,
    u_expression,
)

from helpers import (
    definitional_metric_expression,
    definitional_u_expression,
    distinct_term_count,
    oracle_is_label_symmetric,
    rational_rank,
    u_inner_product,
)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=9
)


@st.composite
def expressions(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    nterms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(nterms):
        mask = draw(st.integers(1, (1 << n) - 1))
        terms[mask] = terms.get(mask, Fraction(0)) + draw(small_fractions)
    return EntropyExpression(n, terms)


@st.composite
def expression_pairs(draw):
    n = draw(st.integers(2, 6))
    nterms = draw(st.integers(0, 5))

    def one():
        terms = {}
        for _ in range(nterms):
            mask = draw(st.integers(1, (1 << n) - 1))
            terms[mask] = terms.get(mask, Fraction(0)) + draw(small_fractions)
        return EntropyExpression(n, terms)

    return one(), one(), draw(small_fractions), draw(small_fractions)


@st.composite
def u_vectors(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    return UBasisVector(n, tuple(draw(small_fractions) for _ in range(n - 1)))


@st.composite
def near_symmetric_expressions(draw, max_n=7):
    """Per-size weights (in the u span or not), sometimes with one
    coefficient nudged or one subset dropped."""
    n = draw(st.integers(1, max_n))
    if n >= 2 and draw(st.booleans()):
        terms = dict(from_u_basis(draw(u_vectors(min_n=n, max_n=n))).terms)
    else:
        weights = [draw(small_fractions) for _ in range(n)]
        terms = {m: weights[m.bit_count() - 1] for m in range(1, 1 << n)}
    change = draw(st.sampled_from(["none", "nudge", "drop"]))
    if change == "nudge":
        mask = draw(st.integers(1, (1 << n) - 1))
        terms[mask] = terms.get(mask, Fraction(0)) + draw(small_fractions.filter(bool))
    elif change == "drop" and terms:
        del terms[draw(st.sampled_from(sorted(terms)))]
    return EntropyExpression(n, terms)


# ---------------------------------------------------------------------------
# masks and canonical form
# ---------------------------------------------------------------------------


def test_subset_mask_round_trip():
    assert subset_mask([1, 3], 3) == 0b101
    assert mask_members(0b101) == (1, 3)
    assert subset_mask([], 3) == 0
    with pytest.raises(ValueError):
        subset_mask([4], 3)


@pytest.mark.parametrize("member", [1.0, 1.5, True, np.bool_(True), "1", None])
def test_subset_mask_refuses_non_integer_members(member):
    with pytest.raises(ValueError, match="is not an integer"):
        subset_mask([member], 3)


def test_subset_mask_accepts_numpy_integers():
    mask = subset_mask([np.int64(3), np.uint8(1)], 3)
    assert mask == 0b101 and type(mask) is int


def test_canonical_form_drops_zero_terms_and_empty_set():
    e = EntropyExpression(3, {0b001: 0, 0b000: 5, 0b011: Fraction(1, 2)})
    assert dict(e.terms) == {0b011: Fraction(1, 2)}
    assert distinct_term_count(e) == 1


def test_constructor_normalises_mask_and_coefficient_types():
    e = EntropyExpression(
        3, {np.int64(3): 1, np.int16(1): "1/2", np.uint8(4): 0.25, 6: Fraction(-2, 3)}
    )
    assert dict(e.terms) == {
        0b011: Fraction(1), 0b001: Fraction(1, 2), 0b100: Fraction(1, 4), 0b110: Fraction(-2, 3)
    }
    assert all(type(m) is int and type(c) is Fraction for m, c in e.terms.items())
    zeros = EntropyExpression(3, {1: Fraction(0), 2: "0", 4: 0.0, np.int64(5): 0, 0: Fraction(7)})
    assert zeros == EntropyExpression(3)
    for bad in (8, -1, np.int64(8), (1 << 64)):
        with pytest.raises(ValueError):
            EntropyExpression(3, {bad: Fraction(1)})


def test_constructor_refuses_non_integer_masks():
    # int() reads both 1.5 and True as subset {1}, so one key used to overwrite the other
    with pytest.raises(ValueError, match="subset mask 1.5 is not an integer"):
        EntropyExpression(3, {1.5: 1, True: 2})
    for bad in (True, np.bool_(True), 2.0, "1"):
        with pytest.raises(ValueError, match="is not an integer"):
            EntropyExpression(3, {bad: 1})


@pytest.mark.parametrize("n", [2.9, 3.0, True, "3"])
def test_variable_counts_must_be_integers(n):
    with pytest.raises(ValueError, match="variable count"):
        EntropyExpression(n)
    with pytest.raises(ValueError, match="variable count"):
        span_dimensions(n)
    with pytest.raises(ValueError, match="variable count"):
        UBasisVector(n, (1, 2))


def test_variable_counts_accept_numpy_integers():
    assert type(EntropyExpression(np.int64(3)).n) is int
    assert span_dimensions(np.int64(5)) == (2, 2)
    assert UBasisVector(np.uint8(3), (1, 2)) == UBasisVector(3, (1, 2))


@pytest.mark.parametrize("build", [u_expression, r_expression])
@pytest.mark.parametrize("k, n", [(True, 3), (1.5, 4), (1, 4.0), (1, True)])
def test_u_and_r_expressions_refuse_non_integer_arguments(build, k, n):
    build(1, 3)  # a cached (1, 3) must not answer for (True, 3) or (1, True)
    with pytest.raises(ValueError, match="is not an integer"):
        build(k, n)


def test_u_expression_accepts_numpy_integers():
    assert u_expression(np.int64(2), 4) == u_expression(2, 4)


def test_expression_arithmetic_is_exact():
    a = entropy_term(2, [1])
    b = entropy_term(2, [2])
    s = a * Fraction(1, 3) + b * Fraction(2, 3)
    assert s.coefficient([1]) == Fraction(1, 3)
    assert (s - s) == EntropyExpression(2)
    with pytest.raises(ValueError):
        a + entropy_term(3, [1])


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def test_conjugate_single_entropy():
    # H{1} at n=3 maps to H{2,3} - H{1,2,3}
    e = entropy_term(3, [1])
    assert conjugate(e) == EntropyExpression(3, {0b110: 1, 0b111: -1})


def test_conjugate_full_set_negates():
    e = entropy_term(3, [1, 2, 3])
    assert conjugate(e) == -e


def test_conjugate_oinfo_flips_sign():
    o = metric_expression("oinfo", 3)
    assert conjugate(o) == -o


def test_conjugate_mi_moves_conditioning_to_complement():
    # conj I(X1;X2) at n=3 equals I(X1;X2|X3)
    mi = mutual_information_expr(3, [1], [2])
    assert conjugate(mi) == mutual_information_expr(3, [1], [2], [3])


def test_conjugate_conditional_mi_n4():
    # oracle: apply the definition H(a) -> H(-a) - H(full) term by term,
    # starting from I(X1;X2|X3) = H{13} + H{23} - H{123} - H{3} at n=4
    start = {0b0101: 1, 0b0110: 1, 0b0111: -1, 0b0100: -1}
    full = 0b1111
    expected = {}
    for mask, c in start.items():
        expected[full ^ mask] = expected.get(full ^ mask, 0) + c
        expected[full] = expected.get(full, 0) - c
    manual = EntropyExpression(4, expected)
    assert conjugate(mutual_information_expr(4, [1], [2], [3])) == manual
    assert manual == mutual_information_expr(4, [1], [2], [4])


@given(expressions())
def test_conjugation_is_involution(e):
    assert conjugate(conjugate(e)) == e


@given(expression_pairs())
def test_conjugation_is_linear(args):
    e1, e2, alpha, beta = args
    combo = e1 * alpha + e2 * beta
    assert conjugate(combo) == conjugate(e1) * alpha + conjugate(e2) * beta


# ---------------------------------------------------------------------------
# mutual information expressions
# ---------------------------------------------------------------------------


def test_mi_expression_definition():
    mi = mutual_information_expr(3, [1], [2])
    assert mi == EntropyExpression(3, {0b001: 1, 0b010: 1, 0b011: -1})


def test_mi_expression_rejects_overlap():
    with pytest.raises(ValueError):
        mutual_information_expr(3, [1, 2], [2])
    with pytest.raises(ValueError):
        mutual_information_expr(3, [1], [2], [1])
    with pytest.raises(ValueError):
        mutual_information_expr(3, [], [2])


# ---------------------------------------------------------------------------
# the u_k basis
# ---------------------------------------------------------------------------


def test_u1_n2_is_mutual_information():
    assert u_expression(1, 2) == mutual_information_expr(2, [1], [2])


def test_u2_n3_expansion():
    # (1/3)[I(X1;X2|X3) + I(X1;X3|X2) + I(X2;X3|X1)] expanded by hand
    expected = EntropyExpression(
        3,
        {
            0b011: Fraction(2, 3),
            0b101: Fraction(2, 3),
            0b110: Fraction(2, 3),
            0b111: -1,
            0b001: Fraction(-1, 3),
            0b010: Fraction(-1, 3),
            0b100: Fraction(-1, 3),
        },
    )
    assert u_expression(2, 3) == expected


def test_u_expression_range_check():
    with pytest.raises(ValueError):
        u_expression(0, 3)
    with pytest.raises(ValueError):
        u_expression(3, 3)


def test_u_expression_matches_the_pair_average():
    for n in range(2, 9):
        for k in range(1, n):
            assert u_expression(k, n) == definitional_u_expression(k, n), (k, n)


def test_u_conjugation_swaps_order():
    for n in range(2, 9):
        for k in range(1, n):
            assert conjugate(u_expression(k, n)) == u_expression(n - k, n)


def test_u_is_second_difference_of_r():
    # u_k = 2 r_k - r_{k+1} - r_{k-1}, with r_0 = 0
    for n in range(2, 9):
        for k in range(1, n):
            rhs = r_expression(k, n) * 2 - r_expression(k + 1, n) - r_expression(k - 1, n)
            assert u_expression(k, n) == rhs


def test_r_expression_term_count():
    # every entropy term lives in exactly one r_k
    for n in range(2, 7):
        total = sum(distinct_term_count(r_expression(k, n)) for k in range(n + 1))
        assert total == (1 << n) - 1


# ---------------------------------------------------------------------------
# label symmetry and basis conversion
# ---------------------------------------------------------------------------


def test_is_label_symmetric_examples():
    assert is_label_symmetric(metric_expression("tc", 4))
    assert not is_label_symmetric(entropy_term(2, [1]))
    assert is_label_symmetric(entropy_term(2, [1]) + entropy_term(2, [2]))
    assert is_label_symmetric(EntropyExpression(3))  # zero expression


def test_is_label_symmetric_rejects_unequal_coefficients():
    e = entropy_term(2, [1]) + entropy_term(2, [2]) * 2
    assert not is_label_symmetric(e)


def test_to_u_basis_known_vectors():
    assert to_u_basis(definitional_metric_expression("tc", 3)).c == (Fraction(2), Fraction(1))
    assert to_u_basis(definitional_metric_expression("sinfo", 3)).c == (Fraction(3), Fraction(3))


def test_to_u_basis_rejects_non_symmetric():
    with pytest.raises(NotLabelSymmetricError):
        to_u_basis(entropy_term(3, [1]))


def test_to_u_basis_not_in_span():
    # H{1,2} at n=2 is label-symmetric but does not vanish on independent
    # variables, so it cannot be in the span
    with pytest.raises(NotInSpanError) as excinfo:
        to_u_basis(entropy_term(2, [1, 2]))
    assert excinfo.value.residual == Fraction(-2)


@given(near_symmetric_expressions())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_one_pass_scan_agrees_with_the_two_pass_oracle(e):
    symmetric = oracle_is_label_symmetric(e)
    assert is_label_symmetric(e) is symmetric
    if not symmetric:
        with pytest.raises(NotLabelSymmetricError):
            to_u_basis(e)
    else:
        # a_s: the weight on r_s; u_1..u_{n-1} span exactly the a with sum_s s a_s = 0
        n = e.n
        a = [e.terms.get((1 << s) - 1, Fraction(0)) * comb(n, s) for s in range(n + 1)]
        off_span = sum(s * a_s for s, a_s in enumerate(a))
        if off_span:
            with pytest.raises(NotInSpanError) as excinfo:
                to_u_basis(e)
            assert excinfo.value.residual == -off_span
        else:
            assert from_u_basis(to_u_basis(e)) == e
    conj, half = conjugate(e), Fraction(1, 2)
    assert sym_skew_decompose(e) == ((e + conj) * half, (e - conj) * half)


def test_not_in_span_matches_numeric_dependency_failure():
    # the same expression evaluates to 2 bits on a uniform product
    # distribution, confirming the dependency violation numerically
    from entroconj import JointDistribution

    uniform = JointDistribution(np.full((2, 2), 0.25))
    value = uniform.evaluate(entropy_term(2, [1, 2]))
    assert value == pytest.approx(2.0)


def test_from_u_basis_examples():
    assert from_u_basis(UBasisVector(4, (1, 0, 0))) == u_expression(1, 4)
    assert from_u_basis(UBasisVector(4, (3, 2, 1))) == definitional_metric_expression("tc", 4)
    assert from_u_basis(UBasisVector(3, (1, -1))) == definitional_metric_expression("oinfo", 3)


def test_from_u_basis_of_metric_coefficients_is_the_metric_expansion():
    for n in range(2, 13):
        for name in METRIC_NAMES:
            expected = definitional_metric_expression(name, n)
            assert from_u_basis(metric_u_coefficients(name, n)) == expected, (name, n)
            assert metric_expression(name, n) == expected, (name, n)


def test_from_u_basis_matches_the_pair_average_sum():
    rng = np.random.default_rng(11)
    for n in range(2, 8):
        for _ in range(4):
            c = tuple(
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(n - 1)
            )
            if rng.random() < 0.5:
                c = tuple(x if rng.random() < 0.5 else Fraction(0) for x in c)
            expected = EntropyExpression(n)
            for k, ck in enumerate(c, start=1):
                expected = expected + definitional_u_expression(k, n) * ck
            assert from_u_basis(UBasisVector(n, c)) == expected, c


@given(u_vectors(max_n=6))
@settings(max_examples=60)
def test_u_basis_round_trip(c):
    assert to_u_basis(from_u_basis(c)) == c


@given(u_vectors(max_n=6))
@settings(max_examples=60)
def test_basis_exchange_under_conjugation(c):
    assert to_u_basis(conjugate(from_u_basis(c))) == c.reversed()


# ---------------------------------------------------------------------------
# symmetry classification and decomposition
# ---------------------------------------------------------------------------


def test_classify_examples():
    n = 5
    assert classify(metric_u_coefficients("sinfo", n)) is SymmetryClass.SYMMETRIC
    assert classify(metric_u_coefficients("oinfo", n)) is SymmetryClass.SKEW_SYMMETRIC
    assert classify(UBasisVector(3, (2, 1))) is SymmetryClass.NEITHER


def test_classify_zero_vector_reports_symmetric():
    assert classify(UBasisVector(4, (0, 0, 0))) is SymmetryClass.SYMMETRIC


@given(u_vectors(max_n=6))
@settings(max_examples=60)
def test_classify_agrees_with_conjugation(c):
    e = from_u_basis(c)
    label = classify(c)
    if label is SymmetryClass.SYMMETRIC:
        assert conjugate(e) == e
    elif label is SymmetryClass.SKEW_SYMMETRIC:
        assert conjugate(e) == -e
    else:
        assert conjugate(e) != e and conjugate(e) != -e


def test_sym_skew_decompose_tc_dtc():
    for n in range(2, 9):
        sigma = metric_expression("sinfo", n)
        omega = metric_expression("oinfo", n)
        half = Fraction(1, 2)
        assert sym_skew_decompose(metric_expression("tc", n)) == (
            sigma * half,
            omega * half,
        )
        assert sym_skew_decompose(metric_expression("dtc", n)) == (
            sigma * half,
            omega * half * -1,
        )


def test_sym_skew_decompose_fixed_point():
    sigma = metric_expression("sinfo", 4)
    s, t = sym_skew_decompose(sigma)
    assert s == sigma and t == EntropyExpression(4)


@given(expressions())
def test_sym_skew_decompose_properties(e):
    s, t = sym_skew_decompose(e)
    assert s + t == e
    assert conjugate(s) == s
    assert conjugate(t) == -t


# ---------------------------------------------------------------------------
# inner product, dimensions, counting
# ---------------------------------------------------------------------------


def test_inner_product_orthonormal_basis():
    e1 = UBasisVector(4, (1, 0, 0))
    e2 = UBasisVector(4, (0, 1, 0))
    assert u_inner_product(e1, e1) == 1
    assert u_inner_product(e1, e2) == 0


def test_inner_product_sigma_with_itself():
    sigma = metric_u_coefficients("sinfo", 3)
    assert u_inner_product(sigma, sigma) == 18


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        u_inner_product(UBasisVector(3, (1, 1)), UBasisVector(4, (1, 1, 1)))


def test_sym_and_skew_parts_are_orthogonal():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        c = UBasisVector(
            n, tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) for _ in range(n - 1))
        )
        s, t = sym_skew_decompose(from_u_basis(c))
        assert u_inner_product(to_u_basis(s), to_u_basis(t)) == 0


def test_distinct_term_counts_at_n8():
    assert distinct_term_count(metric_expression("sinfo", 8)) == 17
    assert distinct_term_count(metric_expression("tc", 8)) == 9
    assert distinct_term_count(metric_expression("tse", 8)) == 255


def test_span_dimensions():
    assert span_dimensions(5) == (2, 2)
    assert span_dimensions(2) == (1, 0)
    assert span_dimensions(3) == (1, 1)
    with pytest.raises(ValueError):
        span_dimensions(1)


def test_subspace_dimensions_by_rank():
    for n in range(2, 9):
        dim = n - 1
        sym_span = []
        skew_span = []
        for k in range(1, n):
            sym = [Fraction(0)] * dim
            skew = [Fraction(0)] * dim
            sym[k - 1] += 1
            sym[n - k - 1] += 1
            skew[k - 1] += 1
            skew[n - k - 1] -= 1
            sym_span.append(sym)
            skew_span.append(skew)
        assert rational_rank(sym_span) == n // 2
        assert rational_rank(skew_span) == (n - 1) // 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_and_ordering():
    e = metric_expression("oinfo", 3)
    obj = expression_to_json(e)
    masks = [subset_mask(t["subset"], 3) for t in obj["terms"]]
    assert masks == sorted(masks)
    for t in obj["terms"]:
        assert t["subset"] == sorted(t["subset"])
        Fraction(t["coeff"])  # exact strings parse back
    assert expression_from_json(obj) == e


def test_json_rejects_bad_payloads():
    with pytest.raises(ValueError):
        expression_from_json({"terms": []})
    with pytest.raises(ValueError):
        expression_from_json({"n": 2, "terms": [{"subset": [1], "coeff": "x"}]})
    with pytest.raises(ValueError):
        expression_from_json(
            {"n": 2, "terms": [{"subset": [1], "coeff": "1"}, {"subset": [1], "coeff": "2"}]}
        )
