"""Tests for joint distributions and plug-in evaluation."""

import io
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from entroconj import (
    METRIC_NAMES,
    DistributionFormatError,
    EntropyExpression,
    JointDistribution,
    conjugate,
    entropy_term,
    load_csv,
    mask_members,
    metric_expression,
    u_expression,
)
from entroconj import distributions
from entroconj.distributions import MAX_DENSE_CELLS

from helpers import (
    awkward_pmfs,
    brute_entropy_bits,
    copy_pair,
    copy_triple,
    csv_texts,
    definitional_u_values,
    parity_distribution,
    product_of_marginals,
    random_distribution,
    random_expression,
    xor_triple,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------


def test_uniform_bit_pair_marginal_entropy():
    d = JointDistribution(np.full((2, 2), 0.25))
    assert d.subset_entropy([1]) == pytest.approx(1.0, abs=TOL)


def test_point_mass_has_zero_entropy():
    d = JointDistribution.from_pmf({(1, 0, 1): 1.0})
    for members in ([1], [2, 3], [1, 2, 3]):
        assert d.subset_entropy(members) == 0.0


def test_xor_triple_joint_entropy():
    assert xor_triple().subset_entropy([1, 2, 3]) == pytest.approx(2.0, abs=TOL)


def test_entropy_matches_brute_force_oracle():
    pmf = {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25}
    d = JointDistribution.from_pmf(pmf)
    for members in ([1], [2], [1, 2], [1, 3], [1, 2, 3]):
        assert d.subset_entropy(members) == pytest.approx(
            brute_entropy_bits(pmf, members), abs=TOL
        )


def test_empty_subset_entropy_is_zero():
    assert xor_triple().subset_entropy([]) == 0.0


def test_invalid_subset_rejected():
    with pytest.raises(ValueError):
        xor_triple().subset_entropy([4])


def test_single_marginals_and_entropy_table_match_brute_force_oracle():
    # every subset, first summed on its own, then read from the table that
    # u_values fills
    for arr in awkward_pmfs(np.random.default_rng(16), 24):
        d = JointDistribution(arr)
        pmf = {idx: float(arr[idx]) for idx in np.ndindex(arr.shape)}
        subsets = [
            [i + 1 for i in range(d.n) if (mask >> i) & 1] for mask in range(1 << d.n)
        ]
        expected = [brute_entropy_bits(pmf, members) for members in subsets]
        assert [d.subset_entropy(m) for m in subsets] == pytest.approx(expected, abs=1e-12)
        d.u_values()
        assert [d.subset_entropy(m) for m in subsets] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# u profiles
# ---------------------------------------------------------------------------


def test_u_values_match_definitional_oracle():
    for arr in awkward_pmfs(np.random.default_rng(18), 40):
        d = JointDistribution(arr)
        assert d.u_values() == pytest.approx(definitional_u_values(d), abs=1e-12)


def test_independent_variables_have_zero_profile():
    d = JointDistribution(np.full((2, 2, 2), 0.125))
    assert all(abs(u) < TOL for u in d.u_values())


def test_xor_profile():
    u = xor_triple().u_values()
    assert u[0] == pytest.approx(0.0, abs=TOL)
    assert u[1] == pytest.approx(1.0, abs=TOL)


def test_copy_profile():
    u = copy_triple().u_values()
    assert u[0] == pytest.approx(1.0, abs=TOL)
    assert u[1] == pytest.approx(0.0, abs=TOL)


def test_u_values_match_symbolic_expressions():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        d = random_distribution(rng, rng.integers(2, 4, size=n))
        u = d.u_values()
        for k in range(1, n):
            assert u[k - 1] == pytest.approx(
                d.evaluate(u_expression(k, n)), abs=TOL
            )


def test_parity_distributions_truncate_profile():
    # when every (n-1)-subset is independent, u_j vanishes below j = n-1
    for n in (3, 4, 5):
        u = parity_distribution(n).u_values()
        for j in range(1, n - 1):
            assert u[j - 1] == pytest.approx(0.0, abs=TOL)
        assert u[n - 2] == pytest.approx(1.0, abs=TOL)


def test_u_values_are_nonnegative():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = random_distribution(rng, rng.integers(2, 4, size=n))
        assert all(u >= -TOL for u in d.u_values())


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------


def test_oinfo_on_xor_and_copy():
    o3 = metric_expression("oinfo", 3)
    assert xor_triple().evaluate(o3) == pytest.approx(-1.0, abs=TOL)
    assert copy_triple().evaluate(o3) == pytest.approx(1.0, abs=TOL)


def test_sinfo_on_xor():
    assert xor_triple().evaluate(metric_expression("sinfo", 3)) == pytest.approx(
        3.0, abs=TOL
    )


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        xor_triple().evaluate(entropy_term(2, [1]))


def test_evaluate_conjugate_matches_termwise_application():
    # numeric mirror of the symbolic definition: H(a) -> H(-a) - H(full)
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d = random_distribution(rng, rng.integers(2, 4, size=n))
        e = random_expression(rng, n)
        full = tuple(range(1, n + 1))
        manual = 0.0
        for mask, c in e.terms.items():
            comp = [i for i in full if not (mask >> (i - 1)) & 1]
            manual += float(c) * (d.subset_entropy(comp) - d.subset_entropy(full))
        assert d.evaluate(conjugate(e)) == pytest.approx(manual, abs=TOL)


def test_evaluate_does_not_depend_on_term_order():
    # equal expressions whose terms were inserted in different orders must
    # give the same float, not merely a close one
    rng = np.random.default_rng(21)
    d = random_distribution(rng, [2] * 10)
    d.u_values()  # evaluate from the entropy table, as the metrics command does
    for name in METRIC_NAMES:
        e = metric_expression(name, 10)
        items = list(e.terms.items())
        values = set()
        for _ in range(8):
            order = rng.permutation(len(items))
            shuffled = EntropyExpression(10, dict(items[i] for i in order))
            assert shuffled == e
            values.add(d.evaluate(shuffled))
        assert values == {d.evaluate(e)}, name


def test_metrics_match_the_exact_evaluation_of_the_entropy_table():
    # the float entropy table summed in exact rational arithmetic, against
    # the float evaluation of each metric: only rounding may separate them
    rng = np.random.default_rng(3)
    for n in (10, 11, 12):
        for _ in range(2):
            d = random_distribution(rng, [2] * n)
            d.u_values()
            for name in METRIC_NAMES:
                e = metric_expression(name, n)
                exact = sum(
                    c * Fraction(d.subset_entropy(mask_members(mask)))
                    for mask, c in e.terms.items()
                )
                assert abs(Fraction(d.evaluate(e)) - exact) <= 1e-13, (name, n)


def test_in_span_metrics_vanish_on_products():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = product_of_marginals(random_distribution(rng, rng.integers(2, 4, size=n)))
        for name in ("tc", "dtc", "tse", "ii", "oinfo", "sinfo"):
            assert d.evaluate(metric_expression(name, n)) == pytest.approx(
                0.0, abs=TOL
            )


# ---------------------------------------------------------------------------
# product of marginals
# ---------------------------------------------------------------------------


def test_product_of_marginals_of_xor_is_uniform():
    pom = product_of_marginals(xor_triple())
    assert np.allclose(pom.pmf, 0.125)


def test_product_of_marginals_is_idempotent():
    rng = np.random.default_rng(15)
    d = product_of_marginals(random_distribution(rng, (2, 3, 2)))
    again = product_of_marginals(d)
    assert np.abs(d.pmf - again.pmf).max() < 1e-12


def test_product_of_marginals_of_copy_is_uniform():
    pom = product_of_marginals(copy_triple())
    assert np.allclose(pom.pmf, 0.125)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_negative_probability_rejected():
    pmf = np.full((2, 2), 0.3)
    pmf[0, 0] = -0.2
    with pytest.raises(ValueError):
        JointDistribution(pmf)


def test_sum_far_from_one_rejected():
    with pytest.raises(ValueError):
        JointDistribution(np.full((2, 2), 0.2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_probability_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        JointDistribution([bad, 1.0])


def test_small_drift_is_renormalized():
    d = JointDistribution(np.full((2, 2), 0.25 + 1e-12))
    assert d.pmf.sum() == pytest.approx(1.0, abs=1e-15)


def test_pmf_is_read_only():
    d = copy_pair()
    with pytest.raises(ValueError):
        d.pmf[0, 0] = 0.9


def test_from_samples_counts_frequencies():
    d = JointDistribution.from_samples([(0, 0), (1, 1), (0, 0), (1, 1)])
    assert np.allclose(d.pmf, copy_pair().pmf)


def test_from_samples_relabels_sparse_symbols():
    sparse = JointDistribution.from_samples([(0, 99991), (65537, 0), (0, 99991), (99991, 3)])
    dense = JointDistribution.from_samples([(0, 2), (1, 0), (0, 2), (2, 1)])
    assert sparse.alphabet_sizes == (3, 3)
    assert np.array_equal(sparse.pmf, dense.pmf)


def test_from_samples_rejects_ragged_and_negative_rows():
    with pytest.raises(DistributionFormatError, match="inconsistent"):
        JointDistribution.from_samples([(0, 1), (0, 1, 1)])
    with pytest.raises(DistributionFormatError, match="nonnegative"):
        JointDistribution.from_samples([(0, 1), (-1, 0)])


@pytest.mark.parametrize("build", [
    lambda: JointDistribution.from_samples([(0.9, 0), (1.2, 1), (1.7, 1)]),
    lambda: JointDistribution.from_samples([(0, 1), (True, 0)]),
    lambda: JointDistribution.from_samples([("1", 0), (0, 1)]),
    lambda: JointDistribution.from_samples(np.array([[0.0, 1.0], [1.0, 0.0]])),
    lambda: JointDistribution.from_samples(np.array([[True, False]])),
    lambda: JointDistribution.from_pmf({(0.5, 0): 0.5, (1, True): 0.5}),
    lambda: JointDistribution.from_pmf({("0", 0): 1.0}),
    lambda: JointDistribution.from_pmf({(np.float64(1), 0): 1.0}),
], ids=["float-samples", "bool-samples", "str-samples", "float-array", "bool-array",
        "float-pmf", "str-pmf", "numpy-float-pmf"])
def test_constructors_refuse_non_integer_symbols(build):
    with pytest.raises(DistributionFormatError, match="symbol .* is not an integer"):
        build()


def test_constructors_take_numpy_integers_and_relabel_big_samples():
    rows = np.random.default_rng(22).integers(0, 3, size=(50, 3))
    as_tuples = JointDistribution.from_samples([tuple(r) for r in rows.tolist()])
    for same in (
        JointDistribution.from_samples(rows),
        JointDistribution.from_samples(rows.astype(np.uint8)),
        JointDistribution.from_samples([tuple(r) for r in rows]),  # numpy int scalars
    ):
        assert same.pmf.tobytes() == as_tuples.pmf.tobytes()
    pmf = {(np.int64(1), np.uint16(0)): 0.5, (0, np.int8(1)): 0.5}
    assert JointDistribution.from_pmf(pmf).pmf.tobytes() == copy_pair().pmf[::-1].tobytes()
    # samples past int64 are relabelled; as p-table states they need a dense table
    big = JointDistribution.from_samples([(2**64, 0), (0, 1), (2**64, 1), (2**70, 1)])
    small = JointDistribution.from_samples([(1, 0), (0, 1), (1, 1), (2, 1)])
    assert big.pmf.tobytes() == small.pmf.tobytes()
    with pytest.raises(DistributionFormatError, match="dense table"):
        JointDistribution.from_pmf({(2**64, 0): 0.5, (0, 1): 0.5})


def test_from_pmf_refuses_oversized_table_before_allocating():
    # 10^12 cells would need 8 TB; the refusal must come first
    with pytest.raises(DistributionFormatError, match="dense table"):
        JointDistribution.from_pmf({(0, 0): 0.5, (999_999, 999_999): 0.5})
    with pytest.raises(DistributionFormatError, match="dense table"):
        JointDistribution.from_pmf({(MAX_DENSE_CELLS,): 1.0})


# ---------------------------------------------------------------------------
# CSV loader
# ---------------------------------------------------------------------------


def _load(text: str) -> JointDistribution:
    return load_csv(io.StringIO(text))


def test_load_csv_duplicate_state_rejected():
    with pytest.raises(DistributionFormatError):
        _load("x1,x2,p\n0,0,0.5\n0,0,0.5\n")
    # merged, the states would pass every constructor check as [0.5, 0.5]
    with pytest.raises(DistributionFormatError, match="line 4: duplicate state"):
        _load("x1,p\n0,0.5\n1,0\n1,0.5\n")


def test_load_csv_bad_sum_rejected():
    with pytest.raises(DistributionFormatError, match="sum"):
        _load("x1,x2,p\n0,0,0.2\n0,1,0.2\n1,0,0.2\n1,1,0.2\n")


def test_load_csv_with_probabilities():
    d = _load("x1,x2,p\n0,0,0.25\n0,1,0.25\n1,0,0.25\n1,1,0.25\n")
    assert d.n == 2
    assert np.allclose(d.pmf, 0.25)


def test_load_csv_samples_mode():
    d = _load("x1,x2\n0,0\n1,1\n0,0\n1,1\n")
    assert np.allclose(d.pmf, copy_pair().pmf)


def test_load_csv_reports_line_numbers():
    with pytest.raises(DistributionFormatError, match="line 3"):
        _load("x1,x2,p\n0,0,0.5\n0,zebra,0.5\n")
    with pytest.raises(DistributionFormatError, match="line 4"):
        _load("x1,x2,p\n0,0,0.5\n0,1,0.25\n1,0\n")
    with pytest.raises(DistributionFormatError, match="line 3"):
        _load("x1,x2,p\n0,0,0.5\n0,0,0.5\n")


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_load_csv_rejects_non_finite_probability(token):
    with pytest.raises(DistributionFormatError, match="line 3: probability .* is not finite"):
        _load(f"x1,x2,p\n0,0,0.5\n0,1,{token}\n1,1,0.5\n")


def test_load_csv_sum_error():
    with pytest.raises(DistributionFormatError, match="sum"):
        _load("x1,x2,p\n0,0,0.4\n1,1,0.4\n")


def test_load_csv_empty_file():
    with pytest.raises(DistributionFormatError, match="line 1"):
        _load("")


def test_load_csv_relabels_samples_past_int64():
    big = _load(f"x1,x2\n{2**64},0\n0,1\n{2**64},1\n")
    assert big.pmf.tobytes() == _load("x1,x2\n1,0\n0,1\n1,1\n").pmf.tobytes()
    with pytest.raises(DistributionFormatError, match="dense table"):
        _load(f"x1,x2,p\n{2**64},0,0.5\n0,1,0.5\n")


@pytest.mark.parametrize("template", ["x1,x2\n0,{}\n1,1\n", "x1,x2,p\n0,{},0.5\n1,1,0.5\n"])
def test_load_csv_refuses_symbols_past_the_int_digit_limit(template):
    # int() converts at most 4300 digits, leading zeros included; numpy's
    # reader would take the padded symbol, so it must leave it to the row loop
    assert _load(template.format("0" * 4299 + "1")).n == 2
    with pytest.raises(DistributionFormatError, match="line 2: symbol '0+1' is not an integer"):
        _load(template.format("0" * 4300 + "1"))


@pytest.mark.parametrize("text", ["x1,x2\n0,1\n1,-1\n", "x1,x2,p\n0,1,0.5\n1,-1,0.5\n"])
def test_load_csv_words_a_negative_symbol(text):
    with pytest.raises(DistributionFormatError, match="line 3: symbol -1 is negative"):
        _load(text)


@pytest.mark.parametrize("token", ["1.5", "1.0", "1e0"])
@pytest.mark.parametrize("template", ["x1,x2\n0,{}\n1,1\n", "x1,x2,p\n0,{},0.5\n1,1,0.5\n"])
def test_load_csv_refuses_a_float_symbol(template, token):
    # numpy's reader must refuse these (numpy 2.4, the floor, does); numpy
    # 1.x truncated "1.5" to 1 under a DeprecationWarning
    with pytest.raises(DistributionFormatError, match=f"line 2: symbol '{token}' is not an integer"):
        _load(template.format(token))


# ---------------------------------------------------------------------------
# the numpy reader against the row loop
# ---------------------------------------------------------------------------


def _outcome(text: str):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is an outcome too
            d = load_csv(io.StringIO(text))
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    return d.alphabet_sizes, d.pmf.tobytes()


@given(csv_texts())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_numpy_reader_matches_the_row_loop(text):
    with mock.patch.object(distributions, "_from_columns", return_value=None):
        rows_only = _outcome(text)
    assert _outcome(text) == rows_only


_WIDE = ",".join(f"x{i}" for i in range(1, 22))  # one variable past MAX_VARIABLES


@pytest.mark.parametrize("text, refusal", [
    ("x1,x2\n" + "".join(f"{i},{i}\n" for i in range(4097)), "dense table of 16785409 cells"),
    (f"x1,x2,p\n0,0,0.5\n{MAX_DENSE_CELLS},0,0.5\n", "dense table of 16777217 cells"),
    (_WIDE + "\n" + ",".join("0" * 21) + "\n", "at most 20 variables"),
    (_WIDE + ",p\n" + ",".join("0" * 21) + ",1\n", "at most 20 variables"),
], ids=["samples-cells", "p-table-cells", "samples-variables", "p-table-variables"])
def test_numpy_reader_refuses_an_oversized_table_itself(text, refusal):
    # a refusal that no single row causes is the row loop's too, word for
    # word, so the numpy reader raises it without reading the body again
    with mock.patch.object(distributions, "_from_columns", return_value=None):
        rows_only = _outcome(text)
    assert refusal in rows_only[1]
    with mock.patch.object(distributions, "_from_rows", side_effect=AssertionError("read twice")):
        assert _outcome(text) == rows_only
