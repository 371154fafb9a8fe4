"""Tests for joint distributions and plug-in evaluation."""

import csv
import gc
import io
import math
import types
import warnings
import weakref
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
from entroconj.algebra import mutual_information_expr
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


def test_on_demand_marginals_equal_the_table_entries():
    # the on-demand path sums one axis at a time in the table walk's order, so
    # every value is the same float whether or not u_values built the table
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        arr = rng.random(tuple(rng.integers(2, 4, size=n).tolist()))
        arr[arr < 0.2] = 0.0
        d = JointDistribution(arr / arr.sum())
        subsets = [mask_members(mask) for mask in range(1 << n)]
        exprs = [metric_expression(name, n) for name in METRIC_NAMES]
        exprs += [random_expression(rng, n) for _ in range(5)]
        triples = [((1,), (n,), ()), ((1, 2), (3,), tuple(range(4, n + 1))), ((2,), (1,), (n,))]

        def values():
            return (
                [d.subset_entropy(m) for m in subsets],
                [d.evaluate(e) for e in exprs],
                [d.conditional_mutual_information(*abc) for abc in triples],
            )

        before = values()
        d.u_values()
        assert before[0] == d._entropy_table().tolist()
        assert values() == before


def _block_boundary() -> int:
    """The fewest binary variables whose entropy table needs more than one block."""
    n = 1
    while 3**n <= distributions._BLOCK_CELLS:
        n += 1
    return n


def _on_demand_and_table(d: JointDistribution) -> tuple[list[float], list[float]]:
    on_demand = [d._entropy_bits(mask) for mask in range(1 << d.n)]
    return on_demand, d._entropy_table().tolist()


@pytest.mark.parametrize("shape", [(10, 8, 2), (2, 12, 3, 2), (16, 3)])
def test_on_demand_marginals_equal_the_table_entries_on_long_axes(shape):
    # numpy's own sum adds pairwise along a contiguous axis of 8 or more cells
    # and in order elsewhere, so the same marginal could round differently
    # on demand and inside a block; every axis sum adds its slices in order
    rng = np.random.default_rng(sum(shape))
    arr = rng.random(shape)
    arr[arr < 0.2] = 0.0
    on_demand, table = _on_demand_and_table(JointDistribution(arr / arr.sum()))
    assert on_demand == table


def test_on_demand_marginals_equal_the_table_entries_across_blocks():
    # the walk splits this table into several blocks and walks the nodes above them
    n = _block_boundary()
    d = random_distribution(np.random.default_rng(18), [2] * n)
    on_demand, table = _on_demand_and_table(d)
    assert on_demand == table


@pytest.mark.parametrize("n", [3, _block_boundary()], ids=["one-block", "walked"])
def test_a_dropped_table_is_freed_without_the_collector(n):
    # the CLI pauses the cyclic collector for a whole command, so a table
    # must not sit in a reference cycle that outlives its distribution
    d = random_distribution(np.random.default_rng(21), [2] * n)
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = weakref.ref(d._entropy_table())
        del d
        freed = table() is None
    finally:
        if enabled:
            gc.enable()
    assert freed


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_uniform_bits_have_integer_entropies_across_blocks(offset):
    # every probability, sum and logarithm is a power of two: no rounding at all
    n = _block_boundary() + offset
    d = JointDistribution(np.full((2,) * n, 0.5**n))
    table = d._entropy_table()
    assert table.tolist() == np.bitwise_count(np.arange(1 << n)).astype(float).tolist()
    for mask in (1, (1 << n) - 1, 0b101):
        assert JointDistribution(d.pmf)._entropy_bits(mask) == mask.bit_count()


def test_point_mass_entropies_are_positive_zero():
    # a size-1 axis included; -0.0 would print as "-0.0"
    d = JointDistribution.from_pmf({(1, 0, 2, 1): 1.0})
    on_demand, table = _on_demand_and_table(d)
    for h in on_demand + table:
        assert h == 0.0 and math.copysign(1.0, h) == 1.0


@pytest.mark.parametrize("n", [4, 10, 12])
def test_table_evaluation_is_the_per_term_sum(n):
    # one float per distinct coefficient gives the same IEEE products, so
    # fsum gives the same float as term by term, with or without the table
    d = random_distribution(np.random.default_rng(n), [2] * n)
    tiny = {  # 3- and 4-term expressions, as the pid decompose guard evaluates
        "I(1,2;n)": mutual_information_expr(n, [1, 2], [n]),
        "I(1;n|2)": mutual_information_expr(n, [1], [n], [2]),
    }
    for built in (False, True):
        if built:
            d.u_values()
        for name, e in [*tiny.items(), *((m, metric_expression(m, n)) for m in METRIC_NAMES)]:
            per_term = math.fsum(float(c) * d._entropy_bits(mask) for mask, c in e.terms.items())
            assert d.evaluate(e) == per_term, (name, built)


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
    with pytest.raises(DistributionFormatError, match="^probabilities must be nonnegative$"):
        JointDistribution(pmf)


def test_sum_far_from_one_rejected():
    with pytest.raises(ValueError):
        JointDistribution(np.full((2, 2), 0.2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_probability_rejected(bad):
    with pytest.raises(DistributionFormatError, match="^probabilities must be finite$"):
        JointDistribution([bad, 1.0])


def test_small_drift_is_renormalized():
    d = JointDistribution(np.full((2, 2), 0.25 + 1e-12))
    assert d.pmf.sum() == pytest.approx(1.0, abs=1e-15)


def test_pmf_is_read_only():
    d = copy_pair()
    with pytest.raises(ValueError):
        d.pmf[0, 0] = 0.9


def test_distribution_is_immutable_and_reprs_its_shape():
    d = JointDistribution(np.full((2, 3), 1 / 6))
    assert repr(d) == "JointDistribution(2 variables, alphabet 2x3)"
    with pytest.raises(AttributeError, match="JointDistribution is immutable"):
        d._pmf = np.full((2, 3), 1 / 6)


def test_constructors_refuse_no_states():
    with pytest.raises(DistributionFormatError, match="empty distribution"):
        JointDistribution.from_pmf({})
    with pytest.raises(DistributionFormatError, match="no samples"):
        JointDistribution.from_samples([])


@pytest.mark.parametrize("build, refusal", [
    (lambda: JointDistribution([1.5, -0.5]), "probabilities must be nonnegative"),
    (lambda: JointDistribution([math.nan, 1.0]), "probabilities must be finite"),
    (lambda: JointDistribution.from_samples([[-1]]), "symbols must be nonnegative integers"),
    (lambda: JointDistribution.from_pmf((((0,), (0,)), [0.5, 0.5])), "duplicate state (0,)"),
], ids=["negative-p", "nan-p", "negative-symbol", "repeated-state"])
def test_row_rule_refusals_are_the_public_error_type(build, refusal):
    # load_csv's numpy route sends these to the row loop; the constructors
    # still raise the public type, never a private subclass
    with pytest.raises(DistributionFormatError) as direct:
        build()
    assert type(direct.value) is DistributionFormatError and str(direct.value) == refusal


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


# a bare symbol where a state row is due is refused in words


def test_from_samples_refuses_a_list_of_bare_symbols():
    with pytest.raises(DistributionFormatError, match="states must be rows of symbols"):
        JointDistribution.from_samples([0, 1])


def test_from_samples_refuses_a_one_dimensional_array():
    with pytest.raises(DistributionFormatError, match="states must be rows of symbols"):
        JointDistribution.from_samples(np.array([0, 1, 1]))


def test_from_pmf_refuses_bare_symbol_keys():
    with pytest.raises(DistributionFormatError, match="states must be rows of symbols"):
        JointDistribution.from_pmf({0: 0.5, 1: 0.5})


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


def test_pair_form_of_from_pmf_matches_the_mapping_form():
    rng = np.random.default_rng(19)
    for _ in range(40):
        shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 5))).tolist())
        cells = np.array(list(np.ndindex(shape)), dtype=np.int64).reshape(-1, len(shape))
        states = cells[rng.permutation(len(cells))[: int(rng.integers(1, len(cells) + 1))]]
        probs = rng.random(len(states))
        probs[rng.random(len(states)) < 0.3] = 0.0
        probs[0] += 0.1
        probs /= probs.sum()
        expected = JointDistribution.from_pmf(dict(zip(map(tuple, states.tolist()), probs.tolist())))
        for pair in (
            (states, probs),
            (states.astype(np.uint8), probs.tolist()),
            ([tuple(s) for s in states.tolist()], probs),
        ):
            d = JointDistribution.from_pmf(pair)
            assert d.alphabet_sizes == expected.alphabet_sizes
            assert d.pmf.tobytes() == expected.pmf.tobytes()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_pair_form_of_from_pmf_takes_unsigned_state_arrays(dtype):
    # an intp index times a uint64 column would promote to float64 and fail in bincount
    states = np.array([[0, 2], [1, 0], [1, 1]])
    probs = [0.5, 0.25, 0.25]
    expected = JointDistribution.from_pmf((states, probs))
    d = JointDistribution.from_pmf((states.astype(dtype), probs))
    assert d.alphabet_sizes == expected.alphabet_sizes == (2, 3)
    assert d.pmf.tobytes() == expected.pmf.tobytes()


@pytest.mark.parametrize("states, probs, refusal", [
    (np.array([[0], [1]]), [1.0], "2 states but probabilities of shape"),
    (np.array([[0, 1], [1, 0], [0, 1]]), [0.25, 0.5, 0.25], "duplicate state (0, 1)"),
    (np.empty((0, 2), dtype=np.int64), [], "empty distribution"),
    (np.array([[0], [-1]]), [0.5, 0.5], "symbols must be nonnegative integers"),
    (np.array([[0.5, 0.0]]), [1.0], "is not an integer"),
    (np.array([[True, False]]), [1.0], "is not an integer"),
    (np.array([[0, 0], [999_999, 999_999]]), [0.5, 0.5], "dense table"),
    (np.zeros((1, 21), dtype=np.int64), [1.0], "at most 20 variables"),
    (np.empty((1, 0), dtype=np.int64), [1.0], "at least one variable"),
    # a row rule before the dense cap, as in the CSV row loop
    (np.array([[0], [MAX_DENSE_CELLS]]), [math.nan, 1.0], "probabilities must be finite"),
    (np.array([[0], [MAX_DENSE_CELLS]]), [-0.5, 1.5], "probabilities must be nonnegative"),
], ids=["length-mismatch", "repeated-rows", "empty", "negative", "float", "bool",
        "dense-cap", "21-variables", "no-variables", "nan-past-the-dense-cap",
        "negative-p-past-the-dense-cap"])
def test_pair_form_of_from_pmf_refuses_in_the_mapping_forms_words(states, probs, refusal):
    with pytest.raises(DistributionFormatError) as pair:
        JointDistribution.from_pmf((states, probs))
    assert refusal in str(pair.value)
    mapping = dict(zip(map(tuple, states), probs))
    if len(mapping) == len(states) == len(probs):  # the same table as a mapping
        with pytest.raises(ValueError) as by_mapping:
            JointDistribution.from_pmf(mapping)
        assert (type(pair.value), str(pair.value)) == (type(by_mapping.value), str(by_mapping.value))


@pytest.mark.parametrize("p", [None, (), 0.5 + 0j], ids=["none", "empty-tuple", "complex"])
def test_from_pmf_names_a_probability_that_is_not_a_number(p):
    # numpy would read None as nan and refuse the other two in its own words
    for pmf in ({(0,): p, (1,): 1.0}, (((0,), (1,)), [p, 1.0])):
        with pytest.raises(DistributionFormatError) as refusal:
            JointDistribution.from_pmf(pmf)
        assert str(refusal.value) == f"probability {p!r} is not a number"


@pytest.mark.parametrize("probs, p", [
    (np.array([0.5 + 0.5j, 0.5]), 0.5 + 0.5j),
    (np.array([None, 1.0], dtype=object), None),
    (np.array(["abc", "0.5"]), "abc"),
], ids=["complex", "object-none", "string"])
def test_from_pmf_names_a_probability_that_is_not_a_number_in_an_array(probs, p):
    # numpy would drop the imaginary part, read None as nan and refuse 'abc' in its own words
    with pytest.raises(DistributionFormatError) as refusal:
        JointDistribution.from_pmf((((0,), (1,)), probs))
    assert str(refusal.value) == f"probability {p!r} is not a number"
    with pytest.raises(DistributionFormatError) as direct:  # the constructor reads it alike
        JointDistribution(probs)
    assert str(direct.value) == str(refusal.value)


_THING = object()


@pytest.mark.parametrize("pmf, refusal", [
    ([None, 1.0], "probability None is not a number"),
    ([0.5 + 0.7j, 0.5], "probability (0.5+0.7j) is not a number"),
    (["a", 0.5], "probability 'a' is not a number"),
    ([[0.5, 0.0], [0.5, None]], "probability None is not a number"),
    (_THING, f"probability {_THING!r} is not a number"),
    ([(), 1.0], "probabilities must form a rectangular array"),
    ([[0.5], [0.25, 0.25]], "probabilities must form a rectangular array"),
    ([np.zeros((2, 3)), np.zeros((2, 4))], "probabilities must form a rectangular array"),
], ids=["none", "complex", "string", "none-2d", "object", "empty-tuple", "ragged", "ragged-arrays"])
def test_the_constructor_names_a_probability_that_is_not_a_number(pmf, refusal):
    # numpy would read None as nan, drop the imaginary part, refuse 'a' and
    # a ragged list in its own words
    with pytest.raises(DistributionFormatError) as direct:
        JointDistribution(pmf)
    assert type(direct.value) is DistributionFormatError and str(direct.value) == refusal


def test_from_pmf_reads_an_array_of_another_kind_as_its_list():
    states = ((0,), (1,))
    for probs in (np.array(["0.25", "0.75"]), np.array([0.25, 0.75], dtype=object)):
        built = JointDistribution.from_pmf((states, probs))
        assert built.pmf.tobytes() == JointDistribution.from_pmf((states, probs.tolist())).pmf.tobytes()


def _relabelled_by_unique(data) -> tuple[tuple[int, ...], bytes]:
    """The samples' alphabet and pmf bytes, each column relabelled by a sort."""
    columns = [np.unique(column, return_inverse=True) for column in np.asarray(data).T]
    sizes = tuple(len(symbols) for symbols, _ in columns)
    flat = np.ravel_multi_index([inverse for _, inverse in columns], sizes)
    d = JointDistribution(np.bincount(flat, minlength=math.prod(sizes)).reshape(sizes) / len(flat))
    return sizes, d.pmf.tobytes()


@pytest.mark.parametrize("case", [
    "largest-n-1", "largest-n", "one-symbol", "uint8", "sparse", "past-int64",
])
def test_presence_relabel_equals_the_sorted_relabel(case):
    # a column whose largest symbol is below the row count is relabelled by
    # a presence table, any other by np.unique; both give np.unique's codes
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(20):
        rows = int(rng.integers(4, 40))  # above column 1's largest symbol, 2
        data = rng.integers(0, rows, size=(rows, 3))
        data[rng.integers(rows), 0] = rows - 1
        data[:, 1] = rng.integers(0, 3, size=rows)
        sorted_columns = 0
        if case == "largest-n":
            data[rng.integers(rows), 2] = rows
            sorted_columns = 1
        elif case == "one-symbol":
            data[:, 2] = rng.integers(0, rows)
        elif case == "uint8":
            data = rng.integers(0, 256, size=(300, 3)).astype(np.uint8)
            data[7, 0] = 255  # seen needs 256 slots
        elif case == "sparse":
            data[:, 2] = np.array([0, 65537, 99991])[data[:, 1]]
            data[0, 2] = 99991
            sorted_columns = 1
        expected = _relabelled_by_unique(data)
        if case == "past-int64":
            data = [tuple(row) for row in data.tolist()]
            data[0] = (2**64,) + data[0][1:]
            expected = _relabelled_by_unique(np.array(data, dtype=object))
            sorted_columns = 3
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            d = JointDistribution.from_samples(data)
        assert unique.call_count == sorted_columns
        assert (d.alphabet_sizes, d.pmf.tobytes()) == expected


@pytest.mark.parametrize("dtype", [np.uint16, np.int64])
def test_from_samples_indexes_by_intp_columns(dtype):
    # numpy casts a non-intp index array to intp on every use, and a column
    # relabelled by presence is used as an index twice
    casts = []

    class CastLog(np.ndarray):
        def astype(self, dtype, *args, **kwargs):
            casts.append(np.dtype(dtype))
            return super().astype(dtype, *args, **kwargs)

    data = np.array([[0, 1, 2], [1, 0, 0], [2, 1, 0], [0, 0, 1]], dtype=dtype)
    d = JointDistribution.from_samples(data.view(CastLog))
    assert casts == [np.dtype(np.intp)] * 3
    assert d.pmf.tobytes() == JointDistribution.from_samples(data.tolist()).pmf.tobytes()


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


_WIDE = ",".join(f"x{i}" for i in range(1, 22))  # one variable past MAX_VARIABLES


@pytest.mark.parametrize("text, refusal", [
    ("x1,p\n0,0.25\n1,0.25\n2,0.25\n0,0.25\n", "line 5: duplicate state (0,) (first at line 2)"),
    (f"x1,x2,p\n0,0,0.5\n{MAX_DENSE_CELLS},0,0.25\n0,0,0.25\n",
     "line 4: duplicate state (0, 0) (first at line 2)"),
    (f"x1,x2,p\n{MAX_DENSE_CELLS},0,0.5\n0,0,nan\n", "line 3: probability 'nan' is not finite"),
    (f"x1,x2,p\n{MAX_DENSE_CELLS},0,1.5\n0,0,-0.5\n", "line 3: negative probability"),
    (_WIDE + "\n" + ",".join("0" * 21) + "\n-1" + ",0" * 20 + "\n", "line 3: symbol -1 is negative"),
], ids=["not-adjacent", "over-the-dense-cap", "nan-over-the-dense-cap",
        "negative-p-over-the-dense-cap", "negative-symbol-past-the-variable-cap"])
def test_load_csv_words_a_repeated_state_anywhere(text, refusal):
    # the row loop reports a repeat, and every other row rule, before a
    # table cap; the numpy reader too
    with mock.patch.object(distributions, "_from_columns", return_value=None):
        assert _outcome(text) == (DistributionFormatError, refusal)
    assert _outcome(text) == (DistributionFormatError, refusal)


def _compensated_sum(values, start=0):
    return math.fsum(values) + start


def test_load_csv_sum_verdict_does_not_depend_on_how_the_file_is_added():
    # Added left to right in file order, 1.0000000009999992 and five 0.6-ulp
    # terms round up at each step, to 1.0000000010000003, past the tolerance;
    # a compensated sum (Python 3.12's sum) gives 1.0000000009999999, within
    # it.  The one sum rule reads the dense table the constructor normalizes,
    # so both readers accept the body on any interpreter.
    small = 0.6 * 2.0**-52
    text = "x1,p\n5,1.0000000009999992\n" + "".join(f"{i},{small!r}\n" for i in range(5))
    accepted = _outcome(text)
    assert accepted[0] == (6,)
    with mock.patch.object(distributions, "_from_columns", return_value=None):
        assert _outcome(text) == accepted
    with mock.patch("builtins.sum", _compensated_sum):
        assert _outcome(text) == accepted
        with mock.patch.object(distributions, "_from_columns", return_value=None):
            assert _outcome(text) == accepted


def test_load_csv_frees_the_header_buffer_before_the_body_is_parsed():
    # the header reader's StringIO holds four bytes a character, a copy of
    # the whole text: none may be alive while a reader parses the body
    made = []

    def recording(*args, **kwargs):
        buffer = io.StringIO(*args, **kwargs)
        made.append(weakref.ref(buffer))
        return buffer

    alive_at_entry = []
    from_columns = distributions._from_columns

    def entered(*args):
        alive_at_entry.append(sum(ref() is not None for ref in made))
        return from_columns(*args)

    with mock.patch.object(distributions, "io", types.SimpleNamespace(StringIO=recording)), \
            mock.patch.object(distributions, "_from_columns", entered):
        d = load_csv(io.StringIO("x1,x2\n0,1\n1,0\n"))
    assert d.alphabet_sizes == (2, 2)
    assert made and alive_at_entry == [0]


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
    with pytest.raises(DistributionFormatError, match=r"^line 3: probability 'abc' is not a number$"):
        _load("x1,x2,p\n0,0,0.5\n0,1,abc\n")
    # the sum is 1, so only the row rule refuses it
    with pytest.raises(DistributionFormatError, match="^line 3: negative probability$"):
        _load("x1,p\n0,1.5\n1,-0.5\n")
    with pytest.raises(DistributionFormatError, match=r"^line 1: field larger than field limit \(131072\)$"):
        _load("x" * 200_000 + ",p\n0,1\n")


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


@pytest.mark.parametrize("text, refusal", [
    ("\n0,1\n", "line 1: empty header"),
    ("p\n0.5\n", "line 1: no variable columns"),
    (" P \n1\n", "line 1: no variable columns"),
])
def test_load_csv_refuses_a_header_without_variables(text, refusal):
    with pytest.raises(DistributionFormatError, match=refusal):
        _load(text)


def test_load_csv_opens_a_path_given_as_str_or_path(tmp_path):
    path = tmp_path / "copy.csv"
    path.write_text("x1,x2,p\n0,0,0.5\n1,1,0.5\n", encoding="utf-8")
    for source in (str(path), path):
        assert load_csv(source).pmf.tobytes() == copy_pair().pmf.tobytes()


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


class _UnwordedRowFault(DistributionFormatError):
    """A constructor's row-rule refusal, marked to be seen if one leaves load_csv."""


@given(csv_texts())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_numpy_reader_matches_the_row_loop(text):
    with mock.patch.object(distributions, "_from_columns", return_value=None), \
            mock.patch.object(distributions, "_row_fault", _UnwordedRowFault):
        rows_only = _outcome(text)
    assert rows_only[0] is not _UnwordedRowFault  # the row loop words every row rule
    assert _outcome(text) == rows_only


_EIGHT = ",".join(f"x{i}" for i in range(1, 9)) + "\n"


@pytest.mark.parametrize("text, refusal", [
    ("x1,x2\n" + "".join(f"{i},{i}\n" for i in range(4097)), "dense table of 16785409 cells"),
    (_EIGHT + "".join(f"{i},{i},{i},{i},{i},{i},{i},{i}\n" for i in range(10)),
     "dense table of 100000000 cells"),
    (f"x1,x2,p\n0,0,0.5\n{MAX_DENSE_CELLS},0,0.5\n", "dense table of 16777217 cells"),
    (_WIDE + "\n" + ",".join("0" * 21) + "\n", "at most 20 variables"),
    (_WIDE + ",p\n" + ",".join("0" * 21) + ",1\n", "at most 20 variables"),
    ("x1,x2,p\n0,0,0.25\n0,1,0.25\n1,0,0.25\n1,1,0.125\n",
     "probabilities sum to 0.875, expected 1 within 1e-09"),
    # a cap and the sum both broken: the cap's message comes first
    (f"x1,x2,p\n0,0,0.5\n{MAX_DENSE_CELLS},0,0.4\n", "dense table of 16777217 cells"),
    (_WIDE + ",p\n" + ",".join("0" * 21) + ",0.9\n", "at most 20 variables"),
], ids=["samples-cells", "samples-cells-one-digit", "p-table-cells", "samples-variables",
        "p-table-variables", "p-table-sum", "p-table-cells-and-sum", "p-table-variables-and-sum"])
def test_numpy_reader_refuses_an_oversized_table_itself(text, refusal):
    # a refusal that no single row causes (a cap, or the sum) is the row
    # loop's too, word for word, so the numpy reader raises it without
    # reading the body again
    with mock.patch.object(distributions, "_from_columns", return_value=None):
        rows_only = _outcome(text)
    assert rows_only[0] is DistributionFormatError and refusal in rows_only[1]
    with mock.patch.object(distributions, "_from_rows", side_effect=AssertionError("read twice")):
        assert _outcome(text) == rows_only


# Bodies the byte reader takes, and bodies it leaves to loadtxt.
_BYTE_BODIES = {
    "single-digit": "x1,x2\n" + "".join(f"{i % 3},{i % 2}\n" for i in range(10)),
    "every-digit": "x1,x2,x3\n" + "".join(f"{i},{9 - i},{i * i % 10}\n" for i in range(10)),
    "no-final-lf": "x1,x2\n1,2\n3,4\n1,4",
    "one-row-no-lf": "x1,x2\n1,2",
    "one-column": "x1\n" + "".join(f"{i * i % 10}\n" for i in range(8)),
}
_LOADTXT_BODIES = {
    "multi-digit": "x1,x2\n10,12345\n3,10\n12345,3\n10,3\n",
    "leading-zeros": "x1,x2\n007,1\n7,01\n0,00\n10,010\n",
    "widest": f"x1,x2\n{'9' * 18},0\n{'0' * 17}1,{10**17}\n0,{'9' * 18}\n",
    "spaced": "x1,x2\n0, 1\n1,0\n",
    "signed": "x1,x2\n+1,0\n1,0\n",
    "quoted": 'x1,x2\n"1",0\n1,0\n',
    "crlf": "x1,x2\r\n0,1\r\n1,0\r\n",
    "blank-line": "x1,x2\n0,1\n\n1,0\n",
    "19-digit": f"x1,x2\n{10**18},0\n1,0\n",
    "non-ascii-digit": "x1,x2\n\u0663,0\n1,0\n",
    "ragged": "x1,x2\n10,1,2\n3\n",
    "ragged-one-digit": "x1,x2\n0,1,2\n3\n",  # two bytes a field, but not a row's
    "semicolon": "x1,x2\n0;1\n1,0\n",
    "colon": "x1,x2\n:,1\n1,0\n",  # the byte after 9
    # a quoted line break stays in its field, for loadtxt as for csv
    "quoted-line-break": 'x1,x2\n"1\n2",0\n1,0\n',
    "quoted-final-line-break": 'x1,x2\n"1\n",0\n1,0\n',
    "p-table-quoted-line-break": 'x1,p\n"1\n0",0.5\n1,0.5\n',
    "p-table-quoted-final-line-break": 'x1,p\n0,"0.5\n"\n1,0.5\n',
}


@pytest.mark.parametrize("text", _BYTE_BODIES.values(), ids=_BYTE_BODIES)
def test_byte_reader_takes_canonical_sample_bodies(text):
    with mock.patch.object(distributions, "_from_columns", return_value=None):
        rows_only = _outcome(text)
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("read by loadtxt")), \
            mock.patch.object(distributions, "_from_rows", side_effect=AssertionError("read by rows")):
        assert _outcome(text) == rows_only


@pytest.mark.parametrize("text", _LOADTXT_BODIES.values(), ids=_LOADTXT_BODIES)
def test_byte_reader_leaves_other_bodies_to_loadtxt(text):
    with mock.patch.object(distributions, "_from_columns", return_value=None):
        rows_only = _outcome(text)
    assert _outcome(text) == rows_only
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("read by loadtxt")):
        assert _outcome(text) == (AssertionError, "read by loadtxt")


def test_load_csv_keeps_a_quoted_line_break_in_its_field():
    with pytest.raises(DistributionFormatError, match=r"^line 2: symbol '1\\n2' is not an integer$"):
        _load(_LOADTXT_BODIES["quoted-line-break"])
    assert _load(_LOADTXT_BODIES["quoted-final-line-break"]).pmf.tobytes() == np.ones((1, 1)).tobytes()


@pytest.mark.parametrize("text, loadtxt_calls", [
    (_BYTE_BODIES["every-digit"], 0),
    (_LOADTXT_BODIES["multi-digit"], 1),
    ("x1,x2,p\n0,0,0.5\n1,1,0.5\n", 1),
], ids=["byte-samples", "loadtxt-samples", "p-table"])
def test_numpy_reader_checks_the_symbols_once(text, loadtxt_calls):
    # the constructors are the one check of each row rule
    with mock.patch.object(distributions, "_symbol_array", wraps=distributions._symbol_array) as checks, \
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(distributions, "_from_rows", side_effect=AssertionError("read by rows")):
        load_csv(io.StringIO(text))
    assert (checks.call_count, loadtxt.call_count) == (1, loadtxt_calls)


@pytest.mark.parametrize("limit", [0, 1])
def test_byte_reader_keeps_the_csv_field_limit(limit):
    # empty variable names pass a limit of 0, which refuses every symbol
    text = ",\n0,1\n1,0\n"
    old = csv.field_size_limit(limit)
    try:
        with mock.patch.object(distributions, "_from_columns", return_value=None):
            rows_only = _outcome(text)
        assert (rows_only[0] is DistributionFormatError) == (limit == 0)
        assert _outcome(text) == rows_only
    finally:
        csv.field_size_limit(old)
