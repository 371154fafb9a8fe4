"""Tests for joint distributions and plug-in evaluation."""

import io
import math

import numpy as np
import pytest

from entroconj import (
    DistributionFormatError,
    JointDistribution,
    conjugate,
    entropy_term,
    load_csv,
    metric_expression,
    u_expression,
)
from entroconj.distributions import MAX_DENSE_CELLS

from helpers import (
    awkward_pmfs,
    brute_entropy_bits,
    copy_pair,
    copy_triple,
    definitional_u_values,
    parity_distribution,
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


def test_natural_log_units():
    d = xor_triple()
    assert d.subset_entropy([1, 2, 3], base=math.e) == pytest.approx(
        2.0 * math.log(2.0), abs=TOL
    )


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


def test_u_values_in_nats_scale_the_bit_profile():
    d = random_distribution(np.random.default_rng(19), (2, 3, 4, 2))
    assert d.u_values(base=math.e) == pytest.approx(
        [u * math.log(2.0) for u in d.u_values()], abs=1e-12
    )


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


def test_in_span_metrics_vanish_on_products():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = random_distribution(rng, rng.integers(2, 4, size=n)).product_of_marginals()
        for name in ("tc", "dtc", "tse", "ii", "oinfo", "sinfo"):
            assert d.evaluate(metric_expression(name, n)) == pytest.approx(
                0.0, abs=TOL
            )


# ---------------------------------------------------------------------------
# product of marginals
# ---------------------------------------------------------------------------


def test_product_of_marginals_of_xor_is_uniform():
    pom = xor_triple().product_of_marginals()
    assert np.allclose(pom.pmf, 0.125)


def test_product_of_marginals_is_idempotent():
    rng = np.random.default_rng(15)
    d = random_distribution(rng, (2, 3, 2)).product_of_marginals()
    again = d.product_of_marginals()
    assert np.abs(d.pmf - again.pmf).max() < 1e-12


def test_product_of_marginals_of_copy_is_uniform():
    pom = copy_triple().product_of_marginals()
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


def test_from_pmf_refuses_oversized_table_before_allocating():
    # 10^12 cells would need 8 TB; the refusal must come first
    with pytest.raises(DistributionFormatError, match="dense table"):
        JointDistribution.from_pmf({(0, 0): 0.5, (999_999, 999_999): 0.5})
    with pytest.raises(DistributionFormatError, match="dense table"):
        JointDistribution.from_pmf({(0,): 1.0}, alphabet_sizes=(MAX_DENSE_CELLS + 1,))


def test_from_csv_duplicate_state_rejected():
    with pytest.raises(DistributionFormatError):
        JointDistribution.from_csv([((0, 0), 0.5), ((0, 0), 0.5)])


def test_from_csv_bad_sum_rejected():
    rows = [((0, 0), 0.2), ((0, 1), 0.2), ((1, 0), 0.2), ((1, 1), 0.2)]
    with pytest.raises(DistributionFormatError, match="sum"):
        JointDistribution.from_csv(rows)


# ---------------------------------------------------------------------------
# CSV loader
# ---------------------------------------------------------------------------


def _load(text: str) -> JointDistribution:
    return load_csv(io.StringIO(text))


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
