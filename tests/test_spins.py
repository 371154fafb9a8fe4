"""Tests for the spin-ensemble pipeline: sampling, Boltzmann construction,
PCA, projection metrics, and file emission."""

import json
import math

import numpy as np
import pytest

from entroconj import (
    CONDITIONS,
    SpinEnsembleConfig,
    boltzmann_distribution,
    classify,
    emit_results,
    pca,
    run_ensemble,
    run_experiment,
    sample_couplings,
    to_u_basis,
    u_expression,
)
from entroconj.algebra import SymmetryClass, UBasisVector

from helpers import (
    linearly_separable,
    loading_skew_deviation,
    loading_symmetry_deviation,
    pc_metric,
)

SMALL = SpinEnsembleConfig(n=4, systems_per_condition=3, seed=11)


# ---------------------------------------------------------------------------
# coupling samples
# ---------------------------------------------------------------------------


def test_degenerate_gaussian_gives_constant_couplings():
    config = SpinEnsembleConfig(n=4, sigma2=0.0, mu=5.0, systems_per_condition=1)
    J = sample_couplings(config, "ferromagnetic", 0)
    off_diag = J[~np.eye(4, dtype=bool)]
    assert np.all(off_diag == 5.0)
    assert np.all(np.diag(J) == 0.0)


def test_couplings_are_deterministic():
    a = sample_couplings(SMALL, "frustrated", 2)
    b = sample_couplings(SMALL, "frustrated", 2)
    assert np.array_equal(a, b)


def test_different_seeds_give_different_couplings():
    other = SpinEnsembleConfig(n=4, systems_per_condition=3, seed=12)
    a = sample_couplings(SMALL, "weak", 0)
    b = sample_couplings(other, "weak", 0)
    assert not np.array_equal(a, b)


def test_couplings_are_symmetric():
    J = sample_couplings(SMALL, "ferromagnetic", 1)
    assert np.array_equal(J, J.T)


def test_unknown_condition_rejected():
    with pytest.raises(ValueError):
        sample_couplings(SMALL, "tepid", 0)


@pytest.mark.parametrize("index, message", [
    (1.5, "system index 1.5 is not an integer"),
    (True, "system index True is not an integer"),
    ("1", "system index '1' is not an integer"),
    (-1, "system index -1 is negative"),
])
def test_couplings_refuse_a_system_index_that_is_not_a_nonnegative_integer(index, message):
    with pytest.raises(ValueError, match=message):
        sample_couplings(SMALL, "weak", index)


# ---------------------------------------------------------------------------
# Boltzmann distributions
# ---------------------------------------------------------------------------


def test_zero_couplings_give_uniform():
    d = boltzmann_distribution(np.zeros((3, 3)), beta=1.0)
    assert np.allclose(d.pmf, 1 / 8)


def test_zero_temperature_weight_gives_uniform():
    J = sample_couplings(SMALL, "ferromagnetic", 0)
    d = boltzmann_distribution(J, beta=0.0)
    assert np.allclose(d.pmf, 1 / 16)


@pytest.mark.parametrize("J", [np.zeros((2, 3)), np.zeros((2, 2, 2)), np.zeros(3), 1.0])
def test_boltzmann_refuses_a_coupling_matrix_that_is_not_square(J):
    with pytest.raises(ValueError, match="coupling matrix must be square"):
        boltzmann_distribution(J, beta=1.0)


@pytest.mark.parametrize("n, message", [
    (0, "need at least two spins"),
    (1, "need at least two spins"),
    (13, "at most 12 spins"),
])
def test_boltzmann_takes_the_config_spin_range(n, message):
    with pytest.raises(ValueError, match=message):
        boltzmann_distribution(np.zeros((n, n)), beta=1.0)
    with pytest.raises(ValueError, match=message):
        SpinEnsembleConfig(n=n)


def test_two_spin_alignment_ratio():
    # with a single coupling J the aligned/anti-aligned odds are e^{2J}
    J12 = 0.7
    J = np.array([[0.0, J12], [J12, 0.0]])
    d = boltzmann_distribution(J, beta=1.0)
    aligned = d.pmf[0, 0] + d.pmf[1, 1]
    anti = d.pmf[0, 1] + d.pmf[1, 0]
    assert aligned / anti == pytest.approx(math.exp(2 * J12), rel=1e-12)


def test_weak_coupling_profile_follows_second_order_expansion():
    # with K = beta * 2J / (n (n-1)), u_k = A + B (n-1-k)/(n-2) + O(K^4) nats,
    # A = mean_{i<j} K_ij^2 / 2 and B = mean_{i<j} K_ij sum_l K_il K_lj: every
    # order k is an equally weighted average, so halving beta must cut the
    # relative error about fourfold and the tilt u_1 - u_{n-1} must follow B
    config = SpinEnsembleConfig()
    n = config.n
    pairs = np.triu_indices(n, 1)
    tilt = (n - 1 - np.arange(1, n)) / (n - 2)
    for condition in CONDITIONS:
        J = sample_couplings(config, condition, 0)
        errors = []
        for beta in (0.1, 0.05, 0.025):
            K = beta * 2.0 * J / (n * (n - 1))
            A = float(np.mean(K[pairs] ** 2 / 2))
            B = float(np.mean((K * (K @ K))[pairs]))
            predicted = A + B * tilt
            u = np.array(boltzmann_distribution(J, beta).u_values()) * math.log(2.0)
            errors.append(np.abs(u - predicted).max() / np.abs(predicted).max())
            assert np.sign(u[0] - u[-1]) == np.sign(B), (condition, beta)
            if condition == "ferromagnetic":
                assert B > 0
            if condition == "frustrated":
                assert B < 0
        for coarse, fine in zip(errors, errors[1:]):
            assert fine * 3 <= coarse, (condition, errors)


def test_probabilities_sum_to_one():
    J = sample_couplings(SpinEnsembleConfig(n=6, systems_per_condition=1), "frustrated", 0)
    d = boltzmann_distribution(J, beta=1.0)
    assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ensemble runs
# ---------------------------------------------------------------------------


def test_uncoupled_ensemble_has_zero_profiles():
    config = SpinEnsembleConfig(n=4, mu=0.0, sigma2=0.0, systems_per_condition=2)
    result = run_ensemble(config)
    assert np.abs(result.u_matrix).max() < 1e-9


def test_ensemble_shape_and_labels():
    result = run_ensemble(SMALL)
    assert result.u_matrix.shape == (9, 3)
    assert result.conditions[:3] == ("ferromagnetic",) * 3
    assert set(result.conditions) == set(CONDITIONS)
    assert result.system_ids[:3] == (0, 1, 2)


def test_ensemble_profiles_are_nonnegative():
    result = run_ensemble(SMALL)
    assert result.u_matrix.min() >= -1e-9


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_rank_one_data_recovers_direction():
    direction = np.array([3.0, 4.0]) / 5.0
    data = np.outer([1.0, -1.0, 2.0, -2.0], direction)
    result = pca(data)
    assert np.allclose(np.abs(result.loadings_pc1), direction)
    assert result.explained_variance[0] == pytest.approx(
        np.var([1, -1, 2, -2], ddof=1) * 1.0, rel=1e-12
    )
    assert result.explained_variance[1:] == pytest.approx(0.0, abs=1e-12)


def test_toy_data_eigenstructure():
    data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
    result = pca(data)
    assert np.allclose(result.loadings_pc1, [1.0, 0.0])
    assert np.allclose(result.loadings_pc2, [0.0, 1.0])
    assert result.explained_variance[0] == pytest.approx(2 / 3, rel=1e-12)
    assert result.explained_variance[1] == pytest.approx(1 / 6, rel=1e-12)


def test_loadings_are_orthonormal():
    result = pca(run_ensemble(SMALL).u_matrix)
    assert np.linalg.norm(result.loadings_pc1) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(result.loadings_pc2) == pytest.approx(1.0, abs=1e-12)
    assert abs(result.loadings_pc1 @ result.loadings_pc2) < 1e-12


def test_explained_variance_is_nonincreasing():
    result = pca(run_ensemble(SMALL).u_matrix)
    ev = result.explained_variance
    assert np.all(np.diff(ev) <= 1e-15)


def test_pca_requires_two_rows():
    with pytest.raises(ValueError):
        pca(np.ones((1, 3)))


def test_zero_variance_data_is_deterministic():
    data = np.ones((4, 3))
    a, b = pca(data), pca(data)
    assert np.array_equal(a.loadings_pc1, b.loadings_pc1)
    assert np.allclose(a.explained_variance, 0.0)


# ---------------------------------------------------------------------------
# projection metrics
# ---------------------------------------------------------------------------


def test_pc_metric_basis_element():
    assert pc_metric([1.0, 0.0, 0.0]) == u_expression(1, 4)


def test_pc_metric_constant_loadings_classify_symmetric():
    expr = pc_metric([0.5, 0.5, 0.5])
    assert classify(to_u_basis(expr)) is SymmetryClass.SYMMETRIC


def test_pc_metric_projection_consistency():
    # projecting a u-profile onto the loadings equals evaluating the
    # loading metric on the underlying distribution
    config = SpinEnsembleConfig(n=4, systems_per_condition=2, seed=3)
    ensemble, result = run_experiment(config)
    expr = pc_metric(result.loadings_pc1)
    J = sample_couplings(config, "ferromagnetic", 1)
    dist = boltzmann_distribution(J, config.beta)
    row = ensemble.u_matrix[1]
    assert dist.evaluate(expr) == pytest.approx(float(row @ result.loadings_pc1), abs=1e-6)


def test_u_vector_length_validation():
    with pytest.raises(ValueError):
        UBasisVector(3, (1, 2, 3))


# ---------------------------------------------------------------------------
# structure helpers
# ---------------------------------------------------------------------------


def test_loading_deviation_helpers():
    assert loading_symmetry_deviation([1.0, 2.0, 1.0]) == 0.0
    assert loading_skew_deviation([1.0, 0.0, -1.0]) == 0.0
    assert loading_symmetry_deviation([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert loading_skew_deviation([1.0, 0.0, 1.0]) == pytest.approx(2.0)
    assert loading_symmetry_deviation([0.0, 0.0]) == 0.0


def test_linear_separability():
    a = np.array([[0.0, 0.0], [1.0, 0.1]])
    b = np.array([[5.0, 5.0], [6.0, 4.9]])
    assert linearly_separable(a, b)
    # crossing diagonals have overlapping hulls
    cross_a = np.array([[0.0, 0.0], [2.0, 2.0]])
    cross_b = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert not linearly_separable(cross_a, cross_b)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_writes_all_products(tmp_path):
    ensemble, result = run_experiment(SMALL)
    paths = emit_results(ensemble, result, tmp_path, SMALL)
    for key in ("u_profiles", "loadings", "scores", "manifest"):
        assert paths[key].exists(), key
    scores = paths["scores"].read_text().splitlines()
    assert scores[0] == "condition,system_id,pc1,pc2"
    assert len(scores) == 1 + 9
    profiles = paths["u_profiles"].read_text().splitlines()
    assert profiles[0] == "condition,system_id,u1,u2,u3"
    # the numbers read back exactly, each in its own column
    loadings = paths["loadings"].read_text().splitlines()
    assert loadings[0] == "k,pc1,pc2"
    table = np.array([[float(x) for x in line.split(",")] for line in loadings[1:]])
    assert table.tolist() == np.column_stack(
        [np.arange(1, 4), result.loadings_pc1, result.loadings_pc2]
    ).tolist()
    for lines, values in ((scores, result.scores), (profiles, ensemble.u_matrix)):
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:2] for row in rows] == [
            [c, str(i)] for c, i in zip(ensemble.conditions, ensemble.system_ids)
        ]
        assert [[float(x) for x in row[2:]] for row in rows] == values.tolist()


def test_emit_is_byte_identical_across_reruns(tmp_path):
    for sub in ("a", "b"):
        ensemble, result = run_experiment(SMALL)
        emit_results(ensemble, result, tmp_path / sub, SMALL)
    for name in ("u_profiles.csv", "loadings.csv", "scores.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_with_retired_threshold_keys_still_loads():
    # manifests written before the criterion-6 thresholds left the config
    old = {**SMALL.to_dict(), "loading_symmetry_tol": 0.25, "variance_share_min": 0.9}
    assert SpinEnsembleConfig.from_dict(old) == SMALL


def test_manifest_round_trips_config(tmp_path):
    ensemble, result = run_experiment(SMALL)
    paths = emit_results(ensemble, result, tmp_path, SMALL)
    manifest = json.loads(paths["manifest"].read_text())
    assert SpinEnsembleConfig.from_dict(manifest["config"]) == SMALL
    assert manifest["rng"] == "numpy-default-rng-pcg64"


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SpinEnsembleConfig(n=1)
    with pytest.raises(ValueError):
        SpinEnsembleConfig(sigma2=-1.0)
    with pytest.raises(ValueError):
        SpinEnsembleConfig(systems_per_condition=0)
    with pytest.raises(ValueError):
        SpinEnsembleConfig(n=13)


@pytest.mark.parametrize("field", ["n", "systems_per_condition", "seed"])
@pytest.mark.parametrize("value", [4.0, True, "4"])
def test_config_refuses_non_integer_counts_and_seed(field, value):
    with pytest.raises(ValueError, match=f"{field} .* is not an integer"):
        SpinEnsembleConfig(**{field: value})


def test_config_takes_numpy_integers_as_ints():
    config = SpinEnsembleConfig(n=np.int64(4), systems_per_condition=np.uint8(2), seed=np.int32(7))
    assert config == SpinEnsembleConfig(n=4, systems_per_condition=2, seed=7)
    assert all(type(v) is int for v in (config.n, config.systems_per_condition, config.seed))


def test_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed -1 is negative"):
        SpinEnsembleConfig(seed=-1)


@pytest.mark.parametrize("field", ["beta", "mu", "sigma2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_parameters(field, value):
    with pytest.raises(ValueError, match="finite"):
        SpinEnsembleConfig(**{field: value})
