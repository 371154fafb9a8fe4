"""Boltzmann spin ensembles, their u_k profiles, and the PCA report.

Generates systems of n spins with pairwise Gaussian couplings under three
conditions (ferromagnetic, weak, frustrated), builds each system's exact
Boltzmann distribution, computes its u_k interdependence profile, and
summarises the ensemble with a principal component analysis.  Everything is
a pure function of the configuration, so reruns are byte-identical.

The energy of a configuration x in {-1,+1}^n is

    E(x) = -(2 / (n (n-1))) * sum_{i<j} J_ij x_i x_j,

so a positive coupling mean favours aligned spins (ferromagnetic) and a
negative mean makes pairwise preferences mutually unsatisfiable
(frustrated), which is what pushes interdependence into higher orders.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__, _numpy as np
from .algebra import _as_int
from .distributions import JointDistribution

__all__ = [
    "CONDITIONS",
    "SpinEnsembleConfig",
    "EnsembleResult",
    "PCAResult",
    "condition_mean",
    "sample_couplings",
    "boltzmann_distribution",
    "run_ensemble",
    "pca",
    "run_experiment",
    "emit_results",
]

CONDITIONS = ("ferromagnetic", "weak", "frustrated")
RNG_NAME = "numpy-default-rng-pcg64"
MAX_SPINS = 12  # exact enumeration of 2^n states


def _check_spin_count(n: int) -> None:
    if n < 2:
        raise ValueError("need at least two spins")
    if n > MAX_SPINS:
        raise ValueError(f"at most {MAX_SPINS} spins (exact enumeration)")


@dataclass(frozen=True)
class SpinEnsembleConfig:
    """Parameters of one ensemble run.

    ``mu`` is the coupling mean of the ferromagnetic condition; the
    frustrated condition uses its negation and the weak condition zero.
    """

    n: int = 8
    beta: float = 1.0
    mu: float = 5.0
    sigma2: float = 2.0
    systems_per_condition: int = 10
    seed: int = 42

    def __post_init__(self):
        for name in ("n", "systems_per_condition", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        _check_spin_count(self.n)
        if not all(math.isfinite(x) for x in (self.beta, self.mu, self.sigma2)):
            raise ValueError("beta, mu and sigma2 must be finite")
        if self.sigma2 < 0:
            raise ValueError("coupling variance must be nonnegative")
        if self.systems_per_condition < 1:
            raise ValueError("need at least one system per condition")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative; numpy seeds are nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SpinEnsembleConfig":
        """Config from a manifest's ``config`` object; unknown keys are ignored."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


def condition_mean(config: SpinEnsembleConfig, condition: str) -> float:
    """Coupling mean used by a condition."""
    if condition == "ferromagnetic":
        return config.mu
    if condition == "weak":
        return 0.0
    if condition == "frustrated":
        return -config.mu
    raise ValueError(f"unknown condition {condition!r}")


def sample_couplings(
    config: SpinEnsembleConfig, condition: str, system_index: int
) -> np.ndarray:
    """Symmetric zero-diagonal coupling matrix for one system.

    Upper-triangle entries are i.i.d. Gaussian draws with the condition's
    mean and variance sigma2, taken from a PCG64 stream seeded by
    (seed, condition, system); the draw order is fixed, so results are
    reproducible bit for bit.
    """
    mean = condition_mean(config, condition)
    system_index = _as_int(system_index, "system index")
    if system_index < 0:
        raise ValueError(f"system index {system_index} is negative")
    rng = np.random.default_rng([config.seed, CONDITIONS.index(condition), system_index])
    n = config.n
    draws = rng.normal(mean, math.sqrt(config.sigma2), size=n * (n - 1) // 2)
    J = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)  # row-major, the order of the draws
    J[rows, cols] = J[cols, rows] = draws
    return J


def boltzmann_distribution(J: np.ndarray, beta: float) -> JointDistribution:
    """Exact Boltzmann distribution of n spins with couplings ``J``.

    Enumerates all 2^n configurations (symbol 0 is spin -1, symbol 1 is
    spin +1), computes their energies, and normalises by the partition sum.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError("coupling matrix must be square")
    n = J.shape[0]
    _check_spin_count(n)
    states = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    x = 2.0 * states - 1.0
    upper = np.triu(J, k=1)
    energies = -(2.0 / (n * (n - 1))) * np.einsum("si,ij,sj->s", x, upper, x)
    with np.errstate(over="ignore"):
        logw = -beta * energies
    if not np.isfinite(logw).all():
        raise ValueError(f"beta * energy is not finite at beta={beta!r}")
    logw -= logw.max()  # guards exp overflow; cancels in the normalisation
    weights = np.exp(logw)
    pmf = (weights / weights.sum()).reshape((2,) * n, order="F")
    return JointDistribution(pmf)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """u_k profiles of every generated system, tagged with its condition."""

    conditions: tuple[str, ...]
    system_ids: tuple[int, ...]
    u_matrix: np.ndarray  # rows follow conditions/system_ids; columns are u_1..u_{n-1}


def run_ensemble(config: SpinEnsembleConfig) -> EnsembleResult:
    """Generate all systems and compute their u_k profiles, in bits."""
    labels: list[str] = []
    ids: list[int] = []
    rows: list[tuple[float, ...]] = []
    for condition in CONDITIONS:
        for system_index in range(config.systems_per_condition):
            J = sample_couplings(config, condition, system_index)
            dist = boltzmann_distribution(J, config.beta)
            labels.append(condition)
            ids.append(system_index)
            rows.append(dist.u_values())
    return EnsembleResult(tuple(labels), tuple(ids), np.array(rows))


@dataclass(frozen=True, eq=False)
class PCAResult:
    """First two principal directions of the u_k profiles."""

    loadings_pc1: np.ndarray
    loadings_pc2: np.ndarray
    explained_variance: np.ndarray  # full spectrum, nonincreasing
    scores: np.ndarray  # per-system (pc1, pc2) projections


def _orient(vector: np.ndarray) -> np.ndarray:
    # fix the sign: the entry of largest magnitude (first on ties) is positive
    idx = int(np.argmax(np.abs(vector)))
    return -vector if vector[idx] < 0 else vector


def pca(data: np.ndarray) -> PCAResult:
    """Principal component analysis of row observations.

    Columns are centered but not rescaled (all u_k share units).  Components
    are eigenvectors of the sample covariance, sorted by eigenvalue; each is
    oriented so its largest-magnitude entry is positive.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need a matrix with at least two rows")
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (data.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    eigenvectors = eigenvectors[:, order]
    pc1 = _orient(eigenvectors[:, 0])
    pc2 = _orient(eigenvectors[:, 1]) if eigenvectors.shape[1] > 1 else pc1 * 0.0
    scores = centered @ np.column_stack([pc1, pc2])
    return PCAResult(pc1, pc2, eigenvalues, scores)


def run_experiment(config: SpinEnsembleConfig) -> tuple[EnsembleResult, PCAResult]:
    """Full pipeline: sample couplings, evaluate u_k profiles, run PCA."""
    ensemble = run_ensemble(config)
    return ensemble, pca(ensemble.u_matrix)


def emit_results(
    ensemble: EnsembleResult,
    pca_result: PCAResult,
    out_dir: Path | str,
    config: SpinEnsembleConfig,
) -> dict[str, Path]:
    """Write the experiment's data products into ``out_dir``.

    Produces u_profiles.csv, loadings.csv, scores.csv and manifest.json.
    Output is deterministic byte for byte for a fixed configuration.
    """
    out = Path(out_dir)
    n_cols = ensemble.u_matrix.shape[1]
    labels = list(zip(ensemble.conditions, ensemble.system_ids))
    loadings = zip(pca_result.loadings_pc1.tolist(), pca_result.loadings_pc2.tolist())
    # name -> (header, rows); str of a Python float is its shortest repr
    tables = {
        "u_profiles": (
            ["condition", "system_id"] + [f"u{k}" for k in range(1, n_cols + 1)],
            [[*label, *row] for label, row in zip(labels, ensemble.u_matrix.tolist())],
        ),
        "loadings": (["k", "pc1", "pc2"], [[k, *pcs] for k, pcs in enumerate(loadings, 1)]),
        "scores": (
            ["condition", "system_id", "pc1", "pc2"],
            [[*label, *row] for label, row in zip(labels, pca_result.scores.tolist())],
        ),
    }
    paths = {name: out / f"{name}.csv" for name in tables}
    paths["manifest"] = out / "manifest.json"
    total = float(pca_result.explained_variance.sum())
    manifest = {
        "config": config.to_dict(),
        "conditions": list(CONDITIONS),
        "explained_variance": pca_result.explained_variance.tolist(),
        "variance_share_pc1_pc2": (
            float(pca_result.explained_variance[:2].sum()) / total if total > 0 else 0.0
        ),
        "rng": RNG_NAME,
        "version": f"entroconj-{__version__}",
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
            paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        paths["manifest"].write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
            newline="\n",
        )
    except OSError as exc:
        raise OSError(f"cannot write experiment outputs under {out}: {exc}") from exc
    return paths
