"""Named multivariate interdependence metrics.

Each metric is available both as its definitional expansion into subset
entropies and as a closed-form coefficient vector in the u_k basis:

    metric                      c_k
    total correlation (tc)      n - k
    dual total correlation      k
    TSE complexity (tse)        k (n - k) / 2
    S-information (sinfo)       n
    O-information (oinfo)       n - 2k
    interaction info (ii)       (-1)^(k+1) * C(n-2, k-1)

Conjugation swaps tc with dtc, fixes sinfo and tse, negates oinfo, and
multiplies ii by (-1)^n.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Union

from .algebra import EntropyExpression, SymmetryClass, UBasisVector, subset_mask

__all__ = [
    "Metric",
    "METRIC_NAMES",
    "metric_expression",
    "metric_u_coefficients",
    "metric_conjugation_class",
    "tse_expression",
]


class Metric(str, Enum):
    TC = "tc"
    DTC = "dtc"
    TSE = "tse"
    II = "ii"
    O_INFO = "oinfo"
    S_INFO = "sinfo"


METRIC_NAMES = tuple(m.value for m in Metric)

MetricLike = Union[Metric, str]


def _check_n(n: int) -> int:
    n = int(n)
    if n < 2:
        raise ValueError("metrics need at least two variables")
    return n


def _singleton_masks(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def _tc(n: int) -> EntropyExpression:
    # sum_j H(X_j) - H(X)
    full = (1 << n) - 1
    terms: dict[int, Fraction] = {m: Fraction(1) for m in _singleton_masks(n)}
    terms[full] = Fraction(-1)
    return EntropyExpression(n, terms)


def _dtc(n: int) -> EntropyExpression:
    # H(X) - sum_j H(X_j | X^{-j}), with H(X_j|X^{-j}) = H(X) - H(X^{-j})
    full = (1 << n) - 1
    terms: dict[int, Fraction] = defaultdict(Fraction)
    terms[full] += 1 - n
    for m in _singleton_masks(n):
        terms[full ^ m] += 1
    return EntropyExpression(n, terms)


def tse_expression(n: int) -> EntropyExpression:
    """Definitional TSE expansion: bipartition-averaged mutual information.

    Sums C(n,k)^{-1} * I(X^a ; X^{-a}) over subset sizes k = 1..floor(n/2).
    For even n the k = n/2 pass visits every bipartition {a, -a} twice, once
    from each side, so those terms get weight 1/2 and each unordered
    bipartition counts once.
    """
    n = _check_n(n)
    full = (1 << n) - 1
    acc: dict[int, Fraction] = defaultdict(Fraction)
    for k in range(1, n // 2 + 1):
        w = Fraction(1, comb(n, k))
        if n % 2 == 0 and k == n // 2:
            w /= 2
        for a in combinations(range(1, n + 1), k):
            mask = subset_mask(a, n)
            acc[mask] += w
            acc[full ^ mask] += w
            acc[full] -= w
    return EntropyExpression(n, acc)


def _sinfo(n: int) -> EntropyExpression:
    # sum_j I(X_j ; X^{-j})
    full = (1 << n) - 1
    terms: dict[int, Fraction] = defaultdict(Fraction)
    for m in _singleton_masks(n):
        terms[m] += 1
        terms[full ^ m] += 1
        terms[full] -= 1
    return EntropyExpression(n, terms)


def _oinfo(n: int) -> EntropyExpression:
    # (n-2) H(X) + sum_j (H(X_j) - H(X^{-j}))
    full = (1 << n) - 1
    terms: dict[int, Fraction] = defaultdict(Fraction)
    terms[full] += n - 2
    for m in _singleton_masks(n):
        terms[m] += 1
        terms[full ^ m] -= 1
    return EntropyExpression(n, terms)


def _ii(n: int) -> EntropyExpression:
    # alternating inclusion-exclusion over all nonempty subsets
    terms: dict[int, Fraction] = {}
    for mask in range(1, 1 << n):
        terms[mask] = Fraction((-1) ** (mask.bit_count() + 1))
    return EntropyExpression(n, terms)


def metric_expression(metric: MetricLike, n: int) -> EntropyExpression:
    """Definitional expansion of a metric into subset entropies."""
    n = _check_n(n)
    metric = Metric(metric)
    if metric is Metric.TC:
        return _tc(n)
    if metric is Metric.DTC:
        return _dtc(n)
    if metric is Metric.TSE:
        return tse_expression(n)
    if metric is Metric.II:
        return _ii(n)
    if metric is Metric.O_INFO:
        return _oinfo(n)
    return _sinfo(n)


def metric_u_coefficients(metric: MetricLike, n: int) -> UBasisVector:
    """Closed-form u-basis coordinates of a metric."""
    n = _check_n(n)
    metric = Metric(metric)
    ks = range(1, n)
    if metric is Metric.TC:
        c = [Fraction(n - k) for k in ks]
    elif metric is Metric.DTC:
        c = [Fraction(k) for k in ks]
    elif metric is Metric.TSE:
        c = [Fraction(k * (n - k), 2) for k in ks]
    elif metric is Metric.II:
        c = [Fraction((-1) ** (k + 1) * comb(n - 2, k - 1)) for k in ks]
    elif metric is Metric.O_INFO:
        c = [Fraction(n - 2 * k) for k in ks]
    else:
        c = [Fraction(n) for _ in ks]
    return UBasisVector(n, tuple(c))


def metric_conjugation_class(metric: MetricLike, n: int) -> SymmetryClass:
    """Behaviour of a metric under entropic conjugation.

    tc and dtc are conjugates of each other, hence neither symmetric nor
    skew-symmetric for n >= 3 (at n = 2 both reduce to the mutual
    information, which is symmetric).  ii alternates with the parity of n.
    oinfo reports skew-symmetric for every n; at n = 2 it is identically
    zero, where the sign-flip identity holds trivially.
    """
    n = _check_n(n)
    metric = Metric(metric)
    if metric in (Metric.S_INFO, Metric.TSE):
        return SymmetryClass.SYMMETRIC
    if metric is Metric.O_INFO:
        return SymmetryClass.SKEW_SYMMETRIC
    if metric is Metric.II:
        return SymmetryClass.SYMMETRIC if n % 2 == 0 else SymmetryClass.SKEW_SYMMETRIC
    # tc / dtc
    return SymmetryClass.SYMMETRIC if n == 2 else SymmetryClass.NEITHER
