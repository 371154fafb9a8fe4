"""Named multivariate interdependence metrics.

Each metric is defined once, by its closed-form coordinates in the u_k
basis; its expansion into subset entropies and its conjugation class are
derived from them:

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

from enum import Enum
from fractions import Fraction
from math import comb
from typing import Union

from .algebra import EntropyExpression, SymmetryClass, UBasisVector, _as_int, classify, from_u_basis

__all__ = [
    "Metric",
    "METRIC_NAMES",
    "metric_expression",
    "metric_u_coefficients",
    "metric_conjugation_class",
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


def metric_expression(metric: MetricLike, n: int) -> EntropyExpression:
    """Expansion of a metric into subset entropies, from its u-basis coordinates."""
    return from_u_basis(metric_u_coefficients(metric, n))


def metric_u_coefficients(metric: MetricLike, n: int) -> UBasisVector:
    """Closed-form u-basis coordinates of a metric."""
    n = _as_int(n, "variable count")
    if n < 2:
        raise ValueError("metrics need at least two variables")
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
    """Symmetry class of a metric under conjugation, read off its coordinates.

    tc and dtc are neither for n >= 3; at n = 2 both are the (symmetric)
    mutual information.
    """
    c = metric_u_coefficients(metric, n)
    if c.n == 2 and Metric(metric) is Metric.O_INFO:
        # the zero vector, which classify calls symmetric; the sign flip holds
        # trivially, and oinfo is documented skew-symmetric for every n
        return SymmetryClass.SKEW_SYMMETRIC
    return classify(c)
