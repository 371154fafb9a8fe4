"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from entroconj import EntropyExpression, JointDistribution


def xor_triple() -> JointDistribution:
    """X1, X2 uniform independent bits, X3 = X1 xor X2."""
    return JointDistribution.from_pmf(
        {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25}
    )


def copy_triple() -> JointDistribution:
    """A single uniform bit copied three times."""
    return JointDistribution.from_pmf({(0, 0, 0): 0.5, (1, 1, 1): 0.5})


def copy_pair() -> JointDistribution:
    return JointDistribution.from_pmf({(0, 0): 0.5, (1, 1): 0.5})


def parity_distribution(n: int) -> JointDistribution:
    """First n-1 bits uniform independent, last bit their parity."""
    states = {}
    for bits in product((0, 1), repeat=n - 1):
        state = bits + (sum(bits) % 2,)
        states[state] = 1.0 / 2 ** (n - 1)
    return JointDistribution.from_pmf(states)


def random_distribution(rng: np.random.Generator, sizes) -> JointDistribution:
    pmf = rng.random(tuple(sizes))
    return JointDistribution(pmf / pmf.sum())


def random_expression(
    rng: np.random.Generator, n: int, max_terms: int = 6
) -> EntropyExpression:
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        mask = int(rng.integers(1, 1 << n))
        coeff = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        terms[mask] = terms.get(mask, Fraction(0)) + coeff
    return EntropyExpression(n, terms)


def brute_entropy_bits(pmf: dict, members) -> float:
    """Plug-in marginal entropy straight from a state->probability dict.

    Kept independent of the library's array pipeline so it can serve as an
    oracle for it.
    """
    members = tuple(members)
    marginal: dict = {}
    for state, p in pmf.items():
        key = tuple(state[i - 1] for i in members)
        marginal[key] = marginal.get(key, 0.0) + p
    return -sum(p * math.log2(p) for p in marginal.values() if p > 1e-15)


def definitional_u_values(dist: JointDistribution) -> tuple[float, ...]:
    """The u_1..u_{n-1} profile in bits, straight from its definition.

    For each k this averages I(X_i ; X_j | X^a) over all pairs i < j and all
    (k-1)-subsets a avoiding them.  Each marginal is summed from the pmf on
    its own, so neither the library's entropy table nor its closed form is
    involved.
    """
    pmf = dist.pmf
    n = dist.n
    cache: dict[int, float] = {0: 0.0}

    def h(mask: int) -> float:
        if mask not in cache:
            drop = tuple(i for i in range(n) if not (mask >> i) & 1)
            p = (pmf.sum(axis=drop) if drop else pmf).ravel()
            p = p[p > 1e-15]
            cache[mask] = max(0.0, float(-(p * np.log2(p)).sum()))
        return cache[mask]

    out = []
    for k in range(1, n):
        total = 0.0
        for i, j in combinations(range(n), 2):
            bij = (1 << i) | (1 << j)
            rest = [v for v in range(n) if v != i and v != j]
            for a in combinations(rest, k - 1):
                mc = sum(1 << v for v in a)
                total += h(mc | (1 << i)) + h(mc | (1 << j)) - h(mc | bij) - h(mc)
        out.append(total / (math.comb(n, k + 1) * math.comb(k + 1, 2)))
    return tuple(out)


def awkward_pmfs(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Random pmfs on mixed alphabets (axis sizes 2-4, n <= 7) with exact zeros.

    Every fourth one is a point mass; the rest zero out about a third of
    their cells.  Tables are kept to at most 2048 cells so brute-force
    oracles stay quick.
    """
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 8))
        sizes = tuple(int(x) for x in rng.integers(2, 5, size=n))
        if math.prod(sizes) > 2048:
            continue
        if len(out) % 4 == 3:
            pmf = np.zeros(sizes)
            pmf[tuple(int(rng.integers(s)) for s in sizes)] = 1.0
        else:
            pmf = rng.random(sizes)
            pmf[rng.random(sizes) < 0.35] = 0.0
            if not pmf.any():
                continue
            pmf /= pmf.sum()
        out.append(pmf)
    return out
