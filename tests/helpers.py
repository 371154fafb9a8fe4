"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import linprog

from entroconj import (
    EntropyExpression,
    JointDistribution,
    Metric,
    UBasisVector,
    entropy_term,
    mutual_information_expr,
    subset_mask,
)


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


def definitional_u_expression(k: int, n: int) -> EntropyExpression:
    """u_k as an entropy expression, straight from its definition.

    Averages I(X_i ; X_j | X^a) over all pairs i < j and all (k-1)-subsets a
    avoiding them, normalised by C(n,k+1) * C(k+1,2).  Exact, and kept apart
    from the library's closed form so it can serve as an oracle for it.
    """
    acc: dict[int, Fraction] = defaultdict(Fraction)
    for i, j in combinations(range(1, n + 1), 2):
        bij = (1 << (i - 1)) | (1 << (j - 1))
        rest = [v for v in range(1, n + 1) if v != i and v != j]
        for a in combinations(rest, k - 1):
            mc = subset_mask(a, n)
            acc[mc | (1 << (i - 1))] += 1
            acc[mc | (1 << (j - 1))] += 1
            acc[mc | bij] -= 1
            acc[mc] -= 1
    norm = Fraction(1, math.comb(n, k + 1) * math.comb(k + 1, 2))
    return EntropyExpression(n, {m: c * norm for m, c in acc.items()})


def distinct_term_count(e: EntropyExpression) -> int:
    """Number of distinct entropy terms with nonzero coefficient."""
    return len(e)


def u_inner_product(c1: UBasisVector, c2: UBasisVector) -> Fraction:
    """Inner product under which the u_k are orthonormal."""
    if c1.n != c2.n:
        raise ValueError(f"variable counts differ: {c1.n} vs {c2.n}")
    return sum((x * y for x, y in zip(c1.c, c2.c)), Fraction(0))


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


def product_of_marginals(dist: JointDistribution) -> JointDistribution:
    """The independent distribution with the same single-variable marginals."""
    marginals = []
    for i in range(dist.n):
        drop = tuple(j for j in range(dist.n) if j != i)
        marginals.append(dist.pmf.sum(axis=drop) if drop else dist.pmf)
    prod = marginals[0]
    for m in marginals[1:]:
        prod = np.multiply.outer(prod, m)
    return JointDistribution(prod)


def rational_rank(rows) -> int:
    """Rank of a matrix over the rationals, by exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def _weighted_sum(n: int, parts) -> EntropyExpression:
    """Sum of w * e over (w, e) pairs, accumulated in one pass."""
    acc: dict[int, Fraction] = defaultdict(Fraction)
    for w, e in parts:
        for mask, c in e.terms.items():
            acc[mask] += w * c
    return EntropyExpression(n, acc)


def _tse_parts(n: int, halve_equal_split: bool):
    """(C(n,k)^{-1}, I(X^a ; X^{-a})) for every a with 1 <= |a| <= n/2."""
    everyone = range(1, n + 1)
    for k in range(1, n // 2 + 1):
        w = Fraction(1, math.comb(n, k))
        if halve_equal_split and 2 * k == n:
            w /= 2
        for a in combinations(everyone, k):
            rest = [i for i in everyone if i not in a]
            yield w, mutual_information_expr(n, a, rest)


def unhalved_tse_expression(n: int) -> EntropyExpression:
    """TSE sum over ordered sides: for even n each equal split counts twice.

    Sums C(n,k)^{-1} * I(X^a ; X^{-a}) over every a with 1 <= |a| <= n/2,
    without the weight 1/2 on the |a| = n/2 bipartitions.
    """
    return _weighted_sum(n, _tse_parts(n, halve_equal_split=False))


def definitional_metric_expression(metric, n: int) -> EntropyExpression:
    """A named metric expanded into subset entropies from its definition.

    Built from single entropies and mutual informations only, so it shares
    nothing with the library's u-basis closed forms and can serve as their
    oracle.  TSE halves the weight of the equal bipartitions of even n, so
    each unordered bipartition counts once.
    """
    metric = Metric(metric)
    if n < 2:
        raise ValueError("metrics need at least two variables")
    everyone = range(1, n + 1)
    whole = entropy_term(n, everyone)
    others = [[i for i in everyone if i != j] for j in everyone]
    if metric is Metric.TC:  # sum_j H(X_j) - H(X)
        parts = [(1, entropy_term(n, [j])) for j in everyone] + [(-1, whole)]
    elif metric is Metric.DTC:  # H(X) - sum_j H(X_j | X^{-j})
        parts = [(1, whole)] + [(-1, whole - entropy_term(n, rest)) for rest in others]
    elif metric is Metric.TSE:  # bipartition-averaged mutual information
        parts = _tse_parts(n, halve_equal_split=True)
    elif metric is Metric.S_INFO:  # sum_j I(X_j ; X^{-j})
        parts = [(1, mutual_information_expr(n, [j], rest)) for j, rest in zip(everyone, others)]
    elif metric is Metric.O_INFO:  # tc - dtc
        parts = [
            (1, definitional_metric_expression(Metric.TC, n)),
            (-1, definitional_metric_expression(Metric.DTC, n)),
        ]
    else:  # ii: alternating inclusion-exclusion over all nonempty subsets
        parts = [
            ((-1) ** (k + 1), entropy_term(n, a))
            for k in everyone
            for a in combinations(everyone, k)
        ]
    return _weighted_sum(n, parts)


def loading_symmetry_deviation(loadings) -> float:
    """Relative deviation of a loading vector from index-reversal symmetry."""
    v = np.asarray(loadings, dtype=float)
    scale = float(np.abs(v).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(v - v[::-1]).max()) / scale


def loading_skew_deviation(loadings) -> float:
    """Relative deviation of a loading vector from index-reversal antisymmetry."""
    v = np.asarray(loadings, dtype=float)
    scale = float(np.abs(v).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(v + v[::-1]).max()) / scale


def linearly_separable(points_a: np.ndarray, points_b: np.ndarray) -> bool:
    """Whether two 2-D point clouds admit a strictly separating line.

    Solves the feasibility program w.x + b <= -1 on one side and >= +1 on
    the other; strict separability is scale-free, so feasibility of the
    unit-margin program is equivalent.
    """
    a = np.atleast_2d(np.asarray(points_a, dtype=float))
    b = np.atleast_2d(np.asarray(points_b, dtype=float))
    rows = [[p[0], p[1], 1.0] for p in a] + [[-p[0], -p[1], -1.0] for p in b]
    res = linprog(
        c=[0.0, 0.0, 0.0],
        A_ub=np.array(rows),
        b_ub=-np.ones(len(rows)),
        bounds=[(None, None)] * 3,
        method="highs",
    )
    return res.status == 0


# ---------------------------------------------------------------------------
# atom-lattice oracles: per-mask loops over the truth table, kept apart from
# the library's packed shift-and-mask operations so they can check them
# ---------------------------------------------------------------------------


def oracle_table_error(n: int, bits: int) -> str | None:
    """Why ``MonotoneBooleanFunction(n, bits)`` must refuse, or None to accept."""
    if not 1 <= n <= 10:
        return f"source count {n} outside 1..10"
    size = 1 << n
    if not 0 <= bits < (1 << size):
        return "truth table does not fit the source count"
    if bits == 0 or bits == (1 << size) - 1:
        return "constant functions are not atoms"
    for mask in range(size):
        fm = (bits >> mask) & 1
        for b in range(n):
            if (mask >> b) & 1 and (bits >> (mask ^ (1 << b))) & 1 > fm:
                return "truth table is not monotone"
    return None


def oracle_table(n: int, bits: int) -> str:
    """Truth table as a 0/1 string, position 0 first."""
    return "".join(str((bits >> m) & 1) for m in range(1 << n))


def oracle_atoms(n: int) -> list[int]:
    """Packed tables of every atom over n sources, in lexicographic table order.

    Walks masks in increasing numeric order (every subset of a mask is
    numerically smaller, so all constraints point backwards) and branches
    only where monotonicity leaves the value free.  The two constant
    functions are dropped at the end.
    """
    size = 1 << n
    table = [0] * size
    results: list[int] = []

    def extend(mask: int) -> None:
        if mask == size:
            results.append(sum(v << m for m, v in enumerate(table)))
            return
        forced = any(table[mask ^ (1 << b)] for b in range(n) if (mask >> b) & 1)
        for value in (1,) if forced else (0, 1):
            table[mask] = value
            extend(mask + 1)

    extend(0)
    atoms = [bits for bits in results if bits != 0 and bits != (1 << size) - 1]
    return sorted(atoms, key=lambda bits: oracle_table(n, bits))


def oracle_dual(n: int, bits: int) -> int:
    """Packed dual table: f~(a) = 1 iff f(complement of a) = 0."""
    full = (1 << n) - 1
    return sum(1 << mask for mask in range(1 << n) if not (bits >> (full ^ mask)) & 1)


def oracle_antichain(n: int, bits: int) -> tuple[tuple[int, ...], ...]:
    """Minimal sets with f = 1, as sorted 1-based index tuples."""
    minimal = []
    for mask in range(1, 1 << n):
        if not (bits >> mask) & 1:
            continue
        if any((bits >> (mask ^ (1 << b))) & 1 for b in range(n) if (mask >> b) & 1):
            continue
        minimal.append(tuple(i + 1 for i in range(n) if (mask >> i) & 1))
    return tuple(sorted(minimal))


def oracle_antichain_table(n: int, antichain) -> int:
    """Packed table of the up-set of an antichain: f(a) = 1 iff a member lies in a."""
    masks = [sum(1 << (i - 1) for i in member) for member in antichain]
    return sum(1 << mask for mask in range(1 << n) if any(m & mask == m for m in masks))


# ---------------------------------------------------------------------------
# input strategies
# ---------------------------------------------------------------------------

# Cells that both readers take, and cells that either may refuse or read
# leniently: whitespace, quotes, signs, digit separators, non-ASCII digits,
# symbols past int64, comments and non-finite probabilities.
GOOD_SYMBOLS = ["0", "1", "2"]
ODD_SYMBOLS = [
    " 1", "2 ", "\t0", "\xa01", '"1"', '" 2 "', '"1"2', "+1", "-1", "-0", "00", "1_0", "\u0663",
    "9223372036854775807", "9223372036854775808", str(2**70), "", " ", "1.0", "1.5", "#1", "0x1",
]
ODD_PROBS = [
    "0.5", " 0.25", '"0.5"', "0", "-0", "1e-300", ".5", "nan", "inf", "-inf", "-0.5", "1_0", "", "#",
]


@st.composite
def csv_texts(draw, max_vars: int = 3):
    """Distribution CSV text, mostly well formed: p-tables and samples over
    1..``max_vars`` variables, with a few odd rows or cells mixed in."""
    nvars = draw(st.integers(1, max_vars))
    has_p = draw(st.booleans())
    ncols = nvars + has_p
    header = ",".join([f"x{i + 1}" for i in range(nvars)] + (["p"] if has_p else []))
    # states from a small space, so that p-tables repeat a state now and then
    states = draw(st.lists(
        st.tuples(*[st.sampled_from(GOOD_SYMBOLS)] * nvars), min_size=0, max_size=6
    ))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(states), max_size=len(states)))
    total = sum(weights)
    rows = [
        list(state) + ([repr(w / total) if total else "0"] if has_p else [])
        for state, w in zip(states, weights)
    ]
    odd = st.one_of(
        st.just([]),  # a blank line
        st.just([" "] * ncols),  # blank cells
        st.lists(st.sampled_from(GOOD_SYMBOLS), min_size=1, max_size=ncols + 1),  # ragged
        st.just(["#comment"]),
        st.tuples(*[st.sampled_from(ODD_SYMBOLS)] * nvars, *[st.sampled_from(ODD_PROBS)] * has_p).map(list),
    )
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd))
    lines = [header] + [",".join(row) for row in rows]
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.booleans()):
        ending = draw(endings)
        return "".join(line + ending for line in lines)
    return "".join(line + draw(endings) for line in lines)
