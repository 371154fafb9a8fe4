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
    MonotoneBooleanFunction,
    UBasisVector,
    bf_to_antichain,
    cmi_atom_set,
    dual,
    entropy_term,
    enumerate_atoms,
    from_u_basis,
    mask_members,
    mutual_information_expr,
    reference_pid,
    subset_mask,
)
from entroconj.pid import _checked_tables, _dual_tables, _specific_information_bits


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


def oracle_is_label_symmetric(e: EntropyExpression) -> bool:
    """Label symmetry by two passes: distinct coefficients, then coverage, per size.

    Kept apart from the library's one-pass scan so it can serve as its oracle.
    """
    by_size: dict[int, set[Fraction]] = defaultdict(set)
    count_by_size: dict[int, int] = defaultdict(int)
    for mask, c in e.terms.items():
        size = mask.bit_count()
        by_size[size].add(c)
        count_by_size[size] += 1
    for size, coeffs in by_size.items():
        if len(coeffs) > 1:
            return False
        # stored coefficients are nonzero, so a partially covered size
        # mixes zero and nonzero coefficients
        if count_by_size[size] != math.comb(e.n, size):
            return False
    return True


def oracle_sum(e1: EntropyExpression, e2: EntropyExpression) -> EntropyExpression:
    """e1 + e2 added term by term through the public constructor, which drops
    zero sums; kept apart from the library's shared-coefficient addition."""
    terms: dict[int, Fraction] = defaultdict(Fraction, e1.terms)
    for mask, c in e2.terms.items():
        terms[mask] += c
    return EntropyExpression(e1.n, terms)


def oracle_scale(e: EntropyExpression, scalar) -> EntropyExpression:
    """scalar * e, one product per term, through the public constructor."""
    return EntropyExpression(e.n, {mask: c * Fraction(scalar) for mask, c in e.terms.items()})


def oracle_conjugate(e: EntropyExpression) -> EntropyExpression:
    """H(X^a) -> H(X^{-a}) - H(X) applied term by term; the public constructor
    drops the H() term that the full set maps to."""
    full = (1 << e.n) - 1
    terms: dict[int, Fraction] = defaultdict(Fraction)
    for mask, c in e.terms.items():
        terms[full ^ mask] += c
        terms[full] -= c
    return EntropyExpression(e.n, terms)


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


def pc_metric(loadings) -> EntropyExpression:
    """The high-order metric sum_k loading_k * u_k as an entropy expression.

    Loadings are converted to exact rationals at 1e-12 precision before
    expansion, so the result lives in the symbolic layer.
    """
    coeffs = tuple(Fraction(float(x)).limit_denominator(10**12) for x in loadings)
    return from_u_basis(UBasisVector(len(coeffs) + 1, coeffs))


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


def atom_leq(f: MonotoneBooleanFunction, g: MonotoneBooleanFunction) -> bool:
    """Pointwise order on truth tables: f <= g iff f(a) <= g(a) for all a."""
    if f.n != g.n:
        raise ValueError("atoms live over different source counts")
    return f.bits & ~g.bits == 0


def oracle_reference_pid(dist: JointDistribution) -> dict[MonotoneBooleanFunction, float]:
    """``reference_pid`` as a loop over atom objects, with no source cap.

    Atoms are valued most ones first; each value is its redundancy minus the
    sum of the values already found for the atoms above it under
    ``atom_leq``, added in the order they were found.  The library's packed
    step adds the same floats in the same order, so the values agree bit
    for bit.
    """
    m = dist.n - 1
    p_y = dist.pmf.sum(axis=tuple(range(m)))
    specific = {
        members: _specific_information_bits(dist, members)
        for members in map(mask_members, range(1, 1 << m))
    }
    values: dict[MonotoneBooleanFunction, float] = {}
    for f in sorted(enumerate_atoms(m), key=lambda f: (-f.bits.bit_count(), f.bits)):
        stacked = np.array([specific[member] for member in bf_to_antichain(f)])
        upper = sum(v for g, v in values.items() if atom_leq(f, g))
        values[f] = float((p_y * stacked.min(axis=0)).sum()) - upper
    return {f: values[f] for f in enumerate_atoms(m)}


def random_antichain(rng: np.random.Generator, n: int) -> tuple[tuple[int, ...], ...]:
    """A random antichain over n sources: the minimal members of a few random
    nonempty source sets, as sorted 1-based index tuples."""
    masks = {int(m) for m in rng.integers(1, 1 << n, size=int(rng.integers(1, 2 * n + 1)))}
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    return tuple(sorted(tuple(i + 1 for i in range(n) if (m >> i) & 1) for m in minimal))


def atom_json(f, value: float | None = None) -> dict:
    """One atom as the pid commands print it, built from the oracles above.

    ``json.dumps(..., indent=2)`` of these dicts is the text the CLI's atom
    renderer must print byte for byte.
    """
    obj = {
        "antichain": [list(member) for member in oracle_antichain(f.n, f.bits)],
        "table": oracle_table(f.n, f.bits),
    }
    if value is not None:
        obj["value"] = value
    return obj


def swapped_dual(n: int):
    """``pid._dual_tables`` with the images of the first and the last atom over
    n >= 2 sources exchanged: still a permutation of the atoms, not the duality."""
    first, last = _checked_tables(n)[[0, -1]].tolist()

    def dual_tables(tables, _n):
        out = np.where(tables == first, _dual_tables(last, n), _dual_tables(tables, n))
        return np.where(tables == last, _dual_tables(first, n), out)

    return dual_tables


def outside_dual(n: int):
    """``pid._dual_tables`` with one atom's image moved one below its true
    image, onto a table that is no atom, so that a lookup of the image by its
    sorted position among the atoms would still land on the true image."""
    atoms = set(_checked_tables(n).tolist())
    moved = next(t for t in sorted(atoms) if _dual_tables(t, n) - 1 not in atoms)

    def dual_tables(tables, _n):
        return np.where(tables == moved, _dual_tables(moved, n) - 1, _dual_tables(tables, n))

    return dual_tables


def pid_conjugate_check(dist: JointDistribution, a, b=()) -> tuple[float, float]:
    """Dual-atom sum versus the complementary conditional MI.

    Returns the pair (sum over the atoms of I(X^a ; Y | X^b) of their duals'
    values, numeric I(X^a ; Y | X^{(a u b)^C})); the two agree whenever the
    decomposition is consistent, realising the conjugation of conditional
    mutual informations at the atom level.
    """
    m = dist.n - 1
    ma = subset_mask(a, m)
    mb = subset_mask(b, m)
    values = reference_pid(dist)
    lhs = sum(values[dual(f)] for f in cmi_atom_set(m, a, b))
    complement = mask_members(((1 << m) - 1) ^ (ma | mb))
    rhs = dist.conditional_mutual_information(mask_members(ma), (dist.n,), complement)
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# linear codes and the reversed entropy table: exact and second-path oracles
# for conjugation on data
# ---------------------------------------------------------------------------


def _packed_rows(rows) -> list[int]:
    """Each row of a 0/1 matrix as an int, entry i at bit i."""
    return [sum(bit << i for i, bit in enumerate(row)) for row in np.asarray(rows, dtype=np.uint8).tolist()]


def _packed_rank(vectors) -> int:
    """Rank over GF(2) of packed vectors, one at a time against a pivot per leading bit."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def gf2_rank(rows) -> int:
    """Rank over GF(2) of a 0/1 matrix."""
    return _packed_rank(_packed_rows(rows))


def random_generator(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """A k x n binary generator matrix of full rank k, drawn until one is."""
    while True:
        g = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if gf2_rank(g) == k:
            return g


def codewords(g: np.ndarray) -> np.ndarray:
    """Every codeword of the code that the rows of ``g`` span, one row each."""
    messages = np.array(list(product((0, 1), repeat=len(g))), dtype=np.int64)
    return (messages @ g) % 2


def dual_basis(g: np.ndarray) -> np.ndarray:
    """A basis of the dual code: n - rank rows h with g h^T = 0 over GF(2).

    Row-reduces ``g``; each free column c gives the null vector with a one
    at c and, at the pivot of each reduced row, that row's entry at c.
    """
    m = np.array(g, dtype=np.uint8) % 2
    pivots: list[int] = []
    for col in range(m.shape[1]):
        hit = next((r for r in range(len(pivots), len(m)) if m[r, col]), None)
        if hit is None:
            continue
        row = len(pivots)
        m[[row, hit]] = m[[hit, row]]
        for r in range(len(m)):
            if r != row and m[r, col]:
                m[r] ^= m[row]
        pivots.append(col)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), m.shape[1]), dtype=np.uint8)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for r, p in enumerate(pivots):
            basis[i, p] = m[r, c]
    return basis


def rank_table(g: np.ndarray) -> list[int]:
    """GF(2) rank of the columns of ``g`` in each source-subset mask: the
    entropy table, in bits, of the uniform distribution on the code."""
    columns = _packed_rows(np.transpose(g))
    return [
        _packed_rank(c for i, c in enumerate(columns) if (mask >> i) & 1) for mask in range(1 << len(columns))
    ]


def exact_value(e: EntropyExpression, table) -> Fraction:
    """e on an integer (or Fraction) entropy table, exactly."""
    return sum((c * table[mask] for mask, c in e.terms.items()), Fraction(0))


def table_value(e: EntropyExpression, table) -> float:
    """e on a float entropy table, summed as ``JointDistribution.evaluate`` sums."""
    return math.fsum(float(c) * float(table[mask]) for mask, c in e.terms.items())


def reversed_table(d: JointDistribution) -> np.ndarray:
    """H*[m] = H[full ^ m] - H[full]: the entropy table of the conjugate,
    on which every expression e reads ``evaluate(conjugate(e))``."""
    table = d._entropy_table()
    return table[::-1] - table[-1]


# ---------------------------------------------------------------------------
# input strategies
# ---------------------------------------------------------------------------

# Cells that every reader takes (the byte reader only the one-digit ones,
# loadtxt and the row loop up to 19 digits), and cells that a reader may
# refuse or read leniently: whitespace, quotes, signs, digit separators,
# non-ASCII digits, symbols past int64, comments and non-finite probabilities.
GOOD_SYMBOLS = ["0", "1", "2", "007", "10", "12345", "9" * 18, "1" + "0" * 18]
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
    # states from a small space, so that p-tables repeat a state now and then;
    # half the sample bodies keep to it too, the byte reader's one-digit symbols
    pool = GOOD_SYMBOLS[:3] if has_p or draw(st.booleans()) else GOOD_SYMBOLS
    states = draw(st.lists(
        st.tuples(*[st.sampled_from(pool)] * nvars), min_size=0, max_size=6
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
        ends = [draw(endings)] * len(lines)
    else:
        ends = [draw(endings) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no line ending after the last row
    return "".join(line + end for line, end in zip(lines, ends))
