"""Source-target information atoms as monotone Boolean functions.

The mutual information I(X_1..X_n ; Y) decomposes into atoms indexed by
nonconstant monotone Boolean functions on source subsets: f(a) says whether
the atom's information is accessible from the source set a.  Equivalently an
atom is the antichain of its minimal accessible sets, so {{1,2}} is the
synergy of two sources and {{1},{2}} their redundancy.  Ordering functions
pointwise gives a lattice whose order-reversing duality (complement the
argument, flip the output) exchanges redundancy with synergy.

A reference decomposition based on minimum specific information is included
for up to three sources; it serves as a concrete instance for validating the
duality identities numerically, not as an endorsed measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import _numpy as np
from .algebra import _as_int, mask_members, subset_mask
from .distributions import PROB_ZERO, JointDistribution

__all__ = [
    "MonotoneBooleanFunction",
    "enumerate_atoms",
    "antichain_to_bf",
    "bf_to_antichain",
    "dual",
    "cmi_atom_set",
    "verify_theorem1_sets",
    "reference_pid",
    "MAX_ENUM_SOURCES",
    "MAX_PID_SOURCES",
]

MAX_ENUM_SOURCES = 5  # the atom count explodes combinatorially beyond this
MAX_PID_SOURCES = 3
_MAX_TABLE_SOURCES = 10  # the most sources an atom's truth table covers

AntichainLike = Iterable[Iterable[int]]
Antichain = tuple[tuple[int, ...], ...]


# _LOW[n][b]: positions m < 2^n whose subset lacks source b + 1, runs of 2^b ones, 2^b zeros
_LOW = [[((1 << (1 << n)) - 1) // ((1 << (1 << b)) + 1) for b in range(n)]
        for n in range(_MAX_TABLE_SOURCES + 1)]


@dataclass(frozen=True)
class MonotoneBooleanFunction:
    """A nonconstant monotone map from source subsets to {0, 1}.

    ``bits`` packs the truth table: bit m holds f(m) for the source-subset
    bitmask m, 0 <= m < 2^n.  Monotone means f never drops when a source is
    added.
    """

    n: int
    bits: int

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "source count"))
        object.__setattr__(self, "bits", _as_int(self.bits, "truth table"))
        _check_tables(self.bits, self.n)

    def value(self, mask: int) -> int:
        """f at a source-subset bitmask."""
        return (self.bits >> mask) & 1

    def table(self) -> str:
        """Truth table as a 0/1 string in mask order."""
        return format(self.bits, f"0{1 << self.n}b")[::-1]


def _one_below(tables, n: int):
    """Positions of packed truth tables (a Python int or a numpy array) that
    lie one source above a one of the table.

    Adding source b moves position m to m + 2^b, so a monotone table has a
    one at every such position.
    """
    below = 0
    for b, low in enumerate(_LOW[n]):
        below |= (tables & low) << (1 << b)
    return below


def _check_table_sources(n: int) -> None:
    if not 1 <= n <= _MAX_TABLE_SOURCES:
        raise ValueError(f"source count {n} outside 1..{_MAX_TABLE_SOURCES}")


def _check_tables(tables, n: int) -> None:
    """The constructor's checks on one packed table (a Python int) or, at
    once, on a uint64 array of them; the messages are the constructor's."""
    _check_table_sources(n)
    full = (1 << (1 << n)) - 1
    if np.any((tables < 0) | (tables > full)):
        raise ValueError("truth table does not fit the source count")
    if np.any((tables == 0) | (tables == full)):
        raise ValueError("constant functions are not atoms")
    if np.any(_one_below(tables, n) & ~tables != 0):
        raise ValueError("truth table is not monotone")


def _dual_tables(tables, n: int):
    """Dual of packed truth tables (a Python int or a numpy array).

    Complementing every argument swaps positions m and m ^ 2^b for each b,
    which reverses the table; then the output is flipped.
    """
    for b, low in enumerate(_LOW[n]):
        width = 1 << b
        tables = (tables & low) << width | (tables >> width) & low
    return tables ^ ((1 << (1 << n)) - 1)


def _atom_tables(n: int) -> np.ndarray:
    """Packed truth tables of ``enumerate_atoms(n)``, in the same order.

    Shannon expansion on the last source: a monotone table over k + 1
    sources is f0 | f1 << 2^k for monotone f0 <= f1 (constants included)
    over k sources.  Row-major ``np.nonzero`` over the sorted (f0, f1) grid
    keeps lexicographic ``table()`` order: the constants are first and last.
    """
    if not 1 <= n <= MAX_ENUM_SOURCES:
        raise ValueError(f"source count {n} outside 1..{MAX_ENUM_SOURCES}")
    tables = np.array([0, 1], dtype=np.uint64)
    for k in range(n):
        f0, f1 = np.nonzero(tables[:, None] & ~tables[None, :] == 0)
        tables = tables[f0] | tables[f1] << (1 << k)
    return tables[1:-1]


def _checked_tables(n: int) -> np.ndarray:
    """``_atom_tables(n)``, checked as one array by the constructor's rules."""
    tables = _atom_tables(n)
    _check_tables(tables, n)
    return tables


def _atoms(tables: np.ndarray, n: int) -> tuple[MonotoneBooleanFunction, ...]:
    """Atoms of tables checked as one array, so each skips ``__post_init__``;
    setting the fields one by one keeps the instance dicts key-shared and small."""
    new, put = object.__new__, object.__setattr__
    atoms = []
    for bits in tables.tolist():
        f = new(MonotoneBooleanFunction)
        put(f, "n", n)
        put(f, "bits", bits)
        atoms.append(f)
    return tuple(atoms)


@lru_cache(maxsize=None, typed=True)
def enumerate_atoms(n: int) -> tuple[MonotoneBooleanFunction, ...]:
    """All atoms over n sources, in lexicographic truth-table order."""
    n = _as_int(n, "source count")
    return _atoms(_checked_tables(n), n)


def antichain_to_bf(antichain: AntichainLike, n: int) -> MonotoneBooleanFunction:
    """Atom whose accessible sets are exactly the supersets of the antichain.

    f(a) = 1 iff some member of the antichain is contained in a.  Members
    must be nonempty subsets of {1..n} with none containing another.
    """
    n = _as_int(n, "source count")
    try:
        masks = sorted({subset_mask(member, n) for member in antichain})
    except TypeError:  # a bare index where a member was due, or no members at all
        raise ValueError("antichain must be a sequence of source sets") from None
    if not masks:
        raise ValueError("antichain must be nonempty")
    if 0 in masks:
        raise ValueError("antichain members must be nonempty")
    for i, m1 in enumerate(masks):
        for m2 in masks[i + 1 :]:
            if m1 & m2 == m1:  # masks ascend, so no later one lies inside m1
                raise ValueError(
                    f"{mask_members(m1)} and {mask_members(m2)} are nested: "
                    "antichain members must be incomparable"
                )
    _check_table_sources(n)  # the constructor's range, before any 2^n-bit table
    bits = sum(1 << m for m in masks)
    for b, low in enumerate(_LOW[n]):  # close upward, one source at a time (_one_below's step)
        bits |= (bits & low) << (1 << b)
    return MonotoneBooleanFunction(n, bits)


def _minimal_sets(tables, n: int):
    """The positions of packed monotone tables' minimal accessible sets
    (a Python int or a numpy array)."""
    return tables & ~_one_below(tables, n)


def bf_to_antichain(f: MonotoneBooleanFunction) -> Antichain:
    """The minimal accessible sets of an atom, as sorted index tuples."""
    minimal = _minimal_sets(f.bits, f.n)
    return tuple(sorted(mask_members(m) for m in range(1 << f.n) if (minimal >> m) & 1))


def dual(f: MonotoneBooleanFunction) -> MonotoneBooleanFunction:
    """Order-reversing involution: f~(a) = 1 iff f(complement of a) = 0."""
    return MonotoneBooleanFunction(f.n, _dual_tables(f.bits, f.n))


def _cmi_tables(tables: np.ndarray, n: int, a: Iterable[int], b: Iterable[int]) -> np.ndarray:
    """Rows of the atom tables that add up to I(X^a ; Y | X^b): f(a|b) = 1 and f(b) = 0."""
    ma = subset_mask(a, n)
    mb = subset_mask(b, n)
    if ma & mb:
        raise ValueError("index sets must be disjoint")
    if not ma:
        raise ValueError("the first index set must be nonempty")
    return tables[(tables >> (ma | mb) & 1) > (tables >> mb & 1)]


def cmi_atom_set(
    n: int, a: Iterable[int], b: Iterable[int] = ()
) -> tuple[MonotoneBooleanFunction, ...]:
    """Atoms that add up to I(X^a ; Y | X^b): f(a|b) = 1 and f(b) = 0."""
    n = _as_int(n, "source count")
    tables = _checked_tables(n)  # checks n before the index sets are read against it
    return _atoms(_cmi_tables(tables, n, a, b), n)


def _packed(atoms: Iterable[MonotoneBooleanFunction]) -> np.ndarray:
    """Packed tables as a uint64 array: OverflowError past 6 sources."""
    return np.array([f.bits for f in atoms], dtype=np.uint64)


def _theorem1_holds(n: int, selected: np.ndarray, complement: np.ndarray) -> bool:
    """Whether dualising the tables of I(X^a ; Y | X^b) gives exactly the
    tables of I(X^a ; Y | X^{(a u b)^C}), in any order."""
    return np.array_equal(np.sort(_dual_tables(selected, n)), np.sort(complement))


def _pair_masks(n: int):
    """Each nonempty a with each b disjoint from it, row-major: masks ma, mb, (a u b)^C."""
    m = np.arange(1 << n, dtype=np.uint64)
    ma, mb = np.nonzero((m[:, None] & m == 0) & (m[:, None] != 0))
    return ma, mb, ((1 << n) - 1) ^ ma ^ mb


def _bit_matrix(tables: np.ndarray, n: int) -> np.ndarray:
    """The uint8 matrix of a uint64 table array's bits: row i, column m holds
    bit m of table i, that is f(m)."""
    octets = tables.astype("<u8").view(np.uint8).reshape(-1, 8)  # least significant first
    return np.unpackbits(octets, axis=1, count=1 << n, bitorder="little")


def _pair_rows(tables: np.ndarray, n: int, ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """Per pair of masks, the rows ``_cmi_tables`` selects for (a, b), packed 8 to a byte."""
    bits = np.packbits(_bit_matrix(tables, n).T, axis=1)  # bits[m]: the rows whose table holds at m
    return bits[ma | mb] & ~bits[mb]


def _theorem1_sweep(tables: np.ndarray, n: int) -> tuple[int, bool]:
    """``_theorem1_holds`` on every pair of ``_pair_masks``: (pairs, all hold).
    Once dualising permutes the rows, a pair holds iff its selections agree under it."""
    ma, mb, mc = _pair_masks(n)
    duals, order = _dual_tables(tables, n), np.argsort(tables)
    if not np.array_equal(np.sort(duals), tables[order]):  # the pair (all sources, none)
        return len(ma), False
    image = order[np.searchsorted(tables, duals, sorter=order)]
    selected = _pair_rows(tables, n, ma, mb)
    return len(ma), np.array_equal(selected, _pair_rows(tables[image], n, ma, mc))


def verify_theorem1_sets(n: int, a: Iterable[int], b: Iterable[int] = ()) -> bool:
    """Structural duality check behind the conditional-MI conjugation.

    True iff dualising the atoms of I(X^a ; Y | X^b) yields exactly the
    atoms of I(X^a ; Y | X^{(a u b)^C}), the complement taken within the
    sources.  Holds for every disjoint pair by order duality; this verifies
    it by direct enumeration, comparing packed truth tables.
    """
    a, b = tuple(a), tuple(b)  # each set is read twice below; an iterator lasts one read
    selected = _packed(cmi_atom_set(n, a, b))  # checks n first
    complement = mask_members(((1 << n) - 1) ^ (subset_mask(a, n) | subset_mask(b, n)))
    return _theorem1_holds(n, selected, _packed(cmi_atom_set(n, a, complement)))


def _specific_information_bits(
    dist: JointDistribution, source_members: tuple[int, ...]
) -> np.ndarray:
    """Specific information of a source set about each target state, in bits.

    Entry y holds the KL divergence of p(X_A | Y=y) from p(X_A); zero where
    the target state has no mass.  The target is the last variable.
    """
    target_axis = dist.n - 1
    keep = [m - 1 for m in source_members] + [target_axis]
    drop = tuple(i for i in range(dist.n) if i not in keep)
    joint = dist.pmf.sum(axis=drop) if drop else dist.pmf
    # axes arrive in variable order with the target last already
    flat = joint.reshape(-1, joint.shape[-1])
    p_y = flat.sum(axis=0)
    p_a = flat.sum(axis=1)
    out = np.zeros(flat.shape[1])
    for y in range(flat.shape[1]):
        if p_y[y] <= PROB_ZERO:
            continue
        total = 0.0
        for ai in range(flat.shape[0]):
            p_ay = flat[ai, y]
            if p_ay <= PROB_ZERO:
                continue
            total += (p_ay / p_y[y]) * math.log2(p_ay / (p_a[ai] * p_y[y]))
        out[y] = total
    return out


def reference_pid(dist: JointDistribution) -> dict[MonotoneBooleanFunction, float]:
    """Minimum-specific-information decomposition of I(sources ; target).

    The last variable of ``dist`` is the target.  The redundancy of an atom
    is the target average of the smallest specific information among its
    minimal accessible sets; atom values then follow by subtracting, from
    each redundancy, the values of all strictly more accessible atoms.  By
    construction the atoms with f(a) = 1 add up to I(X^a ; Y) for every
    source set a.  Values are in bits, keyed in ``enumerate_atoms`` order.
    """
    m = dist.n - 1
    if not 1 <= m <= MAX_PID_SOURCES:
        raise ValueError(
            f"the reference decomposition supports 1..{MAX_PID_SOURCES} sources, got {m}"
        )
    p_y = dist.pmf.sum(axis=tuple(range(m)))
    atoms = enumerate_atoms(m)
    tables = _packed(atoms)
    # row s - 1 for source-set mask s: every nonempty set is the one minimal set of some atom
    specific = np.array([_specific_information_bits(dist, mask_members(s)) for s in range(1, 1 << m)])
    minimal = _bit_matrix(_minimal_sets(tables, m), m)[:, 1:] == 1
    redundancy = (p_y * np.where(minimal[:, :, None], specific, np.inf).min(axis=1)).sum(axis=1)
    # most ones first, so every strictly more accessible atom is valued before
    order = np.lexsort((tables, -np.bitwise_count(tables).astype(np.intp)))
    values = np.empty(len(atoms))
    for k, i in enumerate(order.tolist()):
        done = order[:k]
        values[i] = redundancy[i] - sum(values[done[tables[i] & ~tables[done] == 0]].tolist())
    return dict(zip(atoms, values.tolist()))
