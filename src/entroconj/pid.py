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

import numpy as np

from .algebra import mask_members, subset_mask
from .distributions import PROB_ZERO, JointDistribution

__all__ = [
    "MonotoneBooleanFunction",
    "enumerate_atoms",
    "antichain_to_bf",
    "bf_to_antichain",
    "dual",
    "atom_leq",
    "cmi_atom_set",
    "verify_theorem1_sets",
    "reference_pid",
    "pid_conjugate_check",
    "MAX_ENUM_SOURCES",
    "MAX_PID_SOURCES",
]

MAX_ENUM_SOURCES = 5  # the atom count explodes combinatorially beyond this
MAX_PID_SOURCES = 3

AntichainLike = Iterable[Iterable[int]]
Antichain = tuple[tuple[int, ...], ...]


# _LOW[n][b] for n <= 10: the truth-table positions m < 2^n whose subset lacks
# source b + 1, (2^(2^n) - 1) / (2^(2^b) + 1), runs of 2^b ones and 2^b zeros
_LOW = [[((1 << (1 << n)) - 1) // ((1 << (1 << b)) + 1) for b in range(n)] for n in range(11)]


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
        if not 1 <= self.n <= 10:
            raise ValueError(f"source count {self.n} outside 1..10")
        full = (1 << (1 << self.n)) - 1
        if not 0 <= self.bits <= full:
            raise ValueError("truth table does not fit the source count")
        if self.bits == 0 or self.bits == full:
            raise ValueError("constant functions are not atoms")
        # adding source b moves position m to m + 2^b: f must stay 1 there
        for b, low in enumerate(_LOW[self.n]):
            if (self.bits & low) << (1 << b) & ~self.bits:
                raise ValueError("truth table is not monotone")

    def value(self, mask: int) -> int:
        """f at a source-subset bitmask."""
        return (self.bits >> mask) & 1

    def table(self) -> str:
        """Truth table as a 0/1 string in mask order."""
        return format(self.bits, f"0{1 << self.n}b")[::-1]


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


@lru_cache(maxsize=None)
def enumerate_atoms(n: int) -> tuple[MonotoneBooleanFunction, ...]:
    """All atoms over n sources, in lexicographic truth-table order."""
    return tuple(MonotoneBooleanFunction(n, bits) for bits in _atom_tables(n).tolist())


def antichain_to_bf(antichain: AntichainLike, n: int) -> MonotoneBooleanFunction:
    """Atom whose accessible sets are exactly the supersets of the antichain.

    f(a) = 1 iff some member of the antichain is contained in a.  Members
    must be nonempty subsets of {1..n} with none containing another.
    """
    masks = sorted({subset_mask(member, n) for member in antichain})
    if not masks:
        raise ValueError("antichain must be nonempty")
    if 0 in masks:
        raise ValueError("antichain members must be nonempty")
    for i, m1 in enumerate(masks):
        for m2 in masks[i + 1 :]:
            if m1 & m2 == m1 or m1 & m2 == m2:
                raise ValueError(
                    f"{mask_members(m1)} and {mask_members(m2)} are nested: "
                    "antichain members must be incomparable"
                )
    if not 1 <= n <= 10:  # the constructor's range, before any 2^n-bit table
        raise ValueError(f"source count {n} outside 1..10")
    full = (1 << (1 << n)) - 1
    bits = 0
    for mask in masks:
        supersets = full
        for b in mask_members(mask):
            supersets &= ~_LOW[n][b - 1]
        bits |= supersets
    return MonotoneBooleanFunction(n, bits)


def bf_to_antichain(f: MonotoneBooleanFunction) -> Antichain:
    """The minimal accessible sets of an atom, as sorted index tuples."""
    one_below = 0  # positions with a one at the subset lacking some source
    for b, low in enumerate(_LOW[f.n]):
        one_below |= (f.bits & low) << (1 << b)
    minimal = f.bits & ~one_below
    return tuple(sorted(mask_members(m) for m in range(1 << f.n) if (minimal >> m) & 1))


def dual(f: MonotoneBooleanFunction) -> MonotoneBooleanFunction:
    """Order-reversing involution: f~(a) = 1 iff f(complement of a) = 0."""
    return MonotoneBooleanFunction(f.n, _dual_tables(f.bits, f.n))


def atom_leq(f: MonotoneBooleanFunction, g: MonotoneBooleanFunction) -> bool:
    """Pointwise order on truth tables: f <= g iff f(a) <= g(a) for all a."""
    if f.n != g.n:
        raise ValueError("atoms live over different source counts")
    return f.bits & ~g.bits == 0


def cmi_atom_set(
    n: int, a: Iterable[int], b: Iterable[int] = ()
) -> tuple[MonotoneBooleanFunction, ...]:
    """Atoms that add up to I(X^a ; Y | X^b): f(a|b) = 1 and f(b) = 0."""
    ma = subset_mask(a, n)
    mb = subset_mask(b, n)
    if ma & mb:
        raise ValueError("index sets must be disjoint")
    if not ma:
        raise ValueError("the first index set must be nonempty")
    tables = _atom_tables(n)
    rows = np.flatnonzero((tables >> (ma | mb) & 1) > (tables >> mb & 1))
    atoms = enumerate_atoms(n)
    return tuple(atoms[i] for i in rows.tolist())


def _packed(atoms: Iterable[MonotoneBooleanFunction]) -> np.ndarray:
    return np.array([f.bits for f in atoms], dtype=np.uint64)


def verify_theorem1_sets(n: int, a: Iterable[int], b: Iterable[int] = ()) -> bool:
    """Structural duality check behind the conditional-MI conjugation.

    True iff dualising the atoms of I(X^a ; Y | X^b) yields exactly the
    atoms of I(X^a ; Y | X^{(a u b)^C}), the complement taken within the
    sources.  Holds for every disjoint pair by order duality; this verifies
    it by direct enumeration, comparing packed truth tables.
    """
    complement = mask_members(((1 << n) - 1) ^ (subset_mask(a, n) | subset_mask(b, n)))
    dualised = _dual_tables(_packed(cmi_atom_set(n, a, b)), n)
    return np.array_equal(np.sort(dualised), np.sort(_packed(cmi_atom_set(n, a, complement))))


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
    source set a.  Values are in bits.
    """
    m = dist.n - 1
    if not 1 <= m <= MAX_PID_SOURCES:
        raise ValueError(
            f"the reference decomposition supports 1..{MAX_PID_SOURCES} sources, got {m}"
        )
    p_y = dist.pmf.sum(axis=tuple(range(m)))
    # every nonempty source set is the one minimal set of some atom
    specific = {
        members: _specific_information_bits(dist, members)
        for members in map(mask_members, range(1, 1 << m))
    }
    values: dict[MonotoneBooleanFunction, float] = {}
    for f in sorted(enumerate_atoms(m), key=lambda f: (-f.bits.bit_count(), f.bits)):
        stacked = np.array([specific[member] for member in bf_to_antichain(f)])
        upper = sum(v for g, v in values.items() if atom_leq(f, g))
        values[f] = float((p_y * stacked.min(axis=0)).sum()) - upper
    return values


def pid_conjugate_check(
    dist: JointDistribution, a: Iterable[int], b: Iterable[int] = ()
) -> tuple[float, float]:
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
