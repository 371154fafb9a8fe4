"""Exact discrete joint distributions and plug-in information measures.

A :class:`JointDistribution` stores the full probability mass function over
a finite product alphabet as a dense array, one axis per variable.  Marginal
entropies are computed by the plug-in estimator with the base-2 logarithm
(bits).  A single marginal is summed straight from the pmf; the whole u_k
profile fills a table of all 2^n marginal entropies in one depth-first walk
of the subset lattice, where each marginal is one axis-sum of a parent with
one more variable, and every later lookup reads that table.  Natural-log
output is available through the ``base`` argument on the evaluation methods.

Probabilities are floats; the exactness guarantees of the toolkit live in
the symbolic layer, while this layer carries a 1e-9 numeric tolerance.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from math import comb, prod
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence, Union

import numpy as np

from .algebra import EntropyExpression, subset_mask

__all__ = [
    "JointDistribution",
    "DistributionFormatError",
    "load_csv",
    "PROB_ZERO",
    "SUM_TOLERANCE",
]

PROB_ZERO = 1e-15  # probabilities at or below this count as zero in logs
SUM_TOLERANCE = 1e-9
MAX_VARIABLES = 20
MAX_DENSE_CELLS = 1 << 24  # largest pmf array built from states (128 MiB of floats)


class DistributionFormatError(ValueError):
    """Malformed distribution input (CSV rows, pmf tables, sample lists)."""


def _base_scale(base: float) -> float:
    """Multiplier converting bits to log-``base`` units."""
    if base == 2.0:
        return 1.0
    if base <= 0 or base == 1.0:
        raise ValueError(f"invalid logarithm base {base!r}")
    return math.log(2.0) / math.log(base)


def _plugin_entropy_bits(marginal: np.ndarray) -> float:
    """Plug-in entropy in bits of a marginal pmf array."""
    p = marginal.ravel()
    p = p[p > PROB_ZERO]
    h = -float(np.dot(p, np.log2(p)))
    return h if h > 0.0 else 0.0  # tiny negative round-off on point masses


class JointDistribution:
    """Probability mass function over a finite product alphabet.

    Immutable after construction: the pmf array is validated, renormalized
    exactly once, and frozen.  All evaluation methods are read-only and safe
    to call concurrently.
    """

    __slots__ = ("_pmf", "_entropies")

    def __init__(self, pmf, *, sum_tolerance: float = SUM_TOLERANCE):
        arr = np.array(pmf, dtype=float)
        if arr.ndim < 1:
            raise ValueError("a distribution needs at least one variable")
        if arr.ndim > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} variables are supported")
        if not np.isfinite(arr).all():
            raise ValueError("probabilities must be finite")
        if (arr < 0).any():
            raise ValueError("probabilities must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > sum_tolerance:
            raise ValueError(
                f"probabilities sum to {total!r}, expected 1 within {sum_tolerance:g}"
            )
        arr /= total
        arr.flags.writeable = False
        object.__setattr__(self, "_pmf", arr)
        object.__setattr__(self, "_entropies", None)

    def __setattr__(self, name, value):
        raise AttributeError("JointDistribution is immutable")

    @property
    def n(self) -> int:
        return self._pmf.ndim

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(self._pmf.shape)

    @property
    def pmf(self) -> np.ndarray:
        """Read-only view of the normalized pmf array."""
        return self._pmf

    def __repr__(self) -> str:
        shape = "x".join(map(str, self._pmf.shape))
        return f"JointDistribution({self.n} variables, alphabet {shape})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pmf(
        cls,
        mapping: Mapping[tuple[int, ...], float],
        alphabet_sizes: Sequence[int] | None = None,
    ) -> "JointDistribution":
        """Build from a state -> probability map.

        Alphabet sizes default to one plus the largest symbol seen in each
        position; explicit sizes reject out-of-range states.
        """
        states = [(tuple(int(s) for s in state), float(p)) for state, p in mapping.items()]
        if not states:
            raise DistributionFormatError("empty distribution")
        nvars = len(states[0][0])
        if any(len(s) != nvars for s, _ in states):
            raise DistributionFormatError("states have inconsistent lengths")
        if any(s < 0 for state, _ in states for s in state):
            raise DistributionFormatError("symbols must be nonnegative integers")
        if alphabet_sizes is None:
            sizes = tuple(max(state[i] for state, _ in states) + 1 for i in range(nvars))
        else:
            sizes = tuple(int(x) for x in alphabet_sizes)
            for state, _ in states:
                if any(s >= sizes[i] for i, s in enumerate(state)):
                    raise DistributionFormatError(
                        f"state {state} outside alphabet sizes {sizes}"
                    )
        cells = prod(sizes)
        if cells > MAX_DENSE_CELLS:
            raise DistributionFormatError(
                f"alphabet sizes {sizes} need a dense table of {cells} cells, "
                f"more than the {MAX_DENSE_CELLS} supported"
            )
        arr = np.zeros(sizes, dtype=float)
        for state, p in states:
            arr[state] += p
        return cls(arr)

    @classmethod
    def from_csv(
        cls, rows: Iterable[tuple[Sequence[int], float]]
    ) -> "JointDistribution":
        """Build from (state, probability) rows.

        Duplicate states are rejected and the probabilities must already sum
        to 1 within :data:`SUM_TOLERANCE` before the final renormalization.
        """
        seen: dict[tuple[int, ...], float] = {}
        for state, p in rows:
            state = tuple(int(s) for s in state)
            p = float(p)
            if state in seen:
                raise DistributionFormatError(f"duplicate state {state}")
            if p < 0:
                raise DistributionFormatError(f"negative probability {p!r} for {state}")
            seen[state] = p
        if not seen:
            raise DistributionFormatError("no rows")
        total = sum(seen.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise DistributionFormatError(
                f"probabilities sum to {total!r}, expected 1 within {SUM_TOLERANCE:g}"
            )
        return cls.from_pmf(seen)

    @classmethod
    def from_samples(cls, rows: Iterable[Sequence[int]]) -> "JointDistribution":
        """Build the empirical distribution of raw observations.

        Entropy does not depend on labels, so each variable's observed
        symbols are relabelled to dense codes 0..k-1 in increasing order;
        sparse symbols such as 0 and 99991 cost no empty table cells.
        """
        counts = Counter(tuple(int(s) for s in row) for row in rows)
        if not counts:
            raise DistributionFormatError("no samples")
        nvars = len(next(iter(counts)))
        if any(len(state) != nvars for state in counts):
            raise DistributionFormatError("states have inconsistent lengths")
        if any(s < 0 for state in counts for s in state):
            raise DistributionFormatError("symbols must be nonnegative integers")
        codes = [{s: c for c, s in enumerate(sorted(set(column)))} for column in zip(*counts)]
        total = sum(counts.values())
        return cls.from_pmf({
            tuple(code[s] for code, s in zip(codes, state)): c / total
            for state, c in counts.items()
        })

    # -- entropies ---------------------------------------------------------

    def _entropy_table(self) -> np.ndarray:
        """Read-only table of all 2^n marginal entropies in bits, by subset mask.

        Built on first use by a depth-first walk of the subset lattice: a
        node drops only variables below the lowest one its ancestors
        dropped, so every subset is reached once and its marginal is one
        axis-sum of its parent's.  That costs O(3^n) for binary variables
        against O(4^n) for summing each marginal from the pmf, and keeps at
        most n + 1 marginals alive.  The table is published whole in one
        assignment, so concurrent callers see either no table or all of it.
        """
        table = self._entropies
        if table is not None:
            return table
        table = np.empty(1 << self.n)

        def visit(marginal: np.ndarray, mask: int, low: int) -> None:
            table[mask] = _plugin_entropy_bits(marginal)
            # variables 0..low-1 are all kept, so variable j is axis j
            for j in range(low):
                visit(marginal.sum(axis=j), mask ^ (1 << j), j)

        visit(self._pmf, (1 << self.n) - 1, self.n)
        table[0] = 0.0
        table.flags.writeable = False
        object.__setattr__(self, "_entropies", table)
        return table

    def _entropy_bits(self, mask: int) -> float:
        """Shannon entropy in bits of the marginal selected by ``mask``.

        Reads the entropy table once it exists; until then sums only this
        marginal, so sparse expressions touch only the subsets they name.
        """
        table = self._entropies
        if table is not None:
            return float(table[mask])
        if not mask:
            return 0.0
        drop = tuple(i for i in range(self.n) if not (mask >> i) & 1)
        return _plugin_entropy_bits(self._pmf.sum(axis=drop) if drop else self._pmf)

    def subset_entropy(self, members: Iterable[int], base: float = 2.0) -> float:
        """Plug-in entropy of the marginal on 1-based variable indices."""
        return self._entropy_bits(subset_mask(members, self.n)) * _base_scale(base)

    def evaluate(self, expr: EntropyExpression, base: float = 2.0) -> float:
        """Value of a symbolic expression on this distribution."""
        if expr.n != self.n:
            raise ValueError(
                f"expression has {expr.n} variables, distribution has {self.n}"
            )
        total = sum(float(c) * self._entropy_bits(mask) for mask, c in expr.terms.items())
        return total * _base_scale(base)

    def u_values(self, base: float = 2.0) -> tuple[float, ...]:
        """The u_1..u_{n-1} profile, from the entropy table in closed form.

        u_k averages I(X_i ; X_j | X^a) over all pairs i < j and all
        (k-1)-subsets a avoiding them, which equals 2 r_k - r_{k-1} - r_{k+1}
        where r_s is the mean entropy of the s-variable marginals (r_0 = 0).
        """
        n = self.n
        sizes = np.zeros(1, dtype=np.intp)  # popcount of every mask
        for _ in range(n):
            sizes = np.concatenate((sizes, sizes + 1))
        r = np.bincount(sizes, weights=self._entropy_table(), minlength=n + 1)
        r /= [comb(n, s) for s in range(n + 1)]
        u = (2.0 * r[1:n] - r[: n - 1] - r[2:]) * _base_scale(base)
        return tuple(u.tolist())

    def conditional_mutual_information(
        self,
        a: Iterable[int],
        b: Iterable[int],
        c: Iterable[int] = (),
        base: float = 2.0,
    ) -> float:
        """I(X^a ; X^b | X^c) for disjoint 1-based index sets."""
        ma = subset_mask(a, self.n)
        mb = subset_mask(b, self.n)
        mc = subset_mask(c, self.n)
        if ma & mb or ma & mc or mb & mc:
            raise ValueError("index sets must be disjoint")
        value = (
            self._entropy_bits(ma | mc)
            + self._entropy_bits(mb | mc)
            - self._entropy_bits(ma | mb | mc)
            - self._entropy_bits(mc)
        )
        return value * _base_scale(base)

    def product_of_marginals(self) -> "JointDistribution":
        """The independent distribution with the same single-variable marginals."""
        marginals = []
        for i in range(self.n):
            drop = tuple(j for j in range(self.n) if j != i)
            marginals.append(self._pmf.sum(axis=drop) if drop else self._pmf)
        prod = marginals[0]
        for m in marginals[1:]:
            prod = np.multiply.outer(prod, m)
        return JointDistribution(prod)


def load_csv(source: Union[str, Path, IO[str]]) -> JointDistribution:
    """Read a distribution from CSV.

    Expected header ``x1,...,xn[,p]``: with a trailing ``p`` column each row
    is a state with an explicit probability, otherwise each row is one raw
    observation.  Symbols are nonnegative integers.  Errors carry the
    offending 1-based line number.
    """
    if hasattr(source, "read"):
        return _parse_csv(source)
    with open(source, "r", encoding="utf-8", newline="") as handle:
        return _parse_csv(handle)


def _parse_csv(handle: IO[str]) -> JointDistribution:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise DistributionFormatError("line 1: empty file") from None
    header = [h.strip().lower() for h in header]
    if not header:
        raise DistributionFormatError("line 1: empty header")
    has_p = header[-1] == "p"
    nvars = len(header) - (1 if has_p else 0)
    if nvars < 1:
        raise DistributionFormatError("line 1: no variable columns")

    states: list[tuple[int, ...]] = []
    probs: list[float] = []
    seen: dict[tuple[int, ...], int] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise DistributionFormatError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        state = []
        for col in range(nvars):
            token = row[col].strip()
            try:
                sym = int(token)
            except ValueError:
                raise DistributionFormatError(
                    f"line {lineno}: symbol {token!r} is not an integer"
                ) from None
            if sym < 0:
                raise DistributionFormatError(
                    f"line {lineno}: symbol {sym} is negative"
                )
            state.append(sym)
        state = tuple(state)
        if has_p:
            token = row[-1].strip()
            try:
                p = float(token)
            except ValueError:
                raise DistributionFormatError(
                    f"line {lineno}: probability {token!r} is not a number"
                ) from None
            if not math.isfinite(p):
                raise DistributionFormatError(
                    f"line {lineno}: probability {token!r} is not finite"
                )
            if p < 0:
                raise DistributionFormatError(f"line {lineno}: negative probability")
            if state in seen:
                raise DistributionFormatError(
                    f"line {lineno}: duplicate state {state} (first at line {seen[state]})"
                )
            seen[state] = lineno
            probs.append(p)
        states.append(state)

    if not states:
        raise DistributionFormatError("line 2: no data rows")
    if has_p:
        return JointDistribution.from_csv(zip(states, probs))
    return JointDistribution.from_samples(states)
