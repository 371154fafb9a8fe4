"""Exact discrete joint distributions and plug-in information measures.

A :class:`JointDistribution` stores the full probability mass function over
a finite product alphabet as a dense array, one axis per variable.  Marginal
entropies are computed by the plug-in estimator with the base-2 logarithm
(bits).  A single marginal is summed straight from the pmf; the whole u_k
profile fills a table of all 2^n marginal entropies in one depth-first walk
of the subset lattice, where each marginal is one axis-sum of a parent with
one more variable, and every later lookup reads that table.  Every value
is in bits; ``entroconj --log-base e`` converts CLI output to nats.

Probabilities are floats; the exactness guarantees of the toolkit live in
the symbolic layer, while this layer carries a 1e-9 numeric tolerance.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from itertools import chain
from math import comb, prod
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence, Union

import numpy as np

from .algebra import EntropyExpression, _as_int, mutual_information_expr, subset_mask

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


def _plugin_entropy_bits(marginal: np.ndarray) -> float:
    """Plug-in entropy in bits of a marginal pmf array."""
    p = marginal.ravel()
    p = p[p > PROB_ZERO]
    h = -float(np.dot(p, np.log2(p)))
    return h if h > 0.0 else 0.0  # tiny negative round-off on point masses


def _symbol_array(states, empty: str) -> np.ndarray:
    """States as a checked 2-D integer array, one row per state.

    An integer ndarray is taken as it is.  Otherwise Python and numpy
    integers pass while bool, float and str symbols are refused, and
    Python ints past int64 give an object array.
    """
    if not (isinstance(states, np.ndarray) and states.ndim == 2 and states.dtype.kind in "iu"):
        states = [tuple(state) for state in states]
        if not states:
            raise DistributionFormatError(empty)
        nvars = len(states[0])
        if any(len(state) != nvars for state in states):
            raise DistributionFormatError("states have inconsistent lengths")
        if set(map(type, chain.from_iterable(states))) != {int}:
            try:  # the integer rule of the symbolic layer
                states = [tuple(_as_int(s, "symbol") for s in state) for state in states]
            except ValueError as exc:
                raise DistributionFormatError(str(exc)) from None
        try:
            table = np.fromiter(chain.from_iterable(states), np.int64, len(states) * nvars)
        except OverflowError:
            table = np.array(states, dtype=object)
        states = table.reshape(len(states), nvars)
    if not len(states):
        raise DistributionFormatError(empty)
    if (states < 0).any():
        raise DistributionFormatError("symbols must be nonnegative integers")
    return states


def _check_probabilities(arr: np.ndarray) -> None:
    """Refuse probabilities unless every one is finite and nonnegative."""
    if not np.isfinite(arr).all():
        raise ValueError("probabilities must be finite")
    if (arr < 0).any():
        raise ValueError("probabilities must be nonnegative")


def _dense_table(codes: np.ndarray, sizes: tuple[int, ...], weights=None) -> np.ndarray:
    """Dense array of ``sizes`` holding the summed ``weights`` (default: the
    count) of each state, one row of in-range ``codes`` per state.

    Refuses a table above ``MAX_DENSE_CELLS`` before allocating it.
    """
    cells = prod(sizes)
    if cells > MAX_DENSE_CELLS:
        raise DistributionFormatError(
            f"alphabet sizes {sizes} need a dense table of {cells} cells, "
            f"more than the {MAX_DENSE_CELLS} supported"
        )
    flat = np.zeros(len(codes), dtype=np.intp)
    for column, size in zip(codes.T, sizes):
        flat = flat * size + column
    return np.bincount(flat, weights, minlength=cells).reshape(sizes)


class JointDistribution:
    """Probability mass function over a finite product alphabet.

    Immutable after construction: the pmf array is validated, renormalized
    exactly once, and frozen.  All evaluation methods are read-only and safe
    to call concurrently.
    """

    __slots__ = ("_pmf", "_entropies")

    def __init__(self, pmf):
        arr = np.array(pmf, dtype=float)
        if arr.ndim < 1:
            raise ValueError("a distribution needs at least one variable")
        if arr.ndim > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} variables are supported")
        _check_probabilities(arr)
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(
                f"probabilities sum to {total!r}, expected 1 within {SUM_TOLERANCE:g}"
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
    def from_pmf(cls, mapping: Mapping[tuple[int, ...], float]) -> "JointDistribution":
        """Build from a state -> probability map.

        Each alphabet size is one plus the largest symbol seen in its position.
        """
        states = _symbol_array(list(mapping), "empty distribution")
        probs = [float(p) for p in mapping.values()]
        sizes = tuple(int(s) + 1 for s in states.max(axis=0))
        return cls(_dense_table(states, sizes, probs))

    @classmethod
    def from_samples(cls, rows: Iterable[Sequence[int]]) -> "JointDistribution":
        """Build the empirical distribution of raw observations.

        Entropy does not depend on labels, so each variable's observed
        symbols are relabelled to dense codes 0..k-1 in increasing order;
        sparse symbols such as 0 and 99991 cost no empty table cells.
        """
        data = _symbol_array(rows, "no samples")
        codes = np.empty(data.shape, dtype=np.intp)
        sizes = []
        for j, column in enumerate(data.T):
            symbols, inverse = np.unique(column, return_inverse=True)
            codes[:, j] = inverse.ravel()
            sizes.append(len(symbols))
        return cls(_dense_table(codes, tuple(sizes)) / len(data))

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

    def subset_entropy(self, members: Iterable[int]) -> float:
        """Plug-in entropy in bits of the marginal on 1-based variable indices."""
        return self._entropy_bits(subset_mask(members, self.n))

    def evaluate(self, expr: EntropyExpression) -> float:
        """Value in bits of a symbolic expression on this distribution.

        ``math.fsum`` adds the terms exactly, so their order cannot change the
        result and alternating sums such as ii lose no digits to cancellation.
        """
        if expr.n != self.n:
            raise ValueError(
                f"expression has {expr.n} variables, distribution has {self.n}"
            )
        return math.fsum(float(c) * self._entropy_bits(mask) for mask, c in expr.terms.items())

    def u_values(self) -> tuple[float, ...]:
        """The u_1..u_{n-1} profile in bits, from the entropy table in closed form.

        u_k averages I(X_i ; X_j | X^a) over all pairs i < j and all
        (k-1)-subsets a avoiding them, which equals 2 r_k - r_{k-1} - r_{k+1}
        where r_s is the mean entropy of the s-variable marginals (r_0 = 0).
        """
        n = self.n
        sizes = np.bitwise_count(np.arange(1 << n))  # popcount of every mask
        r = np.bincount(sizes, weights=self._entropy_table(), minlength=n + 1)
        r /= [comb(n, s) for s in range(n + 1)]
        return tuple((2.0 * r[1:n] - r[: n - 1] - r[2:]).tolist())

    def conditional_mutual_information(
        self, a: Iterable[int], b: Iterable[int], c: Iterable[int] = ()
    ) -> float:
        """I(X^a ; X^b | X^c) in bits for disjoint 1-based index sets."""
        return self.evaluate(mutual_information_expr(self.n, a, b, c))


def load_csv(source: Union[str, Path, IO[str]]) -> JointDistribution:
    """Read a distribution from CSV.

    Expected header ``x1,...,xn[,p]``: with a trailing ``p`` column each row
    is a state with an explicit probability, otherwise each row is one raw
    observation.  Symbols are nonnegative integers.  Errors carry the
    offending 1-based line number.

    numpy's C reader takes the body when it can; a row loop reads the rest
    (blank cells, ``1_0``, non-ASCII digits, symbols past int64) and words
    every error.
    """
    if hasattr(source, "read"):
        return _parse_csv(source)
    with open(source, "r", encoding="utf-8", newline="") as handle:
        return _parse_csv(handle)


def _parse_csv(handle: IO[str]) -> JointDistribution:
    # one line-ending rule whatever the handle's newline mode: \r, \n or \r\n
    lines = io.StringIO(handle.read(), newline="")
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DistributionFormatError("line 1: empty file") from None
    except csv.Error as exc:
        raise DistributionFormatError(f"line {reader.line_num}: {exc}") from None
    header = [h.strip().lower() for h in header]
    if not header:
        raise DistributionFormatError("line 1: empty header")
    has_p = header[-1] == "p"
    nvars = len(header) - (1 if has_p else 0)
    if nvars < 1:
        raise DistributionFormatError("line 1: no variable columns")
    body = lines.read()
    dist = _from_columns(body, nvars, has_p)
    if dist is None:
        dist = _from_rows(body, len(header), has_p, reader.line_num)
    return dist


def _from_columns(body: str, nvars: int, has_p: bool) -> JointDistribution | None:
    """The distribution in ``body`` read by numpy's C parser, or None.

    None leaves the body to :func:`_from_rows`, the only reader that words
    an error in a row and the only one that takes what ``loadtxt`` refuses
    (blank cells, ``1_0``, non-ASCII digits, symbols past int64).  The
    symbols and probabilities go through the constructors' own checks; this
    adds only what they cannot see (the row loop's field limits, the sum as
    written, a duplicate state).
    """
    if not body.strip():
        return None  # loadtxt warns on a body without data
    # samples: an (rows, columns) int64 array; p-table: one record per row
    dtype = [("s", np.int64, (nvars,)), ("p", np.float64)] if has_p else np.int64
    try:
        table = np.loadtxt(
            io.StringIO(body), dtype=dtype, delimiter=",", comments=None, quotechar='"',
            ndmin=1 if has_p else 2,
        )
    except (ValueError, OverflowError):
        return None
    if not has_p and table.shape[1] != nvars:
        return None
    # The row loop refuses a field longer than csv's limit and a symbol with
    # more digits than int() converts; loadtxt refuses neither.  The fields
    # loadtxt took hold a character each, with a comma or line break between
    # two, which bounds the longest; past the limit, the lines bound it unless
    # a quote hides a line break.
    fields = len(table) * (nvars + has_p)
    limit = min(csv.field_size_limit(), sys.get_int_max_str_digits() or math.inf)  # 0: no limit
    if len(body) - 2 * fields + 2 > limit and (
        '"' in body or max(map(len, body.split("\n"))) > limit
    ):
        return None
    # A row that breaks a rule (a negative symbol, a probability that is not
    # finite or is negative, a repeated state) or a sum off 1 goes to the row
    # loop, which words it.  A later refusal (too many cells or variables) is
    # the row loop's own, word for word, so it is raised here.
    try:
        _symbol_array(table["s"] if has_p else table, "no data rows")
        if has_p:
            _check_probabilities(table["p"])
            probs = table["p"].tolist()
            _check_sum(probs)
    except ValueError:
        return None
    if not has_p:
        return JointDistribution.from_samples(table)
    mapping = dict(zip(map(tuple, table["s"].tolist()), probs))
    if len(mapping) != len(probs):
        return None  # a duplicate state
    return JointDistribution.from_pmf(mapping)


def _check_sum(probs: list[float]) -> None:
    """Refuse probabilities whose left-to-right sum is not 1 within tolerance."""
    total = sum(probs)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise DistributionFormatError(
            f"probabilities sum to {total!r}, expected 1 within {SUM_TOLERANCE:g}"
        )


def _from_rows(body: str, ncols: int, has_p: bool, header_lines: int) -> JointDistribution:
    """The distribution in ``body`` read row by row, or the first error in it.

    Rows are numbered from 2, one per record; a csv-level error carries the
    physical line it stopped on.
    """
    reader = csv.reader(io.StringIO(body, newline=""))
    nvars = ncols - (1 if has_p else 0)
    states: list[tuple[int, ...]] = []
    probs: list[float] = []
    seen: dict[tuple[int, ...], int] = {}
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != ncols:
                raise DistributionFormatError(
                    f"line {lineno}: expected {ncols} fields, got {len(row)}"
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
    except csv.Error as exc:
        raise DistributionFormatError(f"line {header_lines + reader.line_num}: {exc}") from None

    if not states:
        raise DistributionFormatError("line 2: no data rows")
    if not has_p:
        return JointDistribution.from_samples(states)
    _check_sum(probs)
    return JointDistribution.from_pmf(dict(zip(states, probs)))
