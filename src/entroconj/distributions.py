"""Exact discrete joint distributions and plug-in information measures.

A :class:`JointDistribution` stores the full probability mass function over
a finite product alphabet as a dense array, one axis per variable.  Marginal
entropies are computed by the plug-in estimator with the base-2 logarithm
(bits).  The whole u_k profile fills a table of all 2^n marginal entropies by
a depth-first walk of the subset lattice that hands each subtree of bounded
size to one block: one extra slot per droppable axis holds that axis's
sum, ``p log2 p`` is taken once over the block, and the remaining sums give
every entropy of the subtree.  A single marginal is summed from the pmf in
the walk's order and is a block of one entry, so no value depends on
whether the table was built.  Every value is in bits; ``entroconj
--log-base e`` converts CLI output to nats.

:func:`load_csv` reads a body by one of three routes, chosen from its
bytes: a numpy byte reader for sample bodies of one-digit symbols, commas
and LFs, numpy's ``loadtxt`` for p-tables and the sample bodies the byte
reader declines, and a row loop for the rest and to word any row's error.

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
# largest lattice block whose entropies are summed in one piece; 1 << 20 was
# faster at n = 12 but held a 4 MiB block and its temporaries at once
_BLOCK_CELLS = 1 << 18


class DistributionFormatError(ValueError):
    """Malformed distribution input (CSV rows, pmf tables, sample lists)."""


class _RowFault(DistributionFormatError):
    """A row rule's refusal, or a sum off 1: the CSV row loop words it by line."""


def _sum_axis(a: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """``a`` summed along ``axis`` by adding its slices left to right.

    ``a.sum`` adds pairwise along a contiguous axis of 8 or more cells and in
    order elsewhere, so its rounding would depend on the memory layout.
    """
    lead = (slice(None),) * axis
    if a.shape[axis] == 1:  # the one slice, copied
        return np.positive(a[lead + (0, ...)], out=out)
    total = np.add(a[lead + (0, ...)], a[lead + (1, ...)], out=out)
    for i in range(2, a.shape[axis]):
        total += a[lead + (i, ...)]
    return total


def _block_entropies(marginal: np.ndarray, low: int) -> np.ndarray:
    """Plug-in entropies in bits of the 2^low marginals of ``marginal`` that
    drop any of its axes 0..low-1, in mask order (bit j set: axis j kept).

    Each axis j < low gets one more slot holding its sum, highest axis first,
    so a cell summed over several axes sums the highest first.  ``p log2 p``
    is taken once over the whole block (0 for p <= ``PROB_ZERO``).  Then,
    lowest axis first, each axis j < low becomes a [dropped, kept] pair of
    slots and each other axis is summed away.  Every sum is a
    :func:`_sum_axis`, so each marginal's entropy is the same float in any
    block, the one-entry block (``low = 0``) included.
    """
    shape = marginal.shape
    block = np.empty(tuple(k + 1 for k in shape[:low]) + shape[low:])
    block[tuple(map(slice, shape[:low]))] = marginal
    for j in reversed(range(low)):
        real = tuple(map(slice, shape[:j]))  # the axes below j are not extended yet
        _sum_axis(block[real + (slice(shape[j]),)], j, out=block[real + (shape[j], ...)])
    # p log2 p in place, a quarter budget at a time to bound the temporary
    flat = block.reshape(-1)
    step = _BLOCK_CELLS // 4
    for start in range(0, flat.size, step):
        part = flat[start : start + step]
        logs = np.where(part > PROB_ZERO, part, 1.0)
        part *= np.log2(logs, out=logs)
        del logs  # before the next part's
    # lowest axis first: in C order each sum adds long contiguous runs
    for j in range(low):
        lead = (slice(None),) * j
        kept = shape[j]
        _sum_axis(block[lead + (slice(kept),)], j, out=block[lead + (0, ...)])
        block = block[lead + (slice(kept, None, -kept),)]  # slots [sum, 0]: [dropped, kept]
    for _ in range(low, len(shape)):
        block = _sum_axis(block, low)
    sums = block.ravel(order="F")
    return np.where(sums < 0.0, -sums, 0.0)  # 0.0, not -0.0, for a point mass; no round-off below 0


def _symbol_array(states, empty: str) -> np.ndarray:
    """States as a checked 2-D integer array, one row per state.

    An integer ndarray is taken as it is.  Otherwise Python and numpy
    integers pass while bool, float and str symbols are refused, and
    Python ints past int64 give an object array.
    """
    if not (isinstance(states, np.ndarray) and states.ndim == 2 and states.dtype.kind in "iu"):
        try:
            states = [tuple(state) for state in states]
        except TypeError:  # a bare symbol where a row was due, or no rows at all
            raise DistributionFormatError(
                "states must be rows of symbols, one sequence per state"
            ) from None
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
        raise _RowFault("symbols must be nonnegative integers")
    return states


def _as_float(p, where: str = "") -> float:
    """``p`` as a float; a refusal names it, after ``where`` (the CSV row loop's line)."""
    try:
        return float(p)
    except (TypeError, ValueError):
        raise DistributionFormatError(f"{where}probability {p!r} is not a number") from None


def _check_probabilities(arr: np.ndarray) -> None:
    """Refuse probabilities unless every one is finite and nonnegative."""
    if not np.isfinite(arr).all():
        raise _RowFault("probabilities must be finite")
    if (arr < 0).any():
        raise _RowFault("probabilities must be nonnegative")


def _check_sum(total: float) -> None:
    """Refuse probabilities whose sum ``total`` is not 1 within tolerance."""
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise _RowFault(
            f"probabilities sum to {total!r}, expected 1 within {SUM_TOLERANCE:g}"
        )


def _refuse_repeated_states(states: np.ndarray) -> None:
    """Refuse a 2-D table of states in which some row occurs twice.

    The rows are sorted lexicographically, so equal rows become neighbours;
    this works at any symbol size, past int64 too.  Rows of no symbols are
    all equal.
    """
    ordered = states[np.lexsort(states.T)] if states.shape[1] else states
    repeated = (ordered[1:] == ordered[:-1]).all(axis=1)
    if repeated.any():
        state = tuple(ordered[repeated.argmax()].tolist())
        raise _RowFault(f"duplicate state {state}")


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
    for column, size in zip(codes.astype(np.intp, copy=False).T, sizes):  # codes < size: they fit
        flat = flat * size + column
    return np.bincount(flat, weights, minlength=cells).reshape(sizes)


def _walk_entropies(table: np.ndarray, marginal: np.ndarray, mask: int, low: int) -> None:
    """Fill ``table`` at ``mask`` and at every subset the walk of
    :meth:`JointDistribution._entropy_table` reaches from it.  A module
    function, not a closure that names itself, so a finished table is freed
    by reference counting alone."""
    # variables 0..low-1 are all kept, so variable j is axis j
    shape = marginal.shape
    if prod(k + 1 for k in shape[:low]) * prod(shape[low:]) <= _BLOCK_CELLS:
        table[mask + 1 - (1 << low) : mask + 1] = _block_entropies(marginal, low)
        return
    table[mask] = _block_entropies(marginal, 0)[0]
    for j in range(low):
        _walk_entropies(table, _sum_axis(marginal, j), mask ^ (1 << j), j)


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
        _check_sum(total)
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
        cls, pmf: Mapping[tuple[int, ...], float] | tuple[Sequence[Sequence[int]], Sequence[float]]
    ) -> "JointDistribution":
        """Build from a state -> probability map or a ``(states, probs)`` pair.

        The pair holds one state per row of ``states`` (a 2-D integer array
        is taken as it is) and its probability at the same index of
        ``probs``; a mapping is taken as the pair of its keys and values.
        A state given twice is refused, never merged.  Each alphabet size is
        one plus the largest symbol seen in its position.
        """
        states, probs = (list(pmf), list(pmf.values())) if isinstance(pmf, Mapping) else pmf
        states = _symbol_array(states, "empty distribution")
        if isinstance(probs, np.ndarray) and probs.dtype.kind not in "biuf":
            probs = probs.tolist()  # read as a list is: numpy would drop an imaginary part
        if isinstance(probs, (list, tuple)):  # numpy reads None as nan
            probs = list(map(_as_float, probs))
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(states),):
            raise DistributionFormatError(
                f"{len(states)} states but probabilities of shape {probs.shape}"
            )
        _check_probabilities(probs)  # before the dense cap, as the row loop refuses it
        _refuse_repeated_states(states)
        sizes = tuple(int(s) + 1 for s in states.max(axis=0))
        return cls(_dense_table(states, sizes, probs))

    @classmethod
    def from_samples(cls, rows: Iterable[Sequence[int]]) -> "JointDistribution":
        """Build the empirical distribution of raw observations.

        Entropy does not depend on labels, so each variable's observed
        symbols are relabelled to dense codes 0..k-1 in increasing order;
        sparse symbols such as 0 and 99991 cost no empty table cells.  An
        integer column whose largest symbol is below the number of rows is
        relabelled in O(rows) by a table of the symbols present; any other
        column (sparse codes, symbols past int64) by a sort.
        """
        data = _symbol_array(rows, "no samples")
        codes = np.empty(data.shape, dtype=np.intp)
        sizes = []
        for j, column in enumerate(data.T):
            if data.dtype != object and (top := int(column.max())) < len(data):
                column = column.astype(np.intp, copy=False)  # numpy would cast it at each index
                seen = np.zeros(top + 1, dtype=bool)
                seen[column] = True
                rank = np.cumsum(seen) - 1  # the rank of each present symbol
                codes[:, j] = rank[column]
                sizes.append(int(rank[-1]) + 1)
            else:
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
        axis-sum of its parent's.  A node whose subtree fits in
        ``_BLOCK_CELLS`` cells is not walked further: :func:`_block_entropies`
        returns its whole subtree, the contiguous masks ending at its own,
        in a few numpy calls.  That costs O(3^n) for binary variables
        against O(4^n) for summing each marginal from the pmf, and bounds
        memory by the block budget and the n + 1 marginals of one path.  The
        table is published whole in one assignment, so concurrent callers
        see either no table or all of it.
        """
        table = self._entropies
        if table is not None:
            return table
        table = np.empty(1 << self.n)
        _walk_entropies(table, self._pmf, (1 << self.n) - 1, self.n)
        table[0] = 0.0
        table.flags.writeable = False
        object.__setattr__(self, "_entropies", table)
        return table

    def _entropy_bits(self, mask: int) -> float:
        """Shannon entropy in bits of the marginal selected by ``mask``.

        Reads the entropy table once it exists; until then sums only this
        marginal, so sparse expressions touch only the subsets they name.
        It drops one axis at a time, highest variable first, as the walk
        does, and takes the entropy as a one-entry block, so the value is
        the table entry to the last bit.
        """
        table = self._entropies
        if table is not None:
            return float(table[mask])
        if not mask:
            return 0.0
        marginal = self._pmf
        for j in reversed(range(self.n)):
            if not (mask >> j) & 1:
                marginal = _sum_axis(marginal, j)
        return float(_block_entropies(marginal, 0)[0])

    def subset_entropy(self, members: Iterable[int]) -> float:
        """Plug-in entropy in bits of the marginal on 1-based variable indices."""
        return self._entropy_bits(subset_mask(members, self.n))

    def evaluate(self, expr: EntropyExpression) -> float:
        """Value in bits of a symbolic expression on this distribution.

        Entropies come from the table once it is built, else from the named
        marginals alone; a coefficient object shared by terms (one per subset
        size in a metric's expansion) becomes a float once.  ``math.fsum`` adds
        exactly: term order cannot change the result, nor ii lose digits.
        """
        if expr.n != self.n:
            raise ValueError(
                f"expression has {expr.n} variables, distribution has {self.n}"
            )
        entropy = self._entropy_bits if self._entropies is None else self._entropies.item
        floats: dict[int, float] = {}
        return math.fsum(
            (floats.get(id(c)) or floats.setdefault(id(c), float(c))) * entropy(mask)
            for mask, c in expr.terms.items()
        )

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
    observation.  Symbols are nonnegative integers.  A row's error carries
    its 1-based line number; a cap on the whole table carries none.

    A sample body whose rows are each ``n`` one-digit symbols, joined by
    ``,`` and ended by LF (the last LF optional), is read by a numpy byte
    reader.  numpy's C reader takes any other body when it can.
    Their arrays go to the constructors as they are: a p-table as one
    ``(states, probs)`` pair to :meth:`JointDistribution.from_pmf`, samples
    to :meth:`JointDistribution.from_samples`, the one check of each row
    rule.  A row loop reads the rest (blank cells, ``1_0``, non-ASCII
    digits, symbols past int64) and any body a row rule refuses, and words
    each row's error, a repeated state with both of its line numbers.
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
    body, header_lines = lines.read(), reader.line_num
    del lines, reader  # four bytes a character: freed before the body is parsed
    dist = _from_columns(body, nvars, has_p)
    if dist is None:
        dist = _from_rows(body, len(header), has_p, header_lines)
    return dist


def _from_columns(body: str, nvars: int, has_p: bool) -> JointDistribution | None:
    """The distribution in ``body`` read by the byte reader or numpy's C parser, or None.

    A sample body goes to :func:`_digits_table` first; a p-table, and any
    body the byte reader declines, goes to ``loadtxt`` unchanged.  None
    leaves the body to :func:`_from_rows`, the only reader that words an
    error in a row and the only one that takes what ``loadtxt`` refuses
    (blank cells, ``1_0``, non-ASCII digits, symbols past int64).  The
    constructors check every row rule before a table cap: a row fault
    returns None for the row loop to word, and a cap refusal is raised in
    the row loop's own words.  This adds only the row loop's field limits
    and the sum added as written.
    """
    if not body.strip():
        return None  # loadtxt warns on a body without data
    # samples: a (rows, columns) integer array; p-table: one record per row
    table = None if has_p else _digits_table(body, nvars)
    if table is None:
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
    # more digits than int() converts; neither reader above refuses them.  The
    # fields it took hold a character each, with a comma or line break between
    # two, which bounds the longest; past the limit, the lines bound it unless
    # a quote hides a line break.
    fields = len(table) * (nvars + has_p)
    limit = min(csv.field_size_limit(), sys.get_int_max_str_digits() or math.inf)  # 0: no limit
    if len(body) - 2 * fields + 2 > limit and (
        '"' in body or max(map(len, body.split("\n"))) > limit
    ):
        return None
    try:
        if not has_p:
            return JointDistribution.from_samples(table)
        _check_sum(sum(table["p"].tolist()))  # left to right, as the row loop adds
        return JointDistribution.from_pmf((table["s"], table["p"]))
    except _RowFault:
        return None


def _digits_table(body: str, nvars: int) -> np.ndarray | None:
    """The samples in ``body`` as a uint16 array, or None to leave it to ``loadtxt``.

    Takes only rows of ``nvars`` one-digit symbols, joined by ``,`` and each
    ended by LF (the last LF optional): two bytes per field, read as
    little-endian pairs of a digit and its separator.
    """
    if not body.endswith("\n"):
        body += "\n"
    rows = body.count("\n")
    if len(body) != 2 * rows * nvars or not body.isascii():
        return None
    pairs = np.frombuffer(body.encode("ascii"), "<u2").reshape(rows, nvars)
    expected = np.full(nvars, ord("0") + 256 * ord(","), np.uint16)
    expected[-1] = ord("0") + 256 * ord("\n")
    cells = pairs - expected  # a wrong byte wraps past 9
    if (cells > 9).any():
        return None
    return cells


def _from_rows(body: str, ncols: int, has_p: bool, header_lines: int) -> JointDistribution:
    """The distribution in ``body`` read row by row, or the first error in it.

    Rows are numbered from 2, one per record; a csv-level error carries the
    physical line it stopped on.
    """
    reader = csv.reader(io.StringIO(body, newline=""))
    nvars = ncols - (1 if has_p else 0)
    states: list[tuple[int, ...]] = []
    probs: list[float] = []
    seen: dict[tuple[int, ...], int] = {}  # from_pmf would refuse a repeat without its lines
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
                p = _as_float(token, f"line {lineno}: ")
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
    try:
        if not has_p:
            return JointDistribution.from_samples(states)
        _check_sum(sum(probs))
        return JointDistribution.from_pmf((states, np.array(probs)))
    except _RowFault as exc:  # the whole table's refusal: the public type, same words
        raise DistributionFormatError(str(exc)) from None
