"""Symbolic algebra over linear combinations of joint entropies.

An expression is a finite sum  sum_a c_a * H(X^a)  with exact rational
coefficients, where a runs over nonempty subsets of the variable indices
{1..n}.  Subsets are encoded as bitmasks with variable 1 at the lowest bit.
H of the empty set is zero and zero coefficients are dropped, so every
expression is kept in canonical sparse form and equality of expressions is
plain equality of coefficient maps.

The central operation is the conjugation that sends H(X^a) to
H(X^{-a}) - H(X), where -a is the complement of a within {1..n}.  It is a
linear involution that swaps low-order for high-order structure, and it acts
on the u_k basis (averaged pairwise conditional mutual informations) by
reversing indices: the conjugate of u_k is u_{n-k}.

Both directions between the u_k basis and subset entropies go through one
second difference.  With r_s the average entropy over size-s subsets
(r_0 = 0), u_k = 2 r_k - r_{k-1} - r_{k+1}, so sum_k c_k u_k puts
(2 c_s - c_{s-1} - c_{s+1}) / C(n,s) on every size-s subset (c_0 = c_n = 0).
``u_expression`` and ``from_u_basis`` expand by that closed form over the
cached size classes of ``r_expression``, and ``to_u_basis`` solves it back;
the definitional pair average is the tests' oracle ``definitional_u_expression``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from numbers import Integral
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

Rational = Union[Fraction, int, str]

__all__ = [
    "EntropyExpression",
    "UBasisVector",
    "SymmetryClass",
    "NotLabelSymmetricError",
    "NotInSpanError",
    "subset_mask",
    "mask_members",
    "entropy_term",
    "conjugate",
    "mutual_information_expr",
    "u_expression",
    "r_expression",
    "is_label_symmetric",
    "to_u_basis",
    "from_u_basis",
    "classify",
    "sym_skew_decompose",
    "span_dimensions",
    "expression_to_json",
    "expression_from_json",
]


class NotLabelSymmetricError(ValueError):
    """Raised when an operation requires permutation-invariant coefficients."""


class NotInSpanError(ValueError):
    """Raised when an expression lies outside the span of u_1..u_{n-1}.

    Carries the nonzero residual of the defining linear system.  A nonzero
    residual means the expression does not vanish on jointly independent
    variables, so it cannot be a pure interdependence measure.
    """

    def __init__(self, residual: Fraction):
        super().__init__(
            f"expression is outside the u-basis span (residual {residual})"
        )
        self.residual = residual


def _as_int(value, what: str) -> int:
    """``value`` as an int: numpy integers pass; bool, float and str do not."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def subset_mask(members: Iterable[int], n: int) -> int:
    """Bitmask for a set of 1-based variable indices."""
    mask = 0
    for i in members:
        if type(i) is not int:
            i = _as_int(i, "variable index")
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    """1-based variable indices present in a bitmask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


class EntropyExpression:
    """A linear combination of subset entropies in canonical sparse form."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[int, Rational] | None = None):
        n = _as_int(n, "variable count")
        if n < 1:
            raise ValueError("an expression needs at least one variable")
        full = (1 << n) - 1
        canonical: dict[int, Fraction] = {}
        if terms:
            for mask, coeff in terms.items():
                mask = _as_int(mask, "subset mask")
                if not 0 <= mask <= full:
                    raise ValueError(f"subset mask {mask} outside 0..{full}")
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if mask == 0 or c == 0:
                    continue  # H() = 0; zero coefficients are not stored
                canonical[mask] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("EntropyExpression is immutable")

    @property
    def terms(self) -> Mapping[int, Fraction]:
        """Read-only view of the coefficient map (bitmask -> coefficient)."""
        return MappingProxyType(self._terms)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Terms in deterministic order (ascending bitmask)."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, members: Iterable[int]) -> Fraction:
        return self._terms.get(subset_mask(members, self.n), Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntropyExpression):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self._terms.items()))))

    def __add__(self, other: "EntropyExpression") -> "EntropyExpression":
        if not isinstance(other, EntropyExpression):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")
        merged = dict(self._terms)
        # each distinct pair of coefficient objects is added once; their ids
        # stay valid because both maps hold the objects for the whole call
        sums: dict[tuple[int, int], Fraction] = {}
        for mask, c in other._terms.items():
            a = merged.get(mask)
            if a is None:
                merged[mask] = c
                continue
            key = (id(a), id(c))
            total = sums.get(key)
            if total is None:
                total = sums[key] = a + c
            if total:
                merged[mask] = total
            else:
                del merged[mask]
        return _expression(self.n, merged)

    def __sub__(self, other: "EntropyExpression") -> "EntropyExpression":
        if not isinstance(other, EntropyExpression):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "EntropyExpression":
        return self * -1

    def __mul__(self, scalar: Rational) -> "EntropyExpression":
        s = Fraction(scalar)
        if not s:
            return _expression(self.n, {})
        # each distinct coefficient object is scaled once
        products: dict[int, Fraction] = {}
        terms: dict[int, Fraction] = {}
        for mask, c in self._terms.items():
            p = products.get(id(c))
            if p is None:
                p = products[id(c)] = c * s
            terms[mask] = p
        return _expression(self.n, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rational) -> "EntropyExpression":
        return self * (Fraction(1) / Fraction(scalar))

    def __repr__(self) -> str:
        if not self._terms:
            return f"EntropyExpression(n={self.n}, 0)"
        parts = []
        for mask, c in self.items():
            label = "H{" + ",".join(map(str, mask_members(mask))) + "}"
            parts.append(f"{c}*{label}" if c != 1 else label)
        return f"EntropyExpression(n={self.n}, " + " + ".join(parts) + ")"


def _expression(n: int, terms: dict[int, Fraction]) -> EntropyExpression:
    """An expression over ``terms`` taken as they are: the caller guarantees
    masks in 1..2^n - 1 and nonzero ``Fraction`` coefficients."""
    e = object.__new__(EntropyExpression)
    object.__setattr__(e, "n", n)
    object.__setattr__(e, "_terms", terms)
    return e


def entropy_term(n: int, members: Iterable[int]) -> EntropyExpression:
    """The single entropy H(X^a) as an expression."""
    return EntropyExpression(n, {subset_mask(members, n): Fraction(1)})


def conjugate(e: EntropyExpression) -> EntropyExpression:
    """Apply the involution H(X^a) -> H(X^{-a}) - H(X), extended linearly."""
    full = (1 << e.n) - 1
    # full ^ mask == full only for the empty mask, which is never stored
    out = {full ^ mask: c for mask, c in e._terms.items()}
    out.pop(0, None)  # the full set's image: H() = 0
    # minus the sum of every coefficient, as one integer sum over a common
    # denominator instead of a gcd per Fraction addition; each coefficient
    # object is read once, times the number of terms that share it
    values = e._terms.values()
    counts = Counter(map(id, values))
    distinct = dict(zip(map(id, values), values)).values()
    den = lcm(*(c.denominator for c in distinct))
    total = -sum(c.numerator * (den // c.denominator) * counts[id(c)] for c in distinct)
    if total:
        out[full] = Fraction(total, den)
    return _expression(e.n, out)


def mutual_information_expr(
    n: int,
    a: Iterable[int],
    b: Iterable[int],
    c: Iterable[int] = (),
) -> EntropyExpression:
    """Expression for I(X^a ; X^b | X^c) in unconditional entropies.

    Requires a, b, c pairwise disjoint with a and b nonempty; expands to
    H(ac) + H(bc) - H(abc) - H(c).
    """
    ma, mb, mc = subset_mask(a, n), subset_mask(b, n), subset_mask(c, n)
    if ma & mb or ma & mc or mb & mc:
        raise ValueError("index sets of a mutual information must be disjoint")
    if not ma or not mb:
        raise ValueError("both primary argument sets must be nonempty")
    terms: dict[int, Fraction] = defaultdict(Fraction)
    terms[ma | mc] += 1
    terms[mb | mc] += 1
    terms[ma | mb | mc] -= 1
    terms[mc] -= 1
    return EntropyExpression(n, terms)


def _masks_of_size(n: int, s: int) -> list[int]:
    """Bitmasks of every size-s subset of {1..n}, ascending (1 <= s <= n)."""
    masks = []
    mask, limit = (1 << s) - 1, 1 << n
    while mask < limit:
        masks.append(mask)
        # next larger mask with the same popcount (Gosper's hack)
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple
    return masks


@lru_cache(maxsize=None, typed=True)
def u_expression(k: int, n: int) -> EntropyExpression:
    """The order-(k+1) interdependence average u_k as an entropy expression.

    u_k is the average of I(X_i ; X_j | X^a) over all pairs i < j and all
    (k-1)-subsets a avoiding i and j, normalised by C(n,k+1) * C(k+1,2).
    It is built from the closed form u_k = 2 r_k - r_{k-1} - r_{k+1}:
    2/C(n,k) on every size-k subset and -1/C(n,k-1), -1/C(n,k+1) on every
    size-(k-1) and size-(k+1) subset (r_0 = 0 contributes nothing).  The
    tests compare it with the pair average, ``definitional_u_expression``.
    """
    k, n = _as_int(k, "k"), _as_int(n, "variable count")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in 1..{n - 1}, got {k}")
    terms: dict[int, Fraction] = {}
    for size, weight in ((k - 1, -1), (k, 2), (k + 1, -1)):
        if size:
            w = Fraction(weight, comb(n, size))
            terms.update(dict.fromkeys(r_expression(size, n)._terms, w))
    return _expression(n, terms)


@lru_cache(maxsize=None, typed=True)
def r_expression(k: int, n: int) -> EntropyExpression:
    """Average entropy over all size-k subsets; r_0 is the zero expression."""
    k, n = _as_int(k, "k"), _as_int(n, "variable count")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    if k == 0:
        return _expression(n, {})
    return _expression(n, dict.fromkeys(_masks_of_size(n, k), Fraction(1, comb(n, k))))


def _r_weights(e: EntropyExpression) -> list[Fraction] | None:
    """Coefficients a_0..a_n of ``e`` over r_0..r_n, or None if not label-symmetric.

    One pass: each coefficient must equal the first one seen at its size, and
    every size present must cover all C(n, s) subsets, since stored
    coefficients are nonzero and an absent subset counts as zero.
    """
    n = e.n
    first: list[Fraction | None] = [None] * (n + 1)
    count = [0] * (n + 1)
    for mask, c in e._terms.items():
        s = mask.bit_count()
        if first[s] is None:
            first[s] = c
        elif c is not first[s] and c != first[s]:
            return None
        count[s] += 1
    if any(k != comb(n, s) for s, k in enumerate(count) if k):
        return None
    return [Fraction(0) if w is None else w * comb(n, s) for s, w in enumerate(first)]


def is_label_symmetric(e: EntropyExpression) -> bool:
    """True when the coefficient of H(X^a) depends only on |a|.

    Every subset of a given size must carry the same coefficient, counting
    absent subsets as zero.
    """
    return _r_weights(e) is not None


def to_u_basis(e: EntropyExpression) -> "UBasisVector":
    """Coordinates of a label-symmetric expression in the u_k basis.

    Collapses the expression onto the averaged entropies r_1..r_n and solves
    the n matching equations for the n-1 unknowns exactly.  The system is
    overdetermined by one equation; a nonzero residual means the expression
    does not vanish on jointly independent variables and is rejected.
    """
    a = _r_weights(e)
    if a is None:
        raise NotLabelSymmetricError(
            "expression is not invariant under variable relabelling"
        )
    n = e.n
    # u_k contributes 2 to r_k and -1 to each of r_{k-1}, r_{k+1}; with
    # sentinels c_0 = c_n = c_{n+1} = 0 the r_s equation reads
    # 2 c_s - c_{s-1} - c_{s+1} = a_s for s = 1..n.
    c = [Fraction(0)] * (n + 2)
    if n >= 2:
        c[n - 1] = -a[n]
        for s in range(n - 1, 1, -1):
            c[s - 1] = 2 * c[s] - c[s + 1] - a[s]
    residual = 2 * c[1] - c[2] - a[1]
    if residual != 0:
        raise NotInSpanError(residual)
    return UBasisVector(n, tuple(c[1:n]))


def from_u_basis(c: "UBasisVector") -> EntropyExpression:
    """Expand u-basis coordinates back into an entropy expression.

    Every u_k is label-symmetric, so its coefficient on the lowest size-s
    mask is its weight on every size-s subset.  Summing c_k times those
    weights (one integer sum per size, as in ``conjugate``) puts
    (2 c_s - c_{s-1} - c_{s+1}) / C(n,s) on each subset of ``r_expression(s, n)``.
    """
    n = c.n
    parts: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for k, ck in enumerate(c.c, start=1):
        if ck:
            u = u_expression(k, n)._terms
            for s in range(1, n + 1):
                if (w := u.get((1 << s) - 1)) is not None:
                    parts[s].append((ck.numerator * w.numerator, ck.denominator * w.denominator))
    terms: dict[int, Fraction] = {}
    for s, part in enumerate(parts):
        den = lcm(*(d for _, d in part))  # lcm() of no denominators is 1
        if total := sum(p * (den // d) for p, d in part):
            terms.update(dict.fromkeys(r_expression(s, n)._terms, Fraction(total, den)))
    return _expression(n, terms)


@dataclass(frozen=True)
class UBasisVector:
    """Exact coordinates c_1..c_{n-1} of an expression in the u_k basis."""

    n: int
    c: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "variable count"))
        object.__setattr__(self, "c", tuple(Fraction(x) for x in self.c))
        if len(self.c) != self.n - 1:
            raise ValueError(
                f"need {self.n - 1} coefficients for n={self.n}, got {len(self.c)}"
            )

    def reversed(self) -> "UBasisVector":
        """Coordinates with index k swapped for n-k."""
        return UBasisVector(self.n, tuple(reversed(self.c)))


class SymmetryClass(str, Enum):
    """Behaviour of an expression under entropic conjugation."""

    SYMMETRIC = "symmetric"
    SKEW_SYMMETRIC = "skew-symmetric"
    NEITHER = "neither"


def classify(c: UBasisVector) -> SymmetryClass:
    """Symmetry class read off the u-basis coordinates.

    Symmetric iff c_k = c_{n-k} for every k, skew-symmetric iff
    c_k = -c_{n-k}.  The zero vector satisfies both and reports symmetric.
    """
    n = c.n
    if all(c.c[k - 1] == c.c[n - k - 1] for k in range(1, n)):
        return SymmetryClass.SYMMETRIC
    if all(c.c[k - 1] == -c.c[n - k - 1] for k in range(1, n)):
        return SymmetryClass.SKEW_SYMMETRIC
    return SymmetryClass.NEITHER


def sym_skew_decompose(
    e: EntropyExpression,
) -> tuple[EntropyExpression, EntropyExpression]:
    """Split an expression into its symmetric and skew-symmetric halves.

    Returns (s, t) with conjugate(s) = s, conjugate(t) = -t and s + t = e,
    namely s = (e + e*)/2 and t = e - s = (e - e*)/2, all exact.
    """
    s = (e + conjugate(e)) * Fraction(1, 2)
    return s, e - s


def span_dimensions(n: int) -> tuple[int, int]:
    """(symmetric, skew-symmetric) dimensions of the n-variable metric space."""
    n = _as_int(n, "variable count")
    if n < 2:
        raise ValueError("need at least two variables")
    return n // 2, (n - 1) // 2


def expression_to_json(e: EntropyExpression) -> dict:
    """JSON-ready form: terms sorted by mask, subsets ascending, exact coeffs.

    A subset is its lowest member followed by the subset of the term that
    lacks it, when that term came earlier; each distinct coefficient object
    is printed once, keyed by its ``id`` (``e`` keeps it alive).
    """
    subsets: dict[int, list[int]] = {}
    texts: dict[int, str] = {}
    terms = []
    for mask, c in e.items():
        low = mask & -mask
        rest = subsets.get(mask ^ low)
        if rest is None:
            subset = subsets[mask] = list(mask_members(mask))
        else:
            subset = subsets[mask] = [low.bit_length(), *rest]
        text = texts.get(id(c))
        if text is None:
            text = texts[id(c)] = str(c)
        terms.append({"subset": subset, "coeff": text})
    return {"n": e.n, "terms": terms}


_MAX_COEFF_DIGITS = 4300  # CPython's default int <-> str conversion limit
_COEFF_BOUND = 10**_MAX_COEFF_DIGITS
# A conjugate lists the n - |a| members each term lacks, so its output grows
# by n per term; no command or test needs more than 20 variables.
MAX_JSON_VARIABLES = 64


def _parse_coefficient(text: str) -> Fraction:
    """Exact coefficient from its text, refused if it could not be printed back.

    Each part of a mantissa holds at most _MAX_COEFF_DIGITS digits, so an
    exponent past twice that is refused before Fraction multiplies it out.
    """
    _, e, exponent = text.lower().rpartition("e")
    try:
        too_far = bool(e) and abs(int(exponent)) > 2 * _MAX_COEFF_DIGITS
    except ValueError:  # not an exponent: Fraction reports the bad text
        too_far = False
    if too_far:
        raise ValueError(f"coefficient exponent {exponent.strip()} is out of range")
    coeff = Fraction(text)
    if max(abs(coeff.numerator), coeff.denominator) >= _COEFF_BOUND:
        raise ValueError(f"coefficient has more than {_MAX_COEFF_DIGITS} digits")
    return coeff


def expression_from_json(obj: dict) -> EntropyExpression:
    """Parse the JSON form produced by :func:`expression_to_json`."""
    if not isinstance(obj, Mapping):
        raise ValueError("expression JSON must be an object")
    try:
        n = _as_int(obj["n"], '"n"')
        raw_terms = obj["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed expression JSON: {exc}") from exc
    if n > MAX_JSON_VARIABLES:
        raise ValueError(f'"n" {n} is above the limit of {MAX_JSON_VARIABLES}')
    if not isinstance(raw_terms, list):
        raise ValueError('"terms" must be a list')
    terms: dict[int, Fraction] = {}
    parsed: dict[str, Fraction] = {}  # each distinct coefficient text is parsed once
    for idx, entry in enumerate(raw_terms):
        try:
            members = entry["subset"]
            text = str(entry["coeff"])
            coeff = parsed.get(text)
            if coeff is None:
                coeff = parsed[text] = _parse_coefficient(text)
            mask = subset_mask(members, n)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed term {idx}: {exc}") from exc
        if mask in terms:
            raise ValueError(f"duplicate subset {sorted(members)}")
        terms[mask] = coeff
    if n < 1 or 0 in terms or not all(parsed.values()):
        # the public constructor refuses n < 1 and drops H() and zero coefficients
        return EntropyExpression(n, terms)
    return _expression(n, terms)
