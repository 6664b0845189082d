"""Exterior algebra over an exact rational metric.

Forms are finite sums of canonical blades ``e{i1,...,ik}`` (strictly
ascending 1-based frame indices) with rational coefficients.  All
arithmetic is exact: coefficients are Python ints or Fractions, never
floats.  Blades are carried as index bitmasks and signs come from
permutation parity.  This layer holds forms, metrics, the interior
contraction and the blade-pair kernel; the one product that pairs
blades, and the wedge and contracted wedge as its grade slices, are in
``graf``.

Under an orthonormal metric (a diagonal of +1 and -1 entries) every
blade-pair factor comes from one table, that metric's kernel
(``_kernel_for``).  The kernel serves orthonormal frames only; ``graf``
multiplies under any other metric without it.  Row ``row_a`` holds, for
every right blade b, the parity sign of sorting the concatenation a b
times the diagonal entries g^yy of the shared indices y in a & b: the
factor +1 or -1 in the Clifford product e_a e_b = row_a[b] e_(a^b)
(``graf``).  A row is built by doubling: the reorder sign and the metric
sign are multiplicative over the bits of the right blade, so adding
index y copies the first 2^y entries or their negatives, as one list
operation per bit.

A kernel also holds the volume column nu[m] = row_m[full], built by the
same doubling without the rows; for the squares f * f of ``graf``, pair
tables by grade set: for every output mask, the index pairs of the
masks of those grades and their weights, read from the rows once, and
for the truncated squares the same pairs folded onto the lower grades;
and the masks of each generator's left action on forms packed into one
int, by field width.

Every memo has one of two stdlib forms.  A table shared across objects
is a ``functools.lru_cache`` with a named bound: the kernels by metric
(``_KERNEL_CAP``), the pair tables by kernel, grade set and fold
(``_SQUARE_TABLE_CAP``) and the packed masks by kernel and width
(``_PACKED_MASK_CAP``); their ``cache_info()`` gives size, hits and
misses.  A value derived from one object, such as the volume column, is
a ``functools.cached_property``.  The rows live in a per-kernel dict
keyed by mask, so at most 2^n of them.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from operator import itemgetter

from .errors import DimensionMismatch, FormParseError, UnsupportedSignature
from .linalg import (
    Rational,
    _norm,
    congruence_diagonal,
    divide_numerators,
)

DEFAULT_MAX_DIM = 12


def max_dim() -> int:
    """Dimension cap for signatures, overridable via GRAF_MAX_DIM."""
    raw = os.environ.get("GRAF_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise UnsupportedSignature(f"GRAF_MAX_DIM must be an integer, got {raw!r}") from exc
    if value < 1:
        raise UnsupportedSignature(f"GRAF_MAX_DIM must be positive, got {value}")
    return value


# The one grammar of a rational literal, 'num' or 'num/den': no '+', point, exponent or '_'.
_RATIONAL = r"-?\d+(?:/\d+)?"


def rational_from_str(text: str) -> Rational:
    """Parse a ``_RATIONAL`` literal, surrounding blanks allowed, into an exact rational."""
    literal = text.strip()
    if re.fullmatch(_RATIONAL, literal):
        try:
            return _norm(Fraction(literal))
        except (ValueError, ZeroDivisionError):  # past the int digit limit, or over zero
            pass
    raise FormParseError(f"bad rational literal {text!r}")


def rational_from_json(value, what: str) -> Rational:
    """A JSON rational: an int that is not a bool, or a rational string."""
    if isinstance(value, str):
        return rational_from_str(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormParseError(f"{what} must be an integer or a rational string, got {value!r}")
    return value


def rational_to_str(c: Rational) -> str:
    if type(c) is int:
        return str(c)
    f = Fraction(c)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class Signature:
    """Pseudo-Riemannian signature with p plus-squares and q minus-squares."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be nonnegative, got ({self.p},{self.q})")
        n = self.p + self.q
        cap = max_dim()
        if n > cap:
            raise UnsupportedSignature(
                f"dimension {n} exceeds cap {cap} (set GRAF_MAX_DIM to raise it)"
            )

    @property
    def n(self) -> int:
        return self.p + self.q

    def pq_class(self) -> int:
        """(p - q) mod 8, the invariant steering every case split."""
        return (self.p - self.q) % 8


@dataclass(frozen=True)
class Blade:
    """Canonical basis blade: strictly ascending 1-based indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if any(i < 1 for i in idx):
            raise ValueError(f"blade indices are 1-based, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"blade indices must be strictly ascending, got {idx}")

    @classmethod
    def from_mask(cls, mask: int) -> "Blade":
        out = []
        i = 1
        while mask:
            if mask & 1:
                out.append(i)
            mask >>= 1
            i += 1
        return cls(tuple(out))

    @property
    def mask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << (i - 1)
        return m


def _mask_of(key) -> int:
    if isinstance(key, Blade):
        return key.mask
    if isinstance(key, int):
        if key < 0:
            raise ValueError(f"blade mask must be nonnegative, got {key}")
        return key
    return Blade(tuple(key)).mask


def _indices_of_mask(mask: int) -> tuple[int, ...]:
    return Blade.from_mask(mask).indices


class Form:
    """Immutable exterior form: sparse map from blades to rational coefficients."""

    __slots__ = ("signature", "_terms", "_hash")

    def __init__(self, signature: Signature, terms: Mapping | Iterable = ()):
        self.signature = signature
        full = (1 << signature.n) - 1
        data: dict[int, Rational] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            mask = _mask_of(key)
            if mask & ~full:
                raise ValueError(
                    f"blade {Blade.from_mask(mask).indices} exceeds dimension {signature.n}"
                )
            c = data.get(mask, 0) + _norm(coeff)
            if c:
                data[mask] = _norm(c)
            elif mask in data:
                del data[mask]
        self._terms = data
        self._hash = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, signature: Signature) -> "Form":
        return cls(signature)

    @classmethod
    def unit(cls, signature: Signature) -> "Form":
        """The algebra unit: the empty blade with coefficient 1."""
        return cls(signature, {0: 1})

    @classmethod
    def blade(cls, signature: Signature, key, coeff: Rational = 1) -> "Form":
        return cls(signature, {_mask_of(key): coeff})

    @classmethod
    def scalar(cls, signature: Signature, value: Rational) -> "Form":
        return cls(signature, {0: value})

    @classmethod
    def from_mask_dict(cls, signature: Signature, terms: Mapping[int, Rational]) -> "Form":
        return cls(signature, terms)

    @classmethod
    def _adopt(cls, signature: Signature, terms: dict[int, Rational]) -> "Form":
        """Take ownership of ``terms`` without checking it.

        Only for dicts derived from already-validated forms: every mask in
        range, every coefficient nonzero and normalized by ``_norm``.
        Input paths (``Form(...)``, ``from_mask_dict``, ``from_text``,
        ``from_json_obj``) keep every check.
        """
        out = cls.__new__(cls)
        out.signature = signature
        out._terms = terms
        out._hash = None
        return out

    # -- inspection -----------------------------------------------------------

    def items(self) -> Iterator[tuple[Blade, Rational]]:
        for mask in sorted(self._terms):
            yield Blade.from_mask(mask), self._terms[mask]

    def mask_items(self) -> Iterator[tuple[int, Rational]]:
        return iter(self._terms.items())

    def mask_dict(self) -> dict[int, Rational]:
        return dict(self._terms)

    def coeff(self, key) -> Rational:
        return self._terms.get(_mask_of(key), 0)

    def scalar_part(self) -> Rational:
        return self._terms.get(0, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.grades()) <= 1

    def num_terms(self) -> int:
        return len(self._terms)

    # -- linear structure -----------------------------------------------------

    def _check_same(self, other: "Form") -> None:
        if self.signature != other.signature:
            raise DimensionMismatch(
                f"forms over different signatures: {self.signature} vs {other.signature}"
            )

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._check_same(other)
        data = dict(self._terms)
        for mask, c in other._terms.items():
            v = data.get(mask, 0) + c
            if v:
                data[mask] = _norm(v)
            elif mask in data:
                del data[mask]
        return Form._adopt(self.signature, data)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form._adopt(self.signature, {m: -c for m, c in self._terms.items()})

    def scale(self, c: Rational) -> "Form":
        c = _norm(c)
        if not c:
            return Form.zero(self.signature)
        return Form._adopt(self.signature, {m: _norm(v * c) for m, v in self._terms.items()})

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.signature == other.signature
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.signature, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Form({self.signature.p},{self.signature.q}; {self.to_text()})"

    # -- serialization ----------------------------------------------------------

    def to_text(self) -> str:
        """Render as 'c*e{i,j} + ...' with rational c; the zero form is '0'."""
        if not self._terms:
            return "0"
        parts = []
        for mask in sorted(self._terms, key=lambda m: (m.bit_count(), m)):
            idx = ",".join(str(i) for i in _indices_of_mask(mask))
            parts.append(f"{rational_to_str(self._terms[mask])}*e{{{idx}}}")
        return " + ".join(parts)

    @classmethod
    def from_text(cls, signature: Signature, text: str) -> "Form":
        body = text.strip()
        if body in ("0", ""):
            return cls.zero(signature)
        terms: list[tuple[int, Rational]] = []
        for chunk in body.split("+"):
            chunk = chunk.strip()
            m = re.fullmatch(rf"(?P<c>{_RATIONAL})\s*\*\s*e\{{(?P<idx>[\d,\s]*)\}}", chunk)
            if m is None:
                raise FormParseError(f"bad form term {chunk!r}")
            coeff = rational_from_str(m.group("c"))
            idx_text = m.group("idx").strip()
            indices = tuple(int(t) for t in idx_text.split(",")) if idx_text else ()
            terms.append((Blade(indices).mask, coeff))
        return cls(signature, terms)

    def to_json_obj(self) -> list[dict]:
        return [
            {"blade": list(_indices_of_mask(mask)), "coeff": rational_to_str(self._terms[mask])}
            for mask in sorted(self._terms, key=lambda m: (m.bit_count(), m))
        ]

    @classmethod
    def from_json_obj(cls, signature: Signature, obj) -> "Form":
        if not isinstance(obj, list):
            raise FormParseError("form JSON must be a list of terms")
        terms = []
        for entry in obj:
            extra = sorted(set(entry) - {"blade", "coeff"}) if isinstance(entry, dict) else None
            if extra:
                raise FormParseError(
                    f"unknown key {', '.join(map(repr, extra))}: a form term takes blade, coeff"
                )
            try:
                indices = tuple(entry["blade"])
                coeff = entry["coeff"]
            except (KeyError, TypeError) as exc:
                raise FormParseError(f"bad form term {entry!r}") from exc
            if any(isinstance(i, bool) or not isinstance(i, int) for i in indices):
                raise FormParseError(f"blade indices must be integers, got {entry['blade']!r}")
            try:
                blade = Blade(indices)
            except ValueError as exc:
                raise FormParseError(f"bad form term {entry!r}") from exc
            if indices and indices[-1] > signature.n:  # before a mask that wide is built
                raise FormParseError(f"blade {blade.indices} exceeds dimension {signature.n}")
            terms.append((blade.mask, rational_from_json(coeff, "coefficient")))
        return cls(signature, terms)


# Standard metrics kept, one per signature; every signature inside the
# default cap (91 of them) fits.
_STANDARD_METRIC_CAP = 128


class Metric:
    """Symmetric invertible rational coefficient matrix for frame contractions.

    The default for a signature is the orthonormal diagonal
    (+1 x p, -1 x q).  A given gram must have the inertia of the
    signature, so singular input fails at construction time.
    """

    __slots__ = ("signature", "gram", "_diag")

    def __init__(self, signature: Signature, gram=None):
        n = signature.n
        self.signature = signature
        if gram is None:
            rows = tuple(
                tuple((1 if i == j and i < signature.p else (-1 if i == j else 0)) for j in range(n))
                for i in range(n)
            )
        else:
            rows = tuple(tuple(_norm(v) for v in row) for row in gram)
            if len(rows) != n or any(len(r) != n for r in rows):
                raise DimensionMismatch(f"gram matrix must be {n}x{n}")
            for i in range(n):
                for j in range(i + 1, n):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError("gram matrix must be symmetric")
        self.gram = rows
        if all(rows[i][j] == 0 for i in range(n) for j in range(n) if i != j):
            self._diag = tuple(rows[i][i] for i in range(n))
        else:
            self._diag = None
        if gram is not None:
            _, pivots = congruence_diagonal(rows)
            pos = sum(1 for v in pivots if v > 0)
            neg = sum(1 for v in pivots if v < 0)
            if (pos, neg) != (signature.p, signature.q):
                raise ValueError(
                    f"gram matrix has inertia ({pos},{neg}), signature says ({signature.p},{signature.q})"
                )

    @staticmethod
    @lru_cache(maxsize=_STANDARD_METRIC_CAP)
    def standard(signature: Signature) -> "Metric":
        return Metric(signature)

    @property
    def is_diagonal(self) -> bool:
        return self._diag is not None

    @property
    def diagonal(self) -> tuple[Rational, ...] | None:
        return self._diag

    @property
    def is_orthonormal(self) -> bool:
        return self._diag is not None and all(v in (1, -1) for v in self._diag)

    def entry(self, i: int, j: int) -> Rational:
        """Contraction coefficient for frame indices i, j (1-based)."""
        return self.gram[i - 1][j - 1]

    def to_json_obj(self) -> dict:
        obj = {"p": self.signature.p, "q": self.signature.q}
        if not self.is_orthonormal or self._diag != Metric.standard(self.signature)._diag:
            obj["gram"] = [[rational_to_str(v) for v in row] for row in self.gram]
        return obj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Metric)
            and self.signature == other.signature
            and self.gram == other.gram
        )

    def __hash__(self) -> int:
        return hash((self.signature, self.gram))

    def __repr__(self) -> str:
        return f"Metric({self.signature.p},{self.signature.q})"


# -- permutation signs ---------------------------------------------------------


def interior_sign(mask: int, index: int) -> int:
    """Sign for removing `index` from an ascending blade: (-1)^(position-1)."""
    below = mask & ((1 << (index - 1)) - 1)
    return -1 if below.bit_count() & 1 else 1


# -- blade-pair kernel ----------------------------------------------------------


@dataclass(frozen=True)
class _SquareTable:
    """The blade pairs of f * f, or of its truncation, for forms on one grade set G.

    ``index`` numbers M_G, the masks of grades in G.  Pair p multiplies
    entry ``left[p]`` of the weighted copies of the padded numerators
    (copy k is ``weights[k]`` times them) by entry ``right[p]``.  The
    pairs are grouped by output key, in the order of ``keys``; ``marks``
    flags the running sum before the first pair and after each group.
    """

    index: dict[int, int]
    weights: tuple[Rational, ...]
    left: itemgetter
    right: itemgetter
    keys: tuple[int, ...]
    marks: tuple[bool, ...]


# A square table over M_G holds up to |M_G|(|M_G| + 1)/2 pairs (8.4 million
# for every grade at n = 12), so larger grade sets keep the pair loop.
_SQUARE_TABLE_MASKS = 256
# Bounds of the LRU caches: a kernel's rows hold up to 4^n factors, and
# packed-product masks are 2n ints of 2^n fields per width.  The table
# and mask caps are shared by all kernels.
_KERNEL_CAP = 8
_SQUARE_TABLE_CAP = 4
_PACKED_MASK_CAP = 4


class _DiagKernel:
    """Per-metric table of blade-pair product factors, built lazily by row.

    Only for an orthonormal diagonal, so every factor is +1 or -1; any
    other diagonal is refused.
    """

    def __init__(self, n: int, diag: tuple[int, ...]):
        if any(g not in (1, -1) for g in diag):
            raise ValueError("the blade-pair kernel serves orthonormal metrics only")
        self.n = n
        self.diag = diag
        self._rows: dict[int, list] = {}

    def row(self, ma: int):
        cached = self._rows.get(ma)
        if cached is not None:
            return cached
        # Doubling over the bits of mb: adding index y to mb multiplies by
        # the parity of a-indices above y, and by g^yy when y is shared, so
        # entries 2^y .. 2^(y+1)-1 are the first 2^y times that sign.
        row = [1]
        for y in range(self.n):
            s = -1 if (ma >> (y + 1)).bit_count() & 1 else 1
            if ma >> y & 1:
                s *= self.diag[y]
            row += row if s == 1 else [-x for x in row]
        self._rows[ma] = row
        return row

    @cached_property
    def volume_column(self) -> list:
        """nu[m] = row_m[full]: e_m e_full = nu[m] e_(m ^ full).

        Sorting m before the full blade moves each index of m past the
        indices below it, so nu[m] is (-1)^(sum of the 0-based positions
        in m) times the diagonal entries of m.  Built by doubling over the
        bits of m, without the rows of the masks themselves.
        """
        col = [1]
        for y in range(self.n):
            s = -self.diag[y] if y & 1 else self.diag[y]
            col += [x * s for x in col]
        return col

    def square_table(self, grades: frozenset[int], terms: int, fold: int) -> _SquareTable | None:
        """The pair table of a square with ``terms`` terms on ``grades``, or None.

        A table pays when M_G is small (2 to ``_SQUARE_TABLE_MASKS``
        masks; two keep the gathers tuple-valued) and the square fills at
        least half of it; otherwise the square is formed as any other
        product.  A grade set whose pairs carry so many distinct weights
        that the weighted copies would outnumber the pairs also gets
        None, remembered like a table.  ``fold`` is 0 for the square
        itself and the projector sign +-1 for its truncation
        (``_build_square_table``).
        """
        size = sum(comb(self.n, k) for k in grades)
        if not 2 <= size <= _SQUARE_TABLE_MASKS or 2 * terms < size:
            return None
        return self._build_square_table(grades, fold)

    @lru_cache(maxsize=_SQUARE_TABLE_CAP)
    def _build_square_table(self, grades: frozenset[int], fold: int) -> _SquareTable | None:
        # e_a e_b + e_b e_a = (row_a[b] + row_b[a]) e_(a^b), and e_a e_a =
        # row_a[a]; pairs whose weight is 0 (anticommuting ones) are dropped.
        # With fold = +-1 a key above floor(n/2) goes under key ^ full with
        # its weight times fold nu[key], as ``graf.truncated_product`` folds.
        masks = [m for m in range(1 << self.n) if m.bit_count() in grades]
        size = len(masks)
        rows = [self.row(m) for m in masks]
        nu = self.volume_column if fold else None
        full = (1 << self.n) - 1
        half = self.n // 2
        by_key: dict[int, tuple[list, list, list]] = {}
        for i, (a, row_a) in enumerate(zip(masks, rows)):
            col_a = [row[a] for row in rows]
            for j in range(i, size):
                b = masks[j]
                w = row_a[a] if i == j else row_a[b] + col_a[j]
                if w:
                    key = a ^ b
                    if fold and key.bit_count() > half:
                        w *= fold * nu[key]
                        key ^= full
                    pairs = by_key.get(key)
                    if pairs is None:
                        pairs = by_key[key] = ([], [], [])
                    pairs[0].append(i)
                    pairs[1].append(j)
                    pairs[2].append(w)
        weights = sorted({w for _, _, ws in by_key.values() for w in ws})
        count = sum(len(ws) for _, _, ws in by_key.values())
        if len(weights) * size > count:
            return None
        offset = {w: k * size for k, w in enumerate(weights)}
        # one int object per index value, shared by every pair that uses it
        flat = list(range(len(weights) * size))
        left: list[int] = []
        right: list[int] = []
        marks = [True]
        for lefts, rights, ws in by_key.values():
            left += [flat[offset[w] + i] for i, w in zip(lefts, ws)]
            right += rights
            marks += [False] * (len(ws) - 1) + [True]
        return _SquareTable(
            {m: i for i, m in enumerate(masks)},
            tuple(weights),
            itemgetter(*left),
            itemgetter(*right),
            tuple(by_key),
            tuple(marks),
        )

    @lru_cache(maxsize=_PACKED_MASK_CAP)
    def packed_masks(self, width: int) -> tuple[tuple[int, int], ...]:
        """Per generator y, the masks of its left action on packed fields.

        A packed form holds the coefficient of blade b in bits
        b*width .. (b+1)*width - 1.  Entry y is (flip, low): ``flip``
        covers the fields b with e_y e_b = -e_(b ^ 2^y), and ``low`` the
        fields b without index y.  Kept for the most recently used widths
        only.
        """
        # Doubling over the bits j of b: fields 2^j .. 2^(j+1) - 1 are the
        # first 2^j with index j added, which flips the sign of e_y e_b when
        # j < y (one more index below y), multiplies it by g^yy when j = y,
        # and leaves it when j > y.
        out = []
        for y in range(self.n):
            flip = 0
            low = (1 << (width << y)) - 1
            for j in range(self.n):
                span = width << j
                if j < y or (j == y and self.diag[y] == -1):
                    flip |= (((1 << span) - 1) ^ flip) << span
                else:
                    flip |= flip << span
                if j > y:
                    low |= low << span
            out.append((flip, low))
        return tuple(out)

    def finish(self, acc: dict, den: int) -> dict[int, Rational]:
        """The nonzero accumulated integer numerators over den, normalized."""
        return divide_numerators({m: c for m, c in acc.items() if c}, den)


_kernel = lru_cache(maxsize=_KERNEL_CAP)(_DiagKernel)


def _kernel_for(metric: Metric) -> _DiagKernel:
    """The kernel of an orthonormal metric."""
    return _kernel(metric.signature.n, metric.diagonal)


# -- exterior operations -------------------------------------------------------


def interior(i: int, f: Form) -> Form:
    """Contraction with the i-th frame vector (grade-lowering antiderivation)."""
    n = f.signature.n
    if not 1 <= i <= n:
        raise ValueError(f"frame index {i} out of range 1..{n}")
    bit = 1 << (i - 1)
    acc: dict[int, Rational] = {}
    for mask, c in f.mask_items():
        if mask & bit:
            acc[mask ^ bit] = c * interior_sign(mask, i)
    return Form.from_mask_dict(f.signature, acc)


def grade_project(f: Form, k: int) -> Form:
    return Form._adopt(f.signature, {m: c for m, c in f.mask_items() if m.bit_count() == k})


def grade_involution(f: Form) -> Form:
    """Multiply each grade-k component by (-1)^k."""
    return Form._adopt(
        f.signature, {m: (-c if m.bit_count() & 1 else c) for m, c in f.mask_items()}
    )


def reversal(f: Form) -> Form:
    """Multiply each grade-k component by (-1)^(k(k-1)/2)."""
    out = {}
    for m, c in f.mask_items():
        k = m.bit_count()
        out[m] = -c if (k * (k - 1) // 2) & 1 else c
    return Form.from_mask_dict(f.signature, out)
