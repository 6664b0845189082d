"""Exterior algebra over an exact rational metric.

Forms are finite sums of canonical blades ``e{i1,...,ik}`` (strictly
ascending 1-based frame indices) with rational coefficients.  All
arithmetic is exact: coefficients are Python ints or Fractions, never
floats.  Blades are carried as index bitmasks and signs come from
permutation parity.  This layer holds forms, metrics, the interior
contraction and the grade operations; the one product that pairs
blades, its blade-pair kernel, and the wedge and contracted wedge as
its grade slices, are in ``graf``.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch, FormParseError, UnsupportedSignature
from .linalg import Rational, _norm, congruence_diagonal

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


def _blade_indices(indices) -> tuple[int, ...]:
    """The indices of a canonical blade, checked 1-based and strictly ascending."""
    idx = tuple(indices)
    if any(i < 1 for i in idx):
        raise ValueError(f"blade indices are 1-based, got {idx}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"blade indices must be strictly ascending, got {idx}")
    return idx


def _mask_of(key) -> int:
    """A blade key, an int mask or a sequence of canonical blade indices, as its mask."""
    if isinstance(key, int):
        if key < 0:
            raise ValueError(f"blade mask must be nonnegative, got {key}")
        return key
    mask = 0
    for i in _blade_indices(key):
        mask |= 1 << (i - 1)
    return mask


def _term_mask(signature: Signature, indices: tuple, term) -> int:
    """A parsed term's blade mask; bad indices raise ``FormParseError`` before any mask is built."""
    try:
        indices = _blade_indices(indices)
    except ValueError as exc:
        raise FormParseError(f"bad form term {term!r}") from exc
    if indices and indices[-1] > signature.n:
        raise FormParseError(f"blade {indices} exceeds dimension {signature.n}")
    return _mask_of(indices)


def _indices_of_mask(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


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
                raise ValueError(f"blade {_indices_of_mask(mask)} exceeds dimension {signature.n}")
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

    def mask_items(self) -> Iterator[tuple[int, Rational]]:
        return iter(self._terms.items())

    def coeff(self, key) -> Rational:
        return self._terms.get(_mask_of(key), 0)

    def scalar_part(self) -> Rational:
        return self._terms.get(0, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self._terms}

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
            try:  # an empty or blank-separated index, or one past the int digit limit
                indices = tuple(int(t) for t in idx_text.split(",")) if idx_text else ()
            except ValueError as exc:
                raise FormParseError(f"bad form term {chunk!r}") from exc
            terms.append((_term_mask(signature, indices, chunk), coeff))
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
            mask = _term_mask(signature, indices, entry)
            terms.append((mask, rational_from_json(coeff, "coefficient")))
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
