"""Exact rational linear algebra for the representation layer.

Matrices are immutable tuples of row tuples with int or Fraction
entries.  Every generator, structure map and pairing gram is a signed
permutation matrix (one nonzero entry, +1 or -1, per row and column),
which makes the Clifford relations, blade products, vector actions and
pairing checks cost O(d) each; the intertwiner systems they pose are
solved in ``matrixrep.solve_signed_perms``.  Dense matrices remain only
for the rank-one endomorphisms of the fundamental identity
(``fierz.endo_E``); the images of forms are never built densely, and
reports render a signed permutation's rows as strings straight from it
(``SignedPerm.report_rows``).  ``Rational`` and ``_norm`` serve the
matrices here and the checked input paths of forms; a form keeps its
own int numerators over one denominator (``exterior.Form``), so no
coefficient clearing lives in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]
Matrix = tuple[tuple[Rational, ...], ...]
Vector = tuple[Rational, ...]


def _norm(c: Rational) -> Rational:
    """Collapse integral Fractions to int so hot paths stay on int ops.

    The exact ``int`` test comes first: ``Fraction`` derives from the ABC
    ``numbers.Rational``, so every ``isinstance(c, Fraction)`` goes through
    ``ABCMeta.__instancecheck__``.  Bools, floats and strings still take
    the ``isinstance`` branches below.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


def as_matrix(rows) -> Matrix:
    return tuple(tuple(_norm(v) for v in row) for row in rows)


def mat_scale(a: Matrix, c: Rational) -> Matrix:
    return tuple(tuple(_norm(x * c) for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(_norm(sum(x * y for x, y in zip(row, col))) for col in bt) for row in a
    )


# -- signed permutation matrices --------------------------------------------------


@dataclass(frozen=True)
class SignedPerm:
    """Matrix with exactly one nonzero entry (+1/-1) per row and column.

    Row i holds its nonzero at column col[i] with value sign[i].  The
    constructor checks both; products, transposes and negations of signed
    permutations are signed permutations, so they are built by ``_of``,
    which skips the check.
    """

    col: tuple[int, ...]
    sign: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.col)
        if sorted(self.col) != list(range(n)):
            raise ValueError("signed permutation columns must be a permutation")
        if any(s not in (1, -1) for s in self.sign):
            raise ValueError("signed permutation entries must be +1 or -1")

    @classmethod
    def _of(cls, col: tuple[int, ...], sign: tuple[int, ...]) -> "SignedPerm":
        """A signed permutation derived from checked ones, taken without re-checking."""
        out = cls.__new__(cls)
        object.__setattr__(out, "col", col)
        object.__setattr__(out, "sign", sign)
        return out

    @property
    def dim(self) -> int:
        return len(self.col)

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(tuple(range(n)), (1,) * n)

    def report_rows(self) -> list[list[str]]:
        """The dense rows as report strings, "0", "1" and "-1"."""
        n = self.dim
        rows = []
        for c, s in zip(self.col, self.sign):
            row = ["0"] * n
            row[c] = "1" if s == 1 else "-1"
            rows.append(row)
        return rows

    def apply(self, v: Sequence[Rational]) -> Vector:
        """The image of v: entries relabelled by ``col`` and negated where ``sign`` is -1."""
        return tuple(v[c] if s == 1 else -v[c] for s, c in zip(self.sign, self.col))

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """Matrix product self @ other."""
        col = tuple(other.col[c] for c in self.col)
        sign = tuple(s * other.sign[c] for s, c in zip(self.sign, self.col))
        return SignedPerm._of(col, sign)

    def transpose(self) -> "SignedPerm":
        n = self.dim
        col = [0] * n
        sign = [1] * n
        for i in range(n):
            col[self.col[i]] = i
            sign[self.col[i]] = self.sign[i]
        return SignedPerm._of(tuple(col), tuple(sign))

    def neg(self) -> "SignedPerm":
        return SignedPerm._of(self.col, tuple(-s for s in self.sign))

    def times(self, s: int) -> "SignedPerm":
        """The product with the sign s, +1 or -1."""
        return self if s == 1 else self.neg()

    def scalar_value(self) -> int | None:
        """Return c if this equals c*Id with c = +1/-1, else None."""
        if any(c != i for i, c in enumerate(self.col)):
            return None
        s0 = self.sign[0]
        if any(s != s0 for s in self.sign):
            return None
        return s0


# -- congruence reduction of symmetric matrices ------------------------------------


def congruence_diagonal(gram) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Rows E and entries d with E gram E^T = diag(d), by symmetric pivoting.

    A zero pivot k takes t times row and column j, for the first j with
    a[k][j] != 0, which makes it t (2 a[k][j] + t a[j][j]).  t = 1 unless
    that is zero, and then t = -1 gives -4 a[k][j] != 0.  A pivot stays
    zero only when its whole row is zero, so the nonzero entries of d
    count the rank of gram and their signs give its inertia.
    """
    n = len(gram)
    a = [[Fraction(v) for v in row] for row in gram]
    e = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                continue
            t = 1 if 2 * a[k][j] + a[j][j] != 0 else -1
            for c in range(n):
                a[k][c] += t * a[j][c]
            for r in range(n):
                a[r][k] += t * a[r][j]
            for c in range(n):
                e[k][c] += t * e[j][c]
        piv = a[k][k]
        for r in range(k + 1, n):
            if a[r][k]:
                f = a[r][k] / piv
                for c in range(n):
                    a[r][c] -= f * a[k][c]
                for c in range(n):
                    a[c][r] -= f * a[c][k]
                for c in range(n):
                    e[r][c] -= f * e[k][c]
    return e, [a[k][k] for k in range(n)]
