"""Independent reference implementations used to cross-check the library.

Each oracle recomputes a library operation through a structurally
different algorithm: permutation signs by explicit inversion counting
instead of bitmask parity tricks, Clifford products by pushing one
generator at a time through a sorted index list instead of precomputed
mask tables, contracted wedges by their one-pair-at-a-time recursion
instead of subset enumeration, and covariant expansions by ordered index
tuples weighted with 1/k! instead of ascending blade sums.  Agreement is
always exact; no tolerances appear anywhere.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from grafclifford.exterior import Form, Metric, Signature, contracted_wedge
from grafclifford.graf import graf_product
from grafclifford.linalg import as_matrix, mat_vec, nullspace, rational_sqrt
from grafclifford.matrixrep import (
    CASE_ALMOST_COMPLEX,
    CASE_NORMAL,
    MainSubalgebra,
    Rep,
    d_square_target,
)

# -- tuple-based exterior algebra --------------------------------------------------------
#
# Oracle forms are dicts mapping strictly ascending 1-based index tuples
# to coefficients.  () is the scalar blade.


def sort_with_sign(seq):
    """Insertion-sort a tuple of indices, counting swaps.

    Returns (sorted_tuple, sign) with sign = (-1)^swaps, or (None, 0)
    when the sequence repeats an index.
    """
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None, 0
    return tuple(items), sign


def to_tuples(f: Form) -> dict:
    out = {}
    for mask, c in f.mask_items():
        tup = tuple(i + 1 for i in range(f.signature.n) if mask >> i & 1)
        out[tup] = c
    return out


def from_tuples(sig: Signature, terms: dict) -> Form:
    acc = {}
    for tup, c in terms.items():
        mask = 0
        for i in tup:
            mask |= 1 << (i - 1)
        acc[mask] = acc.get(mask, 0) + c
    return Form.from_mask_dict(sig, acc)


def wedge_oracle(f: Form, g: Form) -> Form:
    """Exterior product computed by concatenate-then-sort inversion signs."""
    acc = {}
    for ta, ca in to_tuples(f).items():
        for tb, cb in to_tuples(g).items():
            tup, sign = sort_with_sign(ta + tb)
            if sign == 0:
                continue
            acc[tup] = acc.get(tup, 0) + ca * cb * sign
    return from_tuples(f.signature, acc)


def interior_oracle(i: int, f: Form) -> Form:
    """Contraction with frame vector i via explicit position counting."""
    acc = {}
    for tup, c in to_tuples(f).items():
        if i not in tup:
            continue
        pos = tup.index(i)
        rest = tup[:pos] + tup[pos + 1 :]
        sign = -1 if pos % 2 else 1
        acc[rest] = acc.get(rest, 0) + c * sign
    return from_tuples(f.signature, acc)


def contracted_wedge_oracle(f: Form, g: Form, k: int, metric: Metric) -> Form:
    """Direct recursion: one metric contraction at a time down to a wedge."""
    if k == 0:
        return wedge_oracle(f, g)
    n = f.signature.n
    acc = Form.zero(f.signature)
    for i in range(1, n + 1):
        fi = interior_oracle(i, f)
        if fi.is_zero():
            continue
        for j in range(1, n + 1):
            gij = metric.entry(i, j)
            if not gij:
                continue
            gj = interior_oracle(j, g)
            if gj.is_zero():
                continue
            acc = acc + contracted_wedge_oracle(fi, gj, k - 1, metric).scale(gij)
    return acc


# -- sequential-generator Clifford product ------------------------------------------------


def clifford_blade_product(ta, tb, diag):
    """Multiply ascending blades by pushing each right factor through.

    Walks every generator of `tb` leftwards through a working index
    list, flipping the sign per transposition and contracting equal
    indices against the metric diagonal.
    """
    coeff = Fraction(1)
    out = list(ta)
    for j in tb:
        pos = len(out)
        sign = 1
        while pos > 0 and out[pos - 1] > j:
            pos -= 1
            sign = -sign
        if pos > 0 and out[pos - 1] == j:
            coeff *= sign * diag[j - 1]
            del out[pos - 1]
        else:
            coeff *= sign
            out.insert(pos, j)
    return tuple(out), coeff


def graf_product_oracle(f: Form, g: Form, metric: Metric) -> Form:
    """Bilinear extension of the sequential blade product (diagonal metrics)."""
    diag = metric.diagonal
    if diag is None:
        raise ValueError("the sequential oracle needs a diagonal metric")
    acc = {}
    for ta, ca in to_tuples(f).items():
        for tb, cb in to_tuples(g).items():
            tup, c = clifford_blade_product(ta, tb, diag)
            if c:
                acc[tup] = acc.get(tup, 0) + ca * cb * c
    return from_tuples(f.signature, acc)


def graf_product_reversed_check(f: Form, g: Form, metric: Metric) -> bool:
    """Check the reversed-order expansion against the direct product.

    For homogeneous f (grade m) and g (grade r) with m <= r, the product
    g * f admits an expansion over contractions of (f, g) with a global
    (-1)^(mr) and per-term sign (-1)^(k(m-k+1) + floor(k/2)).
    """
    if not (f.is_homogeneous() and g.is_homogeneous()):
        raise ValueError("reversed-order check requires homogeneous inputs")
    if f.is_zero() or g.is_zero():
        return True
    m = next(iter(f.grades()), 0)
    r = next(iter(g.grades()), 0)
    if m > r:
        raise ValueError(f"reversed-order check requires left grade <= right grade, got {m} > {r}")
    rhs = Form.zero(f.signature)
    for k in range(m + 1):
        sign = -1 if (k * (m - k + 1) + k // 2) & 1 else 1
        rhs = rhs + contracted_wedge(f, g, k, metric).scale(Fraction(sign, math.factorial(k)))
    if (m * r) & 1:
        rhs = -rhs
    return graf_product(g, f, metric) == rhs


@dataclass(frozen=True)
class VolumeForm:
    """Unit-square top form together with its product square (+1 or -1)."""

    form: Form
    vsquare: int

    @classmethod
    def for_metric(cls, metric: Metric) -> "VolumeForm":
        sig = metric.signature
        v = Form.blade(sig, (1 << sig.n) - 1)
        prod = graf_product(v, v, metric)
        sq = prod.scalar_part()
        if prod != Form.scalar(sig, sq) or sq == 0:
            raise ValueError("volume form does not square to a scalar under this metric")
        if sq not in (1, -1):
            # rescale the top blade to unit square when rationally possible
            root = rational_sqrt(abs(sq))
            if root is None:
                raise ValueError("volume square admits no rational normalization")
            v = v.scale(Fraction(1, 1) / root)
            sq = 1 if sq > 0 else -1
        return cls(v, sq)


# -- dense matrix predicates -----------------------------------------------------------------


def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def is_zero_matrix(a) -> bool:
    return all(all(v == 0 for v in row) for row in a)


def solve_twisted_system_dense(d: int, constraints) -> list:
    """Basis of {M : M S = eps T M} for dense S, T, as the nullspace of the stacked system."""
    rows = []
    for S, T, eps in constraints:
        for a in range(d):
            for b in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[a * d + k] += S[k][b]
                    row[k * d + b] -= eps * T[a][k]
                if any(row):
                    rows.append(row)
    vecs = nullspace(rows, d * d)
    return [as_matrix([vec[i * d : (i + 1) * d] for i in range(d)]) for vec in vecs]


def is_identity(a) -> bool:
    return all(a[i][j] == (1 if i == j else 0) for i in range(len(a)) for j in range(len(a)))


# -- ordered-tuple covariant expansion -----------------------------------------------------


def _apply_index_tuple(rep: Rep, vec, tup):
    """Apply the ordered generator word for `tup`, rightmost factor first."""
    out = tuple(vec)
    for i in reversed(tup):
        out = mat_vec(rep.generators[i - 1], out)
    return out


def _pairing_value(pairing, x, y):
    gy = mat_vec(pairing.gram, tuple(y))
    return sum(a * b for a, b in zip(x, gy))


def bilinear_profile(rep: Rep, pairing, alpha, w) -> dict:
    """B(alpha, blade(w)) for every canonical blade mask, from dense blade matrices."""
    out = {}
    for mask in range(1 << rep.signature.n):
        val = _pairing_value(pairing, alpha, mat_vec(rep.blade_matrix(mask), tuple(w)))
        if val:
            out[mask] = val
    return out


def _tuple_component(rep: Rep, pairing, alpha, w, scale, parity_weight: int) -> Form:
    n = rep.signature.n
    diag = rep.metric.diagonal
    acc = {}
    for k in range(n + 1):
        weight = Fraction(1, math.factorial(k))
        for tup in itertools.permutations(range(1, n + 1), k):
            val = _pairing_value(pairing, alpha, _apply_index_tuple(rep, w, tup))
            if not val:
                continue
            sorted_tup, sign = sort_with_sign(tup)
            lower = 1
            for i in tup:
                lower *= diag[i - 1]
            c = scale * weight * val * lower * sign
            if parity_weight == -1 and k % 2 == 1:
                c = -c
            acc[sorted_tup] = acc.get(sorted_tup, 0) + c
    return from_tuples(rep.signature, acc)


def ordered_tuple_covariant(
    rep: Rep, structure: MainSubalgebra, pairing, alpha, beta
) -> tuple[Form, ...]:
    """Covariant components summed over ordered index tuples with 1/k!.

    Mirrors the library's ascending-blade construction for the normal
    and almost-complex cases; the two must agree because every index set
    has exactly k! orderings.
    """
    pref = Fraction(rep.abs.k_const, 1 << rep.signature.n)
    if structure.case == CASE_NORMAL:
        return (_tuple_component(rep, pairing, alpha, beta, pref, pairing.tau),)
    if structure.case == CASE_ALMOST_COMPLEX:
        dsign = d_square_target(rep.signature)
        dbeta = mat_vec(structure.D, tuple(beta))
        return (
            _tuple_component(rep, pairing, alpha, beta, pref, -1),
            _tuple_component(rep, pairing, alpha, dbeta, pref * dsign, 1),
        )
    raise ValueError("tuple expansion oracle covers the normal and almost-complex cases")


# -- seeded random inputs ------------------------------------------------------------------


# Denominators of rational test coefficients (1/2, -5/6, 7/32, ...): mixed,
# so a form's common denominator is an lcm above most single ones.
RATIONAL_DENOMINATORS = (1, 2, 3, 6, 7, 32)


def _rand_coeff(rng: random.Random, box: int, rational: bool):
    if not rational:
        return rng.randint(-box, box)
    return Fraction(rng.randint(-2 * box, 2 * box), rng.choice(RATIONAL_DENOMINATORS))


def rand_form(
    rng: random.Random, sig: Signature, terms: int = 5, box: int = 4, rational: bool = False
) -> Form:
    """Random form; `rational` draws mixed-denominator Fraction coefficients."""
    size = 1 << sig.n
    chosen = rng.sample(range(size), min(terms, size))
    return Form.from_mask_dict(sig, {m: _rand_coeff(rng, box, rational) for m in chosen})


def rand_homogeneous(
    rng: random.Random, sig: Signature, k: int, terms: int = 3, box: int = 3, rational: bool = False
) -> Form:
    masks = [m for m in range(1 << sig.n) if m.bit_count() == k]
    chosen = rng.sample(masks, min(terms, len(masks)))
    return Form.from_mask_dict(sig, {m: _rand_coeff(rng, box, rational) for m in chosen})


def rand_vector(rng: random.Random, dim: int, box: int = 5) -> tuple:
    return tuple(rng.randint(-box, box) for _ in range(dim))
