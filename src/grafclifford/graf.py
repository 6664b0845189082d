"""Clifford product on exterior forms, its grade slices, and the volume operators.

The product expands a graded left factor against the right factor
through metric-contracted wedges:

    product(f, g) = sum_k (1/k!) (-1)^(k(m-k) + floor(k/2)) cw_k(f, g)

for a grade-m left component, extended bilinearly.  On covectors this
reproduces the Clifford relation e^i * e^j + e^j * e^i = 2 g^ij.  For g
homogeneous of grade l the k-th term lies in grade m + l - 2k alone, so
distinct k never share a grade and each contracted wedge is one grade
slice of the product:

    cw_k(f_m, g_l) = k! (-1)^(k(m-k) + floor(k/2)) <f_m * g_l>_(m+l-2k).

``contracted_wedge`` and ``wedge`` (k = 0) are computed so, and the
product is the only code that pairs blades: ``interior`` and the
covector wedge of the general path each remove or add one index.

For diagonal metrics the k-sum collapses per blade pair: only the term
contracting the full shared index set survives.  Under an orthonormal
metric (a diagonal of +1 and -1 entries) every blade-pair factor comes
from one table, the metric's kernel (``_kernel_for``): e_a e_b =
row_a[b] e_(a^b), where row_a[b] is the parity sign of sorting the
concatenation a b times the diagonal entries g^yy of the shared indices
y in a & b.  A row is built by doubling: both signs are multiplicative
over the bits of the right blade, so adding index y copies the first
2^y entries or their negatives, one list operation per bit.  The
kernel's volume column nu[m] = row_m[full] comes from the same doubling
without the rows.

Any metric that is not orthonormal multiplies one left generator at a
time (``_product_general``).  A covector acts as e_i h = e_i ^ h + c_i h,
with e_i ^ h inserting i by ``interior_sign`` (no kernel is read) and
c_i = sum_j g^ij i_j built from ``interior``; for i the lowest index of
a and r = a - {i}, e_a = e_i e_r - c_i e_r, so e_a h = e_i (e_r h) -
(c_i e_r) h, over the products e_s h of smaller blades, each formed
once.

A form holds int numerators over one denominator (``Form.numerators``),
and covariants carry k_const / 2^n there, so every kernel below runs on
the numerators alone: f * g has the numerators of the blade-pair sums
over the product of the two denominators, and ``Form._adopt`` reduces
that pair once.  No coefficient is divided or normalized on the way, and
the values the product hands out are the exact rationals of term-by-term
Fraction arithmetic.

A square f * f (the same Form object passed twice, as the master
identities do) that fills at least half of the masks M_G of its grade
set G, with at most 256 of them, reads its blade pairs from the
kernel's pair table for G (``_product_terms_square``): each unordered
pair once, with both ordered products of the pair added as exact
integers, read from the rows when the table is built.  The numerators
are padded with zeros onto M_G, and every output coefficient is a sum
over the table's pairs, formed by C-level gathers, products and a
running sum.  The (9,0) pinor squares, on G = {0, 1, 4} (136 masks,
4,996 nonzero pairs), take the table; any other square is formed as
f * g.  Kernel output is adopted by ``Form`` without re-validation: its
masks are XORs of in-range masks and its zero numerators are dropped.

A product of two dense forms (each on at least 3/4 of the 2^n blades,
n >= ``_PACKED_MIN_N``) runs packed (``_product_terms_packed``).  The
right factor's integer numerators go into two Python ints, one for the
positive and one for the negative parts: blade b owns bits b*W .. (b+1)*W - 1 of each, so a
field is never negative and never borrows.  Every field of the
accumulators below sums at most terms(f) products of absolute values,
so W is the bit length of max|f| max|g| terms(f), plus one bit, rounded
up to whole bytes.  The left blades are visited in Gray-code order, so
each step is one generator e_y acting on the left of the packed factor:
the fields with e_y e_b = -e_(b^y) are swapped between the two ints,
then the fields are block-swapped by bit y, with shifts and the
kernel's packed masks, the masks of each generator's action packed into
one int per field width (``_DiagKernel.packed_masks``).  After k steps
the ints hold e_yk ... e_y1 g = s e_a g, with the chain sign s read from
the generators' rows, so c_a s times them is added into a positive and
a negative accumulator; the fields are read out once at the end.  This
is the blade product itself, one generator at a time, on 2^n steps of a
few big-int operations instead of terms(f) terms(g) Python-level pairs.
Sparser forms and smaller n keep the loop.

Under an orthonormal metric the volume product is a signed relabelling,
e_m vol = nu[m] e_(m ^ full), read from the volume column; so ``hodge``
builds no product, and the truncated product folds each term of f * g
above floor(n/2) onto its lower-grade image (``_DiagKernel.folded``)
instead of forming f * g + s (f * g) vol and projecting.  A truncated
square whose grade set has a pair table reads a copy of that table with
the fold applied to each pair (``fold`` = s), so the master identities'
squares are one pass of gathers with no product and no fold loop.

Every memo has one of two stdlib forms.  A table shared across objects
is a ``functools.lru_cache`` with a named bound: the kernels by metric
(``_KERNEL_CAP``), the pair tables by kernel, grade set and fold
(``_SQUARE_TABLE_CAP``) and the packed masks by kernel and width
(``_PACKED_MASK_CAP``); their ``cache_info()`` gives size, hits and
misses.  The volume column is a ``functools.cached_property``, and the
rows live in a per-kernel dict keyed by mask, so at most 2^n of them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate, compress
from math import comb, factorial
from operator import itemgetter, mul, sub

from .errors import DimensionMismatch, UnsupportedSignature
from .exterior import Form, Metric, Signature, grade_project, interior, interior_sign

# A pair table over M_G holds up to |M_G|(|M_G| + 1)/2 pairs (8.4 million
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

    def folded(self, m: int, c, sign: int):
        """Term c e_m of f * g as a term of the truncated product under ``sign``.

        Above floor(n/2) it moves to m ^ full with factor sign nu[m]; at or
        below it, its volume image lies above and it keeps its place.
        """
        if m.bit_count() > self.n // 2:
            return m ^ ((1 << self.n) - 1), c * sign * self.volume_column[m]
        return m, c

    def square_table(self, grades: frozenset[int], terms: int, fold: int):
        """The pair-table sum of a square with ``terms`` terms on ``grades``, or None.

        A table pays when M_G is small (2 to ``_SQUARE_TABLE_MASKS``
        masks; two keep the gathers tuple-valued) and the square fills at
        least half of it; otherwise the square is formed as any other
        product.  A grade set whose pairs carry so many distinct weights
        that the weighted copies would outnumber the pairs also gets
        None, remembered like a table.  ``fold`` is 0 for the square
        itself and the projector sign +-1 for its truncation.
        """
        size = sum(comb(self.n, k) for k in grades)
        if not 2 <= size <= _SQUARE_TABLE_MASKS or 2 * terms < size:
            return None
        return self._build_square_table(grades, fold)

    @lru_cache(maxsize=_SQUARE_TABLE_CAP)
    def _build_square_table(self, grades: frozenset[int], fold: int):
        # e_a e_b + e_b e_a = (row_a[b] + row_b[a]) e_(a^b), and e_a e_a =
        # row_a[a]; pairs whose weight is 0 (anticommuting ones) are dropped,
        # and with fold = +-1 each pair is folded as the truncated product is.
        masks = [m for m in range(1 << self.n) if m.bit_count() in grades]
        size = len(masks)
        rows = [self.row(m) for m in masks]
        by_key: dict[int, tuple[list, list, list]] = {}
        for i, (a, row_a) in enumerate(zip(masks, rows)):
            col_a = [row[a] for row in rows]
            for j in range(i, size):
                b = masks[j]
                w = row_a[a] if i == j else row_a[b] + col_a[j]
                if w:
                    key = a ^ b
                    if fold:
                        key, w = self.folded(key, w, fold)
                    pairs = by_key.get(key)
                    if pairs is None:
                        pairs = by_key[key] = ([], [], [])
                    pairs[0].append(i)
                    pairs[1].append(j)
                    pairs[2].append(w)
        weights = sorted({w for _, _, ws in by_key.values() for w in ws})
        if len(weights) * size > sum(len(ws) for _, _, ws in by_key.values()):
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
        index = {m: i for i, m in enumerate(masks)}
        gather_left, gather_right = itemgetter(*left), itemgetter(*right)
        keys = tuple(by_key)

        def square(ta) -> dict[int, int]:
            """Nonzero integer numerators of the square of integer terms ta, by output key.

            Pair p multiplies entry left[p] of the weighted copies of the
            padded numerators (copy k is weights[k] times them) by entry
            right[p]; the pairs run grouped by key, and ``marks`` flags the
            running sum before the first pair and after each group.
            """
            x = [0] * size
            for ma, ca in ta:
                x[index[ma]] = ca
            weighted: list = []
            for w in weights:
                weighted += x if w == 1 else [w * c for c in x]
            run = accumulate(map(mul, gather_left(weighted), gather_right(x)), initial=0)
            ends = list(compress(run, marks))
            sums = list(map(sub, ends[1:], ends))
            return dict(compress(zip(keys, sums), sums))

        return square

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


_kernel = lru_cache(maxsize=_KERNEL_CAP)(_DiagKernel)


def _kernel_for(metric: Metric) -> _DiagKernel:
    """The kernel of an orthonormal metric."""
    return _kernel(metric.signature.n, metric.diagonal)


def _resolve_metric(f: Form, metric: Metric | None) -> Metric:
    """The given metric, or by default the standard frame of the form's signature."""
    if metric is None:
        return Metric.standard(f.signature)
    if metric.signature != f.signature:
        raise DimensionMismatch("metric signature does not match the forms")
    return metric


# -- orthonormal product ----------------------------------------------------------

# Products of two forms that each fill at least 3/4 of the 2^n blades, at
# and above this n, run packed (``_product_terms_packed``).  Measured on one
# core: at n = 6 and 3/4 fill the packed kernel is 1-2x faster than the
# pair loop, at n = 9 and full fill 8-10x; at half fill the loop does a
# quarter of the pair work and wins at n = 6-7 on 100-bit coefficients.
_PACKED_MIN_N = 6


def _product_terms_diag(ta, tb, kern: _DiagKernel) -> dict[int, int]:
    """Nonzero integer numerators of f * g from the (mask, numerator) pairs of f and g."""
    n = kern.n
    if n >= _PACKED_MIN_N and 4 * min(len(ta), len(tb)) >= 3 << n:
        return _product_terms_packed(ta, tb, kern)
    acc: dict[int, int] = {}
    row_of = kern.row
    for ma, ca in ta:
        row = row_of(ma)
        for mb, cb in tb:
            key = ma ^ mb
            acc[key] = acc.get(key, 0) + ca * cb * row[mb]
    return {m: c for m, c in acc.items() if c}


def _product_terms_packed(ta, tb, kern: _DiagKernel) -> dict[int, int]:
    """Nonzero integer numerators of f * g, one generator at a time on packed ints.

    For integer (key, coefficient) pairs.  The right factor is held as
    two ints, its positive and its negative parts, blade b in field b of
    ``width`` bits; the left blades are visited in Gray-code order, each
    step one left generator on those ints.
    """
    n = kern.n
    bound = max(abs(c) for _, c in ta) * max(abs(c) for _, c in tb) * len(ta)
    nbytes = (bound.bit_length() + 8) // 8
    width = nbytes * 8
    size = nbytes << n
    pos, neg = bytearray(size), bytearray(size)
    for mb, cb in tb:
        part = pos if cb > 0 else neg
        part[mb * nbytes : (mb + 1) * nbytes] = abs(cb).to_bytes(nbytes, "little")
    vp, vn = int.from_bytes(pos, "little"), int.from_bytes(neg, "little")
    coeff = dict(ta)
    c = coeff.get(0, 0)
    acc_p, acc_n = (c * vp, c * vn) if c > 0 else (-c * vn, -c * vp)
    masks = kern.packed_masks(width)
    generators = [kern.row(1 << y) for y in range(n)]
    a = 0
    chain = 1
    for t in range(1, 1 << n):
        y = (t & -t).bit_length() - 1
        chain *= generators[y][a]  # e_y e_a = row_(2^y)[a] e_(a ^ 2^y)
        a ^= 1 << y
        flip, low = masks[y]
        swap = (vp ^ vn) & flip
        vp ^= swap
        vn ^= swap
        shift = width << y
        vp = (vp & low) << shift | (vp >> shift) & low
        vn = (vn & low) << shift | (vn >> shift) & low
        c = coeff.get(a)
        if c:
            c *= chain
            if c > 0:
                acc_p += c * vp
                acc_n += c * vn
            else:
                acc_p -= c * vn
                acc_n -= c * vp
    bp, bn = acc_p.to_bytes(size, "little"), acc_n.to_bytes(size, "little")
    acc = {}
    for key, lo in enumerate(range(0, size, nbytes)):
        v = int.from_bytes(bp[lo : lo + nbytes], "little") - int.from_bytes(
            bn[lo : lo + nbytes], "little"
        )
        if v:
            acc[key] = v
    return acc


def _product_terms_square(ta, kern: _DiagKernel, fold: int) -> dict[int, int] | None:
    """Numerators of f * f from the pair table for the grade set of ta, or None without one.

    e_a e_b + e_b e_a = (row_a[b] + row_b[a]) e_(a^b).  Under an
    orthonormal metric e_a e_b = (-1)^(|a||b| - |a & b|) e_b e_a, so the
    bracket is 0 for an anticommuting pair and 2 row_a[b] for a commuting
    one.  The pairs are read from the table over the zero-padded
    numerators, as gathers, products and a running sum in C.  With
    fold = +-1 the table folds the upper grades as ``truncated_product``
    does, and the result is the truncated square under that sign.
    """
    square = kern.square_table(frozenset(ma.bit_count() for ma, _ in ta), len(ta), fold)
    if square is None:
        return None
    return square(ta)


# -- general product ---------------------------------------------------------------


def _contraction(i: int, h: Form, metric: Metric) -> Form:
    """c_i h = sum_j g^ij i_j h, the contraction with the i-th frame covector."""
    out = Form.zero(h.signature)
    for j, gij in enumerate(metric.gram[i - 1], 1):
        if gij:
            out = out + interior(j, h).scale(gij)
    return out


def _product_general(f: Form, g: Form, metric: Metric) -> Form:
    """f * g under any metric, one left generator at a time.

    e_a g = e_i (e_r g) - (c_i e_r) g for i the lowest index of a and
    r = a - {i}, with e_i h = e_i ^ h + c_i h; each e_a g is formed once.
    The wedge inserts i: e_i ^ e_m = (-1)^(indices of m below i) e_(m+i).
    """
    sig = f.signature
    done = {0: g}

    def left(a: int) -> Form:
        h = done.get(a)
        if h is None:
            low = a & -a
            i, rest = low.bit_length(), a ^ low
            h = left(rest)
            num, den = h.numerators()
            wedged = {m | low: c * interior_sign(m, i) for m, c in num.items() if not m & low}
            h = Form._adopt(sig, wedged, den) + _contraction(i, h, metric)
            for s, c in _contraction(i, Form.blade(sig, rest), metric).mask_items():
                h = h - left(s).scale(c)
            done[a] = h
        return h

    out = Form.zero(sig)
    for a, c in f.mask_items():
        out = out + left(a).scale(c)
    return out


def graf_product(f: Form, g: Form, metric: Metric | None = None) -> Form:
    """Associative Clifford product of two forms, under the standard frame by default.

    On covectors: graf_product(e^i, e^j) = e^i ^ e^j + g^ij.  Only an
    orthonormal metric reads the kernel; any other takes the general path.
    """
    f._check_same(g)
    metric = _resolve_metric(f, metric)
    if not metric.is_orthonormal:
        return _product_general(f, g, metric)
    kern = _kernel_for(metric)
    na, da = f.numerators()
    nb, db = g.numerators()
    ta = list(na.items())
    terms = _product_terms_square(ta, kern, 0) if f is g else None
    if terms is None:
        terms = _product_terms_diag(ta, list(nb.items()), kern)
    return Form._adopt(f.signature, terms, da * db)


# -- wedge and contracted wedge: grade slices of the product --------------------------


def _graf_sign(k: int, m: int) -> int:
    """(-1)^(k(m-k) + floor(k/2)), the sign of cw_k on a grade-m left factor."""
    return -1 if (k * (m - k) + k // 2) & 1 else 1


def _grade_parts(f: Form) -> list[tuple[int, Form]]:
    """(m, f_m) for each grade m of f; a homogeneous f is its own one part."""
    grades = sorted(f.grades())
    if len(grades) == 1:
        return [(grades[0], f)]
    return [(m, grade_project(f, m)) for m in grades]


def contracted_wedge(f: Form, g: Form, k: int, metric: Metric | None = None) -> Form:
    """k-fold metric contraction of f against g followed by a wedge.

    Grade (m, l) inputs contribute cw_k(f_m, g_l) = k! (-1)^(k(m-k) +
    floor(k/2)) <f_m * g_l>_(m+l-2k), a grade slice of their product;
    k = 0 is the plain wedge.  The k! multiplicity is the one the product
    divides back out.  A homogeneous factor is multiplied as it is, so
    cw_k(f, f) takes the square path.
    """
    f._check_same(g)
    if k < 0:
        raise ValueError("contraction order must be nonnegative")
    metric = _resolve_metric(f, metric)
    left = _grade_parts(f)
    right = left if g is f else _grade_parts(g)
    out = Form.zero(f.signature)
    for m, fm in left:
        if m < k:
            continue
        scale = factorial(k) * _graf_sign(k, m)
        for l, gl in right:
            if l >= k:
                part = grade_project(graf_product(fm, gl, metric), m + l - 2 * k)
                out = out + part.scale(scale)
    return out


def wedge(f: Form, g: Form) -> Form:
    """Exterior product, cw_0; blades sharing an index annihilate."""
    return contracted_wedge(f, g, 0)


# -- volume form and Hodge-type operators ----------------------------------------


def volume_square_sign(p: int, q: int) -> int:
    """Square of the volume form under the product: +1 iff p-q = 0,1,4,5 mod 8."""
    return 1 if (p - q) % 8 in (0, 1, 4, 5) else -1


def volume_form(signature: Signature) -> Form:
    return Form.blade(signature, (1 << signature.n) - 1)


def hodge(f: Form, metric: Metric | None = None) -> Form:
    """Right product with the volume form.

    Under an orthonormal metric e_m vol = nu[m] e_(m ^ full), with nu
    the kernel's volume column, so the product is a signed relabelling.
    """
    metric = _resolve_metric(f, metric)
    if metric.is_orthonormal:
        nu = _kernel_for(metric).volume_column
        full = (1 << f.signature.n) - 1
        num, den = f.numerators()
        return Form._adopt(f.signature, {m ^ full: c * nu[m] for m, c in num.items()}, den)
    return graf_product(f, volume_form(f.signature), metric)


def projector_pm(f: Form, sign: int, metric: Metric | None = None) -> Form:
    """Half of (identity plus-or-minus the volume product): the sum over twice its denominator."""
    if sign not in (1, -1):
        raise ValueError("projector sign must be +1 or -1")
    whole = f + hodge(f, metric) if sign == 1 else f - hodge(f, metric)
    num, den = whole.numerators()
    return Form._adopt(f.signature, num, 2 * den)


# -- truncation --------------------------------------------------------------------


def lower_projection(f: Form) -> Form:
    """The part of f in grades at most floor(n/2)."""
    half = f.signature.n // 2
    num, den = f.numerators()
    return Form._adopt(f.signature, {m: c for m, c in num.items() if m.bit_count() <= half}, den)


def in_truncation_regime(signature: Signature) -> bool:
    """Whether the lower-grade model is a faithful product isomorphism."""
    return signature.n % 2 == 1 and volume_square_sign(signature.p, signature.q) == 1


def truncated_product(f: Form, g: Form, sign: int = 1, metric: Metric | None = None) -> Form:
    """Product induced on lower-grade truncations: 2 P_L(P_s(f) * P_s(g)).

    Defined only in the truncation regime (odd n with volume square +1)
    under an orthonormal metric; anything else is refused with
    UnsupportedSignature, since the truncation is then no isomorphism
    onto an ideal.  There the volume element v is central with unit
    square, so P_s commutes with the product and one product call
    suffices: 2 P_L(P_s(f*g)) = P_L(fg + sign fg v), each term of fg
    folded by ``_DiagKernel.folded``.  A square (g is f) that the
    kernel's pair table admits reads the table folded under ``sign``,
    with no product formed first.
    """
    f._check_same(g)
    if sign not in (1, -1):
        raise ValueError("projector sign must be +1 or -1")
    metric = _resolve_metric(f, metric)
    sig = f.signature
    if not (in_truncation_regime(sig) and metric.is_orthonormal):
        frame = "an orthonormal" if metric.is_orthonormal else "a non-orthonormal"
        raise UnsupportedSignature(
            "the truncated product needs odd n with volume square +1 and an orthonormal "
            f"metric, not ({sig.p},{sig.q}) under {frame} metric"
        )
    kern = _kernel_for(metric)
    if f is g:
        num, den = f.numerators()
        terms = _product_terms_square(list(num.items()), kern, sign)
        if terms is not None:
            return Form._adopt(sig, terms, den * den)
    num, den = graf_product(f, g, metric).numerators()
    acc: dict[int, int] = {}
    for m, c in num.items():
        m, c = kern.folded(m, c, sign)
        acc[m] = acc.get(m, 0) + c
    return Form._adopt(sig, {m: c for m, c in acc.items() if c}, den)
