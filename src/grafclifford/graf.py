"""Clifford product on exterior forms and the induced volume operators.

The product expands a graded left factor against the right factor
through metric-contracted wedges:

    product(f, g) = sum_k (1/k!) (-1)^(k(m-k) + floor(k/2)) cw_k(f, g)

for a grade-m left component, extended bilinearly.  On covectors this
reproduces the Clifford relation e^i * e^j + e^j * e^i = 2 g^ij.

For diagonal metrics the k-sum collapses per blade pair: only the term
contracting the full shared index set survives (every smaller
contraction leaves a repeated index in the wedge).  The diagonal kernel
used here evaluates that single term from permutation parity and the
shared metric factors; the generic graded expansion above is kept for
non-diagonal metrics and mirrored by an independent recursion in the
test suite.  A kernel row (the factors of one left blade against every
right blade) is built by doubling: the reorder sign and the metric
factor are multiplicative over the bits of the right blade, so adding
index y copies the first 2^y entries times that bit's factor, as one
list operation per bit.

Rational inputs (covariants carry k_const / 2^n) are cleared to integer
numerators over one common denominator per factor before the blade-pair
loop, which then runs on ints; each output coefficient is divided once
at the end and normalized, so an integral one is still an int, under a
rational metric diagonal too (its rows hold Fractions).  The
result is the same exact rational as term-by-term Fraction arithmetic,
so every rendered report is unchanged.  The kernel table keeps the
most recently used metrics only (``_KERNEL_CAP``).

A square f * f (the same Form object passed twice, as the master
identities do) visits each unordered blade pair once
(``_product_terms_square``): both ordered products of the pair are read
from the same kernel rows and added as exact integers, so the result is
the ordered double loop's.  Kernel output is adopted by ``Form`` without
re-validation: its masks are XORs of in-range masks and
``divide_numerators`` has already normalized its coefficients.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .exterior import (
    Form,
    Metric,
    Signature,
    _factorial,
    contracted_wedge,
    grade_project,
)
from .linalg import Rational, _norm, common_denominator, divide_numerators


class TruncationRegimeWarning(UserWarning):
    """Truncated products are only an isomorphic model in certain signatures."""


def _resolve_metric(f: Form, metric: Metric | None) -> Metric:
    m = metric if metric is not None else Metric.standard(f.signature)
    if m.signature != f.signature:
        raise DimensionMismatch("metric signature does not match the forms")
    return m


# -- diagonal fast kernel --------------------------------------------------------


class _DiagKernel:
    """Per-metric table of blade-pair product factors, built lazily by row.

    ``integral`` says whether every diagonal entry is an int; otherwise
    the rows hold Fractions and ``finish`` normalizes what they produce.
    """

    __slots__ = ("n", "diag", "integral", "_rows")

    def __init__(self, n: int, diag: tuple[Rational, ...]):
        self.n = n
        self.diag = diag
        self.integral = all(type(g) is int for g in diag)
        self._rows: dict[int, list] = {}

    def row(self, ma: int):
        cached = self._rows.get(ma)
        if cached is not None:
            return cached
        # Doubling over the bits of mb: adding index y to mb multiplies by
        # the parity of a-indices above y, and by g^yy when y is shared, so
        # entries 2^y .. 2^(y+1)-1 are the first 2^y times that factor.
        row = [1]
        for y in range(self.n):
            s = -1 if (ma >> (y + 1)).bit_count() & 1 else 1
            if ma >> y & 1:
                s = s * self.diag[y]
            if s == 1:
                row += row
            elif s == -1:
                row += [-x for x in row]
            else:
                row += [x * s for x in row]
        self._rows[ma] = row
        return row

    def finish(self, acc: dict, den: int) -> dict[int, Rational]:
        """The nonzero accumulated entries over den, normalized.

        Integer rows leave integer numerators, which ``divide_numerators``
        normalizes; rows of a rational metric can leave an integral
        Fraction even when den is 1, so those entries are normalized here.
        """
        acc = {m: c for m, c in acc.items() if c}
        if den == 1 and not self.integral:
            return {m: _norm(c) for m, c in acc.items()}
        return divide_numerators(acc, den)


# Least-recently-used kernels past this many metrics are dropped; a row
# holds 2^n factors, so an unbounded table grows with every metric seen.
_KERNEL_CAP = 8
_KERNELS: OrderedDict[tuple[int, tuple], _DiagKernel] = OrderedDict()


def _kernel_for(metric: Metric) -> _DiagKernel:
    key = (metric.signature.n, metric.diagonal)
    kern = _KERNELS.get(key)
    if kern is None:
        kern = _KERNELS[key] = _DiagKernel(metric.signature.n, metric.diagonal)
        if len(_KERNELS) > _KERNEL_CAP:
            _KERNELS.popitem(last=False)
    else:
        _KERNELS.move_to_end(key)
    return kern


def _product_terms_diag(ta, tb, kern: _DiagKernel) -> dict[int, Rational]:
    ta, da = common_denominator(ta)
    tb, db = common_denominator(tb)
    acc: dict[int, Rational] = {}
    row_of = kern.row
    for ma, ca in ta:
        row = row_of(ma)
        for mb, cb in tb:
            key = ma ^ mb
            acc[key] = acc.get(key, 0) + ca * cb * row[mb]
    return kern.finish(acc, da * db)


def _product_terms_square(ta, kern: _DiagKernel) -> dict[int, Rational]:
    """f * f from each unordered blade pair once.

    e_a e_b + e_b e_a = (row_a[b] + row_b[a]) e_(a^b).  Under a diagonal
    metric e_a e_b = (-1)^(|a||b| - |a & b|) e_b e_a, so the bracket is 0
    for an anticommuting pair and 2 row_a[b] for a commuting one.
    """
    ta, den = common_denominator(ta)
    row_of = kern.row
    terms = [(ma, ca, row_of(ma)) for ma, ca in ta]
    acc: dict[int, Rational] = {}
    for i, (ma, ca, row) in enumerate(terms):
        acc[0] = acc.get(0, 0) + ca * ca * row[ma]
        for mb, cb, row_b in terms[i + 1 :]:
            s = row[mb] + row_b[ma]
            if s:
                key = ma ^ mb
                acc[key] = acc.get(key, 0) + ca * cb * s
    return kern.finish(acc, den * den)


def _graf_sign(k: int, m: int) -> int:
    return -1 if (k * (m - k) + k // 2) & 1 else 1


def _product_general(f: Form, g: Form, metric: Metric) -> Form:
    """Graded expansion used for non-diagonal metrics."""
    out = Form.zero(f.signature)
    for m in sorted(f.grades()):
        fm = grade_project(f, m)
        for k in range(m + 1):
            term = contracted_wedge(fm, g, k, metric)
            if term.is_zero():
                continue
            out = out + term.scale(_frac(_graf_sign(k, m), _factorial(k)))
    return out


def _frac(num: int, den: int):

    if den == 1:
        return num
    return Fraction(num, den)


def graf_product(f: Form, g: Form, metric: Metric | None = None) -> Form:
    """Associative Clifford product of two forms.

    On covectors: graf_product(e^i, e^j) = e^i ^ e^j + g^ij.
    """
    f._check_same(g)
    metric = _resolve_metric(f, metric)
    if metric.is_diagonal:
        kern = _kernel_for(metric)
        if f is g:
            terms = _product_terms_square(list(f.mask_items()), kern)
        else:
            terms = _product_terms_diag(list(f.mask_items()), list(g.mask_items()), kern)
        return Form._adopt(f.signature, terms)
    return _product_general(f, g, metric)


# -- volume form and Hodge-type operators ----------------------------------------


def volume_square_sign(p: int, q: int) -> int:
    """Square of the volume form under the product: +1 iff p-q = 0,1,4,5 mod 8."""
    return 1 if (p - q) % 8 in (0, 1, 4, 5) else -1


def volume_form(signature: Signature) -> Form:
    return Form.blade(signature, (1 << signature.n) - 1)


def hodge(f: Form, metric: Metric | None = None) -> Form:
    """Right product with the volume form."""
    metric = _resolve_metric(f, metric)
    return graf_product(f, volume_form(f.signature), metric)


def projector_pm(f: Form, sign: int, metric: Metric | None = None) -> Form:
    """Half of (identity plus-or-minus the volume product)."""
    if sign not in (1, -1):
        raise ValueError("projector sign must be +1 or -1")
    metric = _resolve_metric(f, metric)

    half = Fraction(1, 2)
    if sign == 1:
        return (f + hodge(f, metric)).scale(half)
    return (f - hodge(f, metric)).scale(half)


# -- truncation --------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationSplit:
    """Split of a form into grades <= floor(n/2) and the rest."""

    lower: Form
    upper: Form


def truncate(f: Form) -> TruncationSplit:
    half = f.signature.n // 2
    lower = {m: c for m, c in f.mask_items() if m.bit_count() <= half}
    upper = {m: c for m, c in f.mask_items() if m.bit_count() > half}
    return TruncationSplit(Form._adopt(f.signature, lower), Form._adopt(f.signature, upper))


def lower_projection(f: Form) -> Form:
    return truncate(f).lower


def in_truncation_regime(signature: Signature) -> bool:
    """Whether the lower-grade model is a faithful product isomorphism."""
    return signature.n % 2 == 1 and volume_square_sign(signature.p, signature.q) == 1


def truncated_product(f: Form, g: Form, sign: int = 1, metric: Metric | None = None) -> Form:
    """Product induced on lower-grade truncations: 2 P_L(P_s(f) * P_s(g)).

    Outside odd dimensions with volume square +1 this is still computed
    literally, but a TruncationRegimeWarning is attached because the
    truncation is no longer an isomorphism onto an ideal.
    """
    f._check_same(g)
    metric = _resolve_metric(f, metric)
    if in_truncation_regime(f.signature) and metric.is_orthonormal:
        # v is central with unit square here, so P_s commutes with the
        # product and one product call suffices: 2 P_L(P_s(f*g)).
        fg = graf_product(f, g, metric)
        return lower_projection(fg + hodge(fg, metric).scale(sign))
    if not in_truncation_regime(f.signature):
        warnings.warn(
            f"signature ({f.signature.p},{f.signature.q}) is outside the truncation "
            "isomorphism regime (odd n with volume square +1)",
            TruncationRegimeWarning,
            stacklevel=2,
        )
    pf = projector_pm(f, sign, metric)
    pg = projector_pm(g, sign, metric)
    return lower_projection(graf_product(pf, pg, metric)).scale(2)
