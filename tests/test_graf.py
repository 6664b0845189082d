"""Clifford product on forms: relations, volume, Hodge, truncation."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from grafclifford import exterior, graf
from grafclifford.errors import UnsupportedSignature
from grafclifford.exterior import (
    Form,
    Metric,
    Signature,
    grade_involution,
    grade_project,
    reversal,
)
from grafclifford.graf import (
    contracted_wedge,
    graf_product,
    hodge,
    in_truncation_regime,
    lower_projection,
    projector_pm,
    truncated_product,
    volume_form,
    volume_square_sign,
)
from grafclifford.linalg import common_denominator

SIG12 = Signature(1, 2)
SIG90 = Signature(9, 0)

ALL_SIGNATURES = [Signature(p, n - p) for n in range(10) for p in range(n + 1)]


def forms(sig, box=3, max_terms=4):
    size = 1 << sig.n
    return st.dictionaries(
        st.integers(0, size - 1), st.integers(-box, box), max_size=max_terms
    ).map(lambda d: Form.from_mask_dict(sig, d))


# -- product basics --------------------------------------------------------------------------


def test_clifford_relation_on_frame_covectors():
    for sig in (Signature(3, 1), SIG12, Signature(0, 4)):
        met = Metric.standard(sig)
        for i in range(1, sig.n + 1):
            for j in range(1, sig.n + 1):
                ei, ej = Form.blade(sig, (i,)), Form.blade(sig, (j,))
                anti = graf_product(ei, ej, met) + graf_product(ej, ei, met)
                assert anti == Form.unit(sig).scale(2 * met.entry(i, j))


def test_unit_is_identity_and_scalars_are_central():
    rng = random.Random(10)
    for _ in range(20):
        f = oracles.rand_form(rng, SIG12)
        assert graf_product(Form.unit(SIG12), f) == f
        assert graf_product(f, Form.unit(SIG12)) == f
        c = Form.scalar(SIG12, Fraction(3, 2))
        assert graf_product(c, f) == graf_product(f, c) == f.scale(Fraction(3, 2))


@given(forms(SIG12), forms(SIG12), forms(SIG12))
@settings(max_examples=60, deadline=None)
def test_product_associative_and_distributive(f, g, h):
    assert graf_product(graf_product(f, g), h) == graf_product(f, graf_product(g, h))
    assert graf_product(f + g, h) == graf_product(f, h) + graf_product(g, h)


def _all_int(f: Form) -> bool:
    return all(type(c) is int for _, c in f.mask_items())


def test_product_matches_sequential_generator_oracle():
    rng = random.Random(11)
    for sig in (SIG12, Signature(2, 2), Signature(4, 1), SIG90):
        met = Metric.standard(sig)
        for _ in range(12):
            f = oracles.rand_form(rng, sig)
            g = oracles.rand_form(rng, sig)
            prod = graf_product(f, g, met)
            assert prod == oracles.graf_product_oracle(f, g, met)
            assert _all_int(prod)
        for _ in range(12):
            f = oracles.rand_form(rng, sig, rational=True)
            g = oracles.rand_form(rng, sig, rational=True)
            assert graf_product(f, g, met) == oracles.graf_product_oracle(f, g, met)


def _grade_set_form(rng, sig, grades, keep=1.0, rational=False):
    """A form on every mask of the given grades, each kept with probability ``keep``."""
    masks = [m for m in range(1 << sig.n) if m.bit_count() in grades]
    terms = {m: oracles._rand_coeff(rng, 4, rational) or 1 for m in masks if rng.random() < keep}
    return Form.from_mask_dict(sig, terms)


def test_square_kernel_matches_a_distinct_copy_and_the_oracle():
    """graf_product(f, f) may take the square table; f times an equal copy does not.

    On (9,0) the pinor grade set {0, 1, 4} fills a square table when most
    of its 136 masks are present and falls back to the ordered pair loop
    when the form is sparse or spans a grade set past the table ceiling.
    Under a diagonal that is not orthonormal a square takes the general
    path, tables or not.
    """
    rng = random.Random(23)
    sig21 = Signature(2, 1)
    cases = [(sig, Metric.standard(sig)) for sig in (SIG12, Signature(2, 2), SIG90)]
    cases.append(
        (sig21, Metric(sig21, [[Fraction(1, 2), 0, 0], [0, -3, 0], [0, 0, Fraction(5, 7)]]))
    )
    for sig, met in cases:
        squares = [Form.zero(sig), Form.scalar(sig, -3), Form.scalar(sig, Fraction(2, 3))]
        squares += [Form.blade(sig, m, c) for m in range(1 << sig.n) for c in (2, Fraction(-5, 6))]
        squares += [oracles.rand_form(rng, sig, terms=12) for _ in range(6)]
        squares += [oracles.rand_form(rng, sig, terms=12, rational=True) for _ in range(6)]
        _check_squares(squares, met)

    pinor = frozenset({0, 1, 4})
    halves = Metric(SIG90, [[Fraction(1 + i % 2, 2) if i == j else 0 for j in range(9)] for i in range(9)])
    distinct = Metric(SIG90, [[Fraction(i + 2, 2 * i + 1) if i == j else 0 for j in range(9)] for i in range(9)])
    for met in (Metric.standard(SIG90), halves, distinct):
        full = _grade_set_form(rng, SIG90, pinor)
        zeroed = _grade_set_form(rng, SIG90, pinor, keep=0.6, rational=True)
        sparse = _grade_set_form(rng, SIG90, pinor, keep=0.2)
        if met.is_orthonormal:
            kern = graf._kernel_for(met)
            for f in (full, zeroed):
                assert kern.square_table(pinor, f.num_terms(), 0) is not None
            assert kern.square_table(pinor, sparse.num_terms(), 0) is None
        # the sequential oracle on the table path and under halves; the pair
        # loop is checked above
        _check_squares([zeroed] if met is halves else [full, zeroed], met, oracle=met is not distinct)
        _check_squares([sparse], met, oracle=False)
    # 336 masks on grades {3, 4, 5}: past the ceiling even when full
    wide = _grade_set_form(rng, SIG90, {3, 4, 5})
    assert wide.num_terms() > graf._SQUARE_TABLE_MASKS
    assert graf._kernel_for(Metric.standard(SIG90)).square_table(
        frozenset({3, 4, 5}), wide.num_terms(), 0
    ) is None
    _check_squares([wide], Metric.standard(SIG90), oracle=False)


def _check_squares(squares, met, oracle=True):
    sig = met.signature
    for f in squares:
        copy = Form.from_mask_dict(sig, dict(f.mask_items()))
        assert copy is not f
        square = graf_product(f, f, met)
        assert square == graf_product(f, copy, met)
        if oracle:
            assert square == oracles.graf_product_oracle(f, f, met)
        assert _normalized(square)
        if _all_int(f) and all(type(c) is int for c in met.diagonal):
            assert _all_int(square)


def _lookups(cache):
    """Hits and misses of an ``lru_cache`` so far."""
    info = cache.cache_info()
    return info.hits, info.misses


def test_square_tables_are_bounded_per_kernel():
    """Grade sets go least recently used past the cap, which all kernels share."""
    sig = Signature(5, 0)
    met = Metric.standard(sig)
    rng = random.Random(24)
    tables = graf._DiagKernel._build_square_table
    tables.cache_clear()

    def square(grades):
        f = _grade_set_form(rng, sig, grades)
        hits, misses = _lookups(tables)
        assert graf_product(f, f, met) == oracles.graf_product_oracle(f, f, met)
        now_hits, now_misses = _lookups(tables)
        assert now_hits + now_misses == hits + misses + 1
        return now_hits - hits

    kept = frozenset({0, 1})
    grade_sets = [frozenset(s) for s in ({1}, {2}, {0, 2}, {1, 2}, {2, 3}, {3}, {1, 3}, {0, 4})]
    assert len(grade_sets) > graf._SQUARE_TABLE_CAP
    for grades in grade_sets:
        square(grades)
        square(kept)
        assert tables.cache_info().currsize <= graf._SQUARE_TABLE_CAP
    # the grade set squared on every round is never the least recent, so it stays
    assert square(kept) == 1
    assert square(grade_sets[0]) == 0


# -- packed product ----------------------------------------------------------------------------


def _dense_form(rng, sig, draw):
    """A form on every mask with coefficient ``draw(rng)``; a draw of 0 leaves the mask out."""
    return Form.from_mask_dict(sig, {m: draw(rng) for m in range(1 << sig.n)})


COEFFICIENT_DRAWS = {
    "int": lambda rng: rng.choice((-1, 1)) * rng.randint(1, 9),
    "rational": lambda rng: Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12)),
    "huge": lambda rng: rng.choice((-1, 1)) * rng.randint(10**30, 10**40),
    "negative": lambda rng: -rng.randint(1, 9),
    "zeroed": lambda rng: rng.choice((0, 0, -1, 2, -3, 4, 5, -6, 7, 8)),
}


def _packed(f, g, met):
    """f * g through the packed kernel, called directly whatever the input."""
    kern = graf._kernel_for(met)
    ta, da = common_denominator(list(f.mask_items()))
    tb, db = common_denominator(list(g.mask_items()))
    terms = kern.finish(graf._product_terms_packed(ta, tb, kern), da * db)
    return Form._adopt(f.signature, terms)


def _loop(f, g, met, monkeypatch):
    """f * g through the blade-pair loop."""
    with monkeypatch.context() as m:
        m.setattr(graf, "_PACKED_MIN_N", 10**6)
        return graf_product(f, g, met)


def test_packed_product_matches_the_loop_and_the_oracle(monkeypatch):
    """Dense forms with n <= 9 under the standard and a mixed-sign metric.

    Coefficients are ints, rationals, huge ints, negative ints only, or
    ints with a fifth of the blades left out (zero fields); above n = 6
    only ints.  The sequential oracle runs on every product up to n = 6,
    and above on single-term left factors (a dense n = 9 product takes it
    seconds); the loop runs on every product.
    """
    rng = random.Random(31)
    for n in range(10):
        for sig in dict.fromkeys((Signature(n, 0), Signature(n - n // 2, n // 2))):
            met = Metric.standard(sig)
            for kind, draw in COEFFICIENT_DRAWS.items():
                if n > 6 and kind != "int":
                    continue
                f, g = _dense_form(rng, sig, draw), _dense_form(rng, sig, draw)
                single = Form.blade(sig, rng.randrange(1 << n), draw(rng) or 1)
                for a, b in ((f, g), (single, g), (f, single)):
                    if a.is_zero() or b.is_zero():
                        continue  # the kernel takes forms with a term
                    got = _packed(a, b, met)
                    assert got == _loop(a, b, met, monkeypatch)
                    if n <= 6 or a is single:
                        assert got == oracles.graf_product_oracle(a, b, met)
                    assert _normalized(got)
                    if kind != "rational":
                        assert _all_int(got)


def test_packed_field_width_holds_a_bound_that_is_a_power_of_two(monkeypatch):
    """max|f| max|g| terms(f) = 2^k, reached exactly at the scalar key.

    With f_a = M and g_b = M' row_b[b], the scalar coefficient of f * g is
    sum_a M M' row_a[a]^2 = 16 M M', the bound itself, in the positive or
    (with f negated) the negative accumulator.  k runs over every offset
    from a whole number of bytes.
    """
    sig = Signature(2, 2)
    met = Metric.standard(sig)
    kern = graf._kernel_for(met)
    for k in range(5, 30):
        big, small = 1 << (k - 4) // 2, 1 << (k - 4) - (k - 4) // 2
        for sign in (1, -1):
            f = Form.from_mask_dict(sig, {m: sign * big for m in range(16)})
            g = Form.from_mask_dict(sig, {m: small * kern.row(m)[m] for m in range(16)})
            got = _packed(f, g, met)
            assert got.scalar_part() == sign * (1 << k)
            assert got == _loop(f, g, met, monkeypatch) == oracles.graf_product_oracle(f, g, met)


def test_only_dense_products_under_unit_diagonals_run_packed(monkeypatch):
    """Sparse inputs, tabled squares and n below the threshold keep the loop.

    Diagonals that are not orthonormal take the general path.  A dense
    square without a pair table (n = 9: 512 masks, past the table
    ceiling) runs packed like any other dense product.
    """
    seen = []
    packed = graf._product_terms_packed

    def spy(ta, tb, kern):
        seen.append((kern.n, len(ta), len(tb)))
        return packed(ta, tb, kern)

    monkeypatch.setattr(graf, "_product_terms_packed", spy)
    rng = random.Random(32)
    draw = COEFFICIENT_DRAWS["int"]
    low = graf._PACKED_MIN_N
    never = []
    squares = []
    for n in (low, 9):
        sig = Signature(n - 2, 2)
        met = Metric.standard(sig)
        dense = _dense_form(rng, sig, draw)
        # one term short of three quarters of the blades
        masks = rng.sample(range(1 << n), (3 << n) // 4 - 1)
        sparse = Form.from_mask_dict(sig, {m: draw(rng) for m in masks})
        never += [(dense, sparse, met), (sparse, dense, met)]
        squares.append((dense, met))
    kern = graf._kernel_for(squares[0][1])
    assert kern.square_table(frozenset(range(low + 1)), 1 << low, 0) is not None
    below = Signature(low - 1, 0)
    never.append((_dense_form(rng, below, draw), _dense_form(rng, below, draw), Metric.standard(below)))
    for diag in ((2, -3, 5), (2, -3, 5, 1, -1, 1), (1, -1, Fraction(1, 2), 1, 1, 1)):
        met = _diagonal_metric(diag)
        sig = met.signature
        assert not met.is_orthonormal
        never.append((_dense_form(rng, sig, draw), _dense_form(rng, sig, draw), met))
    for f, g, met in never:
        prod = graf_product(f, g, met)
        if met.signature.n <= low:
            assert prod == oracles.graf_product_oracle(f, g, met)
    assert seen == []
    for f, met in squares:
        copy = Form.from_mask_dict(met.signature, dict(f.mask_items()))
        assert graf_product(f, f, met) == _loop(f, copy, met, monkeypatch)
    assert seen == [(9, 1 << 9, 1 << 9)]
    # three quarters exactly, under the standard and a mixed-sign metric, at the threshold
    for sig in (Signature(low, 0), Signature(low - 3, 3)):
        met = Metric.standard(sig)
        masks = rng.sample(range(1 << low), (3 << low) // 4)
        f = Form.from_mask_dict(sig, {m: draw(rng) for m in masks})
        g = _dense_form(rng, sig, draw)
        assert graf_product(f, g, met) == oracles.graf_product_oracle(f, g, met)
    assert seen == [(9, 1 << 9, 1 << 9)] + [(low, 3 << (low - 2), 1 << low)] * 2


def test_packed_masks_match_the_blade_action():
    """Field b of flip is set iff e_y e_b = -e_(b^y); of low iff y is not in b."""
    for diag in ((1, 1, 1, 1), (1, -1, -1, 1, -1)):
        sig = Signature(diag.count(1), diag.count(-1))
        kern = graf._kernel_for(Metric.standard(sig))
        for width in (8, 24):
            field = (1 << width) - 1
            for y, (flip, low) in enumerate(kern.packed_masks(width)):
                for b in range(1 << sig.n):
                    _, c = oracles.clifford_blade_product((y + 1,), exterior._indices_of_mask(b), kern.diag)
                    assert flip >> (b * width) & field == (field if c == -1 else 0)
                    assert low >> (b * width) & field == (0 if b >> y & 1 else field)
                assert flip < 1 << (width << sig.n) and low < 1 << (width << sig.n)


def test_packed_masks_are_bounded_per_kernel():
    """Widths go least recently used past the cap, which all kernels share."""
    sig = Signature(4, 2)
    met = Metric.standard(sig)
    rng = random.Random(33)
    masks = graf._DiagKernel.packed_masks
    masks.cache_clear()
    unit = _dense_form(rng, sig, lambda rng: rng.choice((-1, 1)))
    ones = Form.from_mask_dict(sig, {m: 1 for m in range(1 << sig.n)})

    def scaled(width):
        # 2^(width - 8) * 1 * 64 terms = 2^(width - 2): width bits with the spare one
        return ones.scale(1 << (width - 8))

    def product(width):
        f = scaled(width)
        hits, misses = _lookups(masks)
        assert graf_product(f, unit, met) == oracles.graf_product_oracle(f, unit, met)
        now_hits, now_misses = _lookups(masks)
        assert now_hits + now_misses == hits + misses + 1
        return now_hits - hits

    kept = 16
    widths = [24, 32, 40, 48, 56, 64]
    assert len(widths) > graf._PACKED_MASK_CAP
    for width in widths:
        product(width)
        product(kept)
        assert masks.cache_info().currsize <= graf._PACKED_MASK_CAP
    # the width used on every round is never the least recent, so it stays
    assert product(kept) == 1
    assert product(widths[0]) == 0


def _diagonal_metric(diag) -> Metric:
    """The metric with the given diagonal, over the signature of its signs."""
    n = len(diag)
    sig = Signature(sum(1 for v in diag if v > 0), sum(1 for v in diag if v < 0))
    return Metric(sig, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def test_only_orthonormal_metrics_reach_the_kernel(monkeypatch):
    """Scaled and rational diagonals take the general path and equal the oracle.

    graf_product, hodge and contracted_wedge under (2,-3,5), (1/2,-3,5/7)
    and a (9,0) diagonal of halves and ones ask for no kernel at all: the
    general path inserts each generator's index itself.  Under an
    orthonormal diagonal in any sign order the product asks for its own
    kernel.
    """
    asked = []
    kernel_for = graf._kernel_for

    def spy(metric):
        asked.append(metric)
        return kernel_for(metric)

    monkeypatch.setattr(graf, "_kernel_for", spy)
    rng = random.Random(35)
    halves = tuple(Fraction(1 + i % 2, 2) for i in range(9))
    for diag in ((2, -3, 5), (Fraction(1, 2), -3, Fraction(5, 7)), halves):
        met = _diagonal_metric(diag)
        sig = met.signature
        v = volume_form(sig)
        for rational in (False, True):
            for _ in range(3):
                f = oracles.rand_form(rng, sig, terms=6, rational=rational)
                g = oracles.rand_form(rng, sig, terms=6, rational=rational)
                assert graf_product(f, g, met) == oracles.graf_product_oracle(f, g, met)
                assert graf_product(f, f, met) == oracles.graf_product_oracle(f, f, met)
                assert hodge(f, met) == oracles.graf_product_oracle(f, v, met)
                for k in (0, 1, 2):
                    assert contracted_wedge(f, g, k, met) == oracles.contracted_wedge_oracle(
                        f, g, k, met
                    )
        assert asked == []
    with pytest.raises(ValueError):
        graf._DiagKernel(3, (2, -3, 5))
    unit = _diagonal_metric((-1, 1, 1))
    f = oracles.rand_form(rng, unit.signature)
    assert graf_product(f, f, unit) == oracles.graf_product_oracle(f, f, unit)
    assert hodge(f, unit) == oracles.graf_product_oracle(f, volume_form(unit.signature), unit)
    assert asked == [unit, unit]


def test_contracted_wedge_is_a_graded_slice_of_the_product():
    """cw_k(f, g) = k! (-1)^(k(m-k) + floor(k/2)) <f * g>_(m+l-2k) on homogeneous f, g."""
    rng = random.Random(34)
    sig21 = Signature(2, 1)
    cases = [Metric.standard(Signature(4, 0)), Metric.standard(Signature(2, 2))]
    cases.append(Metric(sig21, [[Fraction(1, 2), 0, 0], [0, -3, 0], [0, 0, Fraction(5, 7)]]))
    for met in cases:
        sig = met.signature
        for m in range(sig.n + 1):
            for l in range(sig.n + 1):
                f = oracles.rand_homogeneous(rng, sig, m, terms=3, rational=True)
                g = oracles.rand_homogeneous(rng, sig, l, terms=3)
                prod = graf_product(f, g, met)
                for k in range(sig.n + 1):
                    sign = graf._graf_sign(k, m)
                    want = grade_project(prod, m + l - 2 * k).scale(math.factorial(k) * sign)
                    assert contracted_wedge(f, g, k, met) == want
                    assert want == oracles.contracted_wedge_oracle(f, g, k, met)


def test_kernel_keeps_integer_inputs_on_ints():
    rng = random.Random(21)
    kern = graf._kernel_for(Metric.standard(SIG90))
    f = list(oracles.rand_form(rng, SIG90, terms=40).mask_items())
    g = list(oracles.rand_form(rng, SIG90, terms=40).mask_items())
    pairs, den = common_denominator(f)
    assert pairs is f and den == 1
    assert all(type(c) is int for c in graf._product_terms_diag(f, g, kern).values())
    # an integral rational result is still stored as an int
    half = Form.scalar(SIG90, Fraction(1, 2))
    assert _all_int(graf_product(half, Form.scalar(SIG90, 4)))
    assert graf_product(half, Form.scalar(SIG90, 4)) == Form.scalar(SIG90, 2)


def test_product_with_non_unit_diagonal_metric():
    sig = Signature(2, 1)
    met = Metric(sig, [[2, 0, 0], [0, -3, 0], [0, 0, 5]])
    rng = random.Random(12)
    for _ in range(15):
        f = oracles.rand_form(rng, sig)
        g = oracles.rand_form(rng, sig)
        assert graf_product(f, g, met) == oracles.graf_product_oracle(f, g, met)
    for _ in range(15):
        f = oracles.rand_form(rng, sig, rational=True)
        g = oracles.rand_form(rng, sig, rational=True)
        assert graf_product(f, g, met) == oracles.graf_product_oracle(f, g, met)
    e1 = Form.blade(sig, (1,))
    assert graf_product(e1, e1, met) == Form.scalar(sig, 2)
    rational_met = Metric(sig, [[Fraction(1, 2), 0, 0], [0, -3, 0], [0, 0, Fraction(5, 7)]])
    for rational in (False, True):
        for _ in range(15):
            f = oracles.rand_form(rng, sig, rational=rational)
            g = oracles.rand_form(rng, sig, rational=rational)
            for m in (met, rational_met):
                for fg in (graf_product(f, g, m), graf_product(f, f, m)):
                    assert _normalized(fg)
            assert graf_product(f, g, rational_met) == oracles.graf_product_oracle(
                f, g, rational_met
            )
    assert graf_product(e1, e1, rational_met) == Form.scalar(sig, Fraction(1, 2))
    # integral results under a rational metric are stored as ints
    two = graf_product(e1.scale(2), e1, rational_met)
    assert dict(two.mask_items()) == {0: 1} and _normalized(two)
    dual = hodge(Form.blade(sig, (2, 3), 14), rational_met)
    assert dict(dual.mask_items()) == {1: 30} and _normalized(dual)


def _normalized(f: Form) -> bool:
    """Every integral coefficient is an int."""
    return all(type(c) is int or c.denominator != 1 for _, c in f.mask_items())


def _pair_sign_factor(ma: int, mb: int, diag: tuple):
    """(-1)^#{a in A, b in B, a > b} times the product of g^yy over A & B."""
    swaps = sum((ma >> (b + 1)).bit_count() for b in range(len(diag)) if mb >> b & 1)
    out = -1 if swaps % 2 else 1
    for y, g in enumerate(diag):
        if ma >> y & 1 and mb >> y & 1:
            out = out * g
    return out


def test_kernel_row_matches_the_pair_sign_definition():
    checked = 0
    for n in range(7):
        diagonals = [
            (1,) * n,
            (-1,) * n,
            tuple(1 if i % 3 else -1 for i in range(n)),
            tuple(-1 if i % 2 else 1 for i in range(n)),
        ]
        for diag in diagonals:
            kern = graf._DiagKernel(n, diag)
            for ma in range(1 << n):
                row = kern.row(ma)
                assert len(row) == 1 << n
                for mb, entry in enumerate(row):
                    want = _pair_sign_factor(ma, mb, diag)
                    assert entry == want and type(entry) is int
                    checked += 1
    assert checked == 4 * sum(4**n for n in range(7))


def test_kernel_cache_is_bounded():
    """Orthonormal diagonals of every sign order at n = 4 go least recently used past the cap."""
    rng = random.Random(22)
    base = Metric.standard(Signature(2, 2))
    others = [
        _diagonal_metric(diag)
        for diag in itertools.product((1, -1), repeat=4)
        if diag != base.diagonal
    ]
    assert len(others) > graf._KERNEL_CAP
    kernels = graf._kernel
    kernels.cache_clear()
    kept = graf._kernel_for(base)
    for met in others:
        for m in (met, base):
            f = oracles.rand_form(rng, m.signature, rational=True)
            g = oracles.rand_form(rng, m.signature)
            assert graf_product(f, g, m) == oracles.graf_product_oracle(f, g, m)
        assert kernels.cache_info().currsize <= graf._KERNEL_CAP
    # the metric used on every round is never the least recent, so it stays
    hits, misses = _lookups(kernels)
    assert graf._kernel_for(base) is kept
    assert _lookups(kernels) == (hits + 1, misses)
    graf._kernel_for(others[0])
    assert _lookups(kernels) == (hits + 1, misses + 1)


def test_product_with_general_metric_is_associative_and_clifford():
    """Under (2,1), rational (3,1) and zero-diagonal (2,2) grams with off-diagonal entries."""
    rng = random.Random(13)
    for met in oracles.non_diagonal_metrics():
        sig = met.signature
        assert not met.diagonal is not None
        for i in range(1, sig.n + 1):
            for j in range(1, sig.n + 1):
                ei, ej = Form.blade(sig, (i,)), Form.blade(sig, (j,))
                anti = graf_product(ei, ej, met) + graf_product(ej, ei, met)
                assert anti == Form.unit(sig).scale(2 * met.entry(i, j))
        for rational in (False, True):
            for _ in range(10):
                f, g, h = (oracles.rand_form(rng, sig, rational=rational) for _ in range(3))
                assert graf_product(graf_product(f, g, met), h, met) == graf_product(
                    f, graf_product(g, h, met), met
                )
                assert graf_product(f, g, met) == _graded_expansion(f, g, met)
                assert graf_product(f, f, met) == _graded_expansion(f, f, met)


def test_grade_involution_and_reversal_behave_on_products():
    rng = random.Random(14)
    for _ in range(20):
        f = oracles.rand_form(rng, SIG12)
        g = oracles.rand_form(rng, SIG12)
        assert grade_involution(graf_product(f, g)) == graf_product(
            grade_involution(f), grade_involution(g)
        )
        assert reversal(graf_product(f, g)) == graf_product(reversal(g), reversal(f))


def test_reversed_order_expansion_check():
    rng = random.Random(15)
    met = Metric.standard(SIG12)
    for _ in range(20):
        m = rng.randint(0, 3)
        r = rng.randint(m, 3)
        f = oracles.rand_homogeneous(rng, SIG12, m)
        g = oracles.rand_homogeneous(rng, SIG12, r)
        assert oracles.graf_product_reversed_check(f, g, met)
    with pytest.raises(ValueError):
        oracles.graf_product_reversed_check(
            Form.blade(SIG12, (1, 2)), Form.blade(SIG12, (1,)), met
        )


# -- volume form and Hodge --------------------------------------------------------------------


def test_volume_square_sign_table():
    for sig in ALL_SIGNATURES:
        met = Metric.standard(sig)
        v = volume_form(sig)
        square = graf_product(v, v, met)
        sign = volume_square_sign(sig.p, sig.q)
        assert square == Form.unit(sig).scale(sign)
        assert sign == (1 if (sig.p - sig.q) % 8 in (0, 1, 4, 5) else -1)


def test_volume_central_in_odd_dimensions():
    rng = random.Random(16)
    for sig in ALL_SIGNATURES:
        if sig.n % 2 == 0:
            continue
        met = Metric.standard(sig)
        v = volume_form(sig)
        for _ in range(3):
            f = oracles.rand_form(rng, sig)
            assert graf_product(v, f, met) == graf_product(f, v, met)


def test_volume_normalization_for_scaled_metrics():
    sig = Signature(2, 0)
    vf = oracles.VolumeForm.for_metric(Metric(sig, [[2, 0], [0, 2]]))
    met = Metric(sig, [[2, 0], [0, 2]])
    assert graf_product(vf.form, vf.form, met) == Form.unit(sig).scale(vf.vsquare)
    with pytest.raises(ValueError):
        oracles.VolumeForm.for_metric(Metric(sig, [[2, 0], [0, 3]]))


def _graded_expansion(f: Form, g: Form, met: Metric) -> Form:
    """sum_k (1/k!) (-1)^(k(m-k) + floor(k/2)) cw_k(f_m, g) through the contraction oracle."""
    out = Form.zero(f.signature)
    for m in sorted(f.grades()):
        fm = Form.from_mask_dict(f.signature, {b: c for b, c in f.mask_items() if b.bit_count() == m})
        for k in range(m + 1):
            sign = -1 if (k * (m - k) + k // 2) & 1 else 1
            term = oracles.contracted_wedge_oracle(fm, g, k, met)
            out = out + term.scale(Fraction(sign, math.factorial(k)))
    return out


def test_hodge_is_right_volume_product():
    """Under a diagonal metric hodge relabels m -> m ^ full with the volume factor nu[m]."""
    rng = random.Random(17)
    sig21 = Signature(2, 1)
    cases = [(sig, Metric.standard(sig)) for sig in (SIG12, Signature(2, 2), Signature(5, 0), SIG90)]
    cases += [
        (sig21, Metric(sig21, [[1, 0, 0], [0, -1, 0], [0, 0, 1]])),
        (sig21, Metric(sig21, [[2, 0, 0], [0, -3, 0], [0, 0, 5]])),
        (sig21, Metric(sig21, [[Fraction(1, 2), 0, 0], [0, -3, 0], [0, 0, Fraction(5, 7)]])),
    ]
    rational_met = cases[-1][1]
    cases += [(met.signature, met) for met in oracles.non_diagonal_metrics()]
    for sig, met in cases:
        v = volume_form(sig)
        for rational in (False, True):
            for _ in range(5):
                f = oracles.rand_form(rng, sig, terms=8, rational=rational)
                star = hodge(f, met)
                if met.diagonal is not None:
                    assert star == graf_product(f, v, met)
                    assert star == oracles.graf_product_oracle(f, v, met)
                else:
                    assert star == _graded_expansion(f, v, met)
                assert _normalized(star)
                if met.is_orthonormal:
                    sign = volume_square_sign(sig.p, sig.q)
                    assert hodge(star, met) == f.scale(sign)
    assert hodge(Form.unit(SIG12)) == volume_form(SIG12)
    # integral coefficients under a rational diagonal are stored as ints
    dual = hodge(Form.blade(sig21, (1, 3), 14), rational_met)
    assert dict(dual.mask_items()) == {2: 5} and type(dual.coeff(2)) is int


# -- projectors and truncation ------------------------------------------------------------------


def test_truncation_regime_membership():
    assert in_truncation_regime(SIG90)
    assert in_truncation_regime(Signature(2, 1))
    assert in_truncation_regime(Signature(5, 0))
    assert not in_truncation_regime(SIG12)  # odd n but volume squares to -1
    assert not in_truncation_regime(Signature(2, 2))  # even n


def test_projectors_split_and_multiply():
    rng = random.Random(18)
    sig = Signature(2, 1)
    met = Metric.standard(sig)
    for _ in range(15):
        f = oracles.rand_form(rng, sig)
        g = oracles.rand_form(rng, sig)
        plus = projector_pm(f, 1, met)
        minus = projector_pm(f, -1, met)
        assert plus + minus == f
        assert projector_pm(plus, 1, met) == plus
        assert projector_pm(minus, -1, met) == minus
        assert projector_pm(plus, -1, met).is_zero()
        # the two ideals annihilate each other and absorb products
        assert graf_product(plus, projector_pm(g, -1, met), met).is_zero()
        prod = graf_product(plus, projector_pm(g, 1, met), met)
        assert projector_pm(prod, 1, met) == prod
    with pytest.raises(ValueError):
        projector_pm(Form.unit(sig), 0, met)


def test_truncation_split_and_reconstruction():
    rng = random.Random(19)
    sig = Signature(2, 1)
    met = Metric.standard(sig)
    for _ in range(15):
        f = oracles.rand_form(rng, sig)
        lower = lower_projection(f)
        upper = f - lower
        assert all(k <= sig.n // 2 for k in lower.grades())
        assert all(k > sig.n // 2 for k in upper.grades())
        assert lower == sum(
            (grade_project(f, k) for k in range(sig.n // 2 + 1)), Form.zero(sig)
        )
        for s in (1, -1):
            pf = projector_pm(f, s, met)
            assert projector_pm(lower_projection(pf).scale(2), s, met) == pf


def test_truncated_product_fast_path_matches_literal_definition():
    """The volume fold equals 2 P_L(P_s(f) P_s(g)) with the projectors spelled out."""
    rng = random.Random(20)
    for sig, rounds in ((Signature(2, 1), 10), (Signature(5, 0), 4), (Signature(3, 2), 4), (SIG90, 2)):
        met = Metric.standard(sig)
        lower = [m for m in range(1 << sig.n) if m.bit_count() <= sig.n // 2]
        for _ in range(rounds):
            full = [oracles.rand_form(rng, sig, terms=10, rational=r) for r in (False, True)]
            low = [
                Form.from_mask_dict(sig, {m: rng.randint(-4, 4) for m in rng.sample(lower, 4)})
                for _ in range(2)
            ]
            for f, g in ((full[0], full[1]), (low[0], low[1]), (low[0], full[0]), (full[1], full[1])):
                for s in (1, -1):
                    literal = lower_projection(
                        graf_product(projector_pm(f, s, met), projector_pm(g, s, met), met)
                    ).scale(2)
                    product = truncated_product(f, g, s, met)
                    assert product == literal
                    assert _normalized(product)


def _literal_truncated_square(f: Form, s: int, met: Metric) -> Form:
    """2 P_L(P_s f * P_s f), every product by the sequential oracle."""
    sig = f.signature
    vol = volume_form(sig)
    pf = (f + oracles.graf_product_oracle(f, vol, met).scale(s)).scale(Fraction(1, 2))
    square = oracles.graf_product_oracle(pf, pf, met)
    return Form.from_mask_dict(
        sig, {m: 2 * c for m, c in square.mask_items() if m.bit_count() <= sig.n // 2}
    )


def test_the_folded_square_table_is_the_literal_truncated_square():
    """truncated_product(f, f, s) reads the folded pair table where it admits f.

    On every truncation-regime signature with n <= 9, under both signs,
    it equals the literal 2 P_L(P_s f P_s f) and the unfolded path that f
    times an equal copy takes, for forms the table admits and sparse
    forms it refuses.
    """
    rng = random.Random(25)
    regime = [sig for sig in ALL_SIGNATURES if in_truncation_regime(sig)]
    assert len(regime) == 15
    assert {(1, 0), (1, 8)} <= {(sig.p, sig.q) for sig in regime}
    admitted = refused = 0
    for sig in regime:
        met = Metric.standard(sig)
        kern = graf._kernel_for(met)
        grade_sets = [{0, 1}, {1, sig.n}, {0, 1, sig.n - 1}]
        if sig == SIG90:
            grade_sets.append({0, 1, 4})
        for grades in map(frozenset, grade_sets):
            rational = rng.random() < 0.5
            for keep in (1.0, 0.2):
                f = _grade_set_form(rng, sig, grades, keep=keep, rational=rational)
                copy = Form.from_mask_dict(sig, dict(f.mask_items()))
                for s in (1, -1):
                    table = kern.square_table(frozenset(f.grades()), f.num_terms(), s)
                    admitted += table is not None
                    refused += table is None
                    square = truncated_product(f, f, s)
                    assert square == _literal_truncated_square(f, s, met)
                    assert square == truncated_product(f, copy, s)
                    assert _normalized(square)
    assert admitted and refused


def test_truncated_product_refuses_a_bad_projector_sign():
    sig = Signature(2, 1)
    f = Form.blade(sig, (1,), 2)
    scaled = Metric(sig, [[2, 0, 0], [0, -3, 0], [0, 0, 5]])
    # before the refusals of a non-orthonormal metric and of a signature
    # outside the regime
    for s in (0, 2, -2):
        with pytest.raises(ValueError, match="projector sign"):
            truncated_product(f, f, s, Metric.standard(sig))
        with pytest.raises(ValueError, match="projector sign"):
            truncated_product(f, f, s, scaled)
        with pytest.raises(ValueError, match="projector sign"):
            truncated_product(Form.blade(SIG12, (1,)), Form.blade(SIG12, (1,)), s)


def test_truncated_product_refuses_outside_regime():
    # even n, and odd n with volume square -1
    for sig in (Signature(2, 2), SIG12):
        f = Form.blade(sig, (1,))
        where = rf"not \({sig.p},{sig.q}\) under an orthonormal"
        with pytest.raises(UnsupportedSignature, match=where):
            truncated_product(f, f, 1)
    # in the regime, under a metric that is not orthonormal
    sig = Signature(2, 1)
    f = Form.blade(sig, (1,), 2)
    scaled = Metric(sig, [[2, 0, 0], [0, -3, 0], [0, 0, 5]])
    with pytest.raises(UnsupportedSignature, match="non-orthonormal"):
        truncated_product(f, f, 1, scaled)
    assert truncated_product(f, f, 1, Metric.standard(sig)) == Form.scalar(sig, 4)
