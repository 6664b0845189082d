"""Exterior algebra layer: blades, forms, wedge, contraction, metrics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from grafclifford.errors import DimensionMismatch, FormParseError
from grafclifford.exterior import (
    Form,
    Metric,
    Signature,
    grade_involution,
    grade_project,
    interior,
    rational_from_json,
    rational_from_str,
    rational_to_str,
    _indices_of_mask,
    _mask_of,
    reversal,
)
from grafclifford.graf import contracted_wedge, wedge

SIG22 = Signature(2, 2)
SIG12 = Signature(1, 2)


def forms(sig=SIG22, box=4, max_terms=5):
    size = 1 << sig.n
    return st.dictionaries(
        st.integers(0, size - 1), st.integers(-box, box), max_size=max_terms
    ).map(lambda d: Form.from_mask_dict(sig, d))


# -- scalars and parsing -------------------------------------------------------------------


def test_rational_string_round_trip():
    for value in (0, 3, -7, Fraction(2, 3), Fraction(-11, 24)):
        assert rational_from_str(rational_to_str(value)) == value
    assert rational_from_str("6/4") == Fraction(3, 2)
    # one grammar, -?num(/den)?: Fraction's point, exponent, '_' and '+' are refused
    for bad in ("not-a-number", "1e5", "0.5", "1_0", "+4"):
        with pytest.raises(FormParseError, match="bad rational literal"):
            rational_from_str(bad)


def test_json_rationals_are_ints_or_rational_strings():
    assert rational_from_json(-3, "entry") == -3
    assert rational_from_json("6/4", "entry") == Fraction(3, 2)
    for bad in (True, False, 1.0, None, [1]):
        with pytest.raises(FormParseError, match="entry must be an integer or a rational string"):
            rational_from_json(bad, "entry")


def test_blade_requires_strictly_ascending_indices():
    assert _mask_of((1, 3, 4)) == 0b1101
    assert _indices_of_mask(0b1101) == (1, 3, 4)
    assert _indices_of_mask(0) == ()
    for mask in range(1 << 6):
        assert _mask_of(_indices_of_mask(mask)) == mask
    with pytest.raises(ValueError, match="strictly ascending, got \\(3, 1\\)"):
        _mask_of((3, 1))
    with pytest.raises(ValueError, match="strictly ascending"):
        Form.blade(SIG22, (2, 2))
    with pytest.raises(ValueError, match="1-based, got \\(0, 2\\)"):
        _mask_of([0, 2])
    with pytest.raises(ValueError, match="nonnegative"):
        _mask_of(-1)


def test_form_text_and_json_round_trip():
    f = Form(SIG22, {(1, 3): Fraction(5, 2), (): -3, (2, 3, 4): 1})
    assert Form.from_text(SIG22, f.to_text()) == f
    assert Form.from_json_obj(SIG22, f.to_json_obj()) == f
    with pytest.raises(FormParseError):
        Form.from_text(SIG22, "5**e{1}")


def test_text_and_json_refuse_a_bad_blade_as_a_parse_error():
    """Both parsers share one blade check, and neither raises a bare ValueError."""
    sig30 = Signature(3, 0)
    cases = (
        (sig30, "5*e{3,1}", [3, 1], "bad form term"),
        (sig30, "5*e{0,1}", [0, 1], "bad form term"),
        (sig30, "5*e{1,1}", [1, 1], "bad form term"),
        (SIG12, "1*e{4}", [4], "blade \\(4,\\) exceeds dimension 3"),
    )
    for sig, text, blade, message in cases:
        with pytest.raises(FormParseError, match=message):
            Form.from_text(sig, text)
        with pytest.raises(FormParseError, match=message):
            Form.from_json_obj(sig, [{"blade": blade, "coeff": "5"}])
    for text in ("5*e{1,,2}", "5*e{,}", "5*e{1 2}", "5*e{" + "9" * 5000 + "}"):
        with pytest.raises(FormParseError, match="bad form term"):
            Form.from_text(sig30, text)


def test_public_constructors_still_validate():
    """Only kernel output skips validation; every input path keeps its checks."""
    with pytest.raises(ValueError, match="exceeds dimension"):
        Form(SIG12, {0b1000: 1})
    with pytest.raises(ValueError, match="exceeds dimension"):
        Form.from_mask_dict(SIG12, {0b1000: 1})
    with pytest.raises(ValueError, match="exceeds dimension"):
        Form.from_text(SIG12, "1*e{4}")
    with pytest.raises(FormParseError):
        Form.from_json_obj(SIG12, [{"blade": [4], "coeff": "1"}])
    with pytest.raises(TypeError):
        Form(SIG12, {(1,): 0.5})
    with pytest.raises(TypeError):
        Form.from_mask_dict(SIG12, {1: 0.5})
    with pytest.raises(FormParseError):
        Form.from_text(SIG12, "0.5*e{1}")
    with pytest.raises(FormParseError):
        Form.from_json_obj(SIG12, [{"blade": [1], "coeff": 0.5}])


def test_form_vector_space_basics():
    f = Form(SIG12, {(1,): 2, (2, 3): -1})
    g = Form(SIG12, {(1,): -2, (): 7})
    assert f + g == Form(SIG12, {(2, 3): -1, (): 7})
    assert f - f == Form.zero(SIG12)
    assert (-f) + f == Form.zero(SIG12)
    assert f.scale(Fraction(1, 2)) + f.scale(Fraction(1, 2)) == f
    assert f.coeff((2, 3)) == -1 and f.coeff((1, 2)) == 0
    with pytest.raises(DimensionMismatch):
        f + Form.zero(SIG22)


@given(forms(), forms(), forms())
@settings(max_examples=60, deadline=None)
def test_addition_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + Form.zero(SIG22) == f


# -- wedge -----------------------------------------------------------------------------------


@given(forms(max_terms=4), forms(max_terms=4), forms(max_terms=4))
@settings(max_examples=40, deadline=None)
def test_wedge_associative_and_bilinear(f, g, h):
    assert wedge(wedge(f, g), h) == wedge(f, wedge(g, h))
    assert wedge(f + g, h) == wedge(f, h) + wedge(g, h)


def test_wedge_graded_commutativity():
    rng = random.Random(1)
    for _ in range(40):
        j = rng.randint(0, 4)
        k = rng.randint(0, 4)
        f = oracles.rand_homogeneous(rng, SIG22, j)
        g = oracles.rand_homogeneous(rng, SIG22, k)
        sign = -1 if (j * k) % 2 else 1
        assert wedge(f, g) == wedge(g, f).scale(sign)


def test_wedge_matches_inversion_count_oracle():
    rng = random.Random(2)
    sig = Signature(3, 2)
    for _ in range(50):
        f = oracles.rand_form(rng, sig)
        g = oracles.rand_form(rng, sig)
        assert wedge(f, g) == oracles.wedge_oracle(f, g)
    for _ in range(50):
        f = oracles.rand_form(rng, sig, rational=True)
        g = oracles.rand_homogeneous(rng, sig, rng.randint(0, 3), rational=True)
        assert wedge(f, g) == oracles.wedge_oracle(f, g)


# -- interior contraction --------------------------------------------------------------------


def test_interior_is_a_graded_antiderivation():
    rng = random.Random(3)
    for _ in range(40):
        j = rng.randint(0, 4)
        f = oracles.rand_homogeneous(rng, SIG22, j)
        g = oracles.rand_form(rng, SIG22)
        for i in range(1, 5):
            sign = -1 if j % 2 else 1
            assert interior(i, wedge(f, g)) == wedge(interior(i, f), g) + wedge(
                f, interior(i, g)
            ).scale(sign)


def test_interior_nilpotent_and_anticommuting():
    rng = random.Random(4)
    for _ in range(30):
        f = oracles.rand_form(rng, SIG22)
        for i in range(1, 5):
            assert interior(i, interior(i, f)).is_zero()
            for j in range(1, 5):
                assert interior(i, interior(j, f)) == -interior(j, interior(i, f)) or i == j
    with pytest.raises(ValueError):
        interior(5, Form.unit(SIG22))


def test_interior_matches_position_sign_oracle():
    rng = random.Random(5)
    for _ in range(30):
        f = oracles.rand_form(rng, SIG22)
        for i in range(1, 5):
            assert interior(i, f) == oracles.interior_oracle(i, f)


# -- grade operators --------------------------------------------------------------------------


@given(forms())
@settings(max_examples=40, deadline=None)
def test_grade_operators(f):
    total = Form.zero(SIG22)
    for k in range(5):
        part = grade_project(f, k)
        assert part.grades() <= {k} or part.is_zero()
        total = total + part
    assert total == f
    assert grade_involution(grade_involution(f)) == f
    assert reversal(reversal(f)) == f


def test_reversal_sign_per_grade():
    for k in range(5):
        blade = Form.blade(SIG22, tuple(range(1, k + 1)))
        sign = -1 if (k * (k - 1) // 2) % 2 else 1
        assert reversal(blade) == blade.scale(sign)


def test_reversal_reverses_wedge_order():
    rng = random.Random(6)
    for _ in range(30):
        f = oracles.rand_form(rng, SIG22)
        g = oracles.rand_form(rng, SIG22)
        assert reversal(wedge(f, g)) == wedge(reversal(g), reversal(f))


# -- contracted wedge --------------------------------------------------------------------------


def test_contracted_wedge_order_zero_is_wedge():
    rng = random.Random(7)
    met = Metric.standard(SIG22)
    for _ in range(20):
        f = oracles.rand_form(rng, SIG22)
        g = oracles.rand_form(rng, SIG22)
        assert contracted_wedge(f, g, 0, met) == wedge(f, g)
    with pytest.raises(ValueError):
        contracted_wedge(Form.unit(SIG22), Form.unit(SIG22), -1, met)


def test_contracted_wedge_matches_recursion_oracle_standard_metric():
    rng = random.Random(8)
    for sig in (Signature(1, 2), SIG22, Signature(4, 0)):
        met = Metric.standard(sig)
        for _ in range(15):
            f = oracles.rand_form(rng, sig)
            g = oracles.rand_form(rng, sig)
            for k in range(sig.n + 1):
                assert contracted_wedge(f, g, k, met) == oracles.contracted_wedge_oracle(
                    f, g, k, met
                )


def _adoptable(f: Form) -> bool:
    """What ``Form._adopt`` takes on trust: masks in range, no zero, integral as int."""
    full = (1 << f.signature.n) - 1
    return all(
        not mask & ~full and c != 0 and (type(c) is int or c.denominator != 1)
        for mask, c in f.mask_items()
    )


def test_contracted_wedge_matches_recursion_oracle_general_metric():
    """Standard, scaled and rational diagonals, and non-diagonal grams at n = 3 and 4.

    The non-diagonal grams are (2,1), a rational (3,1) and a (2,2) one
    with a zero diagonal; integer and rational inputs, every k, and
    cw_k(f, f) with the same object on both sides.
    """
    rng = random.Random(9)
    sig = Signature(2, 1)
    diag = Metric(sig, [[2, 0, 0], [0, -3, 0], [0, 0, 5]])
    rational_diag = Metric(sig, [[Fraction(1, 2), 0, 0], [0, -3, 0], [0, 0, Fraction(5, 7)]])
    metrics = (Metric.standard(sig), diag, rational_diag) + oracles.non_diagonal_metrics()
    for met in metrics:
        n = met.signature.n
        for rational in (False, True):
            for _ in range(15 if n == 3 else 6):
                f = oracles.rand_form(rng, met.signature, rational=rational)
                g = oracles.rand_form(rng, met.signature, rational=rational)
                for k in range(n + 1):
                    for left, right in ((f, g), (f, f)):
                        got = contracted_wedge(left, right, k, met)
                        assert got == oracles.contracted_wedge_oracle(left, right, k, met)
                        assert _adoptable(got)
                assert _adoptable(wedge(f, g))
    # an integral coefficient under a rational metric is stored as an int
    e1 = Form.blade(sig, (1,))
    two = contracted_wedge(e1.scale(2), e1, 1, rational_diag)
    assert dict(two.mask_items()) == {0: 1} and _adoptable(two)
    e23 = Form.blade(sig, (2, 3), 14)
    dual = contracted_wedge(e23, Form.blade(sig, (1, 2, 3)), 2, rational_diag)
    assert dict(dual.mask_items()) == {1: -60} and _adoptable(dual)
    # blades that share an index cancel to the zero form, with nothing stored
    assert wedge(e1, e1.scale(Fraction(1, 3))).is_zero()


def test_contracted_wedge_rejects_mismatched_metric():
    with pytest.raises(DimensionMismatch):
        contracted_wedge(Form.unit(SIG22), Form.unit(SIG22), 1, Metric.standard(SIG12))


# -- metric objects -----------------------------------------------------------------------------


def test_metric_standard_and_validation():
    met = Metric.standard(SIG12)
    assert met.diagonal == (1, -1, -1)
    assert met.entry(1, 1) == 1 and met.entry(3, 3) == -1
    assert met.is_orthonormal
    with pytest.raises(ValueError):
        Metric(SIG12, [[1, 2, 0], [0, -1, 0], [0, 0, -1]])  # not symmetric
    with pytest.raises(ValueError):
        Metric(SIG12, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])  # wrong inertia
    with pytest.raises((ValueError, ZeroDivisionError)):
        Metric(SIG12, [[1, 1, 0], [1, 1, 0], [0, 0, -1]])  # singular


def test_metric_json_names_the_gram_off_the_standard_frame():
    sig = Signature(2, 1)
    met = Metric(sig, [[2, 1, 0], [1, -3, 2], [0, 2, 5]])
    assert met.to_json_obj() == {
        "p": 2,
        "q": 1,
        "gram": [["2", "1", "0"], ["1", "-3", "2"], ["0", "2", "5"]],
    }
    assert Metric.standard(sig).to_json_obj() == {"p": 2, "q": 1}


def test_dimension_cap_env_var(monkeypatch):
    with pytest.raises(ValueError):
        Signature(13, 0)
    monkeypatch.setenv("GRAF_MAX_DIM", "4")
    with pytest.raises(ValueError):
        Signature(5, 0)
    assert Signature(4, 0).n == 4
    monkeypatch.setenv("GRAF_MAX_DIM", "13")
    assert Signature(13, 0).n == 13
