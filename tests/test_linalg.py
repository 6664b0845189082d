"""Exact linear algebra kernel: dense ops, signed permutations, solvers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grafclifford.exterior import Metric, Signature, rational_to_str
from grafclifford.linalg import (
    SignedPerm,
    _norm,
    as_matrix,
    congruence_diagonal,
    mat_mul,
    mat_scale,
)
from grafclifford.errors import StructureError
from grafclifford.matrixrep import CASE_ALMOST_COMPLEX, build_rep, solve_signed_perms
from oracles import (
    from_dense,
    identity,
    is_identity,
    is_scalar_matrix,
    is_zero_matrix,
    mat_trace,
    mat_vec,
    nullspace,
    rational_sqrt,
    rref,
    solve_twisted_system_dense,
    solve_twisted_system_reference,
    to_dense,
    transpose,
    vec_dot,
    zeros,
)


def test_norm_contract():
    big = 10**30
    assert _norm(big) is big
    two = _norm(Fraction(4, 2))
    assert two == 2 and type(two) is int
    half = _norm(Fraction(1, 2))
    assert half == Fraction(1, 2) and type(half) is Fraction
    for bad in (0.5, 2.0, "1", "1/2"):
        with pytest.raises(TypeError):
            _norm(bad)


def test_matrix_basics():
    a = as_matrix([[1, 2], [3, 4]])
    b = as_matrix([[0, 1], [1, 0]])
    assert mat_mul(a, b) == as_matrix([[2, 1], [4, 3]])
    assert transpose(a) == as_matrix([[1, 3], [2, 4]])
    assert mat_trace(a) == 5
    assert mat_vec(a, (1, 1)) == (3, 7)
    assert vec_dot((1, 2, 3), (4, 5, 6)) == 32
    assert is_zero_matrix(zeros(3, 3))
    assert is_identity(identity(4))
    assert is_scalar_matrix(mat_scale(identity(3), Fraction(5, 2))) == Fraction(5, 2)
    assert is_scalar_matrix(as_matrix([[1, 1], [0, 1]])) is None


def test_rref_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    reduced, pivots = rref([list(r) for r in rows])
    assert len(pivots) == 2
    vecs = nullspace([list(r) for r in rows], 3)
    assert len(vecs) == 1
    for row in rows:
        assert sum(c * x for c, x in zip(row, vecs[0])) == 0
    rng = random.Random(22)
    for _ in range(10):
        m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        for vec in nullspace([list(r) for r in m], 5):
            assert any(vec)
            for row in m:
                assert sum(c * x for c, x in zip(row, vec)) == 0


def test_signed_perm_round_trip_and_composition():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 6)
        cols = list(range(n))
        rng.shuffle(cols)
        sp = SignedPerm(tuple(cols), tuple(rng.choice((1, -1)) for _ in range(n)))
        dense = to_dense(sp)
        assert from_dense(dense) == sp
        assert to_dense(sp.transpose()) == transpose(dense)
        vec = tuple(rng.randint(-4, 4) for _ in range(n))
        assert sp.apply(vec) == mat_vec(dense, vec)
        cols2 = list(range(n))
        rng.shuffle(cols2)
        sp2 = SignedPerm(tuple(cols2), tuple(rng.choice((1, -1)) for _ in range(n)))
        assert to_dense(sp.compose(sp2)) == mat_mul(dense, to_dense(sp2))
        assert sp.times(1) == sp and to_dense(sp.times(-1)) == mat_scale(dense, -1)
    assert from_dense(as_matrix([[1, 1], [0, 1]])) is None
    assert SignedPerm.identity(3).scalar_value() == 1
    assert SignedPerm.identity(3).neg().scalar_value() == -1


@given(st.data())
def test_signed_perm_apply_relabels_and_negates(data):
    n = data.draw(st.integers(1, 6))
    cols = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    entries = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=6))
    vec = data.draw(st.lists(entries, min_size=n, max_size=n))
    image = SignedPerm(tuple(cols), tuple(signs)).apply(vec)
    for got, c, s in zip(image, cols, signs):
        want = s * vec[c]
        assert got == want and type(got) is type(want)


def rand_signed_perm(rng, n):
    cols = list(range(n))
    rng.shuffle(cols)
    return SignedPerm(tuple(cols), tuple(rng.choice((1, -1)) for _ in range(n)))


def test_report_rows_render_the_dense_matrix():
    rng = random.Random(25)
    perms = [SignedPerm.identity(5), SignedPerm.identity(1), SignedPerm.identity(1).neg()]
    perms += [rand_signed_perm(rng, rng.randint(1, 9)) for _ in range(30)]
    for sp in perms:
        want = [[rational_to_str(v) for v in row] for row in to_dense(sp)]
        assert sp.report_rows() == want
    cases = [(0, "0"), (7, "7"), (-12, "-12"), (10**30, str(10**30)), (True, "1"), (False, "0")]
    cases += [(Fraction(4, 2), "2"), (Fraction(-1, 3), "-1/3"), (Fraction(6, -4), "-3/2")]
    for value, text in cases:
        assert rational_to_str(value) == text


def canonical_order(mats) -> list:
    """Signed permutation matrices signed +1 on row 0, ordered by that entry's column."""

    def pivot(m):
        return next(j for j, v in enumerate(m[0]) if v)

    return sorted((m if m[0][pivot(m)] == 1 else mat_scale(m, -1) for m in mats), key=pivot)


def check_solver_against_reference(d, cons) -> bool:
    """The library's basis, rendered dense, is the reference's components in canonical order.

    The library emits signed permutations and refuses any other
    component; returns whether the system had one to refuse.
    """
    want = solve_twisted_system_reference(d, cons)
    if all(from_dense(m) is not None for m in want):
        assert [to_dense(sp) for sp in solve_signed_perms(d, cons)] == canonical_order(want)
        return False
    with pytest.raises(StructureError, match="not a signed permutation"):
        solve_signed_perms(d, cons)
    return True


def test_solver_components_keep_the_reference_order_and_signs():
    rng = random.Random(26)
    refused = 0
    for _ in range(200):
        d = rng.randint(1, 8)
        cons = [
            (rand_signed_perm(rng, d), rand_signed_perm(rng, d), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 3))
        ]
        refused += check_solver_against_reference(d, cons)
    assert 0 < refused < 200
    with pytest.raises(StructureError, match="twist sign"):
        solve_signed_perms(2, [(SignedPerm.identity(2), SignedPerm.identity(2), 0)])
    systems = 0
    for n in range(9):
        for p in range(n + 1):
            for volume_sign in (1, -1) if n % 2 else (1,):
                rep = build_rep(Signature(p, n - p), volume_sign)
                gens = rep.perms
                cons_list = [[(g, g, 1) for g in gens]]
                cons_list += [[(g, g.transpose(), tau) for g in gens] for tau in (1, -1)]
                if rep.abs.case == CASE_ALMOST_COMPLEX:
                    vol = rep.volume_sp()
                    cons_list.append([(g, g.neg(), 1) for g in gens] + [(vol, vol.neg(), 1)])
                for cons in cons_list:
                    assert not check_solver_against_reference(rep.d, cons)
                    systems += 1
    assert systems > 150


def _span_signature(mats, d):
    """Canonical rref of the vectorized span, for span comparison."""
    rows = [[m[i][j] for i in range(d) for j in range(d)] for m in mats]
    reduced, pivots = rref(rows)
    return [tuple(reduced[r]) for r in range(len(pivots))]


def test_twisted_solver_agrees_with_dense_fallback():
    rng = random.Random(24)
    for _ in range(10):
        n = 4
        cols = list(range(n))
        rng.shuffle(cols)
        s = SignedPerm(tuple(cols), tuple(rng.choice((1, -1)) for _ in range(n)))
        rng.shuffle(cols)
        t = SignedPerm(tuple(cols), tuple(rng.choice((1, -1)) for _ in range(n)))
        eps = rng.choice((1, -1))
        # the reference solver's components, which the library's reproduce
        check_solver_against_reference(n, [(s, t, eps)])
        fast = solve_twisted_system_reference(n, [(s, t, eps)])
        dense = solve_twisted_system_dense(n, [(to_dense(s), to_dense(t), eps)])
        for m in fast:
            assert mat_mul(m, to_dense(s)) == mat_scale(mat_mul(to_dense(t), m), eps)
        assert _span_signature(fast, n) == _span_signature(dense, n)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(0) == 0
    assert rational_sqrt(2) is None
    assert rational_sqrt(-4) is None


def test_zero_pivot_gram_keeps_its_inertia_and_congruence():
    # Adding row and column 1 to the zero pivot leaves it zero again
    # (0 + 2*1 - 2); the pivot routine must subtract them instead.
    gram = as_matrix([[0, 1], [1, -2]])
    assert Metric(Signature(1, 1), gram).gram == gram
    e, d = congruence_diagonal(gram)
    assert sorted(1 if v > 0 else -1 for v in d) == [-1, 1]
    diag = as_matrix([[d[i] if i == j else 0 for j in range(2)] for i in range(2)])
    assert mat_mul(as_matrix(e), mat_mul(gram, transpose(as_matrix(e)))) == diag
