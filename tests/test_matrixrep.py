"""Matrix representations: generators, blade operators, commutant structure."""

import random

import pytest

import oracles
from grafclifford import matrixrep
from grafclifford.bilinear import admissible_pairings
from grafclifford.errors import StructureError, UnsupportedSignature
from grafclifford.exterior import Form, Signature
from grafclifford.graf import graf_product
from grafclifford.linalg import SignedPerm, mat_mul, mat_scale
from grafclifford.matrixrep import (
    CASE_ALMOST_COMPLEX,
    CASE_NORMAL,
    CASE_QUATERNIONIC,
    abs_type,
    build_rep,
    build_structure,
    d_square_target,
    verify_generators,
)
from oracles import lambda_form, mat_add

SIG12 = Signature(1, 2)
SIG90 = Signature(9, 0)
SIG04 = Signature(0, 4)


def test_abs_type_for_the_three_geometries():
    t12 = abs_type(SIG12)
    assert (t12.case, t12.rep_dim, t12.commutant_dim) == (CASE_ALMOST_COMPLEX, 4, 2)
    t90 = abs_type(SIG90)
    assert (t90.case, t90.rep_dim, t90.commutant_dim) == (CASE_NORMAL, 16, 1)
    t04 = abs_type(SIG04)
    assert (t04.case, t04.rep_dim, t04.commutant_dim) == (CASE_QUATERNIONIC, 8, 4)
    assert t12.k_const == 2 and t90.k_const == 16 and t04.k_const == 2


def test_case_follows_the_mod8_class():
    for p in range(7):
        for q in range(7):
            if p + q > 9 or p + q == 0:
                continue
            t = abs_type(Signature(p, q))
            cls = (p - q) % 8
            if cls in (0, 1, 2):
                assert t.case == CASE_NORMAL
            elif cls in (3, 7):
                assert t.case == CASE_ALMOST_COMPLEX
            else:
                assert t.case == CASE_QUATERNIONIC


def test_generators_satisfy_the_clifford_relation(rep12, rep90, rep04):
    for rep in (rep12, rep90, rep04):
        verify_generators(rep.perms, rep.signature)
        gens = oracles.generators(rep)
        met = rep.metric
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                anti = mat_add(mat_mul(gi, gj), mat_mul(gj, gi))
                expected = mat_scale(oracles.identity(rep.d), 2 * met.entry(i + 1, j + 1))
                assert anti == expected
    swapped = (rep04.perms[1], rep04.perms[0]) + rep04.perms[2:]
    verify_generators(swapped, Signature(0, 4))
    with pytest.raises(StructureError):
        verify_generators((rep04.perms[0],) * 4, Signature(0, 4))
    with pytest.raises(StructureError):
        verify_generators(rep04.perms, Signature(2, 2))


def test_blade_matrix_is_the_ordered_generator_product(rep12, rep04, rep90):
    rng = random.Random(25)
    for rep in (rep12, rep04):
        masks = range(1 << rep.signature.n)
        for mask in masks:
            expected = oracles.identity(rep.d)
            for i in range(rep.signature.n):
                if mask >> i & 1:
                    expected = mat_mul(expected, oracles.generators(rep)[i])
            assert oracles.blade_matrix(rep, mask) == expected
    for _ in range(25):
        mask = rng.randrange(1 << 9)
        expected = oracles.identity(rep90.d)
        for i in range(9):
            if mask >> i & 1:
                expected = mat_mul(expected, oracles.generators(rep90)[i])
        assert oracles.blade_matrix(rep90, mask) == expected


def test_lambda_form_is_linear_and_respects_blades(rep12):
    rng = random.Random(26)
    for _ in range(10):
        f = oracles.rand_form(rng, SIG12)
        g = oracles.rand_form(rng, SIG12)
        lf, lg = lambda_form(rep12, f), lambda_form(rep12, g)
        assert lambda_form(rep12, f + g) == mat_add(lf, lg)
        for mask, coeff in f.mask_items():
            single = Form.from_mask_dict(SIG12, {mask: coeff})
            assert lambda_form(rep12, single) == mat_scale(oracles.blade_matrix(rep12, mask), coeff)


def test_lambda_form_of_rational_forms_is_the_blade_sum(rep12, rep04):
    rng = random.Random(28)
    for rep in (rep12, rep04):
        for _ in range(8):
            f = oracles.rand_form(rng, rep.signature, rational=True)
            expected = oracles.zeros(rep.d, rep.d)
            for mask, coeff in f.mask_items():
                expected = mat_add(expected, mat_scale(oracles.blade_matrix(rep, mask), coeff))
            assert lambda_form(rep, f) == expected
    g = oracles.rand_form(rng, SIG04)
    assert all(type(v) is int for row in lambda_form(rep04, g) for v in row)


def test_lambda_form_is_a_product_homomorphism(rep12, rep90, rep04):
    rng = random.Random(27)
    for rep in (rep12, rep90, rep04):
        met = rep.metric
        for _ in range(8):
            f = oracles.rand_form(rng, rep.signature)
            g = oracles.rand_form(rng, rep.signature)
            assert lambda_form(rep, graf_product(f, g, met)) == mat_mul(
                lambda_form(rep, f), lambda_form(rep, g)
            )


def test_volume_action_and_volume_sign(rep12, rep90):
    assert oracles.volume_matrix(rep90) == oracles.identity(rep90.d)
    rep90_neg = build_rep(SIG90, volume_sign=-1)
    assert oracles.volume_matrix(rep90_neg) == mat_scale(oracles.identity(rep90_neg.d), -1)
    j = oracles.volume_matrix(rep12)
    assert oracles.is_scalar_matrix(mat_mul(j, j)) == -1


def test_commutant_dimensions(rep12, rep90, rep04):
    assert len(rep12.commutant) == 2
    assert len(rep90.commutant) == 1
    assert len(rep04.commutant) == 4
    for rep in (rep12, rep90, rep04):
        for m in rep.commutant:
            m = oracles.to_dense(m)
            for g in oracles.generators(rep):
                assert mat_mul(m, g) == mat_mul(g, m)


def test_a_blade_table_checks_only_the_identity(monkeypatch):
    """Composed blades skip the signed-permutation check; the public constructor keeps it."""
    rep = build_rep(Signature(4, 4))
    rep._cache_sp.clear()
    identity = SignedPerm.identity(rep.d)
    checks = []
    check = SignedPerm.__post_init__

    def counted(self):
        checks.append(self)
        check(self)

    monkeypatch.setattr(SignedPerm, "__post_init__", counted)
    table = [rep.blade_sp(mask) for mask in range(1 << rep.signature.n)]
    assert checks == [identity]
    monkeypatch.undo()
    assert all(SignedPerm(sp.col, sp.sign) == sp for sp in table)
    # an orthogonal g with g^2 = s Id has g^T = s g
    for y, s in enumerate((1, 1, 1, 1, -1, -1, -1, -1)):
        g = table[1 << y]
        assert g.transpose() == g.times(s) and g.neg().compose(g).scalar_value() == -s
    with pytest.raises(ValueError):
        SignedPerm((0, 0), (1, 1))
    with pytest.raises(ValueError):
        SignedPerm((1, 0), (1, 2))


def test_commutant_is_solved_once_per_representation(monkeypatch):
    calls = []
    solve = matrixrep.solve_signed_perms

    def counted(d, constraints):
        calls.append(d)
        return solve(d, constraints)

    monkeypatch.setattr(matrixrep, "solve_signed_perms", counted)
    rep = build_rep(SIG04)
    structure = rep.structure
    assert calls == [rep.d]
    assert len(structure.H) == 3
    assert len(rep.commutant) == 4 and calls == [rep.d]
    assert rep.structure is structure


def test_a_solved_component_that_is_not_a_signed_permutation_is_refused(monkeypatch):
    solve = matrixrep.solve_signed_perms

    def unconstrained(d, constraints):
        # every entry its own component: a matrix with one nonzero entry
        return solve(d, [])

    rep = build_rep(SIG12)
    monkeypatch.setattr(matrixrep, "solve_signed_perms", unconstrained)
    with pytest.raises(StructureError, match="not a signed permutation"):
        build_structure(rep)
    with pytest.raises(StructureError, match="not a signed permutation"):
        build_rep(SIG04)


def test_structure_fields_by_case(rep12, rep90, rep04):
    st12, st90, st04 = rep12.structure, rep90.structure, rep04.structure
    assert rep90.abs.case == CASE_NORMAL
    assert st90.J is None and st90.D is None and st90.H is None
    assert st90.d_square_sign is None

    assert rep12.abs.case == CASE_ALMOST_COMPLEX
    j, d = oracles.to_dense(st12.J), oracles.to_dense(st12.D)
    assert j == oracles.volume_matrix(rep12)
    assert oracles.is_scalar_matrix(mat_mul(j, j)) == -1
    assert oracles.is_scalar_matrix(mat_mul(d, d)) == d_square_target(SIG12) == 1
    assert st12.d_square_sign == 1
    assert mat_mul(d, j) == mat_scale(mat_mul(j, d), -1)
    for g in oracles.generators(rep12):
        assert mat_mul(d, g) == mat_scale(mat_mul(g, d), -1)

    assert rep04.abs.case == CASE_QUATERNIONIC
    h1, h2, h3 = (oracles.to_dense(h) for h in st04.H)
    for h in (h1, h2, h3):
        assert oracles.is_scalar_matrix(mat_mul(h, h)) == -1
        for g in oracles.generators(rep04):
            assert mat_mul(h, g) == mat_mul(g, h)
    assert mat_mul(h1, h2) in (h3, mat_scale(h3, -1))
    assert mat_mul(h1, h2) == mat_scale(mat_mul(h2, h1), -1)


def test_d_square_target_only_in_almost_complex_case():
    assert d_square_target(SIG12) == 1
    assert d_square_target(Signature(3, 0)) == -1
    with pytest.raises(StructureError):
        d_square_target(SIG90)


def test_d_keeps_the_recorded_sign_convention_up_to_the_cap():
    # the recorded D is -(the first union-find component); the library
    # states it as a rule on its canonical basis, checked here past n = 8
    cases = 0
    for n in range(1, 13, 2):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            if abs_type(sig).case != CASE_ALMOST_COMPLEX:
                continue
            for volume_sign in (1, -1):
                rep = build_rep(sig, volume_sign)
                vol = rep.volume_sp()
                cons = [(g, g.neg(), 1) for g in rep.perms] + [(vol, vol.neg(), 1)]
                first = oracles.solve_twisted_system_reference(rep.d, cons)[0]
                assert oracles.to_dense(rep.structure.D) == mat_scale(first, -1)
                cases += 1
    assert cases == 42


def test_every_signature_inside_the_cap_builds_or_is_refused_by_name():
    refused = set()
    for n in range(13):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            try:
                rep = build_rep(sig)
            except UnsupportedSignature as exc:
                assert f"({p},{n - p})" in str(exc)
                refused.add((p, n - p))
                continue
            assert rep.d == abs_type(sig).rep_dim
            # every structure map and pairing gram is solved as a signed
            # permutation, and some pairing matches the published tables
            assert len(rep.structure.units) == rep.abs.commutant_dim - 1
            assert admissible_pairings(rep)
    assert refused == set()


def test_the_signatures_past_the_seed_ladder_are_block_products_with_cl08():
    # (0,q) = (0,q-8) (x) Cl(0,8) for q >= 10; (1,11) and (12,0) extend (0,10)
    block = matrixrep._definite_negative_gens(8)
    for q in (10, 11, 12):
        base = matrixrep._definite_negative_gens(q - 8)
        gens = matrixrep._definite_negative_gens(q)
        dense = [oracles.to_dense(g) for g in gens]
        w8 = oracles.identity(16)
        for e in block:
            w8 = mat_mul(w8, oracles.to_dense(e))
        want = [oracles.kron(oracles.to_dense(g), w8) for g in base]
        want += [oracles.kron(oracles.identity(base[0].dim), oracles.to_dense(e)) for e in block]
        assert dense == want
    expected = {(0, 10): (-1, 1), (0, 11): (1, -1), (0, 12): (1, 1), (1, 11): (1, 1), (12, 0): (1, 1)}
    for (p, q), signs in expected.items():
        for volume_sign in (1, -1) if (p + q) % 2 else (1,):
            rep = build_rep(Signature(p, q), volume_sign)
            assert rep.volume_sp().scalar_value() == (volume_sign if (p + q) % 2 else None)
            pairings = admissible_pairings(rep)
            assert [(pr.sigma, pr.tau) for pr in pairings] == [signs]


def test_volume_sign_validation():
    with pytest.raises(ValueError):
        build_rep(SIG90, volume_sign=2)
