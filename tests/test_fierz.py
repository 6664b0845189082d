"""Rank-one endomorphisms, covariant expansion, and the quadratic identities."""

import random
from fractions import Fraction

import pytest

import oracles
from grafclifford.bilinear import admissible_pairings, b_eval
from grafclifford.errors import DimensionMismatch, StructureError
from grafclifford.exterior import Form, Signature
from grafclifford.fierz import (
    Covariant,
    FierzVerdict,
    IdentityResult,
    _bilinear_profile,
    check_fierz,
    covariant,
    endo_E,
    fundamental_identity_holds,
    reconstruct_check,
)
from grafclifford.classify import majorana_project
from grafclifford.matrixrep import build_rep, build_structure


def _unit(d, i):
    return tuple(1 if j == i else 0 for j in range(d))


def test_endomorphism_action_on_basis_vectors(rep12, pr12):
    rng = random.Random(31)
    alpha = oracles.rand_vector(rng, rep12.d)
    beta = oracles.rand_vector(rng, rep12.d)
    e = endo_E(pr12, alpha, beta)
    for j in range(rep12.d):
        gamma = _unit(rep12.d, j)
        weight = b_eval(pr12, gamma, beta)
        assert oracles.mat_vec(e, gamma) == tuple(weight * a for a in alpha)
    with pytest.raises(DimensionMismatch):
        endo_E(pr12, alpha[:-1], beta)


def test_fundamental_identity_on_random_quadruples(rep12, pr12, rep90, pr90, rep04, pr04):
    rng = random.Random(32)
    for rep, pairing in ((rep12, pr12), (rep90, pr90), (rep04, pr04)):
        for _ in range(5):
            quad = [oracles.rand_vector(rng, rep.d) for _ in range(4)]
            assert fundamental_identity_holds(pairing, *quad)


def test_covariant_scalar_component_is_the_pairing_value(
    rep12, st12, pr12, rep90, st90, pr90, rep04, st04, pr04
):
    rng = random.Random(33)
    for rep, st, pairing in ((rep12, st12, pr12), (rep90, st90, pr90), (rep04, st04, pr04)):
        alpha = oracles.rand_vector(rng, rep.d)
        beta = oracles.rand_vector(rng, rep.d)
        cov = covariant(rep, st, pairing, alpha, beta)
        pref = Fraction(rep.abs.k_const, 1 << rep.signature.n)
        assert cov.components[0].scalar_part() == pref * b_eval(pairing, alpha, beta)


def test_covariant_structure_case_must_match(rep12, st90, pr12):
    with pytest.raises(StructureError):
        covariant(rep12, st90, pr12, (1, 0, 0, 0), (0, 1, 0, 0))


def test_components_reassemble_the_endomorphism(
    rep12, st12, pr12, rep90, st90, pr90, rep04, st04, pr04
):
    rng = random.Random(34)
    for rep, st, pairing in ((rep12, st12, pr12), (rep90, st90, pr90), (rep04, st04, pr04)):
        for _ in range(3):
            alpha = oracles.rand_vector(rng, rep.d)
            beta = oracles.rand_vector(rng, rep.d)
            cov = covariant(rep, st, pairing, alpha, beta)
            assert reconstruct_check(rep, st, pairing, cov, alpha, beta)
            tampered = Covariant(
                cov.case, (cov.components[0].scale(2),) + cov.components[1:]
            )
            assert not reconstruct_check(rep, st, pairing, tampered, alpha, beta)


def test_bilinear_profile_matches_the_dense_blade_oracle(
    rep12, st12, pairings12, rep90, pr90, rep04, pr04
):
    rng = random.Random(37)
    cases = [(rep90, pr90), (rep04, pr04)] + [(rep12, pairing) for pairing in pairings12]
    for rep, pairing in cases:
        assert all(type(v) is int for row in oracles.to_dense(pairing.gram) for v in row)
        zero = (0,) * rep.d
        assert _bilinear_profile(rep, pairing, zero, zero) == {}
        for a, b in ((zero[:-1], zero), (zero, zero + (0,))):
            with pytest.raises(DimensionMismatch):
                _bilinear_profile(rep, pairing, a, b)
        assert oracles.bilinear_profile(rep, pairing, zero, zero) == {}
        for _ in range(3):
            alpha = oracles.rand_vector(rng, rep.d)
            w = oracles.rand_vector(rng, rep.d)
            for a, b in ((alpha, alpha), (alpha, w)):
                prof = _bilinear_profile(rep, pairing, a, b)
                assert prof == oracles.bilinear_profile(rep, pairing, a, b)
                assert all(type(v) is int for v in prof.values())
            thirds = tuple(Fraction(c, 3) for c in w)
            assert _bilinear_profile(rep, pairing, alpha, thirds) == oracles.bilinear_profile(
                rep, pairing, alpha, thirds
            )
    # real (1,2) spinors are Majorana projections, with half-integer entries
    for pairing in pairings12:
        for _ in range(4):
            a = majorana_project(rep12, st12, oracles.rand_vector(rng, rep12.d))
            b = majorana_project(rep12, st12, oracles.rand_vector(rng, rep12.d))
            assert any(type(c) is Fraction for c in a + b)
            for x, y in ((a, a), (a, b)):
                assert _bilinear_profile(rep12, pairing, x, y) == oracles.bilinear_profile(
                    rep12, pairing, x, y
                )
    # the smallest representations; on (0,0) the table holds a single index
    for sig in (Signature(0, 0), Signature(1, 0)):
        rep = build_rep(sig)
        for pairing in admissible_pairings(rep, build_structure(rep)):
            for a, b in (((3,) * rep.d, (-2,) * rep.d), ((Fraction(1, 2),) * rep.d, (5,) * rep.d)):
                assert _bilinear_profile(rep, pairing, a, b) == oracles.bilinear_profile(
                    rep, pairing, a, b
                )


def test_covariant_matches_ordered_tuple_expansion(rep12, st12, pr12):
    rng = random.Random(35)
    for _ in range(4):
        alpha = oracles.rand_vector(rng, rep12.d)
        beta = oracles.rand_vector(rng, rep12.d)
        cov = covariant(rep12, st12, pr12, alpha, beta)
        oracle = oracles.ordered_tuple_covariant(rep12, st12, pr12, alpha, beta)
        assert tuple(cov) == tuple(oracle)


def test_quadratic_identities_normal_case(rep90, st90, pr90):
    rng = random.Random(36)
    for _ in range(2):
        quad = [oracles.rand_vector(rng, rep90.d, box=3) for _ in range(4)]
        verdict = check_fierz(rep90, st90, pr90, *quad)
        assert verdict.case == "normal"
        assert [r.identity for r in verdict.results] == ["normal"]
        assert verdict.passed


def test_quadratic_identities_almost_complex_case(rep12, st12, pr12):
    rng = random.Random(37)
    for _ in range(5):
        quad = [
            majorana_project(rep12, st12, oracles.rand_vector(rng, rep12.d))
            for _ in range(4)
        ]
        verdict = check_fierz(rep12, st12, pr12, *quad)
        assert verdict.case == "almost_complex"
        assert [r.identity for r in verdict.results] == [
            "almost_complex_i",
            "almost_complex_ii",
        ]
        assert verdict.passed


def test_quadratic_identities_quaternionic_case(rep04, st04, pr04):
    rng = random.Random(38)
    for _ in range(4):
        quad = [oracles.rand_vector(rng, rep04.d) for _ in range(4)]
        verdict = check_fierz(rep04, st04, pr04, *quad)
        assert verdict.case == "quaternionic"
        assert [r.identity for r in verdict.results] == [
            "quaternionic_scalar",
            "quaternionic_vector_1",
            "quaternionic_vector_2",
            "quaternionic_vector_3",
        ]
        assert verdict.passed


def test_identity_result_reporting_shapes(rep12):
    sig = rep12.signature
    residual = Form.from_mask_dict(sig, {0: 2, 0b011: -1})
    bad = IdentityResult("demo", residual.is_zero(), residual)
    assert not bad.passed
    by_grade = bad.residual_by_grade()
    assert set(by_grade) == {0, 2}
    assert by_grade[0].scalar_part() == 2
    obj = FierzVerdict("normal", (bad,)).to_json_obj()
    assert obj["case"] == "normal"
    assert obj["passed"] is False
    assert obj["results"][0]["identity"] == "demo"
    assert set(obj["results"][0]["residual_by_grade"]) == {"0", "2"}