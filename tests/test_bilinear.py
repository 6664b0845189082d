"""Admissible pairings: solving, sign metadata, transpose law, vanishing ranks."""

import hashlib
import random

import pytest

import oracles
from grafclifford.bilinear import (
    Pairing,
    admissible_pairings,
    b_eval,
    solve_pairing,
    standard_pairing,
    table_sigma,
    table_tau,
)
from grafclifford.errors import DimensionMismatch, StructureError
from grafclifford.exterior import Signature
from grafclifford.fierz import _bilinear_profile, _profile_gather
from grafclifford.linalg import SignedPerm, mat_mul, mat_scale
from grafclifford.matrixrep import (
    CASE_ALMOST_COMPLEX,
    CASE_NORMAL,
    CASE_QUATERNIONIC,
    build_rep,
)


def test_solved_pairings_verify_and_carry_correct_signs(rep12, rep90, rep04):
    for rep in (rep12, rep90, rep04):
        pairings = admissible_pairings(rep)
        assert pairings
        for pairing in pairings:
            pairing.verify(rep)
            gram = oracles.to_dense(pairing.gram)
            assert oracles.transpose(gram) == mat_scale(gram, pairing.sigma)
            sig = rep.signature
            assert (pairing.sigma, pairing.tau) == (table_sigma(sig), table_tau(sig))


def test_computed_signs_match_the_published_tables(rep12, rep90, rep04):
    expected = {(1, 2): (-1, -1), (9, 0): (1, 1), (0, 4): (1, 1)}
    for rep in (rep12, rep90, rep04):
        pairing = standard_pairing(rep)
        sig = rep.signature
        assert (pairing.sigma, pairing.tau) == expected[(sig.p, sig.q)]
        assert table_sigma(sig) == pairing.sigma
        assert table_tau(sig) == pairing.tau


def test_two_pairings_on_the_spinor_signature(rep12, pairings12):
    assert len(pairings12) == 2
    assert {p.isotropy for p in pairings12} == {1, -1}
    for p in pairings12:
        assert (p.sigma, p.tau) == (-1, -1)
    preferred = standard_pairing(rep12)
    assert preferred.isotropy == 1


def test_pinor_pairing_is_the_identity_gram(rep90, pr90):
    assert oracles.to_dense(pr90.gram) == oracles.identity(rep90.d)
    assert pr90.isotropy is None
    assert b_eval(pr90, (1,) + (0,) * 15, (1,) + (0,) * 15) == 1


def test_b_eval_symmetry_and_dimension_check(rep12, pr12, rep90, pr90):
    rng = random.Random(28)
    for rep, pairing in ((rep12, pr12), (rep90, pr90)):
        for _ in range(10):
            x = oracles.rand_vector(rng, rep.d)
            y = oracles.rand_vector(rng, rep.d)
            assert b_eval(pairing, x, y) == pairing.sigma * b_eval(pairing, y, x)
    with pytest.raises(DimensionMismatch):
        b_eval(pr12, (1, 0), (0, 1))


def test_transpose_law_exhaustive_over_blades(rep12, pairings12, rep90, pr90, rep04, pr04):
    for pairing in pairings12:
        assert oracles.transpose_check(pairing, rep12)
    assert oracles.transpose_check(pr90, rep90)
    assert oracles.transpose_check(pr04, rep04)


def test_blade_transpose_sign_consistency(rep12, pr12):
    a = oracles.to_dense(pr12.gram)
    for mask in range(1 << 3):
        m = oracles.blade_matrix(rep12, mask)
        k = mask.bit_count()
        sign = oracles.blade_transpose_sign(pr12.tau, k)
        assert mat_mul(oracles.transpose(m), a) == mat_scale(mat_mul(a, m), sign)


def test_vanishing_ranks_match_observed_profiles(rep12, pr12, rep90, pr90):
    assert oracles.vanishing_ranks(pr12, 3) == {0, 3}
    assert oracles.vanishing_ranks(pr90, 9) == {2, 3, 6, 7}
    rng = random.Random(29)
    for rep, pairing, dead in ((rep12, pr12, {0, 3}), (rep90, pr90, {2, 3, 6, 7})):
        for _ in range(5):
            vec = oracles.rand_vector(rng, rep.abs.rep_dim)
            prof = _bilinear_profile(rep, pairing, vec, vec, _profile_gather(rep))
            seen = {mask.bit_count() for mask, val in prof.items() if val}
            assert not (seen & dead)


def test_wrong_type_pairings_for_the_pinor_signature(rep90):
    assert solve_pairing(rep90, -1) == []


def test_pairing_json_and_hash_round_trip(pr12):
    clone = oracles.pairing_from_json(pr12.to_json())
    assert clone.gram == pr12.gram
    assert (clone.sigma, clone.tau, clone.isotropy) == (pr12.sigma, pr12.tau, pr12.isotropy)
    assert clone.content_hash() == pr12.content_hash()
    assert len(pr12.content_hash()) == 16


def test_content_hash_is_the_hashlib_sha256_prefix_of_the_canonical_json():
    for p, q in ((9, 0), (1, 2), (0, 4), (4, 6)):
        for pairing in admissible_pairings(build_rep(Signature(p, q))):
            want = hashlib.sha256(pairing.to_json().encode()).hexdigest()[:16]
            assert pairing.content_hash() == want, (p, q)


def test_pairing_verify_rejects_wrong_matrices(rep12, pr12):
    with pytest.raises(StructureError):
        Pairing(SignedPerm.identity(rep12.d), sigma=-1, tau=-1).verify(rep12)
    with pytest.raises(DimensionMismatch):
        Pairing(SignedPerm.identity(2), sigma=1, tau=1).verify(rep12)


# (p, q), volume signs, case, D^2 sign, isotropy of each admissible pairing
DENSE_DERIVATION_CASES = (
    ((3, 0), (1, -1), CASE_ALMOST_COMPLEX, -1, [None, None]),
    ((1, 2), (1, -1), CASE_ALMOST_COMPLEX, 1, [1, -1]),
    ((1, 1), (1,), CASE_NORMAL, None, [-1]),
    ((2, 2), (1,), CASE_NORMAL, None, [1]),
    ((2, 0), (1,), CASE_NORMAL, None, [None]),
    ((0, 2), (1,), CASE_QUATERNIONIC, None, [None]),
    ((0, 4), (1,), CASE_QUATERNIONIC, None, [1]),
    ((1, 5), (1,), CASE_QUATERNIONIC, None, [-1]),
    ((0, 3), (1, -1), CASE_QUATERNIONIC, None, [None]),
)


def _dense(sp):
    return None if sp is None else oracles.to_dense(sp)


def test_structure_maps_and_pairings_equal_the_dense_derivations():
    for (p, q), volume_signs, case, dsq, isotropies in DENSE_DERIVATION_CASES:
        for volume_sign in volume_signs:
            rep = build_rep(Signature(p, q), volume_sign)
            st = rep.structure
            assert (rep.abs.case, st.d_square_sign) == (case, dsq), (p, q, volume_sign)
            h = None if st.H is None else tuple(oracles.to_dense(x) for x in st.H)
            assert (_dense(st.J), _dense(st.D), h) == oracles.structure_oracle(rep)
            pairings = admissible_pairings(rep)
            assert [pr.isotropy for pr in pairings] == isotropies, (p, q, volume_sign)
            assert [
                (oracles.to_dense(pr.gram), pr.sigma, pr.tau, pr.isotropy) for pr in pairings
            ] == oracles.admissible_pairings_oracle(rep)
            for tau in (1, -1):
                assert [
                    (oracles.to_dense(pr.gram), pr.sigma) for pr in solve_pairing(rep, tau)
                ] == oracles.solve_pairing_oracle(rep, tau)
