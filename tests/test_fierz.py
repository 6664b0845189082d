"""Rank-one endomorphisms, covariant expansion, and the quadratic identities."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from grafclifford.bilinear import Pairing, admissible_pairings, b_eval
from grafclifford.errors import DimensionMismatch, StructureError, UnsupportedSignature
from grafclifford.exterior import Form, Signature, grade_involution, grade_project
from grafclifford.fierz import (
    _bilinear_profile,
    _profile_gather,
    _result,
    check_fierz,
    covariant,
    endo_E,
    fundamental_identity_holds,
    reconstruct_check,
    unit_table,
)
from grafclifford.classify import majorana_project
from grafclifford.graf import graf_product
from grafclifford.linalg import SignedPerm
from grafclifford.matrixrep import build_rep


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
    rep12, pr12, rep90, pr90, rep04, pr04
):
    rng = random.Random(33)
    for rep, pairing in ((rep12, pr12), (rep90, pr90), (rep04, pr04)):
        alpha = oracles.rand_vector(rng, rep.d)
        beta = oracles.rand_vector(rng, rep.d)
        cov = covariant(rep, pairing, alpha, beta)
        pref = Fraction(rep.abs.k_const, 1 << rep.signature.n)
        assert cov[0].scalar_part() == pref * b_eval(pairing, alpha, beta)


def _tamperings(cov):
    """Covariants that must fail reassembly, each wrong in one place.

    Per nonzero component: doubled, one blade's sign flipped, the unit
    weight negated, and (where it has an odd grade) the twist flipped.
    """
    out = []
    for u, comp in enumerate(cov):
        if comp.is_zero():
            continue
        mask, c = next(iter(comp.mask_items()))
        flipped = comp - Form.from_mask_dict(comp.signature, {mask: 2 * c})
        wrong = [comp.scale(2), flipped, -comp]
        if any(k % 2 for k in comp.grades()):
            wrong.append(grade_involution(comp))
        for bad in wrong:
            out.append(cov[:u] + (bad,) + cov[u + 1 :])
    return out


def test_components_reassemble_the_endomorphism(
    rep12, pr12, rep90, pr90, rep04, pr04
):
    rng = random.Random(34)
    for rep, pairing in ((rep12, pr12), (rep90, pr90), (rep04, pr04)):
        for _ in range(3):
            alpha = oracles.rand_vector(rng, rep.d)
            beta = oracles.rand_vector(rng, rep.d)
            thirds = tuple(Fraction(c, 3) for c in beta)
            for a, b in ((alpha, beta), (alpha, thirds)):
                cov = covariant(rep, pairing, a, b)
                assert reconstruct_check(rep, pairing, cov, a, b)
                tampered = _tamperings(cov)
                assert len(tampered) >= 3 * len(cov)
                for bad in tampered:
                    assert not reconstruct_check(rep, pairing, bad, a, b)
            with pytest.raises(StructureError):
                reconstruct_check(rep, pairing, (), alpha, beta)
            with pytest.raises(DimensionMismatch):
                reconstruct_check(rep, pairing, cov, alpha[:-1], beta)
    # real (1,2) spinors are Majorana projections, with half-integer entries
    halves = 0
    for pairing in admissible_pairings(rep12):
        for _ in range(3):
            a = majorana_project(rep12, oracles.rand_vector(rng, rep12.d))
            b = majorana_project(rep12, oracles.rand_vector(rng, rep12.d))
            halves += any(type(c) is Fraction for c in a + b)
            cov = covariant(rep12, pairing, a, b)
            assert reconstruct_check(rep12, pairing, cov, a, b)
            for bad in _tamperings(cov):
                assert not reconstruct_check(rep12, pairing, bad, a, b)
    assert halves
    foreign = (Form.zero(Signature(9, 0)),) * len(cov)
    with pytest.raises(DimensionMismatch):
        reconstruct_check(rep12, pairing, foreign, a, b)


def test_the_fierz_path_constructs_no_fraction(monkeypatch, rep90, pr90, rep04, pr04, rep12, pr12):
    """covariant, reconstruct_check and check_fierz on integer spinors run on numerators alone.

    Every Fraction construction is counted: ``Fraction.__new__``, and
    ``Fraction._from_coprime_ints`` where the running Python has it
    (3.12 on), which builds the results of Fraction arithmetic without
    ``__new__``.
    """
    rng = random.Random(39)
    samples = [
        (rep, pairing, [oracles.rand_vector(rng, rep.d) for _ in range(4)])
        for rep, pairing, count in ((rep90, pr90, 2), (rep04, pr04, 4), (rep12, pr12, 8))
        for _ in range(count)
    ]
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, numerator, denominator):
            built.append((numerator, denominator))
            return coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    passed = []
    for rep, pairing, (a1, b1, a2, b2) in samples:
        cov11 = covariant(rep, pairing, a1, b1)
        cov22 = covariant(rep, pairing, a2, b2)
        cov12 = covariant(rep, pairing, a1, b2)
        passed.append(reconstruct_check(rep, pairing, cov11, a1, b1))
        verdict = check_fierz(rep, pairing, cov11, cov22, cov12, b_eval(pairing, a2, b1))
        passed.append(verdict["passed"])
    monkeypatch.undo()
    assert built == []
    assert all(passed)


def _profile_values(rep, pairing, a, b):
    """The profile's coefficients: each nonzero int numerator over the one denominator."""
    num, den = _bilinear_profile(rep, pairing, a, b, _profile_gather(rep))
    assert den >= 1 and all(type(v) is int and v for v in num.values())
    return {lane: Fraction(v, den) for lane, v in num.items()}


def test_bilinear_profile_matches_the_dense_blade_oracle(
    rep12, pairings12, rep90, pr90, rep04, pr04
):
    rng = random.Random(37)
    cases = [(rep90, pr90), (rep04, pr04)] + [(rep12, pairing) for pairing in pairings12]
    for rep, pairing in cases:
        assert all(type(v) is int for row in oracles.to_dense(pairing.gram) for v in row)
        zero = (0,) * rep.d
        assert _bilinear_profile(rep, pairing, zero, zero, _profile_gather(rep)) == ({}, 1)
        for a, b in ((zero[:-1], zero), (zero, zero + (0,))):
            with pytest.raises(DimensionMismatch):
                _bilinear_profile(rep, pairing, a, b, _profile_gather(rep))
        assert oracles.bilinear_profile(rep, pairing, zero, zero) == {}
        for _ in range(3):
            alpha = oracles.rand_vector(rng, rep.d)
            w = oracles.rand_vector(rng, rep.d)
            for a, b in ((alpha, alpha), (alpha, w)):
                assert _bilinear_profile(rep, pairing, a, b, _profile_gather(rep))[1] == 1
                prof = _profile_values(rep, pairing, a, b)
                assert prof == oracles.bilinear_profile(rep, pairing, a, b)
            thirds = tuple(Fraction(c, 3) for c in w)
            prof = _profile_values(rep, pairing, alpha, thirds)
            assert prof == oracles.bilinear_profile(rep, pairing, alpha, thirds)
    # real (1,2) spinors are Majorana projections, with half-integer entries
    for pairing in pairings12:
        for _ in range(4):
            a = majorana_project(rep12, oracles.rand_vector(rng, rep12.d))
            b = majorana_project(rep12, oracles.rand_vector(rng, rep12.d))
            assert any(type(c) is Fraction for c in a + b)
            for x, y in ((a, a), (a, b)):
                prof = _profile_values(rep12, pairing, x, y)
                assert prof == oracles.bilinear_profile(rep12, pairing, x, y)
    # the smallest representations; on (0,0) the table holds a single index
    for sig in (Signature(0, 0), Signature(1, 0)):
        rep = build_rep(sig)
        for pairing in admissible_pairings(rep):
            for a, b in (((3,) * rep.d, (-2,) * rep.d), ((Fraction(1, 2),) * rep.d, (5,) * rep.d)):
                prof = _profile_values(rep, pairing, a, b)
                assert prof == oracles.bilinear_profile(rep, pairing, a, b)


def test_covariant_matches_ordered_tuple_expansion(rep12, pairings12):
    # both admissible pairings: the D-component weight is eps in D^T A D = eps A
    rep30 = build_rep(Signature(3, 0))
    pairings30 = admissible_pairings(rep30)
    cases = [(rep12, p) for p in pairings12] + [(rep30, p) for p in pairings30]
    assert len(cases) == 4
    rng = random.Random(35)
    for rep, pairing in cases:
        for _ in range(2):
            alpha = oracles.rand_vector(rng, rep.d)
            beta = oracles.rand_vector(rng, rep.d)
            cov = covariant(rep, pairing, alpha, beta)
            oracle = oracles.ordered_tuple_covariant(rep, pairing, alpha, beta)
            assert cov == tuple(oracle)


def test_quadratic_identities_normal_case(rep90, pr90):
    rng = random.Random(36)
    for _ in range(2):
        quad = [oracles.rand_vector(rng, rep90.d, box=3) for _ in range(4)]
        verdict = oracles.fierz_on_spinors(rep90, pr90, *quad)
        assert verdict["case"] == "normal"
        assert [r["identity"] for r in verdict["results"]] == ["normal"]
        assert verdict["passed"]


def test_quadratic_identities_almost_complex_case(rep12, pr12):
    rng = random.Random(37)
    for project in (True, False):
        for _ in range(3):
            quad = [oracles.rand_vector(rng, rep12.d) for _ in range(4)]
            if project:
                quad = [majorana_project(rep12, v) for v in quad]
            verdict = oracles.fierz_on_spinors(rep12, pr12, *quad)
            assert verdict["case"] == "almost_complex"
            assert [r["identity"] for r in verdict["results"]] == [
                "almost_complex_i",
                "almost_complex_ii",
            ]
            assert verdict["passed"]


def test_quadratic_identities_quaternionic_case(rep04, pr04):
    rng = random.Random(38)
    for _ in range(4):
        quad = [oracles.rand_vector(rng, rep04.d) for _ in range(4)]
        verdict = oracles.fierz_on_spinors(rep04, pr04, *quad)
        assert verdict["case"] == "quaternionic"
        assert [r["identity"] for r in verdict["results"]] == [
            "quaternionic_scalar",
            "quaternionic_vector_1",
            "quaternionic_vector_2",
            "quaternionic_vector_3",
        ]
        assert verdict["passed"]


def _buildable(max_n: int):
    """Every buildable representation up to max_n, both volume signs for odd n."""
    for n in range(max_n + 1):
        for p in range(n, -1, -1):
            for volume_sign in (1, -1) if n % 2 else (1,):
                try:
                    rep = build_rep(Signature(p, n - p), volume_sign)
                except UnsupportedSignature:
                    continue
                yield rep


def test_every_pairing_up_to_dimension_eight_on_unprojected_spinors():
    # every buildable signature with n <= 8, both volume signs and every
    # admissible pairing: the fundamental identity, the reassembly and the
    # Fierz identities all hold exactly on integer spinors of all of S
    rng = random.Random(39)
    cases = 0
    for rep in _buildable(8):
        for pairing in admissible_pairings(rep):
            cases += 1
            a1, b1, a2, b2 = (oracles.rand_vector(rng, rep.d, box=3) for _ in range(4))
            where = (rep.signature.p, rep.signature.q, rep.volume_sign, pairing.content_hash())
            assert fundamental_identity_holds(pairing, a1, b1, a2, b2), where
            covs = [covariant(rep, pairing, a, b) for a, b in ((a1, b1), (a2, b2), (a1, b2))]
            assert reconstruct_check(rep, pairing, covs[0], a1, b1), where
            assert reconstruct_check(rep, pairing, covs[1], a2, b2), where
            verdict = check_fierz(rep, pairing, *covs, b_eval(pairing, a2, b1))
            assert verdict["passed"], (where, verdict)
            assert len(verdict["results"]) == len(covs[0]) == 1 + len(rep.structure.units)
    assert cases == 77


def test_the_real_structure_weight_is_the_isotropy_of_the_split():
    # where D^2 = +Id, D splits the spinors, and D^T A D = eps_D A is the
    # orthogonal split (eps_D = +1) or the isotropic one (eps_D = -1)
    seen = set()
    for rep in _buildable(8):
        st = rep.structure
        if st.d_square_sign != 1:
            continue
        for pairing in admissible_pairings(rep):
            table = unit_table(rep, pairing)
            eps_d = table.weights[table.units.index(st.D)]
            assert (eps_d == 1) == (pairing.isotropy == 1), (rep.signature, pairing.isotropy)
            seen.add(eps_d)
    assert seen == {1, -1}


def test_unit_table_constants_from_the_structure_maps():
    for rep in _buildable(9):
        st = rep.structure
        pairing = admissible_pairings(rep)[0]
        table = unit_table(rep, pairing)
        assert table.units[1:] == st.units
        assert table.units[0].scalar_value() == 1
        # D anticommutes with every generator, so its twist is the grade
        # involution; the H_i commute with every generator
        assert table.twists == (1,) + (-1,) * (st.D is not None) + (1,) * (3 * (st.H is not None))
        assert table.weights[0] == 1
        for u, row in enumerate(table.products):
            for v, (s, w) in enumerate(row):
                assert table.units[u].compose(table.units[v]) == table.units[w].times(s)
        if st.D is not None:
            assert table.products[1][1] == (st.d_square_sign, 0)
        if st.H is not None:
            assert [row[0] for row in table.products] == [(1, 0), (1, 1), (1, 2), (1, 3)]
            assert table.products[1][2] == (1, 3) and table.products[2][1] == (-1, 3)
            assert all(table.products[i][i] == (-1, 0) for i in (1, 2, 3))


def _with_structure_maps(signature, **maps):
    """A fresh representation whose cached structure maps have ``maps`` replaced."""
    rep = build_rep(signature)
    rep.structure = replace(rep.structure, **maps)
    return rep


def test_unit_table_refuses_maps_that_break_the_relations(rep12, pr12, rep04, pr04):
    # the first generator commutes with itself and anticommutes with the others
    with pytest.raises(StructureError, match="commutes"):
        unit_table(_with_structure_maps(Signature(1, 2), D=rep12.perms[0]), pr12)
    h1, h2, _ = rep04.structure.H
    with pytest.raises(StructureError, match="closed"):
        unit_table(_with_structure_maps(Signature(0, 4), H=(h1, h2, h1)), pr04)
    shift = SignedPerm(tuple((i + 1) % rep04.d for i in range(rep04.d)), (1,) * rep04.d)
    with pytest.raises(StructureError, match="isometr"):
        unit_table(rep04, Pairing(shift, 1, 1))


def test_almost_complex_identities_by_hand(rep12, pr12):
    # with sigma(x) = D^-1 x D, the grade involution here, the two
    # identities read a c + s_D sigma(b) e = B psi0 and sigma(a) e + b c =
    # B psi1 on all of S; the grade involution of the whole products b e
    # and a e agrees with them only when e is even (projected spinors)
    rng = random.Random(40)
    a1, b1, a2, b2 = (oracles.rand_vector(rng, rep12.d) for _ in range(4))
    a, b = covariant(rep12, pr12, a1, b1)
    c, e = covariant(rep12, pr12, a2, b2)
    psi0, psi1 = covariant(rep12, pr12, a1, b2)
    factor = b_eval(pr12, a2, b1)
    met, s_d = rep12.metric, rep12.structure.d_square_sign
    assert graf_product(a, c, met) + graf_product(grade_involution(b), e, met).scale(s_d) == psi0.scale(factor)
    assert graf_product(grade_involution(a), e, met) + graf_product(b, c, met) == psi1.scale(factor)
    assert grade_involution(graf_product(a, e, met)) + graf_product(b, c, met) != psi1.scale(factor)


def test_identity_result_reporting_shapes(rep12):
    sig = rep12.signature
    residual = Form.from_mask_dict(sig, {0: 2, 0b011: -1})
    bad = _result("demo", residual)
    assert set(bad) == {"identity", "passed", "residual_by_grade"}
    assert not bad["passed"]
    by_grade = bad["residual_by_grade"]
    assert set(by_grade) == {"0", "2"}
    assert Form.from_json_obj(sig, by_grade["0"]).scalar_part() == 2
    assert bad["identity"] == "demo"
    assert bad["passed"] is False
    assert by_grade == {
        "0": [{"blade": [], "coeff": "2"}],
        "2": [{"blade": [1, 2], "coeff": "-1"}],
    }
    assert _result("demo", Form.zero(sig)) == {
        "identity": "demo",
        "passed": True,
        "residual_by_grade": {},
    }


def test_a_failing_fierz_verdict_renders_the_doubled_component(rep12, pr12, rep04, pr04):
    # doubling component w of genuine covariants E12 leaves the residual
    # factor f_w - 2 factor f_w = -factor f_w in identity w alone
    rng = random.Random(41)
    for rep, pairing in ((rep12, pr12), (rep04, pr04)):
        factor = 0
        while not factor:
            a1, b1, a2, b2 = (oracles.rand_vector(rng, rep.d) for _ in range(4))
            factor = b_eval(pairing, a2, b1)
        pairs = ((a1, b1), (a2, b2), (a1, b2))
        cov11, cov22, cov12 = (covariant(rep, pairing, a, b) for a, b in pairs)
        for mismatched in ((cov11[1:], cov22, cov12), (cov11, cov22, cov12 + cov12[:1])):
            with pytest.raises(StructureError, match="do not match the commutant units"):
                check_fierz(rep, pairing, *mismatched, factor)
        doubled = [w for w, f in enumerate(cov12) if not f.is_zero()]
        assert doubled
        for w in doubled:
            bad12 = cov12[:w] + (cov12[w].scale(2),) + cov12[w + 1 :]
            verdict = check_fierz(rep, pairing, cov11, cov22, bad12, factor)
            assert verdict["case"] == rep.abs.case
            assert verdict["passed"] is False
            residual = cov12[w].scale(-factor)
            by_grade = {
                str(k): grade_project(residual, k).to_json_obj() for k in sorted(residual.grades())
            }
            for u, result in enumerate(verdict["results"]):
                assert result["passed"] is (u != w)
                assert result["residual_by_grade"] == (by_grade if u == w else {})