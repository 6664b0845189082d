"""Acceptance suite: twelve exact-arithmetic criteria, one test (and one
pass/fail line under ``pytest -v``) per criterion.  Every assertion is an
exact equality over rationals — no tolerances anywhere."""

import json
import random
from fractions import Fraction

import pytest

import oracles
from grafclifford.bilinear import admissible_pairings, b_eval
from grafclifford.classify import (
    appendix_check,
    census,
    classify,
    covariants,
    geometry_of,
    majorana_project,
    reduced_verdict,
)
from grafclifford.errors import NotASpinor
from grafclifford.exterior import Form, Metric, Signature
from grafclifford.fierz import (
    _bilinear_profile,
    _profile_gather,
    covariant,
    fundamental_identity_holds,
    reconstruct_check,
)
from grafclifford.graf import (
    contracted_wedge,
    graf_product,
    lower_projection,
    projector_pm,
    truncated_product,
    volume_form,
    volume_square_sign,
)
from grafclifford.linalg import mat_mul, mat_scale
from oracles import lambda_form, mat_add

ALL_SIGNATURES = [
    Signature(p, n - p) for n in range(10) for p in range(n + 1)
]


def test_criterion_01_clifford_relation_and_associativity():
    for sig in ALL_SIGNATURES:
        met = Metric.standard(sig)
        unit = Form.unit(sig)
        for i in range(1, sig.n + 1):
            ei = Form.blade(sig, (i,))
            for j in range(1, sig.n + 1):
                ej = Form.blade(sig, (j,))
                anti = graf_product(ei, ej, met) + graf_product(ej, ei, met)
                assert anti == unit.scale(2 * met.entry(i, j))
    rng = random.Random(101)
    for sig in ALL_SIGNATURES:
        if sig.n not in (3, 9):
            continue
        met = Metric.standard(sig)
        for _ in range(100):
            f, g, h = (
                oracles.rand_homogeneous(rng, sig, rng.randint(0, sig.n))
                for _ in range(3)
            )
            left = graf_product(graf_product(f, g, met), h, met)
            right = graf_product(f, graf_product(g, h, met), met)
            assert left == right


def test_criterion_02_volume_square_sign_and_centrality():
    rng = random.Random(102)
    for sig in ALL_SIGNATURES:
        met = Metric.standard(sig)
        vol = volume_form(sig)
        sign = volume_square_sign(sig.p, sig.q)
        assert sign == (1 if (sig.p - sig.q) % 8 in (0, 1, 4, 5) else -1)
        assert graf_product(vol, vol, met) == Form.unit(sig).scale(sign)
        if sig.n % 2 == 1:
            for _ in range(5):
                f = oracles.rand_form(rng, sig)
                assert graf_product(vol, f, met) == graf_product(f, vol, met)


def test_criterion_03_truncation_projectors_on_9_0():
    sig = Signature(9, 0)
    met = Metric.standard(sig)
    rng = random.Random(103)
    for _ in range(100):
        h = oracles.rand_form(rng, sig, terms=6)
        g = oracles.rand_form(rng, sig, terms=6)
        for s in (1, -1):
            f = projector_pm(h, s, met)
            assert projector_pm(f, s, met) == f
            assert projector_pm(lower_projection(f).scale(2), s, met) == f
        tp = truncated_product(h, g, 1, met)
        assert projector_pm(tp, 1, met) == graf_product(
            projector_pm(h, 1, met), projector_pm(g, 1, met), met
        )


def test_criterion_04_representations_and_commutants(rep12, rep90, rep04):
    expected_commutant = {(1, 2): 2, (9, 0): 1, (0, 4): 4}
    rng = random.Random(104)
    for rep in (rep12, rep90, rep04):
        sig = rep.signature
        met = rep.metric
        assert rep.abs.commutant_dim == expected_commutant[(sig.p, sig.q)]
        for i, gi in enumerate(oracles.generators(rep)):
            for j, gj in enumerate(oracles.generators(rep)):
                anti = mat_add(mat_mul(gi, gj), mat_mul(gj, gi))
                assert anti == mat_scale(oracles.identity(rep.d), 2 * met.entry(i + 1, j + 1))
        for _ in range(100):
            f = oracles.rand_form(rng, sig, terms=5)
            g = oracles.rand_form(rng, sig, terms=5)
            assert lambda_form(rep, graf_product(f, g, met)) == mat_mul(
                lambda_form(rep, f), lambda_form(rep, g)
            )


def test_criterion_05_pairing_signs_and_transpose_law(
    rep12, pairings12, rep90, pr90, rep04, pr04
):
    expected = {(1, 2): (-1, -1), (9, 0): (1, 1), (0, 4): (1, 1)}
    jobs = [(rep12, p) for p in pairings12] + [(rep90, pr90), (rep04, pr04)]
    for rep, pairing in jobs:
        sig = rep.signature
        assert (pairing.sigma, pairing.tau) == expected[(sig.p, sig.q)]
        assert oracles.transpose_check(pairing, rep)


def test_criterion_06_fundamental_identity_and_reconstruction(
    rep12, pr12, rep90, pr90, rep04, pr04
):
    rng = random.Random(106)
    for rep, pairing in ((rep12, pr12), (rep90, pr90), (rep04, pr04)):
        for _ in range(100):
            a1, b1, a2, b2 = (
                oracles.rand_vector(rng, rep.d, box=3) for _ in range(4)
            )
            assert fundamental_identity_holds(pairing, a1, b1, a2, b2)
            for alpha, beta in ((a1, b1), (a2, b2)):
                cov = covariant(rep, pairing, alpha, beta)
                assert reconstruct_check(rep, pairing, cov, alpha, beta)


def test_criterion_07_quadratic_identities_three_geometries(
    rep12, pr12, rep90, pr90, rep04, pr04
):
    rng = random.Random(107)
    for rep, pairing in ((rep12, pr12), (rep90, pr90), (rep04, pr04)):
        project = rep.signature == Signature(1, 2)
        for _ in range(20):
            quad = []
            for _ in range(4):
                vec = oracles.rand_vector(rng, rep.d, box=3)
                quad.append(majorana_project(rep, vec) if project else vec)
            verdict = oracles.fierz_on_spinors(rep, pairing, *quad)
            assert verdict["passed"], verdict


def test_criterion_08_real_spinor_covariants_on_1_2(rep12, pr12):
    geo = geometry_of(rep12.signature)
    rng = random.Random(108)
    quarter = Fraction(1, 4)
    seen = set()
    for _ in range(100):
        vec = majorana_project(rep12, oracles.rand_vector(rng, rep12.d))
        prof = _bilinear_profile(rep12, pr12, vec, vec, _profile_gather(rep12))
        assert all(mask.bit_count() % 2 == 0 for mask in prof)
        b = b_eval(pr12, vec, vec)
        assert b == 0
        c12 = covariants(rep12, pr12, vec)
        phi0, phi2 = c12
        assert phi0.is_zero()
        pair = covariant(rep12, pr12, vec, vec)
        expected = (phi0 + phi2).scale(quarter)
        assert pair[0] == expected
        assert pair[1] == expected
        verdict = reduced_verdict(c12, b)
        assert verdict["passed"]
        assert verdict["flagged"] == []
        index = classify(c12)
        assert index in {1, 3}
        seen.add(index)
    assert 3 in seen


def test_criterion_09_pinor_covariants_and_flagged_rows_on_9_0(rep90, pr90):
    rng = random.Random(109)
    sig = rep90.signature
    geo = geometry_of(sig)
    for _ in range(100):
        vec = oracles.rand_vector(rng, rep90.d, box=3)
        prof = _bilinear_profile(rep90, pr90, vec, vec, _profile_gather(rep90))
        assert all(mask.bit_count() not in (2, 3, 6, 7) for mask in prof)
        cov = covariants(rep90, pr90, vec)
        psi0, psi1, psi4 = cov
        b = b_eval(pr90, vec, vec)
        assert b == psi0.scalar_part() == sum(a * a for a in vec)
        verdict = reduced_verdict(cov, b)
        assert verdict["master"]["passed"]
        assert verdict["clearance"]["passed"]
        by_id = {r["identity"]: r for r in verdict["rows"]}
        assert by_id["grade2-row"]["passed"]
        assert by_id["grade3-row"]["passed"]
        assert by_id["grade0-row"] == oracles.identity_result("grade0-row", psi0.scale(-16 * b))
        assert by_id["grade1-row"] == oracles.identity_result("grade1-row", psi1.scale(-16 * b))
        assert by_id["grade4-row"] == oracles.identity_result("grade4-row", psi4.scale(-32 * b))
        assert verdict["flagged"] == [
            name
            for name, comp in (
                ("grade0-row", psi0),
                ("grade1-row", psi1),
                ("grade4-row", psi4),
            )
            if not comp.is_zero()
        ]
        index = classify(cov)
        assert geo.class_name(index)

    one = Form.scalar(sig, 1)
    zero = Form.zero(sig)
    e1 = Form.from_mask_dict(sig, {1: 1})
    inj3 = (one, e1, zero)
    verdict3 = reduced_verdict(inj3, Fraction(1, 8))
    assert verdict3["master"]["passed"]
    assert verdict3["flagged"] == ["grade0-row", "grade1-row"]
    assert classify(inj3, Fraction(1, 8)) == 3
    inj6 = (one, zero, zero)
    verdict6 = reduced_verdict(inj6, Fraction(1, 16))
    assert verdict6["master"]["passed"]
    assert verdict6["flagged"] == ["grade0-row"]
    assert classify(inj6, Fraction(1, 16)) == 6
    with pytest.raises(NotASpinor):
        classify((one, zero, zero))


def test_criterion_10_twelve_product_expansions():
    battery = appendix_check(Signature(9, 0), 100, 110)
    assert battery["trials"] == 100
    assert len(battery["rows"]) == 12
    for row in battery["rows"]:
        assert row["passed"], (row["identity"], row["residual_by_grade"])
    assert battery["passed"]


def _report_bytes(report: dict) -> str:
    """A report serialized as the CLI prints it."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def test_criterion_11_census_determinism_and_class_coverage(rep12, pairings12, rep90):
    for rep, pairings in ((rep12, pairings12), (rep90, admissible_pairings(rep90))):
        sig = rep.signature
        first = census(rep, pairings, 1000, 7)
        second = census(rep, pairings, 1000, 7)
        assert _report_bytes(first) == _report_bytes(second)
        geo = geometry_of(sig)
        for section in first["sections"]:
            for index, entry in section["classes"].items():
                assert entry["pattern"] == geo.class_name(int(index))
                assert entry["count"] > 0
        if sig == Signature(9, 0):
            (section,) = first["sections"]
            assert sum(entry["count"] for entry in section["classes"].values()) == 1000
            assert {int(index) for index in section["classes"]} <= {2, 3, 6, 8}
        else:
            compatible = next(s for s in first["sections"] if s["real_structure_compatible"])
            assert {int(index) for index in compatible["classes"]} <= {1, 3}


def test_criterion_12_expansions_match_independent_oracles(rep12, pr12):
    for i in range(rep12.d):
        alpha = tuple(1 if k == i else 0 for k in range(rep12.d))
        for j in range(rep12.d):
            beta = tuple(1 if k == j else 0 for k in range(rep12.d))
            cov = covariant(rep12, pr12, alpha, beta)
            oracle = oracles.ordered_tuple_covariant(rep12, pr12, alpha, beta)
            assert cov == tuple(oracle)

    rng = random.Random(112)
    metrics = [
        Metric.standard(Signature(1, 1)),
        Metric.standard(Signature(0, 3)),
        Metric.standard(Signature(4, 0)),
        Metric.standard(Signature(2, 2)),
        Metric(Signature(2, 1), [[2, 0, 0], [0, -3, 0], [0, 0, 5]]),
        Metric(Signature(2, 1), [[2, 1, 0], [1, -3, 2], [0, 2, 5]]),
    ]
    for t in range(100):
        met = metrics[t % len(metrics)]
        sig = met.signature
        f = oracles.rand_form(rng, sig, terms=4)
        g = oracles.rand_form(rng, sig, terms=4)
        k = rng.randint(0, sig.n)
        assert contracted_wedge(f, g, k, met) == oracles.contracted_wedge_oracle(
            f, g, k, met
        )
    # rational coefficients; on diagonal metrics some blade pairs share more
    # indices than they contract, the pairs the kernel must drop
    wider_overlap = 0
    for t in range(60):
        met = metrics[t % len(metrics)]
        sig = met.signature
        f = oracles.rand_form(rng, sig, terms=4, rational=True)
        g = oracles.rand_form(rng, sig, terms=4, rational=True)
        k = rng.randint(0, sig.n)
        if met.diagonal is not None:
            wider_overlap += sum(
                (ma & mb).bit_count() > k for ma, _ in f.mask_items() for mb, _ in g.mask_items()
            )
        assert contracted_wedge(f, g, k, met) == oracles.contracted_wedge_oracle(
            f, g, k, met
        )
    assert wider_overlap > 0
