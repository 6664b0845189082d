"""Spinor/pinor classification, reduced-row flagging, census, product battery."""

import json
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grafclifford.classify as classify_module
import oracles
from grafclifford.bilinear import Pairing, admissible_pairings
from grafclifford.classify import (
    _appendix_rows,
    appendix_check,
    census,
    class_report,
    classify,
    covariants,
    geometry_of,
    majorana_project,
    prepare,
    reduced_verdict,
)
from grafclifford.errors import (
    DimensionMismatch,
    NotASpinor,
    StructureError,
    UnsupportedSignature,
)
from grafclifford.exterior import Form, Metric, Signature, grade_project
from grafclifford.fierz import _profile_gather, covariant, unit_profile
from grafclifford.graf import hodge, in_truncation_regime, volume_form
from grafclifford.linalg import SignedPerm, _norm
from grafclifford.matrixrep import build_rep

SIG12 = Signature(1, 2)
SIG90 = Signature(9, 0)
GEO12 = geometry_of(SIG12)
GEO90 = geometry_of(SIG90)

APPENDIX_ROW_IDS = [
    "scalar-square-projector-replay",
    "scalar-square",
    "scalar-vector",
    "scalar-quadform",
    "vector-scalar",
    "vector-square",
    "vector-quadform-full",
    "vector-quadform",
    "quadform-scalar",
    "quadform-vector-full",
    "quadform-vector",
    "quadform-square",
]


# -- real-spinor projection ------------------------------------------------------------


def test_majorana_projection_properties(rep12, rep90):
    rng = random.Random(41)
    for _ in range(5):
        raw = oracles.rand_vector(rng, rep12.d)
        proj = majorana_project(rep12, raw)
        assert oracles.mat_vec(oracles.to_dense(rep12.structure.D), proj) == proj
        assert majorana_project(rep12, proj) == proj
    with pytest.raises(DimensionMismatch):
        majorana_project(rep12, (1, 0))
    with pytest.raises(StructureError):
        majorana_project(rep90, (1,) + (0,) * 15)


# integer entries (sums of both parities) and Fraction entries
_ENTRY = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=12),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTRY, min_size=4, max_size=4))
def test_majorana_projection_halves_exactly(rep12, entries):
    """Halving on ints gives the value and the type of Fraction halving: an int where integral."""
    vec = tuple(entries)
    dv = rep12.structure.D.apply(vec)
    expected = tuple(_norm((a + d) * Fraction(1, 2)) for a, d in zip(vec, dv))
    got = majorana_project(rep12, vec)
    assert got == expected
    assert [type(x) for x in got] == [type(x) for x in expected]
    assert all((type(x) is int) == (Fraction(x).denominator == 1) for x in got)


def test_the_extractor_splits_the_identity_unit_of_the_fierz_covariant():
    """covariants() is the grade split of covariant(...).components[0] times 2^n / k_const."""
    rng = random.Random(46)
    for sig in (SIG12, SIG90):
        geo = geometry_of(sig)
        for volume_sign in (1, -1):
            rep = build_rep(sig, volume_sign)
            real = rep.structure.d_square_sign == 1
            pairings = [
                pr
                for pr in admissible_pairings(rep)
                if not real or pr.isotropy == 1
            ]
            assert pairings
            for pairing in pairings:
                for _ in range(3):
                    vec = prepare(rep, oracles.rand_vector(rng, rep.d))
                    whole = covariant(rep, pairing, vec, vec)[0]
                    whole = whole.scale(Fraction(1 << sig.n, rep.abs.k_const))
                    expected = tuple(grade_project(whole, k) for _, k in geo.components)
                    assert covariants(rep, pairing, vec) == expected


# -- (1,2) covariants and classes --------------------------------------------------------


def test_covariants_12_scalar_always_vanishes(rep12, pr12):
    rng = random.Random(42)
    for _ in range(10):
        vec = majorana_project(rep12, oracles.rand_vector(rng, rep12.d))
        phi0, phi2 = covariants(rep12, pr12, vec)
        assert phi0.is_zero()
        assert phi2.grades() <= {2}


def test_covariants_12_rejects_bad_inputs(rep12, pr12, pairings12, rep04, pr04):
    moved = None
    for i in range(rep12.d):
        basis = tuple(1 if j == i else 0 for j in range(rep12.d))
        if oracles.mat_vec(oracles.to_dense(rep12.structure.D), basis) != basis:
            moved = basis
            break
    assert moved is not None
    with pytest.raises(NotASpinor, match="not fixed by the real structure"):
        covariants(rep12, pr12, moved)
    anti = next(p for p in pairings12 if p.isotropy == -1)
    fixed = majorana_project(rep12, (1, 0, 0, 0))
    with pytest.raises(StructureError, match="anti-isometric under the real structure"):
        covariants(rep12, anti, fixed)
    # the signature picks the geometry, and (0,4) has none
    with pytest.raises(UnsupportedSignature, match="classification covers"):
        covariants(rep04, pr04, (1, 0, 0, 0))


def test_the_extractor_refuses_profiles_off_the_grade_pattern(
    monkeypatch, rep12, pr12, rep90, pr90
):
    """Each refusal, injected at the lane sums the extractor reads."""
    genuine = classify_module._bilinear_profile
    vec12 = majorana_project(rep12, (3, -1, 2, 5))
    vec90 = oracles.rand_vector(random.Random(47), rep90.d)
    masks12 = classify_module._covariant_lanes(rep12, pr12.tau)[1]
    gather90, masks90, _, _ = classify_module._covariant_lanes(rep90, pr90.tau)
    prof = genuine(rep90, pr90, vec90, vec90, gather90)
    assert any(masks90[lane].bit_count() == 5 for lane in prof)
    edits = (
        # a grade that is neither a component nor a volume image
        (rep12, pr12, vec12, lambda prof: {**prof, masks12.index(0b001): 1}, "rank outside"),
        (rep90, pr90, vec90, lambda prof: {**prof, masks90.index(0b11): 1}, "rank outside"),
        # a volume image that is not the Hodge dual of its component
        (
            rep90, pr90, vec90,
            lambda prof: {lane: v for lane, v in prof.items() if masks90[lane].bit_count() != 5},
            "volume images",
        ),
    )
    for rep, pairing, vec, edit, message in edits:
        monkeypatch.setattr(
            classify_module, "_bilinear_profile", lambda *args, edit=edit: edit(genuine(*args))
        )
        with pytest.raises(NotASpinor, match=message):
            covariants(rep, pairing, vec)


def _grade_split_of_unit_profile(rep, pairing, vec):
    """The extractor without lanes: unit_profile split by grade, images checked by hodge."""
    sig = rep.signature
    by_grade = {k: {} for k in range(sig.n + 1)}
    for mask, val in unit_profile(rep, pairing, vec, vec).items():
        by_grade[mask.bit_count()][mask] = val
    grades = [k for _, k in geometry_of(sig).components]
    images = [sig.n - k for k in grades] if in_truncation_regime(sig) else []
    assert not any(terms for k, terms in by_grade.items() if k not in grades + images)
    parts = {k: Form.from_mask_dict(sig, terms) for k, terms in by_grade.items()}
    for k, image in zip(grades, images):
        assert hodge(parts[k]).scale(rep.volume_sign) == parts[image]
    return tuple(parts[k] for k in grades)


def test_the_lane_extractor_equals_the_grade_split_of_unit_profile(rep12, pr12):
    rng = random.Random(49)
    cases = [(build_rep(SIG90, vs), None) for vs in (1, -1)] + [(rep12, pr12)]
    for rep, pairing in cases:
        pairing = pairing or admissible_pairings(rep)[0]
        for _ in range(50):
            vec = prepare(rep, oracles.rand_vector(rng, rep.d))
            assert covariants(rep, pairing, vec) == _grade_split_of_unit_profile(rep, pairing, vec)


def test_reduced_rows_and_classes_12(rep12, pr12):
    rng = random.Random(43)
    seen = set()
    for _ in range(15):
        vec = majorana_project(rep12, oracles.rand_vector(rng, rep12.d))
        cov = covariants(rep12, pr12, vec)
        verdict = reduced_verdict(cov, cov[0].scalar_part())
        assert verdict["master"]["identity"] == "two-component-square"
        assert [r["identity"] for r in verdict["rows"]] == [
            "rank2-double-contraction",
            "rank2-single-contraction",
        ]
        assert verdict["passed"]
        assert verdict["flagged"] == []
        assert "clearance" not in verdict
        index = classify(cov)
        assert index in {1, 3}
        assert GEO12.class_name(index)
        seen.add(index)
    assert 3 in seen
    zero = covariants(rep12, pr12, (0,) * rep12.d)
    assert classify(zero) == 1


def test_reduced_rows_12_equal_the_published_contracted_wedges():
    """The rows read from the square phi2 * phi2 are the published contracted wedges.

    phi2 ^_2 phi2 + 2 b phi0 and phi2 ^_1 phi2, evaluated by the recursion
    oracle on off-spinor covariants with integer and rational
    coefficients and several b.  Every phi2 here has a nonzero
    phi2 ^_2 phi2, so a wrong sign or grade there shows.  phi2 ^_1 phi2
    vanishes for every 2-form (the grade-2 part of a bivector square is
    its commutator with itself), so that row pins the grade read only.
    """
    rng = random.Random(46)
    met = Metric.standard(SIG12)
    for rational in (False, True):
        for b in (0, 1, Fraction(-5, 3), 7):
            phi0 = Form.scalar(SIG12, oracles._rand_coeff(rng, 4, rational) or 1)
            phi2 = oracles.rand_homogeneous(rng, SIG12, 2, terms=3, rational=rational)
            double = oracles.contracted_wedge_oracle(phi2, phi2, 2, met)
            assert not double.is_zero()
            rows, clearance = GEO12.rows((phi0, phi2), b)
            assert clearance is None
            published = {
                "rank2-double-contraction": double + phi0.scale(2 * b),
                "rank2-single-contraction": oracles.contracted_wedge_oracle(phi2, phi2, 1, met),
            }
            assert rows == [oracles.identity_result(name, r) for name, r in published.items()]


def test_classify_12_rejects_non_solutions():
    fake = (Form.scalar(SIG12, 1), Form.zero(SIG12))
    with pytest.raises(NotASpinor):
        classify(fake)


# -- (9,0) covariants and classes --------------------------------------------------------


def test_covariants_90_basis_spinor(rep90, pr90):
    vec = (1,) + (0,) * 15
    cov = covariants(rep90, pr90, vec)
    assert cov[0] == Form.scalar(SIG90, 1)
    assert classify(cov) in {2, 3, 6, 8}


def test_covariants_90_rejects_bad_inputs(rep90, rep04, pr04):
    wrong_type = Pairing(SignedPerm.identity(rep90.d), sigma=1, tau=-1)
    with pytest.raises(StructureError):
        covariants(rep90, wrong_type, (1,) + (0,) * 15)
    with pytest.raises(DimensionMismatch):
        covariants(rep90, Pairing(SignedPerm.identity(rep90.d), 1, 1), (1, 0))
    with pytest.raises(UnsupportedSignature, match="classification covers"):
        covariants(rep04, pr04, (1, 0, 0, 0))


def test_reduced_system_90_on_random_spinors(rep90, pr90):
    rng = random.Random(44)
    for _ in range(6):
        vec = oracles.rand_vector(rng, rep90.d, box=3)
        cov = covariants(rep90, pr90, vec)
        psi0, psi1, psi4 = cov
        b = psi0.scalar_part()
        assert b == sum(a * a for a in vec)
        verdict = reduced_verdict(cov, b)
        assert verdict["master"]["identity"] == "truncated-master"
        assert verdict["master"]["passed"]
        assert verdict["clearance"]["identity"] == "volume-image-clearance"
        assert verdict["clearance"]["passed"]
        by_id = {r["identity"]: r for r in verdict["rows"]}
        assert by_id["grade2-row"]["passed"]
        assert by_id["grade3-row"]["passed"]
        assert by_id["grade0-row"] == oracles.identity_result("grade0-row", psi0.scale(-16 * b))
        assert by_id["grade1-row"] == oracles.identity_result("grade1-row", psi1.scale(-16 * b))
        assert by_id["grade4-row"] == oracles.identity_result("grade4-row", psi4.scale(-32 * b))
        expected_flags = [
            name
            for name, comp in (
                ("grade0-row", psi0),
                ("grade1-row", psi1),
                ("grade4-row", psi4),
            )
            if not comp.is_zero()
        ]
        assert verdict["flagged"] == expected_flags
        index = classify(cov)
        assert GEO90.class_name(index)
        if b:
            assert "psi0 != 0" in GEO90.class_name(index)


def _oracle_star(f):
    """Right product with the volume blade by the oracles' sequential product."""
    return oracles.graf_product_oracle(f, volume_form(f.signature), Metric.standard(f.signature))


def _published_rows_90(psi0, p1, p4, b):
    """The five reduced rows as published, each psi4 ^_k psi4 a contracted wedge.

    The wedges and contractions come from the oracles' recursion and the
    Hodge star from their sequential product, so no row is a slice of
    the library's own square.
    """
    met = Metric.standard(SIG90)

    def cw(f, g, k):
        return oracles.contracted_wedge_oracle(f, g, k, met)

    star = _oracle_star

    return {
        "grade0-row": cw(p1, p1, 1) + cw(p4, p4, 4).scale(Fraction(1, 24)) - psi0.scale(31 * b),
        "grade1-row": star(oracles.wedge_oracle(p4, p4)) - p1.scale(30 * b),
        "grade2-row": oracles.wedge_oracle(p1, p1) + cw(p4, p4, 3).scale(Fraction(1, 6)),
        "grade3-row": star(cw(p4, p4, 1)),
        "grade4-row": star(oracles.wedge_oracle(p1, p4)).scale(4) - cw(p4, p4, 2) - p4.scale(60 * b),
    }


def test_reduced_rows_90_equal_the_published_contracted_wedges():
    """The rows read from the square psi4 * psi4 are the published statement's values.

    Off spinor covariants, so no row holds by accident: a full psi4 (the
    square's table path), a sparse one (the pair loop) and rational ones.
    """
    rng = random.Random(45)
    fours = [m for m in range(1 << 9) if m.bit_count() == 4]
    for keep, rational in ((1.0, False), (1.0, True), (0.1, False), (0.6, True)):
        psi0 = Form.scalar(SIG90, oracles._rand_coeff(rng, 4, rational) or 1)
        p1 = oracles.rand_homogeneous(rng, SIG90, 1, terms=9, rational=rational)
        p4 = Form.from_mask_dict(
            SIG90, {m: oracles._rand_coeff(rng, 4, rational) or 1 for m in fours if rng.random() < keep}
        )
        b = Fraction(rng.randint(-5, 5), 3)
        rows, _ = GEO90.rows((psi0, p1, p4), b)
        published = _published_rows_90(psi0, p1, p4, b)
        assert rows == [oracles.identity_result(name, r) for name, r in published.items()]


def test_reduced_system_90_on_the_zero_spinor(rep90, pr90):
    cov = covariants(rep90, pr90, (0,) * rep90.d)
    verdict = reduced_verdict(cov, 0)
    assert verdict["passed"]
    assert verdict["flagged"] == []
    assert classify(cov) == 7


# -- the master identity against the sequential-product oracle -----------------------------


def _master_matches_the_oracle(covs, b, volume_sign):
    """``_master`` carries the oracle's residual, and passes exactly when it is zero."""
    result = classify_module._master(covs, b, volume_sign)
    residual = oracles.master_residual(covs, b, volume_sign)
    assert result == oracles.identity_result(geometry_of(covs[0].signature).master[0], residual)
    return result


def test_the_master_identity_equals_the_sequential_oracle(rep12, pr12):
    """Genuine covariants pass with the zero residual the oracle finds.

    Fifty pinors on (9,0) under each volume sign (the truncated square)
    and fifty Majorana-projected spinors on (1,2) (the Clifford square).
    """
    rng = random.Random(52)
    for volume_sign in (1, -1):
        rep = build_rep(SIG90, volume_sign)
        pairing = admissible_pairings(rep)[0]
        for _ in range(50):
            covs = covariants(rep, pairing, prepare(rep, oracles.rand_vector(rng, rep.d)))
            assert _master_matches_the_oracle(covs, covs[0].scalar_part(), volume_sign)["passed"]
    for _ in range(50):
        vec = majorana_project(rep12, oracles.rand_vector(rng, rep12.d))
        covs = covariants(rep12, pr12, vec)
        assert _master_matches_the_oracle(covs, covs[0].scalar_part(), rep12.volume_sign)["passed"]


def _oracle_verdict(covs, b, volume_sign):
    """``reduced_verdict`` rebuilt from the oracles: the master residual and the published rows."""
    sig = covs[0].signature
    met = Metric.standard(sig)
    result = oracles.identity_result
    master = result(geometry_of(sig).master[0], oracles.master_residual(covs, b, volume_sign))
    if sig == SIG12:
        phi0, phi2 = covs
        published = {
            "rank2-double-contraction": oracles.contracted_wedge_oracle(phi2, phi2, 2, met)
            + phi0.scale(2 * b),
            "rank2-single-contraction": oracles.contracted_wedge_oracle(phi2, phi2, 1, met),
        }
        clearance = None
    else:
        published = _published_rows_90(*covs, b)
        image = _oracle_star((covs[0] + covs[1] + covs[2]).scale(Fraction(1, 32)))
        low = {m: c for m, c in image.mask_items() if m.bit_count() <= 4}
        clearance = result("volume-image-clearance", Form.from_mask_dict(sig, low))
    rows = [result(name, residual) for name, residual in published.items()]
    flagged = [r["identity"] for r in rows if not r["passed"]] if master["passed"] else []
    verdict = {"master": master, "rows": rows, "flagged": flagged}
    checks = [master, *rows]
    if clearance is not None:
        verdict["clearance"] = clearance
        checks.append(clearance)
    verdict["passed"] = all(r["passed"] for r in checks)
    return verdict


def test_failing_master_identities_equal_the_sequential_oracle(rep12, pr12, rep90, pr90):
    """Off-solution sets fail with the oracle's residual, and their verdicts match it whole.

    One perturbed coefficient on each geometry, an injected (1,2) set
    with phi0 != 0 (S and phi2 then differ, so two products run), and
    the covariants the CLI's master-violation injection reads.  A set
    whose components share a mask has components off their grades, where
    the published rows do not apply, so only its master is compared.
    """
    rng = random.Random(53)
    one90, zero90 = Form.scalar(SIG90, 1), Form.zero(SIG90)
    psi0, psi1, psi4 = covariants(rep90, pr90, oracles.rand_vector(rng, rep90.d))
    vec12 = majorana_project(rep12, oracles.rand_vector(rng, rep12.d))
    phi0, phi2 = covariants(rep12, pr12, vec12)
    assert not phi2.is_zero()
    bump4 = Form.from_mask_dict(SIG90, {0b1111: 1})
    bump2 = Form.from_mask_dict(SIG12, {0b011: 1})
    cases = (
        ((psi0, psi1, psi4 + bump4), psi0.scalar_part(), 1),
        ((psi0, psi1, psi4 + bump4), psi0.scalar_part(), -1),
        ((phi0, phi2 + bump2), 0, rep12.volume_sign),
        ((Form.scalar(SIG12, 3), phi2), 3, rep12.volume_sign),
        ((Form.scalar(SIG12, Fraction(1, 2)), phi2), Fraction(-5, 4), rep12.volume_sign),
        ((one90, zero90, zero90), 1, 1),
    )
    for covs, b, volume_sign in cases:
        result = _master_matches_the_oracle(covs, b, volume_sign)
        assert not result["passed"]
        assert reduced_verdict(covs, b, volume_sign) == _oracle_verdict(covs, b, volume_sign)
    shared = (one90, Form.scalar(SIG90, -1) + psi1, psi4)
    assert not _master_matches_the_oracle(shared, psi0.scalar_part(), 1)["passed"]


def test_classify_90_hand_injected_covariants():
    one = Form.scalar(SIG90, 1)
    zero = Form.zero(SIG90)
    e1 = Form.from_mask_dict(SIG90, {1: 1})

    inj3 = (one, e1, zero)
    verdict = reduced_verdict(inj3, Fraction(1, 8))
    assert verdict["master"]["passed"]
    assert verdict["flagged"] == ["grade0-row", "grade1-row"]
    assert classify(inj3, Fraction(1, 8)) == 3

    inj6 = (one, zero, zero)
    verdict6 = reduced_verdict(inj6, Fraction(1, 16))
    assert verdict6["master"]["passed"]
    assert verdict6["flagged"] == ["grade0-row"]
    assert classify(inj6, Fraction(1, 16)) == 6

    with pytest.raises(NotASpinor):
        classify((one, zero, zero))


# -- reports, census, identity battery ---------------------------------------------------


def spinor_report(rep, pairing, alpha):
    cov = covariants(rep, pairing, prepare(rep, alpha))
    return class_report(cov, None, rep.volume_sign, pairing.content_hash())


def test_class_report_fields(rep12, pr12, rep90, pr90, rep04, pr04):
    report = spinor_report(rep12, pr12, (3, -1, 2, 5))
    assert report["signature"] == [1, 2]
    assert report["class_index"] in {1, 3}
    assert report["class_pattern"] == GEO12.class_name(report["class_index"])
    assert list(report["covariants"]) == ["phi0", "phi2"]
    assert report["pairing_hash"] == pr12.content_hash()

    basis = (1,) + (0,) * 15
    report90 = spinor_report(rep90, pr90, basis)
    assert report90["class_pattern"].startswith("psi0 != 0")
    assert list(report90["covariants"]) == ["psi0", "psi1", "psi4"]

    with pytest.raises(UnsupportedSignature):
        spinor_report(rep04, pr04, (1, 0, 0, 0))


def _counts(section) -> dict[int, int]:
    """A census section's class counts by class index."""
    return {int(index): entry["count"] for index, entry in section["classes"].items()}


def test_census_is_deterministic_and_structured(rep12, pairings12):
    first = census(rep12, pairings12, 25, 7)
    second = census(rep12, pairings12, 25, 7)
    # serialized as the CLI prints a report
    dump = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    assert dump(first) == dump(second)
    by_iso = {sec["pairing"]["isotropy"]: sec for sec in first["sections"]}
    assert set(by_iso) == {1, -1}
    assert by_iso[1]["real_structure_compatible"]
    assert _counts(by_iso[1]) == {3: 25}
    assert [int(i) for i, entry in by_iso[1]["classes"].items() if "representative" in entry] == [3]
    assert not by_iso[-1]["real_structure_compatible"]
    assert by_iso[-1]["surviving_ranks"] == [1]
    assert sorted(first) == ["box", "samples", "sections", "seed", "signature", "volume_sign"]
    incompatible = next(
        s for s in first["sections"] if not s["real_structure_compatible"]
    )
    assert incompatible["surviving_ranks"] == [1]
    compatible = next(s for s in first["sections"] if s["real_structure_compatible"])
    assert compatible["classes"]["3"]["count"] == 25
    assert compatible["classes"]["3"]["pattern"] == GEO12.class_name(3)
    assert "representative" in compatible["classes"]["3"]


def test_census_on_the_pinor_signature(rep90):
    pairings90 = admissible_pairings(rep90)
    report = census(rep90, pairings90, 6, 3)
    (section,) = report["sections"]
    assert section["real_structure_compatible"]
    assert _counts(section) == {8: 6}
    empty = census(rep90, pairings90, 0, 3)
    assert empty["sections"][0]["classes"] == {}


def test_census_blade_cache_is_bounded_by_the_blade_count():
    rep = build_rep(Signature(9, 0))
    census(rep, admissible_pairings(rep), 20, 5)
    size = 1 << rep.signature.n
    # the profile table visits every canonical blade, and each is cached once
    assert set(rep._cache_sp) == set(range(size))
    table = _profile_gather(rep)
    # one run of d flat indices per blade, into z (x) w and its negation
    flat = range(2 * rep.d * rep.d)
    assert len(table(flat)) == size * rep.d
    census(rep, admissible_pairings(rep), 20, 6)
    assert len(rep._cache_sp) <= size
    assert _profile_gather(rep) is table


def test_census_input_validation(rep12, pairings12):
    with pytest.raises(ValueError):
        census(rep12, pairings12, -1, 0)
    rep22 = build_rep(Signature(2, 2))
    with pytest.raises(UnsupportedSignature):
        census(rep22, admissible_pairings(rep22), 1, 0)


def test_product_identity_battery():
    battery = appendix_check(SIG90, 3, 11)
    assert battery["passed"]
    assert [row["identity"] for row in battery["rows"]] == APPENDIX_ROW_IDS
    assert all(row["passed"] for row in battery["rows"])
    assert battery["trials"] == 3
    assert battery["passed"] is True

    vacuous = appendix_check(SIG90, 0, 11)
    assert vacuous["passed"]
    assert vacuous["rows"] == []

    with pytest.raises(UnsupportedSignature):
        appendix_check(SIG12, 1, 0)

def _battery_closed_forms(psi0, psi1, psi4):
    """The battery's closed forms, each built from oracle wedges and contractions."""
    met = Metric.standard(SIG90)
    b = psi0.scalar_part()
    star = _oracle_star

    def cw(f, g, k):
        return oracles.contracted_wedge_oracle(f, g, k, met)

    def lower(f):
        return Form.from_mask_dict(SIG90, {m: c for m, c in f.mask_items() if m.bit_count() <= 4})

    w14, c14 = cw(psi1, psi4, 0), cw(psi1, psi4, 1)
    quad = (
        cw(psi4, psi4, 2).scale(Fraction(-1, 2))
        + cw(psi4, psi4, 3).scale(Fraction(1, 6))
        + cw(psi4, psi4, 4).scale(Fraction(1, 24))
        + star(cw(psi4, psi4, 0))
        - star(cw(psi4, psi4, 1))
    )
    return {
        "scalar-square-projector-replay": lower(psi0 + star(psi0)).scale(b),
        "scalar-square": psi0.scale(b),
        "scalar-vector": psi1.scale(b),
        "scalar-quadform": psi4.scale(b),
        "vector-scalar": psi1.scale(b),
        "vector-square": cw(psi1, psi1, 0) + cw(psi1, psi1, 1),
        "vector-quadform-full": w14 + c14,
        "vector-quadform": c14 + star(w14),
        "quadform-scalar": psi4.scale(b),
        "quadform-vector-full": w14 - c14,
        "quadform-vector": star(w14) - c14,
        "quadform-square": quad,
    }


def test_battery_closed_forms_equal_the_oracle_pieces():
    """Each literal product of the battery equals its closed form built by the oracles.

    The battery itself compares products with the library's wedges and
    contractions, which are slices of the same product; here the closed
    forms are evaluated from the recursion oracle instead, on inputs
    shaped as ``appendix_check`` draws them.
    """
    rng = random.Random(47)
    fours = [m for m in range(1 << 9) if m.bit_count() == 4]
    for _ in range(20):
        psi0 = Form.scalar(SIG90, rng.randint(-4, 4))
        psi1 = Form.from_mask_dict(SIG90, {1 << i: rng.randint(-4, 4) for i in range(9)})
        psi4 = Form.from_mask_dict(SIG90, {m: rng.randint(-4, 4) for m in rng.sample(fours, 6)})
        closed = _battery_closed_forms(psi0, psi1, psi4)
        rows = _appendix_rows(psi0, psi1, psi4)
        assert [ident for ident, *_ in rows] == APPENDIX_ROW_IDS
        for ident, literal, _, grades in rows:
            assert literal == closed[ident], ident
            assert literal.grades() <= grades, ident
