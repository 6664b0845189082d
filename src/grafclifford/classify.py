"""Spinor and pinor classes from covariant zero patterns, with census tooling.

One pipeline serves every classified signature, and a ``Geometry``
record holds only its data and its published reduced rows.  What the
signature fixes is derived where it is read, not declared: the pairing
signs are the published table row (``bilinear.table_sigma`` and
``table_tau``), and spinors are real exactly when the structure has a
real structure, a D with D^2 = +Id (``_real``).  The
covariants of a spinor are the grade parts of the identity unit's
component of E(alpha, alpha), read without its k_const / 2^n multiple
by the one extractor ``covariants``, which checks the record's
preconditions as it goes.  One master identity S o S = c B S on their
sum S gates the class: o is the truncated product in the truncation
regime and the Clifford product otherwise.  Its literal square is
compared with c B S by equality, so a passing identity carries a zero
residual that is never formed.

Two geometries are on the table.  On signature (1,2) the almost-complex
case applies: real spinors are the fixed points of the anticomplex
structure, their surviving covariants are a scalar and a 2-form, and the
constraint system reduces to two contracted-wedge equations whose zero
patterns cut out four classes.  On signature (9,0) the normal case
applies in the truncated low-grade model: the covariant content is a
scalar, a 1-form and a 4-form constrained by the truncated master
identity; the published five-row reduced system is evaluated next to
that master identity, and a row that fails while the master holds is
flagged as a suspected transcription issue instead of being repaired.

The census samples integer spinors from a seeded generator, classifies
each sample under every admissible pairing, and returns a
deterministic JSON report.  The identity battery on (9,0) checks the
closed-form expansion of every pairwise product of covariant grades
against literal evaluation on random forms.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from operator import add
from typing import Callable

from .bilinear import Pairing, table_sigma, table_tau
from .errors import (
    DimensionMismatch,
    NotASpinor,
    StructureError,
    UnsupportedSignature,
)
from .exterior import Form, Signature, grade_project, rational_to_str
from .fierz import (
    _bilinear_profile,
    _blade_gather,
    _blade_weights,
    _profile_gather,
    _result,
)
from .graf import (
    _graf_sign,
    contracted_wedge,
    graf_product,
    hodge,
    in_truncation_regime,
    lower_projection,
    truncated_product,
    wedge,
)
from .linalg import _norm
from .matrixrep import Rep

__all__ = [
    "Geometry",
    "GEOMETRIES",
    "geometry_of",
    "majorana_project",
    "prepare",
    "covariants",
    "reduced_verdict",
    "classify",
    "class_report",
    "census",
    "appendix_check",
]


# -- real-spinor projection ------------------------------------------------------------


def majorana_project(rep: Rep, alpha) -> tuple:
    """Plus-projection onto real spinors: half of (alpha + D(alpha)).

    An integer entry sum is halved on ints (``t >> 1`` when even,
    ``Fraction(t, 2)`` when odd); any other sum takes ``Fraction``
    arithmetic, so every entry is the same normalized value either way.
    """
    dmap = rep.structure.D
    if dmap is None:
        raise StructureError("projection needs the anticomplex structure map")
    vec = tuple(alpha)
    if len(vec) != rep.d:
        raise DimensionMismatch("spinor length does not match the representation")
    return tuple(
        ((Fraction(t, 2) if t & 1 else t >> 1) if type(t) is int else _norm(t * Fraction(1, 2)))
        for t in map(add, vec, dmap.apply(vec))
    )


# -- (1,2): the two contracted-wedge rows -----------------------------------------------


def _self_wedges(f: Form, m: int, square: Form | None = None) -> Callable[[int], Form]:
    """k -> f ^_k f for f homogeneous of grade m, each a grade slice of one square.

    cw_k(f, f) = k! (-1)^(k(m-k) + floor(k/2)) <f * f>_(2m-2k)
    (``graf.contracted_wedge``), so one product serves every k: f * f,
    or ``square`` when the caller has already formed it.
    """
    if square is None:
        square = graf_product(f, f)
    return lambda k: grade_project(square, 2 * m - 2 * k).scale(factorial(k) * _graf_sign(k, m))


def _rows_12(cov, b, square=None):
    """phi2 ^_2 phi2 = -2 <S>_0 and phi2 ^_1 phi2 = -<S>_2, with S = phi2 * phi2.

    ``square`` is phi2 * phi2 when the caller has already formed it.
    """
    phi0, phi2 = cov
    phi2_phi2 = _self_wedges(phi2, 2, square)
    rows = [
        _result("rank2-double-contraction", phi2_phi2(2) + phi0.scale(2 * b)),
        _result("rank2-single-contraction", phi2_phi2(1)),
    ]
    return rows, None


# -- (9,0): the five published rows ----------------------------------------------------


def _rows_90(cov, b, _square=None):
    """The five published reduced rows and the volume-image clearance.

    Rows are named by the grade they constrain.  The clearance entry
    records that the volume image of the truncated covariant (1/32 of the
    sum of the three grades) has no low-grade part, which is what makes
    the master identity close on the truncation.

    The rows carry the coefficients 31, 30 and 60 of a reduced system
    that clears a doubled master normalization (32 instead of 16).
    Genuine covariants therefore miss the B-weighted
    rows by exactly one master unit (-16*B*psi0, -16*B*psi1, -32*B*psi4)
    while the master itself passes; such rows are flagged as suspect
    transcriptions of the reduced system rather than input failures.
    The two B-free rows hold exactly on genuine covariants.

    The rows are stated with psi1 ^_k psi1 for k = 0, 1 and psi4 ^_k psi4
    for k = 0..4, each a grade part of the square of its factor
    (``_self_wedges``); with S = psi4 * psi4, psi4 ^ psi4 = <S>_8,
    cw_1 = -<S>_6, cw_2 = -2 <S>_4, cw_3 = 6 <S>_2 and cw_4 = 24 <S>_0.
    """
    psi0, p1, p4 = cov
    clearance = _result(
        "volume-image-clearance",
        lower_projection(hodge((psi0 + p1 + p4).scale(Fraction(1, 32)))),
    )
    p1_p1 = _self_wedges(p1, 1)
    p4_p4 = _self_wedges(p4, 4)
    rows = [
        _result(
            "grade0-row",
            p1_p1(1)
            + p4_p4(4).scale(Fraction(1, 24))
            - psi0.scale(31 * b),
        ),
        _result("grade1-row", hodge(p4_p4(0)) - p1.scale(30 * b)),
        _result(
            "grade2-row",
            p1_p1(0) + p4_p4(3).scale(Fraction(1, 6)),
        ),
        _result("grade3-row", hodge(p4_p4(1))),
        _result(
            "grade4-row",
            hodge(wedge(p1, p4)).scale(4) - p4_p4(2) - p4.scale(60 * b),
        ),
    ]
    return rows, clearance


# -- the geometry table ---------------------------------------------------------------------


@dataclass(frozen=True)
class Geometry:
    """The data of the classification recipe on one signature.

    The recipe is the same on every classified signature and is written
    once: ``prepare`` the spinor, extract its covariant forms with
    ``covariants`` (the identity unit's component of E(alpha, alpha),
    split by grade), check the master identity S o S = c B S on their sum
    S and the published reduced rows, and read the class off which
    covariants vanish.  A record holds only data and its published rows;
    the pairing signs and whether spinors are real follow from the
    signature and are derived where they are read.  The first component
    is the scalar, which equals B(alpha, alpha) on covariants computed
    from a spinor.
    """

    signature: tuple[int, int]
    # (name, grade) of each covariant form, in the order the extractor returns them
    components: tuple[tuple[str, int], ...]
    # (identity name, c) of the master identity S o S = c B S
    master: tuple[str, int]
    # (covariants, b, the last component's Clifford square or None) ->
    # (reduced rows, volume-image clearance or None)
    rows: Callable[[tuple[Form, ...], object, Form | None], tuple]
    # whether a failing reduced row refuses the spinor; otherwise failing
    # rows are flagged reports and only the master identity refuses
    gate_on_rows: bool
    refusal: str
    # nonzero-patterns of the components; class index = position + 1
    patterns: tuple[tuple[bool, ...], ...]

    def class_name(self, index: int) -> str:
        """The zero pattern of class ``index`` spelled out, e.g. 'phi0 = 0, phi2 != 0'."""
        pattern = self.patterns[index - 1]
        return ", ".join(
            f"{name} {'!=' if nz else '='} 0" for (name, _), nz in zip(self.components, pattern)
        )


GEOMETRIES: dict[tuple[int, int], Geometry] = {
    geo.signature: geo
    for geo in (
        # With both covariant components equal, the full product identity
        # collapses to the square of phi0 + phi2, whose grade parts are
        # exactly the two reduced rows.
        Geometry(
            signature=(1, 2),
            components=(("phi0", 0), ("phi2", 2)),
            master=("two-component-square", 2),
            rows=_rows_12,
            gate_on_rows=True,
            refusal="covariants do not satisfy the reduced constraint system",
            patterns=((False, False), (True, False), (False, True), (True, True)),
        ),
        # The low-grade slice carries exactly half of the full covariant
        # (the volume image carries the other half), so clearing the 1/32
        # weight from the slice leaves 16, not 32.
        Geometry(
            signature=(9, 0),
            components=(("psi0", 0), ("psi1", 1), ("psi4", 4)),
            master=("truncated-master", 16),
            rows=_rows_90,
            gate_on_rows=False,
            refusal="covariants do not satisfy the truncated master identity",
            patterns=(
                (False, True, True),
                (True, False, True),
                (True, True, False),
                (False, False, True),
                (False, True, False),
                (True, False, False),
                (False, False, False),
                (True, True, True),
            ),
        ),
    )
}


def geometry_of(signature: Signature) -> Geometry:
    """The classification data of a signature; refuses signatures off the table."""
    geo = GEOMETRIES.get((signature.p, signature.q))
    if geo is None:
        covered = " and ".join(f"({p},{q})" for p, q in GEOMETRIES)
        raise UnsupportedSignature(f"classification covers signatures {covered}")
    return geo


# -- the classification pipeline ------------------------------------------------------------


def _real(rep: Rep) -> bool:
    """Whether spinors are real: the structure has a D with D^2 = +Id (cached).

    Real spinors are Majorana-projected and classified only under
    pairings the real structure preserves (isotropy +1).
    """
    return rep.structure.d_square_sign == 1


def prepare(rep: Rep, alpha) -> tuple:
    """The spinor the signature's geometry classifies: the real part where spinors are real."""
    geometry_of(rep.signature)  # refuses an unclassified signature
    if _real(rep):
        return majorana_project(rep, alpha)
    return tuple(alpha)


# (rep, tau) lane tables kept: a census or a verify-fierz run reads one.
_LANE_CAP = 8


@lru_cache(maxsize=_LANE_CAP)
def _covariant_lanes(rep: Rep, tau: int) -> tuple:
    """The lane table (gather, masks, bounds, stop) of a classified signature under tau.

    ``masks`` holds the blade of every lane, in the order the extractor
    reads them: the component masks grade by grade (the geometry's
    component i from lane ``bounds[i]`` to ``bounds[i + 1]``), then in
    the truncation regime their volume images m ^ full in the same
    order, up to lane ``stop``, then every other mask.  ``gather`` is
    their ``fierz._blade_gather`` table, each lane weighted by its blade
    weight tau^k s_m and an image lane also by vs nu[m], the sign with
    which ``hodge`` times the volume sign moves component m to m ^ full;
    so a genuine image lane equals its component lane entry for entry.
    """
    sig = rep.signature
    weights = _blade_weights(rep, tau)
    by_grade = [
        [m for m in range(1 << sig.n) if m.bit_count() == k]
        for _, k in geometry_of(sig).components
    ]
    masks = [m for grade in by_grade for m in grade]
    lanes = [(m, weights[m]) for m in masks]
    if in_truncation_regime(sig):
        full = (1 << sig.n) - 1
        moved = hodge(Form.from_mask_dict(sig, dict.fromkeys(masks, rep.volume_sign)))
        lanes += [(m ^ full, weights[m ^ full] * moved.coeff(m ^ full)) for m in masks]
    taken = {m for m, _ in lanes}
    stop = len(lanes)
    lanes += [(m, 1) for m in range(1 << sig.n) if m not in taken]
    return (
        _blade_gather(rep, lanes),
        tuple(m for m, _ in lanes),
        tuple(accumulate(map(len, by_grade), initial=0)),
        stop,
    )


def covariants(rep: Rep, pairing: Pairing, spinor) -> tuple[Form, ...]:
    """Covariant forms of a prepared spinor, in the geometry's component order.

    The forms are the grade parts of the identity unit's component of
    E(alpha, alpha) without its k_const / 2^n multiple: blade m of grade
    k carries tau^k s_m B(alpha, e_m alpha) (``fierz.unit_profile``),
    read here as one gather over the lanes of ``_covariant_lanes``.
    Each precondition is checked and refused: the signature has a
    geometry (``geometry_of``); the pairing has the signs of the
    published table row; a real spinor's pairing is preserved by D,
    which where spinors are real (D^2 = +Id) is its orthogonal split
    (``Pairing.isotropy`` = +1), and the spinor is D-fixed;
    every lane past ``stop`` is zero, so every grade vanishes unless it
    is a component grade or, in the truncation regime, the volume image
    n - k of one; and each image lane equals its component lane, so the
    image is the Hodge dual of grade k times the volume sign and the
    low-grade truncation loses nothing.
    """
    sig = rep.signature
    geometry_of(sig)  # refuses an unclassified signature
    vec = tuple(spinor)
    if len(vec) != rep.d:
        raise DimensionMismatch("spinor length does not match the representation")
    signs = (table_sigma(sig), table_tau(sig))
    if (pairing.sigma, pairing.tau) != signs:
        raise StructureError(f"the covariants use a pairing with (sigma, tau) = {signs}")
    if _real(rep):
        if pairing.isotropy != 1:
            raise StructureError(
                "the pairing is anti-isometric under the real structure; the "
                "even-rank covariants vanish identically on real spinors "
                "under it — use the orthogonal-split pairing"
            )
        if rep.structure.D.apply(vec) != vec:
            raise NotASpinor("spinor is not fixed by the real structure; project it first")
    gather, masks, bounds, stop = _covariant_lanes(rep, pairing.tau)
    prof, den = _bilinear_profile(rep, pairing, vec, vec, gather)
    # the nonzero lanes ascend: the component lanes, then the image lanes
    keys, vals = list(prof), list(prof.values())
    if keys and keys[-1] >= stop:
        raise NotASpinor("a bilinear of a rank outside the covariant grades is nonzero")
    count = bounds[-1]
    cut = bisect_left(keys, count)
    if stop > count and (
        vals[cut:] != vals[:cut] or keys[cut:] != [lane + count for lane in keys[:cut]]
    ):
        raise NotASpinor("upper-grade bilinears are not the volume images of the lower ones")
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        i, j = bisect_left(keys, lo, 0, cut), bisect_left(keys, hi, 0, cut)
        terms = zip(map(masks.__getitem__, keys[i:j]), vals[i:j])
        parts.append(Form._adopt(sig, dict(terms), den))
    return tuple(parts)


def _master(
    covs: tuple[Form, ...], b, volume_sign: int, square: Form | None = None
) -> dict:
    """The master identity S o S = c B S in cleared form, S the sum of the covariants.

    o is the truncated product under the projector of ``volume_sign``
    (the ideal the covariants live in) in the truncation regime, and the
    Clifford product otherwise.  S is one object, so the product takes
    the square path; ``square`` is S o S when the caller has already
    formed it.  The literal square is compared with c B S by equality of
    their reduced numerator-denominator pairs, and the residual
    S o S - c B S is formed only when they differ: a passing identity
    carries the zero form, never formed by subtraction.
    """
    s = sum(covs[1:], covs[0])
    sig = s.signature
    if square is None:
        if in_truncation_regime(sig):
            square = truncated_product(s, s, volume_sign)
        else:
            square = graf_product(s, s)
    name, c = geometry_of(sig).master
    target = s.scale(c * b)
    if square == target:
        return _result(name, Form.zero(sig))
    return _result(name, square - target)


def reduced_verdict(covs: tuple[Form, ...], b, volume_sign: int = 1) -> dict:
    """Exact verdict on the master identity and the reduced rows, with flags.

    It is the JSON object the reports print, {"master", "rows", "flagged",
    "passed"} plus "clearance" where the geometry has one.  ``flagged``
    names the rows that fail while the master holds, a suspected
    transcription issue in the published system, reported rather than
    repaired; ``passed`` needs the master, every row and the clearance.

    Outside the truncation regime, when every component but the last is
    zero (phi0 = 0 on (1,2), as on every real spinor), S is the last
    component and S o S its Clifford square, which the rows read too;
    that square is formed once and serves both.
    """
    geometry = geometry_of(covs[0].signature)
    square = None
    if not in_truncation_regime(covs[0].signature) and all(f.is_zero() for f in covs[:-1]):
        square = graf_product(covs[-1], covs[-1])
    master = _master(covs, b, volume_sign, square)
    rows, clearance = geometry.rows(covs, b, square)
    flagged = [r["identity"] for r in rows if not r["passed"]] if master["passed"] else []
    verdict = {"master": master, "rows": rows, "flagged": flagged}
    if clearance is not None:
        verdict["clearance"] = clearance
    verdict["passed"] = all(r["passed"] for r in (master, *rows, clearance) if r is not None)
    return verdict


def classify(
    covs: tuple[Form, ...],
    b=None,
    verdict: dict | None = None,
    volume_sign: int = 1,
) -> int:
    """Class index from the zero pattern of the covariants; refuses non-solutions.

    ``b`` defaults to the scalar component, which is B(alpha, alpha) for
    covariants computed from a spinor; a hand-injected set may supply its
    own.  The gate reads ``verdict`` when the caller already holds it and
    otherwise evaluates only what it needs, under ``volume_sign``: the
    master identity alone on (9,0), whose passing result carries a zero
    residual that is never formed, and on (1,2) the master and the rows,
    which share one square of phi2 when phi0 = 0, as on every real spinor.
    """
    geometry = geometry_of(covs[0].signature)
    b = covs[0].scalar_part() if b is None else b
    if geometry.gate_on_rows:
        gate = verdict if verdict is not None else reduced_verdict(covs, b, volume_sign)
    else:
        gate = verdict["master"] if verdict is not None else _master(covs, b, volume_sign)
    if not gate["passed"]:
        raise NotASpinor(geometry.refusal)
    return geometry.patterns.index(tuple(not f.is_zero() for f in covs)) + 1


# -- classification reports -------------------------------------------------------------


def class_report(
    covs: tuple[Form, ...],
    b=None,
    volume_sign: int = 1,
    pairing_hash: str | None = None,
) -> dict:
    """Classify one covariant set and return its report, the JSON object the CLI prints."""
    sig = covs[0].signature
    geometry = geometry_of(sig)
    b = covs[0].scalar_part() if b is None else b
    verdict = reduced_verdict(covs, b, volume_sign)
    index = classify(covs, b, verdict)
    return {
        "signature": [sig.p, sig.q],
        "class_index": index,
        "class_pattern": geometry.class_name(index),
        "covariants": {name: f.to_json_obj() for (name, _), f in zip(geometry.components, covs)},
        "verdict": verdict,
        "volume_sign": volume_sign,
        "pairing_hash": pairing_hash,
    }


# -- census ------------------------------------------------------------------------------


# Census spinor entries are drawn from the integer box [-CENSUS_BOX, CENSUS_BOX].
CENSUS_BOX = 5


def census(rep: Rep, pairings: list[Pairing], samples: int, seed: int) -> dict:
    """Sample, classify, and count spinors; deterministic under the seed.

    Spinor entries are drawn uniformly from the integer box
    [-CENSUS_BOX, CENSUS_BOX] and prepared for the geometry (projected
    onto real spinors where spinors are real); each sample is classified
    under every admissible pairing separately.  The result is the JSON
    object the CLI prints: one section per pairing, whose ``classes``
    map ``str(index)`` to the count, the zero pattern and the first
    sample of the class.  A pairing that is anti-isometric under the
    real structure supports no scalar/rank-2 covariants on real
    spinors; its section lists the bilinear ranks that survived
    (``surviving_ranks``) instead of class counts.
    """
    if samples < 0:
        raise ValueError("sample count must be non-negative")
    geometry = geometry_of(rep.signature)
    rng = random.Random(seed)
    dim = rep.d
    real = _real(rep)
    sections = [
        {
            "pairing": {
                "hash": pairing.content_hash(),
                "sigma": pairing.sigma,
                "tau": pairing.tau,
                "isotropy": pairing.isotropy,
            },
            "real_structure_compatible": not real or pairing.isotropy == 1,
            "classes": {},
        }
        for pairing in pairings
    ]
    ranks: list[set[int]] = [set() for _ in pairings]
    for _ in range(samples):
        raw = tuple(rng.randint(-CENSUS_BOX, CENSUS_BOX) for _ in range(dim))
        vec = prepare(rep, raw)
        for pairing, section, seen in zip(pairings, sections, ranks):
            if not section["real_structure_compatible"]:
                prof, _ = _bilinear_profile(rep, pairing, vec, vec, _profile_gather(rep))
                seen |= {m.bit_count() for m in prof}
                continue
            index = classify(covariants(rep, pairing, vec), volume_sign=rep.volume_sign)
            entry = section["classes"].setdefault(str(index), {"count": 0})
            if not entry["count"]:
                entry["pattern"] = geometry.class_name(index)
                entry["representative"] = [rational_to_str(x) for x in vec]
            entry["count"] += 1
    for section, seen in zip(sections, ranks):
        if not section["real_structure_compatible"]:
            section["surviving_ranks"] = sorted(seen)
    return {
        "signature": [rep.signature.p, rep.signature.q],
        "samples": samples,
        "seed": seed,
        "box": CENSUS_BOX,
        "volume_sign": rep.volume_sign,
        "sections": sections,
    }


# -- closed-form product identity battery on (9,0) --------------------------------------

APPENDIX_SIGNATURE = (9, 0)
# Battery inputs: coefficients from [-APPENDIX_BOX, APPENDIX_BOX], and
# APPENDIX_TERMS blades in each 4-form.
APPENDIX_BOX = 4
APPENDIX_TERMS = 6


def _random_homogeneous(rng: random.Random, sig: Signature, k: int, box: int, terms: int) -> Form:
    masks = [m for m in range(1 << sig.n) if m.bit_count() == k]
    chosen = rng.sample(masks, min(terms, len(masks)))
    return Form.from_mask_dict(sig, {m: rng.randint(-box, box) for m in chosen})


def _appendix_rows(psi0: Form, psi1: Form, psi4: Form):
    """(id, literal value, closed form, allowed grades) for all twelve rows."""
    b = psi0.scalar_part()
    w11 = wedge(psi1, psi1)
    c11 = contracted_wedge(psi1, psi1, 1)
    w14 = wedge(psi1, psi4)
    c14 = contracted_wedge(psi1, psi4, 1)
    w44 = wedge(psi4, psi4)
    quad_closed = (
        contracted_wedge(psi4, psi4, 2).scale(Fraction(-1, 2))
        + contracted_wedge(psi4, psi4, 3).scale(Fraction(1, 6))
        + contracted_wedge(psi4, psi4, 4).scale(Fraction(1, 24))
        + hodge(w44)
        - hodge(contracted_wedge(psi4, psi4, 1))
    )
    return (
        (
            "scalar-square-projector-replay",
            truncated_product(psi0, psi0),
            lower_projection(psi0 + hodge(psi0)).scale(b),
            frozenset({0}),
        ),
        ("scalar-square", truncated_product(psi0, psi0), psi0.scale(b), frozenset({0})),
        ("scalar-vector", truncated_product(psi0, psi1), psi1.scale(b), frozenset({1})),
        ("scalar-quadform", truncated_product(psi0, psi4), psi4.scale(b), frozenset({4})),
        ("vector-scalar", truncated_product(psi1, psi0), psi1.scale(b), frozenset({1})),
        ("vector-square", truncated_product(psi1, psi1), w11 + c11, frozenset({0, 2})),
        (
            "vector-quadform-full",
            graf_product(psi1, psi4),
            w14 + c14,
            frozenset({3, 5}),
        ),
        ("vector-quadform", truncated_product(psi1, psi4), c14 + hodge(w14), frozenset({3, 4})),
        ("quadform-scalar", truncated_product(psi4, psi0), psi4.scale(b), frozenset({4})),
        (
            "quadform-vector-full",
            graf_product(psi4, psi1),
            w14 - c14,
            frozenset({3, 5}),
        ),
        ("quadform-vector", truncated_product(psi4, psi1), hodge(w14) - c14, frozenset({3, 4})),
        ("quadform-square", truncated_product(psi4, psi4), quad_closed, frozenset({0, 1, 2, 3, 4})),
    )


def appendix_check(sig: Signature, trials: int, seed: int) -> dict:
    """Closed-form expansions of pairwise covariant-grade products, exactly.

    Samples independent scalar, 1-form, and 4-form inputs (the scalar
    stands in for the pairing value where the closed form uses it) and
    checks each product row against literal evaluation, including the
    claimed grade memberships of the results.  Returns the battery
    object the CLI prints: one row per identity, each with its first
    failing residual, and ``passed`` when no row failed.
    """
    if (sig.p, sig.q) != APPENDIX_SIGNATURE:
        raise UnsupportedSignature("the identity battery is stated on signature (9,0)")
    rng = random.Random(seed)
    order: list[str] = []
    failures: dict[str, Form] = {}
    for _ in range(trials):
        psi0 = Form.scalar(sig, rng.randint(-APPENDIX_BOX, APPENDIX_BOX))
        psi1 = Form.from_mask_dict(
            sig, {1 << i: rng.randint(-APPENDIX_BOX, APPENDIX_BOX) for i in range(sig.n)}
        )
        psi4 = _random_homogeneous(rng, sig, 4, APPENDIX_BOX, APPENDIX_TERMS)
        for ident, literal, closed, grades in _appendix_rows(psi0, psi1, psi4):
            if ident not in order:
                order.append(ident)
            if ident in failures:
                continue
            residual = literal - closed
            if not residual.is_zero():
                failures[ident] = residual
                continue
            stray = {k for k in literal.grades() if k not in grades}
            if stray:
                failures[ident] = sum(
                    (grade_project(literal, k) for k in sorted(stray)),
                    Form.zero(sig),
                )
    zero = Form.zero(sig)
    rows = [_result(ident, failures.get(ident, zero)) for ident in order]
    return {
        "signature": [sig.p, sig.q],
        "trials": trials,
        "seed": seed,
        "passed": not failures,
        "rows": rows,
    }
