"""Form-valued bilinear covariants and the geometric Fierz identities.

The rank-one endomorphism built from two spinors expands over blade
operators with coefficients B(alpha, blade(beta)).  Collecting those
coefficients as exterior forms gives the covariants; the algebra of the
rank-one endomorphisms then forces quadratic identities among them,
checked here with exact arithmetic and no tolerances.

Index sums run over canonical ascending blades.  The printed expansions
sum over ordered index tuples with a 1/k! factor instead; the two agree
because each index set has exactly k! orderings, and the tuple form is
kept in the test suite as an independent oracle.

Each expansion coefficient is the bilinear against the metric-lowered
blade: in an orthonormal frame this contributes the product of the
metric signs over the blade's indices.  The factor is invisible in
positive-definite frames but required for the components to reassemble
the endomorphism exactly, which is machine-checked here; likewise the
weight on the D-inserted component is the case sign alone, with no
extra alternating factor.  Both conventions are fixed by solving the
reassembly equation exactly, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from operator import sub

from .bilinear import Pairing, b_eval
from .errors import DimensionMismatch, StructureError
from .exterior import Form, grade_involution, grade_project
from .graf import graf_product
from .linalg import (
    Matrix,
    Vector,
    as_matrix,
    common_denominator,
    divide_numerators,
    mat_add,
    mat_mul,
    mat_scale,
)
from .matrixrep import (
    CASE_ALMOST_COMPLEX,
    CASE_NORMAL,
    CASE_QUATERNIONIC,
    MainSubalgebra,
    Rep,
    d_square_target,
)


@dataclass(frozen=True)
class Covariant:
    """Form components of the spinor-pair endomorphism, by case.

    normal: a single form; almost_complex: (component 0, component 1
    carrying the D insertion); quaternionic: components 0..3 carrying
    the H_i insertions.
    """

    case: str
    components: tuple[Form, ...]

    def __iter__(self):
        return iter(self.components)


def endo_E(pairing: Pairing, alpha: Vector, beta: Vector) -> Matrix:
    """Rank-one endomorphism sending gamma to B(gamma, beta) alpha."""
    d = pairing.gram.dim
    if len(alpha) != d or len(beta) != d:
        raise DimensionMismatch("spinor length does not match the pairing")
    abeta = pairing.gram.apply(beta)
    return as_matrix([[alpha[i] * abeta[j] for j in range(d)] for i in range(d)])


def fundamental_identity_holds(
    pairing: Pairing, alpha1, beta1, alpha2, beta2
) -> bool:
    """Composition law of the rank-one endomorphisms, checked exactly."""
    e11 = endo_E(pairing, alpha1, beta1)
    e22 = endo_E(pairing, alpha2, beta2)
    e12 = endo_E(pairing, alpha1, beta2)
    factor = b_eval(pairing, alpha2, beta1)
    return mat_mul(e11, e22) == mat_scale(e12, factor)


def _bilinear_profile(rep: Rep, pairing: Pairing, alpha: Vector, w: Vector) -> dict[int, object]:
    """Coefficients B(alpha, blade(w)) for every canonical blade mask.

    With z = G^T alpha and the blade a signed permutation (row i holds
    sign[i] at column col[i]), the coefficient is
    sum_i sign[i] z[i] w[col[i]].  alpha, z and w are cleared to integer
    numerators first (Majorana-projected spinors have half-integer
    entries), so the products z[i] w[j] are formed once per call on ints,
    and the representation's profile table gathers each blade's signed
    products into one run of d values; a running sum differenced at the
    run boundaries gives every coefficient.  Each nonzero coefficient is
    divided once at the end; an integral one comes back as an int.
    """
    d = rep.d
    if len(alpha) != d or len(w) != d:
        raise DimensionMismatch("spinor length does not match the representation")
    an, aden = common_denominator(list(enumerate(alpha)))
    zt = pairing.gram.transpose().apply([c for _, c in an])
    zt, zden = common_denominator(list(enumerate(zt)))
    wn, wden = common_denominator(list(enumerate(w)))
    wn = [c for _, c in wn]
    zw = [z * c for _, z in zt for c in wn]
    zw += [-v for v in zw]
    ends = list(islice(accumulate(rep.profile_gather()(zw), initial=0), 0, None, d))
    out = {mask: v for mask, v in enumerate(map(sub, ends[1:], ends)) if v}
    return divide_numerators(out, aden * zden * wden)


def _lowering_signs(rep: Rep) -> tuple[int, ...]:
    """Per-mask product of metric diagonal signs (index lowering weight)."""
    diag = rep.metric.diagonal
    n = rep.signature.n
    out = [1] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        out[mask] = out[mask ^ low] * int(diag[low.bit_length() - 1])
    return tuple(out)


def _assemble(rep: Rep, profile: dict, prefactor, tau_weight: int) -> Form:
    """Blade profile to a form: grade k weighted by tau^k times lowering sign."""
    signs = _lowering_signs(rep)
    terms = {}
    for mask, val in profile.items():
        c = prefactor * val * signs[mask]
        if tau_weight == -1 and mask.bit_count() % 2 == 1:
            c = -c
        terms[mask] = c
    return Form.from_mask_dict(rep.signature, terms)


def covariant(
    rep: Rep,
    structure: MainSubalgebra,
    pairing: Pairing,
    alpha: Vector,
    beta: Vector,
) -> Covariant:
    """Covariant form components for a spinor pair, by structure case."""
    at = rep.abs
    if structure.case != at.case:
        raise StructureError("structure case does not match the representation")
    pref = Fraction(at.k_const, 1 << rep.signature.n)
    tau = pairing.tau
    if structure.case == CASE_NORMAL:
        prof = _bilinear_profile(rep, pairing, alpha, beta)
        return Covariant(CASE_NORMAL, (_assemble(rep, prof, pref, tau),))
    if structure.case == CASE_ALMOST_COMPLEX:
        dsign = d_square_target(rep.signature)
        prof0 = _bilinear_profile(rep, pairing, alpha, beta)
        dbeta = structure.D.apply(beta)
        prof1 = _bilinear_profile(rep, pairing, alpha, dbeta)
        comp0 = _assemble(rep, prof0, pref, -1)
        comp1 = _assemble(rep, prof1, pref * dsign, 1)
        return Covariant(CASE_ALMOST_COMPLEX, (comp0, comp1))
    comps = []
    for hi in (None,) + tuple(structure.H):
        w = beta if hi is None else hi.apply(beta)
        prof = _bilinear_profile(rep, pairing, alpha, w)
        comps.append(_assemble(rep, prof, pref, tau))
    return Covariant(CASE_QUATERNIONIC, tuple(comps))


def reconstruct_check(
    rep: Rep,
    structure: MainSubalgebra,
    pairing: Pairing,
    cov: Covariant,
    alpha: Vector,
    beta: Vector,
) -> bool:
    """The component forms reassemble the spinor-pair endomorphism."""
    target = endo_E(pairing, alpha, beta)
    if cov.case == CASE_NORMAL:
        return rep.lambda_form(cov.components[0]) == target
    units = (structure.D,) if cov.case == CASE_ALMOST_COMPLEX else structure.H
    built = rep.lambda_form(cov.components[0])
    for unit, comp in zip(units, cov.components[1:]):
        built = mat_add(built, unit.left_act(rep.lambda_form(comp)))
    return built == target


# -- identity checking ---------------------------------------------------------------


@dataclass(frozen=True)
class IdentityResult:
    identity: str
    passed: bool
    residual: Form

    def residual_by_grade(self) -> dict[int, Form]:
        return {
            k: grade_project(self.residual, k)
            for k in sorted(self.residual.grades())
        }

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "passed": self.passed,
            "residual_by_grade": {
                str(k): f.to_json_obj() for k, f in self.residual_by_grade().items()
            },
        }


@dataclass(frozen=True)
class FierzVerdict:
    case: str
    results: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_obj(self) -> dict:
        return {
            "case": self.case,
            "passed": self.passed,
            "results": [r.to_json_obj() for r in self.results],
        }


def _result(identity: str, residual: Form) -> IdentityResult:
    return IdentityResult(identity, residual.is_zero(), residual)


EPSILON3 = {
    (1, 2): (1, 3),
    (2, 1): (-1, 3),
    (2, 3): (1, 1),
    (3, 2): (-1, 1),
    (3, 1): (1, 2),
    (1, 3): (-1, 2),
}


def check_fierz(
    rep: Rep,
    structure: MainSubalgebra,
    pairing: Pairing,
    alpha1: Vector,
    beta1: Vector,
    alpha2: Vector,
    beta2: Vector,
) -> FierzVerdict:
    """Exact verdict for the case-appropriate quadratic identities."""
    met = rep.metric
    cov11 = covariant(rep, structure, pairing, alpha1, beta1)
    cov22 = covariant(rep, structure, pairing, alpha2, beta2)
    cov12 = covariant(rep, structure, pairing, alpha1, beta2)
    factor = b_eval(pairing, alpha2, beta1)
    if structure.case == CASE_NORMAL:
        res = graf_product(cov11.components[0], cov22.components[0], met) - cov12.components[
            0
        ].scale(factor)
        return FierzVerdict(CASE_NORMAL, (_result("normal", res),))
    if structure.case == CASE_ALMOST_COMPLEX:
        dsign = d_square_target(rep.signature)
        e0_11, e1_11 = cov11.components
        e0_22, e1_22 = cov22.components
        e0_12, e1_12 = cov12.components
        res1 = (
            graf_product(e0_11, e0_22, met)
            + grade_involution(graf_product(e1_11, e1_22, met)).scale(dsign)
            - e0_12.scale(factor)
        )
        res2 = (
            grade_involution(graf_product(e0_11, e1_22, met))
            + graf_product(e1_11, e0_22, met)
            - e1_12.scale(factor)
        )
        return FierzVerdict(
            CASE_ALMOST_COMPLEX,
            (_result("almost_complex_i", res1), _result("almost_complex_ii", res2)),
        )
    comps11 = cov11.components
    comps22 = cov22.components
    comps12 = cov12.components
    res0 = graf_product(comps11[0], comps22[0], met)
    for i in (1, 2, 3):
        res0 = res0 - graf_product(comps11[i], comps22[i], met)
    res0 = res0 - comps12[0].scale(factor)
    results = [_result("quaternionic_scalar", res0)]
    for i in (1, 2, 3):
        res = graf_product(comps11[0], comps22[i], met) + graf_product(
            comps11[i], comps22[0], met
        )
        for (j, k), (sgn, ii) in EPSILON3.items():
            if ii == i:
                term = graf_product(comps11[j], comps22[k], met)
                res = res + term.scale(sgn)
        res = res - comps12[i].scale(factor)
        results.append(_result(f"quaternionic_vector_{i}", res))
    return FierzVerdict(CASE_QUATERNIONIC, tuple(results))
