"""Form-valued bilinear covariants and the geometric Fierz identities.

The rank-one endomorphism E(alpha, beta), gamma -> B(gamma, beta) alpha,
expands over the operators u lambda(e_m), where e_m runs over the
canonical blades and u over the commutant units U = (1,) + units: no
unit in the normal case, (D,) in the almost-complex case and
(H1, H2, H3) in the quaternionic case (the units of ``Rep.structure``).
The coefficients, collected as one exterior form per unit, are the
covariants.  The composition law E11 E22 = B(alpha2, beta1) E12 holds
for every gram A, since E(alpha, beta) = alpha (A beta)^T gives
E11 E22 = alpha1 ((A beta1)^T alpha2) (A beta2)^T = B(alpha2, beta1) E12.
It then forces quadratic identities among them, checked here with exact
arithmetic and no tolerances.  One engine serves every case; three
constants per unit drive it, each read off the signed permutations and
checked (StructureError otherwise):

* the twist c_u = +-1, with u g = c_u g u for every generator g.  So
  lambda(x) u = u lambda(sigma_u x), where sigma_u is the identity when
  c_u = +1 and the grade involution when c_u = -1;
* the weight eps_u = +-1, with u^T A u = eps_u A for the pairing's
  gram A (eps_D is not D^2 in general: on the preferred pairing of
  (1,6), D^2 = -Id and eps_D = +1);
* the products U[u] U[v] = s U[w], s = +-1.

Covariants.  The operators u lambda(e_m) are trace-orthogonal, so the
coefficient of u lambda(e_m) in E is a multiple of
tr(lambda(e_m)^-1 u^-1 E) = B(lambda(e_m)^-1 u^-1 alpha, beta).  The
pairing's law g^T A = tau A g gives lambda(e_m^-1)^T A = s_m tau^k A
lambda(e_m) for a k-blade, where s_m, the product of the metric signs
over the blade's indices, is the index-lowering sign (invisible in a
positive-definite frame).  With (u^-1)^T A = eps_u A u and
u lambda(e_m) = c_u^k lambda(e_m) u this is

    eps_u (tau c_u)^k s_m B(alpha, e_m u beta).

The multiple is k_const / 2^n, which is 1/d, halved in the double
algebras where e_m and e_m vol act alike.  ``unit_profile`` gives the
coefficients before that multiple, with the signs (tau c_u)^k s_m read
from one table per representation and tau c_u; the classification reads
the identity unit's.  ``reconstruct_check`` verifies
sum_u u lambda(f_u) = E exactly, on integer numerators over one common
denominator, reading only the blades' signed permutations and so
independently of the weights above.

Fierz identities.  Write a_u, b_u and f_u for the components of E11,
E22 and E12.  Moving U[v] left past lambda(a_u) turns a_u into
sigma_v(a_u), so E11 E22 = sum_{u,v} U[u] U[v] lambda(sigma_v(a_u) b_v),
and for every w

    sum_{U[u] U[v] = s U[w]} s sigma_v(a_u) b_v = B(alpha2, beta1) f_w.

These are 1, 2 or 4 identities from 1, 4 or 16 products.  They hold as
equalities of forms: lambda is injective, except in the double algebras,
where every covariant lies in the ideal that lambda maps faithfully.

Index sums run over canonical ascending blades.  The printed expansions
sum over ordered index tuples with a 1/k! factor instead; the two agree
because each index set has exactly k! orderings, and the tuple form is
kept in the test suite as an independent oracle.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import add, itemgetter, sub
from typing import Callable

from .bilinear import Pairing, b_eval
from .errors import DimensionMismatch, StructureError
from .exterior import Form, grade_involution, grade_project
from .graf import graf_product
from .linalg import (
    Matrix,
    SignedPerm,
    Vector,
    as_matrix,
    common_denominator,
    divide_numerators,
    mat_mul,
    mat_scale,
)
from .matrixrep import CASE_ALMOST_COMPLEX, CASE_NORMAL, CASE_QUATERNIONIC, Rep

# The identity for unit w, in the order of U.
IDENTITY_NAMES = {
    CASE_NORMAL: ("normal",),
    CASE_ALMOST_COMPLEX: ("almost_complex_i", "almost_complex_ii"),
    CASE_QUATERNIONIC: ("quaternionic_scalar",)
    + tuple(f"quaternionic_vector_{i}" for i in (1, 2, 3)),
}


def _ratio(x: SignedPerm, y: SignedPerm) -> int | None:
    """The sign s with x = s y, or None; y^-1 = y^T for a signed permutation."""
    return x.compose(y.transpose()).scalar_value()


@dataclass(frozen=True)
class UnitTable:
    """The commutant units U = (1,) + units and their constants, by index.

    twists[u] = c_u and weights[u] = eps_u as in the module docstring;
    products[u][v] = (s, w) with U[u] U[v] = s U[w].
    """

    units: tuple[SignedPerm, ...]
    twists: tuple[int, ...]
    weights: tuple[int, ...]
    products: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=8)
def unit_table(rep: Rep, pairing: Pairing) -> UnitTable:
    """Twists, weights and products of the commutant units, cached across covariant calls."""
    units = (SignedPerm.identity(rep.d),) + rep.structure.units
    gram = pairing.gram
    twists, weights = [], []
    for u in units:
        signs = {_ratio(u.compose(g), g.compose(u)) for g in rep.perms} or {1}
        if len(signs) != 1 or None in signs:
            raise StructureError("a commutant unit neither commutes nor anticommutes with the generators")
        eps = _ratio(u.transpose().compose(gram).compose(u), gram)
        if eps is None:
            raise StructureError("a commutant unit is not an (anti-)isometry of the pairing")
        twists.append(signs.pop())
        weights.append(eps)
    products = []
    for u in units:
        row = []
        for v in units:
            uv = u.compose(v)
            hit = next(((s, w) for w, x in enumerate(units) if (s := _ratio(uv, x))), None)
            if hit is None:
                raise StructureError("the commutant units are not closed under products")
            row.append(hit)
        products.append(tuple(row))
    return UnitTable(units, tuple(twists), tuple(weights), tuple(products))


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


def _blade_gather(rep: Rep, lanes: Iterable[tuple[int, int]]) -> Callable[[list], tuple]:
    """Signed blades as flat indices into z (x) w, -(z (x) w), one run per lane.

    Lane (mask, weight) by lane, row i of ``rep.blade_sp(mask)`` (sign s
    at column c) is index i*d + c of the outer product z (x) w of two
    length-d vectors, plus d*d when s * weight is -1, to land in the
    negated copy that follows it.  So the gather of the concatenation
    holds one run of d values per lane, and each run sums to
    weight * sum_i s_i z_i w_(c_i).
    """
    d = rep.d
    # one int object per index value, shared by every lane that uses it
    flat = list(range(2 * d * d))
    indices = []
    for mask, weight in lanes:
        sp = rep.blade_sp(mask)
        indices += [
            flat[i * d + c if s == weight else d * d + i * d + c]
            for i, (c, s) in enumerate(zip(sp.col, sp.sign))
        ]
    gather = itemgetter(*indices)
    # on (0,0) there is one index, and itemgetter then returns the item itself
    return gather if len(indices) > 1 else lambda v: (gather(v),)


@lru_cache(maxsize=8)
def _profile_gather(rep: Rep) -> Callable[[list], tuple]:
    """Every blade in mask order with weight +1 (``_blade_gather``): 2^n runs of d values."""
    return _blade_gather(rep, ((mask, 1) for mask in range(1 << rep.signature.n)))


def _bilinear_profile(
    rep: Rep, pairing: Pairing, alpha: Vector, w: Vector, gather: Callable[[list], tuple]
) -> dict[int, object]:
    """Coefficients weight * B(alpha, blade(w)) for each lane of ``gather``, by lane.

    ``gather`` comes from ``_blade_gather``: lane j is a blade, a
    signed permutation whose row i holds sign[i] at column col[i], with
    a weight of +-1, and its coefficient is
    weight * sum_i sign[i] z[i] w[col[i]] with z = G^T alpha.  With
    ``_profile_gather(rep)`` the lanes are the masks in order.  alpha, z
    and w are cleared to integer numerators first (Majorana-projected
    spinors have half-integer entries; w passed as alpha itself is
    cleared once), so the products z[i] w[j] are formed once per call on
    ints, and the gather puts each lane's signed products into one run
    of d values, which ``sum`` adds on its small-int fast path.  Each
    nonzero coefficient is divided once at the end; an integral one
    comes back as an int.  The lanes come out in ascending order.
    """
    d = rep.d
    if len(alpha) != d or len(w) != d:
        raise DimensionMismatch("spinor length does not match the representation")
    an, aden = common_denominator(list(enumerate(alpha)))
    an = [c for _, c in an]
    zt = pairing.gram_transpose.apply(an)
    zt, zden = common_denominator(list(enumerate(zt)))
    if w is alpha:
        wn, wden = an, aden
    else:
        wn, wden = common_denominator(list(enumerate(w)))
        wn = [c for _, c in wn]
    zw = [z * c for _, z in zt for c in wn]
    zw += [-v for v in zw]
    # zip over d copies of one iterator yields the gather's runs of d values
    sums = list(map(sum, zip(*[iter(gather(zw))] * d)))
    return divide_numerators(dict(compress(enumerate(sums), sums)), aden * zden * wden)


@lru_cache(maxsize=8)
def _blade_weights(rep: Rep, tc: int) -> tuple[int, ...]:
    """tc^k s_m for every blade mask m of grade k, built by doubling.

    s_m is the product of the metric signs over the blade's indices (the
    index-lowering sign): -1 for each of the last q indices in the
    standard frame of signature (p, q).  tc = tau c_u is the unit's grade
    sign, so the table serves every unit with the same tc.
    """
    sig = rep.signature
    out = [1]
    for i in range(sig.n):
        step = tc if i < sig.p else -tc
        out += [w * step for w in out]
    return tuple(out)


def unit_profile(
    rep: Rep, pairing: Pairing, alpha: Vector, beta: Vector, eps: int = 1, twist: int = 1
) -> dict[int, object]:
    """Unscaled blade coefficients eps (tau c)^k s_m B(alpha, e_m beta), by mask.

    With beta replaced by u beta, eps = eps_u and twist = c_u this is the
    component of unit u before the k_const / 2^n multiple; the defaults
    give the identity unit's.
    """
    weights = _blade_weights(rep, pairing.tau * twist)
    prof = _bilinear_profile(rep, pairing, alpha, beta, _profile_gather(rep))
    return {m: eps * weights[m] * v for m, v in prof.items()}


def covariant(rep: Rep, pairing: Pairing, alpha: Vector, beta: Vector) -> tuple[Form, ...]:
    """Form components of the spinor-pair endomorphism, one per commutant unit.

    They come in the order of ``unit_table(rep, pairing).units``.  normal:
    a single form; almost_complex: component 0 and the component carrying
    the D insertion; quaternionic: components 0..3 carrying the H_i
    insertions.  Blade m of component u is
    pref eps_u (tau c_u)^k s_m B(alpha, e_m u beta).
    """
    table = unit_table(rep, pairing)
    pref = Fraction(rep.abs.k_const, 1 << rep.signature.n)
    comps = []
    for u, c, eps in zip(table.units, table.twists, table.weights):
        prof = unit_profile(rep, pairing, alpha, u.apply(beta), eps, c)
        comps.append(Form.from_mask_dict(rep.signature, {m: pref * v for m, v in prof.items()}))
    return tuple(comps)


def reconstruct_check(
    rep: Rep, pairing: Pairing, cov: tuple[Form, ...], alpha: Vector, beta: Vector
) -> bool:
    """sum_u u lambda(f_u) = E(alpha, beta), on integer numerators over one denominator.

    Each term c lambda(e_m) is added into d rows of d ints per component
    from the blade's signed permutation; row i of u M is u.sign[i] times
    row u.col[i] of M.  No covariant weight is read.
    """
    units = rep.structure.units
    if len(cov) != 1 + len(units):
        raise StructureError("covariant components do not match the commutant units")
    d = rep.d
    if len(alpha) != d or len(beta) != d:
        raise DimensionMismatch("spinor length does not match the pairing")
    if any(f.signature != rep.signature for f in cov):
        raise DimensionMismatch("form signature does not match the representation")
    terms = [((u, m), c) for u, f in enumerate(cov) for m, c in f.mask_items()]
    terms, den = common_denominator(terms)
    images = [[[0] * d for _ in range(d)] for _ in cov]
    for (u, mask), c in terms:
        sp = rep.blade_sp(mask)
        for row, col, s in zip(images[u], sp.col, sp.sign):
            row[col] += c * s
    total = images[0]
    for unit, image in zip(units, images[1:]):
        for i, (col, s) in enumerate(zip(unit.col, unit.sign)):
            total[i] = list(map(add if s == 1 else sub, total[i], image[col]))
    abeta = pairing.gram.apply(beta)
    return total == [[den * a * b for b in abeta] for a in alpha]


# -- identity checking ---------------------------------------------------------------


def _result(identity: str, residual: Form) -> dict:
    """An identity's verdict, the JSON object the reports print: its residual grade by grade."""
    return {
        "identity": identity,
        "passed": residual.is_zero(),
        "residual_by_grade": {
            str(k): grade_project(residual, k).to_json_obj() for k in sorted(residual.grades())
        },
    }


def check_fierz(rep: Rep, pairing: Pairing, cov11, cov22, cov12, factor) -> dict:
    """Exact verdict on E11 E22 = factor E12, one identity per commutant unit.

    cov11, cov22 and cov12 are the covariants (``covariant``) of
    (alpha1, beta1), (alpha2, beta2) and (alpha1, beta2), and factor is
    B(alpha2, beta1).  The verdict is the JSON object
    {"case", "passed", "results"} with one result per identity.
    """
    table = unit_table(rep, pairing)
    if any(len(cov) != len(table.units) for cov in (cov11, cov22, cov12)):
        raise StructureError("covariant components do not match the commutant units")
    residuals = [c.scale(-factor) for c in cov12]
    for u, row in enumerate(table.products):
        for v, (s, w) in enumerate(row):
            au = cov11[u] if table.twists[v] == 1 else grade_involution(cov11[u])
            term = graf_product(au, cov22[v])
            residuals[w] = residuals[w] + term if s == 1 else residuals[w] - term
    case = rep.abs.case
    results = [_result(name, r) for name, r in zip(IDENTITY_NAMES[case], residuals)]
    return {"case": case, "passed": all(r["passed"] for r in results), "results": results}
