"""Admissible bilinear pairings on the representation space.

A pairing is a real invertible matrix A defining B(x, y) = x^T A y such
that every generator is tau-adjoint to itself: A G_i = tau G_i^T A.  The
symmetry sign sigma comes from A^T = sigma A.  Solutions are found by
solving the linear intertwining system exactly, never assumed; the
published symmetry and type tables then act as cross-checks.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DimensionMismatch, StructureError
from .exterior import Signature, rational_from_str, rational_to_str
from .linalg import (
    Matrix,
    SignedPerm,
    Vector,
    as_matrix,
    identity,
    mat_add,
    mat_inverse,
    mat_scale,
    mat_sub,
    mat_vec,
    nullspace,
    rref,
    solve_twisted_system,
    transpose,
)
from .matrixrep import MainSubalgebra, Rep, build_structure


class TableMismatchWarning(UserWarning):
    """Computed pairing signs disagree with the published tables."""


@dataclass(frozen=True)
class Pairing:
    """Invertible gram matrix with its symmetry, type, and isotropy data.

    isotropy is +1 when the half-spinor components are orthogonal under
    B, -1 when each component is totally isotropic, and None when no
    splitting exists for the signature.
    """

    gram: Matrix
    sigma: int
    tau: int
    isotropy: int | None = None

    def verify(self, rep: Rep) -> None:
        a = self.gram
        if len(a) != rep.d:
            raise DimensionMismatch("pairing matrix size does not match the representation")
        if transpose(a) != mat_scale(a, self.sigma):
            raise StructureError("pairing symmetry sign is wrong")
        for g in rep.perms:
            if not _twisted_adjoint(a, g, self.tau):
                raise StructureError("pairing type relation fails on a generator")
        mat_inverse(a)  # raises if singular

    def to_json_obj(self) -> dict:
        return {
            "gram": [[rational_to_str(v) for v in row] for row in self.gram],
            "sigma": self.sigma,
            "tau": self.tau,
            "isotropy": self.isotropy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def pairing_from_json_obj(obj: dict) -> Pairing:
    try:
        gram = as_matrix(
            [[rational_from_str(v) if isinstance(v, str) else v for v in row] for row in obj["gram"]]
        )
        sigma = int(obj["sigma"])
        tau = int(obj["tau"])
        iso = obj.get("isotropy")
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"bad pairing JSON: {exc}") from exc
    return Pairing(gram, sigma, tau, None if iso is None else int(iso))


def pairing_from_json(text: str) -> Pairing:
    return pairing_from_json_obj(json.loads(text))


# -- published sign tables -----------------------------------------------------------


def table_sigma(signature: Signature) -> int | None:
    """Published symmetry sign for the signature, None off the table."""
    cls = signature.pq_class()
    nr = signature.n % 8
    if cls in (0, 2):
        return {0: 1, 2: 1, 4: -1, 6: -1}.get(nr)
    if cls == 1:
        return {1: 1, 7: 1, 3: -1, 5: -1}.get(nr)
    if cls in (3, 7):
        return {1: 1, 7: 1, 3: -1, 5: -1}.get(nr)
    if cls in (4, 6):
        return {0: -1, 2: -1, 4: 1, 6: 1}.get(nr)
    return {1: -1, 7: -1, 3: 1, 5: 1}.get(nr)


def table_tau(signature: Signature) -> int | None:
    """Published type sign for the signature, None off the table."""
    cls = signature.pq_class()
    nr = signature.n % 8
    if cls in (0, 2):
        return 1
    if cls == 1:
        return {1: 1, 5: 1, 3: -1, 7: -1}.get(nr)
    if cls in (3, 7):
        return -1
    if cls in (4, 6):
        return 1
    return {1: 1, 5: 1, 3: -1, 7: -1}.get(nr)


def check_tables(pairing: Pairing, signature: Signature) -> bool:
    """True when the computed signs match every printed table row."""
    ts = table_sigma(signature)
    tt = table_tau(signature)
    ok = True
    if ts is not None and pairing.sigma != ts:
        ok = False
    if tt is not None and pairing.tau != tt:
        ok = False
    return ok


# -- solving ---------------------------------------------------------------------------


def _first_nonzero_normalize(m: Matrix) -> Matrix:
    for row in m:
        for v in row:
            if v:
                if v == 1:
                    return m
                return mat_scale(m, Fraction(1, 1) / v)
    return m


def _symmetry_parts(m: Matrix):
    mt = transpose(m)
    half = Fraction(1, 2)
    sym = mat_scale(mat_add(m, mt), half)
    anti = mat_scale(mat_sub(m, mt), half)
    return sym, anti


def _independent(mats: list[Matrix], d: int) -> list[Matrix]:
    if not mats:
        return []
    rows = [[m[i][j] for i in range(d) for j in range(d)] for m in mats]
    reduced, pivots = rref(rows)
    return [
        as_matrix([[reduced[r][i * d + j] for j in range(d)] for i in range(d)])
        for r in range(len(pivots))
    ]


def _is_invertible(m: Matrix) -> bool:
    try:
        mat_inverse(m)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _twisted_adjoint(a: Matrix, g: SignedPerm, tau: int) -> bool:
    """A G = tau G^T A, by permuting and signing the entries of A."""
    return g.right_act(a) == mat_scale(g.transpose().left_act(a), tau)


def solve_pairing(rep: Rep, tau: int) -> list[Pairing]:
    """All invertible pairings of the given type, split by symmetry.

    Returns one normalized representative per independent symmetric or
    antisymmetric solution of {A G_i = tau G_i^T A}; empty when the type
    admits no invertible solution.
    """
    if tau not in (1, -1):
        raise ValueError("tau must be +1 or -1")
    d = rep.d
    if rep.signature.n == 0:
        return [Pairing(identity(1), 1, tau)]
    basis = solve_twisted_system(d, [(g, g.transpose(), tau) for g in rep.perms])
    sym_parts: list[Matrix] = []
    anti_parts: list[Matrix] = []
    for m in basis:
        sym, anti = _symmetry_parts(m)
        if any(any(v for v in row) for row in sym):
            sym_parts.append(sym)
        if any(any(v for v in row) for row in anti):
            anti_parts.append(anti)
    out: list[Pairing] = []
    for sigma, parts in ((1, sym_parts), (-1, anti_parts)):
        for m in _independent(parts, d):
            cand = _first_nonzero_normalize(m)
            if _is_invertible(cand):
                out.append(Pairing(cand, sigma, tau))
    return out


def b_eval(pairing: Pairing, alpha: Vector, beta: Vector):
    """Evaluate B(alpha, beta) = alpha^T A beta."""
    if len(alpha) != len(pairing.gram) or len(beta) != len(pairing.gram):
        raise DimensionMismatch("vectors do not match the pairing size")
    av = mat_vec(pairing.gram, tuple(beta))
    return sum(x * y for x, y in zip(alpha, av))


# -- metadata: symmetry recomputation, isotropy, table cross-check ---------------------


def _eigenspace(m: Matrix, value: int) -> list[Vector]:
    d = len(m)
    shifted = [[m[i][j] - (value if i == j else 0) for j in range(d)] for i in range(d)]
    return nullspace(shifted, d)


def _half_spinor_split(rep: Rep, structure: MainSubalgebra):
    """The +-1 eigenspace split used for isotropy, when one exists."""
    cand = None
    if structure.d_square_sign == 1:
        cand = structure.D
    else:
        vol = rep.volume_sp()
        if vol.compose(vol).scalar_value() == 1 and vol.scalar_value() is None:
            cand = vol.to_dense()
    if cand is None:
        return None
    plus = _eigenspace(cand, 1)
    minus = _eigenspace(cand, -1)
    if len(plus) + len(minus) != rep.d:
        raise StructureError("eigenspace split does not span the representation")
    return plus, minus


def isotropy_sign(pairing: Pairing, rep: Rep, structure: MainSubalgebra) -> int | None:
    split = _half_spinor_split(rep, structure)
    if split is None:
        return None
    plus, minus = split
    cross = all(b_eval(pairing, u, v) == 0 for u in plus for v in minus) and all(
        b_eval(pairing, u, v) == 0 for u in minus for v in plus
    )
    diag = all(b_eval(pairing, u, v) == 0 for u in plus for v in plus) and all(
        b_eval(pairing, u, v) == 0 for u in minus for v in minus
    )
    if cross and not diag:
        return 1
    if diag and not cross:
        return -1
    raise StructureError("pairing is neither orthogonal nor isotropic on the split")


def pairing_metadata(pairing: Pairing, rep: Rep, structure: MainSubalgebra) -> Pairing:
    """Recompute sigma, fill isotropy, and warn on any table mismatch."""
    a = pairing.gram
    at = transpose(a)
    if at == a:
        sigma = 1
    elif at == mat_scale(a, -1):
        sigma = -1
    else:
        raise StructureError("pairing matrix has no definite symmetry")
    iso = isotropy_sign(pairing, rep, structure)
    out = replace(pairing, sigma=sigma, isotropy=iso)
    if not check_tables(out, rep.signature):
        warnings.warn(
            f"pairing signs (sigma={sigma}, tau={pairing.tau}) disagree with the "
            f"published tables for signature ({rep.signature.p},{rep.signature.q})",
            TableMismatchWarning,
            stacklevel=2,
        )
    return out


def admissible_pairings(rep: Rep, structure: MainSubalgebra | None = None) -> list[Pairing]:
    """Every invertible pairing matching the published type and symmetry row.

    More than one independent solution can match (two skew pairings exist
    on signature (1,2)); all are returned with metadata filled, in the
    solver's deterministic order.
    """
    tau = table_tau(rep.signature)
    if tau is None:
        raise StructureError("no published type sign for this signature")
    sols = solve_pairing(rep, tau)
    want_sigma = table_sigma(rep.signature)
    chosen = [p for p in sols if want_sigma is None or p.sigma == want_sigma]
    if not chosen:
        raise StructureError("no admissible pairing matches the published table row")
    structure = structure if structure is not None else build_structure(rep)
    out = []
    for cand in chosen:
        filled = pairing_metadata(cand, rep, structure)
        filled.verify(rep)
        out.append(filled)
    return out


def preferred_pairing(pairings: list[Pairing]) -> Pairing:
    """The pairing used for classification runs among the admissible ones.

    When several pairings match the table row, the one with an orthogonal
    half-spinor split is preferred: only there do the even-rank bilinears
    survive on real spinors, which the covariant constructions rely on.
    """
    for cand in pairings:
        if cand.isotropy == 1:
            return cand
    return pairings[0]


def standard_pairing(rep: Rep, structure: MainSubalgebra | None = None) -> Pairing:
    """The preferred admissible pairing of the representation."""
    return preferred_pairing(admissible_pairings(rep, structure))


# -- transpose law over blades ---------------------------------------------------------


def blade_transpose_sign(tau: int, k: int) -> int:
    """Sign in the blade transpose law: tau^k times the reversal sign."""
    s = 1 if k % 4 in (0, 1) else -1
    return s if tau == 1 or k % 2 == 0 else -s


def transpose_check(pairing: Pairing, rep: Rep) -> bool:
    """Exhaustive blade transpose law over all 2^n basis blades."""
    a, tau = pairing.gram, pairing.tau
    return all(
        _twisted_adjoint(a, rep.blade_sp(mask), blade_transpose_sign(tau, mask.bit_count()))
        for mask in range(1 << rep.signature.n)
    )


def vanishing_ranks(pairing: Pairing, n: int) -> set[int]:
    """Grades k with B(alpha, blade_k(alpha)) = 0 identically.

    The scalar B(a, M a) equals its own transpose, so it vanishes
    whenever sigma times the blade transpose sign is -1.
    """
    return {
        k
        for k in range(n + 1)
        if pairing.sigma * blade_transpose_sign(pairing.tau, k) == -1
    }
