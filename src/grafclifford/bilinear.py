"""Admissible bilinear pairings on the representation space.

A pairing is a real invertible matrix A defining B(x, y) = x^T A y such
that every generator is tau-adjoint to itself: A G_i = tau G_i^T A.  The
symmetry sign sigma comes from A^T = sigma A.  Solutions are found by
solving the linear intertwining system exactly, never assumed; the
published tables select among them: tau is the table's type sign, and
only solutions of the table's symmetry sign are admissible.  Every
solution is a signed permutation, so A is held as one: the pairing
checks, the isotropy test and B itself cost O(d), and the gram is
rendered dense only for reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

try:  # CPython's built-in SHA-256: _sha2 on 3.12+, _sha256 before
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import DimensionMismatch, StructureError
from .exterior import Signature
from .linalg import SignedPerm, Vector
from .matrixrep import MainSubalgebra, Rep, solve_signed_perms


@dataclass(frozen=True)
class Pairing:
    """Gram signed permutation with its symmetry, type, and isotropy data.

    A signed permutation is invertible, so no check of that is needed.
    isotropy is +1 when the half-spinor components are orthogonal under
    B, -1 when each component is totally isotropic, and None when no
    splitting exists for the signature.
    """

    gram: SignedPerm
    sigma: int
    tau: int
    isotropy: int | None = None

    @cached_property
    def gram_transpose(self) -> SignedPerm:
        """A^T, which maps a spinor x to the row vector x^T A, so B(x, y) = (A^T x) . y."""
        return self.gram.transpose()

    def verify(self, rep: Rep) -> None:
        a = self.gram
        if a.dim != rep.d:
            raise DimensionMismatch("pairing matrix size does not match the representation")
        if _symmetry(a) != self.sigma:
            raise StructureError("pairing symmetry sign is wrong")
        for g in rep.perms:
            if not _twisted_adjoint(a, g, self.tau):
                raise StructureError("pairing type relation fails on a generator")

    def to_json_obj(self) -> dict:
        return {
            "gram": self.gram.report_rows(),
            "sigma": self.sigma,
            "tau": self.tau,
            "isotropy": self.isotropy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """First 16 hex digits of SHA-256 over the canonical JSON.

        ``sha256`` is CPython's built-in one, not hashlib's: importing hashlib loads
        OpenSSL's libcrypto, 3.7 MiB resident per CLI process (3.11, x86-64 Linux).
        """
        return sha256(self.to_json().encode()).hexdigest()[:16]


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


# -- solving ---------------------------------------------------------------------------


def _symmetry(a: SignedPerm) -> int | None:
    """+1 when A^T = A, -1 when A^T = -A, else None."""
    at = a.transpose()
    if at == a:
        return 1
    if at == a.neg():
        return -1
    return None


def _twisted_adjoint(a: SignedPerm, g: SignedPerm, tau: int) -> bool:
    """A G = tau G^T A."""
    return a.compose(g) == g.transpose().compose(a).times(tau)


def solve_pairing(rep: Rep, tau: int) -> list[Pairing]:
    """All invertible pairings of the given type, split by symmetry.

    Returns the basis of {A G_i = tau G_i^T A} in the canonical form of
    ``solve_signed_perms``, symmetric elements first; empty when the type
    admits no solution.  Each element is a signed permutation and is
    symmetric or antisymmetric (else StructureError), so the order within
    each symmetry class is that of its row reduction.
    """
    if tau not in (1, -1):
        raise ValueError("tau must be +1 or -1")
    parts: dict[int, list[SignedPerm]] = {1: [], -1: []}
    for m in solve_signed_perms(rep.d, [(g, g.transpose(), tau) for g in rep.perms]):
        sigma = _symmetry(m)
        if sigma is None:
            raise StructureError("a pairing component is neither symmetric nor antisymmetric")
        parts[sigma].append(m)
    return [Pairing(m, sigma, tau) for sigma in (1, -1) for m in parts[sigma]]


def b_eval(pairing: Pairing, alpha: Vector, beta: Vector):
    """Evaluate B(alpha, beta) = alpha^T A beta."""
    if len(alpha) != pairing.gram.dim or len(beta) != pairing.gram.dim:
        raise DimensionMismatch("vectors do not match the pairing size")
    av = pairing.gram.apply(beta)
    return sum(x * y for x, y in zip(alpha, av))


# -- isotropy of the half-spinor split ------------------------------------------------


def _splitting_involution(rep: Rep, d: SignedPerm | None) -> SignedPerm | None:
    """The involution S whose +-1 eigenspaces split the spinors, when one exists.

    S is the real structure D when D^2 = +Id, else the volume element
    when it squares to +Id without being scalar.
    """
    if d is not None and d.compose(d).scalar_value() == 1:
        return d
    vol = rep.volume_sp()
    if vol.compose(vol).scalar_value() == 1 and vol.scalar_value() is None:
        return vol
    return None


def isotropy_sign(pairing: Pairing, split: SignedPerm | None) -> int | None:
    """+1 when B is orthogonal on the split by S, -1 when each half is totally isotropic.

    S (``_splitting_involution``, None when the spinors do not split) is
    a signed permutation of square +Id, so S = S^T = S^-1, and
    P+- = (1 +- S)/2 project onto the halves.  The cross blocks
    4 P+^T A P- = A - AS + SA - SAS and 4 P-^T A P+ = A + AS - SA - SAS
    sum to 2(A - SAS); the diagonal blocks 4 P+^T A P+ = A + AS + SA + SAS
    and 4 P-^T A P- = A - AS - SA + SAS sum to 2(A + SAS).  So the split
    is orthogonal only if S^T A S = A and isotropic only if S^T A S = -A;
    conversely SAS = +-A gives AS = +-SA, which kills the cross or the
    diagonal blocks.  A is invertible, so at most one holds.
    """
    if split is None:
        return None
    a = pairing.gram
    moved = split.transpose().compose(a).compose(split)
    if moved == a:
        return 1
    if moved == a.neg():
        return -1
    raise StructureError("pairing is neither orthogonal nor isotropic on the split")


def admissible_pairings(rep: Rep, structure: MainSubalgebra | None = None) -> list[Pairing]:
    """Every invertible pairing matching the published type and symmetry row.

    More than one independent solution can match (two skew pairings exist
    on signature (1,2)); all are returned with metadata filled, in the
    solver's deterministic order.  ``structure`` defaults to
    ``rep.structure``; a caller that has solved it already may pass it.
    """
    tau = table_tau(rep.signature)
    if tau is None:
        raise StructureError("no published type sign for this signature")
    sols = solve_pairing(rep, tau)
    want_sigma = table_sigma(rep.signature)
    chosen = [p for p in sols if want_sigma is None or p.sigma == want_sigma]
    if not chosen:
        raise StructureError("no admissible pairing matches the published table row")
    structure = structure if structure is not None else rep.structure
    split = _splitting_involution(rep, structure.D)
    out = []
    for cand in chosen:
        filled = replace(cand, isotropy=isotropy_sign(cand, split))
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
    """The preferred admissible pairing of the representation (``structure`` as above)."""
    return preferred_pairing(admissible_pairings(rep, structure))

