"""Exact real matrix representations of the form algebra.

For each signature the algebra is, up to isomorphism, a matrix algebra
over R, C, or H (or a double of one) determined by (p - q) mod 8.  The
generators built here are real signed-permutation matrices produced by
recursion from rank-one and rank-two seeds:

* quaternion and octonion left-multiplication tables give the definite
  negative signatures up to rank seven, with explicit doublings for
  ranks eight and nine;
* from rank ten on, 8-periodicity: (0,q) = (0,q-8) (x) Cl(0,8), a
  Kronecker product of signed permutations;
* a two-step positive extension turns a definite negative algebra into
  the definite positive one two ranks higher;
* a mixed-pair extension adds one plus and one minus direction at once.

So every signature builds; the dimension cap (``GRAF_MAX_DIM``) is the
only refusal.  Representations live in the standard orthonormal frame
of the signature (forms themselves take any metric), and every
computation here runs on the signed permutations, the structure maps J,
D and H and the blade action included; reports print the rows of each
generator straight from its signed permutation.

Every constructed representation is verified on the spot: generator
relations, real dimension, commutant dimension, and the scalar value of
the volume element where one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import StructureError
from .exterior import Metric, Signature
from .linalg import SignedPerm

CASE_NORMAL = "normal"
CASE_ALMOST_COMPLEX = "almost_complex"
CASE_QUATERNIONIC = "quaternionic"


@dataclass(frozen=True)
class AbsType:
    """Matrix-algebra type of a signature: case, double or simple, sizes."""

    is_double: bool
    matrix_size: int
    rep_dim: int
    commutant_dim: int
    case: str

    @property
    def k_const(self) -> int:
        """Normalization constant for covariant expansions."""
        return self.matrix_size


def abs_type(signature: Signature) -> AbsType:
    n = signature.n
    cls = signature.pq_class()
    half = n // 2
    if cls in (0, 1, 2):
        csize = 1
        size = 1 << half
        d = size
    elif cls in (3, 7):
        csize = 2
        size = 1 << half
        d = 2 * size
    else:
        csize = 4
        size = 1 << (half - 1)  # n >= 2 in every quaternionic class
        d = 4 * size
    is_double = cls in (1, 5)
    case = (
        CASE_NORMAL
        if cls in (0, 1, 2)
        else CASE_ALMOST_COMPLEX
        if cls in (3, 7)
        else CASE_QUATERNIONIC
    )
    return AbsType(is_double, size, d, csize, case)


# -- Cayley-Dickson left multiplications ------------------------------------------


def _cd_mult(level: int, x: int, y: int) -> tuple[int, int]:
    """Sign and basis index of e_x e_y in the 2^level dimensional algebra."""
    if level == 0:
        return 1, 0
    h = 1 << (level - 1)
    if x < h and y < h:
        return _cd_mult(level - 1, x, y)
    if x < h:
        # (a,0)(0,d) = (0, d a)
        s, z = _cd_mult(level - 1, y - h, x)
        return s, z + h
    if y < h:
        # (0,b)(c,0) = (0, b conj(c))
        s, z = _cd_mult(level - 1, x - h, y)
        return (s, z + h) if y == 0 else (-s, z + h)
    # (0,b)(0,d) = (-conj(d) b, 0)
    b, dd = x - h, y - h
    s, z = _cd_mult(level - 1, dd, b)
    return (-s, z) if dd == 0 else (s, z)


def _cd_left_mult(level: int, x: int) -> SignedPerm:
    """Left multiplication by basis unit e_x as a signed permutation."""
    dim = 1 << level
    col = [0] * dim
    sign = [1] * dim
    for y in range(dim):
        s, z = _cd_mult(level, x, y)
        col[z] = y
        sign[z] = s
    return SignedPerm(tuple(col), tuple(sign))


# -- seed representations and extension moves --------------------------------------


def _sp_block_diag(g: SignedPerm, negate_second: bool) -> SignedPerm:
    d = g.dim
    col = list(g.col) + [c + d for c in g.col]
    sign = list(g.sign) + [(-s if negate_second else s) for s in g.sign]
    return SignedPerm(tuple(col), tuple(sign))


def _sp_off_diag(g: SignedPerm, negate_upper: bool) -> SignedPerm:
    """Block matrix [[0, +-g], [g, 0]]."""
    d = g.dim
    col = [c + d for c in g.col] + list(g.col)
    sign = [(-s if negate_upper else s) for s in g.sign] + list(g.sign)
    return SignedPerm(tuple(col), tuple(sign))


def _sp_kron(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """Kronecker product: row i*db + k holds a[i] b[k] at column a.col[i]*db + b.col[k]."""
    db = b.dim
    col = [ca * db + cb for ca in a.col for cb in b.col]
    sign = [sa * sb for sa in a.sign for sb in b.sign]
    return SignedPerm(tuple(col), tuple(sign))


def _sp_swap(d: int, negate_lower: bool) -> SignedPerm:
    """Block matrix [[0, I], [+-I, 0]]."""
    col = [i + d for i in range(d)] + list(range(d))
    sign = [1] * d + ([-1] * d if negate_lower else [1] * d)
    return SignedPerm(tuple(col), tuple(sign))


def _mixed_pair_extend(gens: list[SignedPerm], d: int) -> tuple[list[SignedPerm], SignedPerm, SignedPerm]:
    """Double the space, adding one positive and one negative direction."""
    doubled = [_sp_block_diag(g, negate_second=True) for g in gens]
    e_pos = _sp_swap(d, negate_lower=False)
    e_neg = _sp_swap(d, negate_lower=True)
    return doubled, e_pos, e_neg


def _positive_pair_extend(gens: list[SignedPerm], d: int) -> list[SignedPerm]:
    """From k negative-square generators build k+2 positive-square ones."""
    e1 = _sp_swap(d, negate_lower=False)  # sigma_x tensor I
    # sigma_z tensor I
    e2 = SignedPerm(tuple(range(2 * d)), tuple([1] * d + [-1] * d))
    rotated = [_sp_off_diag(g, negate_upper=True) for g in gens]
    return [e1, e2] + rotated


def _definite_negative_gens(q: int) -> list[SignedPerm]:
    if q == 0:
        return []
    if q == 1:
        return [_cd_left_mult(1, 1)]
    if q <= 3:
        return [_cd_left_mult(2, i) for i in range(1, q + 1)]
    if q <= 7:
        return [_cd_left_mult(3, i) for i in range(1, q + 1)]
    if q == 8:
        octs = [_cd_left_mult(3, i) for i in range(1, 8)]
        gens = [_sp_off_diag(g, negate_upper=False) for g in octs]
        gens.append(_sp_swap(8, negate_lower=True))
        return gens
    if q == 9:
        pos = _definite_positive_gens(9)
        return [_sp_off_diag(g, negate_upper=True) for g in pos]
    # (0,q) = (0,q-8) (x) Cl(0,8): g (x) w8 for each base generator g, then
    # 1 (x) e_j; w8 squares to +1 and anticommutes with every e_j
    base = _definite_negative_gens(q - 8)
    block = _definite_negative_gens(8)
    w8 = block[0]
    for e in block[1:]:
        w8 = w8.compose(e)
    one = SignedPerm.identity(base[0].dim)
    return [_sp_kron(g, w8) for g in base] + [_sp_kron(one, e) for e in block]


def _definite_positive_gens(p: int) -> list[SignedPerm]:
    if p == 0:
        return []
    if p == 1:
        return [SignedPerm((0,), (1,))]
    if p == 2:
        return [_sp_swap(1, negate_lower=False), SignedPerm((0, 1), (1, -1))]
    inner = _definite_negative_gens(p - 2)
    return _positive_pair_extend(inner, inner[0].dim)


def _build_sp_generators(p: int, q: int) -> list[SignedPerm]:
    if p >= 1 and q >= 1:
        inner = _build_sp_generators(p - 1, q - 1)
        doubled, e_pos, e_neg = _mixed_pair_extend(inner, inner[0].dim if inner else 1)
        return doubled[: p - 1] + [e_pos] + doubled[p - 1 :] + [e_neg]
    if q == 0:
        return _definite_positive_gens(p)
    return _definite_negative_gens(q)


# -- representation object ----------------------------------------------------------


class Rep:
    """Verified matrix representation of the form algebra for one signature.

    The generators are signed permutations in the standard orthonormal
    frame; reports render them with ``SignedPerm.report_rows``.  ``blade_sp``
    caches one signed permutation per canonical blade on the instance,
    so the cache holds at most 2^n entries of d column indices and d
    signs.  The commutant basis (``commutant``) and the structure maps
    (``structure``) are ``functools.cached_property`` values, derived
    once per instance on first use.
    """

    def __init__(self, signature: Signature, volume_sign: int, perms: tuple[SignedPerm, ...]):
        self.signature = signature
        self.metric = Metric.standard(signature)
        self.volume_sign = volume_sign
        self.perms = tuple(perms)
        self.abs = abs_type(signature)
        self._cache_sp: dict[int, SignedPerm] = {}
        verify_generators(self.perms, signature)
        if signature.n % 2 == 1:
            sv = self.volume_sp().scalar_value()
            if (sv is not None) != self.abs.is_double:
                raise StructureError("the volume element is scalar exactly in the double algebras")
            if sv is not None and sv != volume_sign:
                raise StructureError("volume scalar does not match the declared volume sign")

    @property
    def d(self) -> int:
        return self.abs.rep_dim

    @cached_property
    def commutant(self) -> tuple[SignedPerm, ...]:
        """Basis of the matrices commuting with every generator."""
        return tuple(solve_signed_perms(self.d, [(g, g, 1) for g in self.perms]))

    @cached_property
    def structure(self) -> MainSubalgebra:
        """The commutant structure maps J, D and H (``build_structure``)."""
        return build_structure(self)

    # -- blade action ---------------------------------------------------------

    def blade_sp(self, mask: int) -> SignedPerm:
        cached = self._cache_sp.get(mask)
        if cached is not None:
            return cached
        if mask == 0:
            out = SignedPerm.identity(self.d)
        else:
            low = mask & (-mask)
            out = self.perms[low.bit_length() - 1].compose(self.blade_sp(mask ^ low))
        self._cache_sp[mask] = out
        return out

    def volume_sp(self) -> SignedPerm:
        return self.blade_sp((1 << self.signature.n) - 1)

    def to_json_obj(self) -> dict:
        return {
            "signature": [self.signature.p, self.signature.q],
            "volume_sign": self.volume_sign,
            "metric": self.metric.to_json_obj(),
            "generators": [g.report_rows() for g in self.perms],
        }


def verify_generators(perms: tuple[SignedPerm, ...], signature: Signature) -> None:
    """Check the Clifford relations in the standard frame, raising on failure.

    Generator i squares to +Id for i < p and to -Id after; distinct
    generators anticommute.  Products of signed permutations are signed
    permutations, so each relation costs O(d).
    """
    n = signature.n
    if len(perms) != n:
        raise StructureError(f"expected {n} generators, got {len(perms)}")
    d = abs_type(signature).rep_dim
    if any(g.dim != d for g in perms):
        raise StructureError(f"generators must act on dimension {d}")
    for i, gi in enumerate(perms):
        if gi.compose(gi).scalar_value() != (1 if i < signature.p else -1):
            raise StructureError(f"generator relation failed for indices ({i + 1},{i + 1})")
        for j in range(i + 1, n):
            gj = perms[j]
            if gi.compose(gj) != gj.compose(gi).neg():
                raise StructureError(f"generator relation failed for indices ({i + 1},{j + 1})")


def solve_signed_perms(d: int, constraints) -> list[SignedPerm]:
    """Basis of {M : M S = eps T M} over signed-permutation constraints (S, T, eps).

    Each constraint permutes the d*d entries of M: entry u = a*d + b must
    equal eps T.sign[a] S.sign[b] times entry T.col[a]*d + S.col[b].  So
    the solutions split into orbits under these moves, walked from the
    entries in index order with the first entry of each orbit set to +1.
    An orbit that reaches some entry with both signs vanishes.  Every
    other orbit of the systems a representation poses is a signed
    permutation (d members, one per row, in distinct columns) and is one
    basis element; any other orbit raises StructureError.

    Canonical form: a live orbit's first entry lies in row 0, so the
    basis comes ordered by the column of each element's row-0 entry, and
    that entry is +1.  The orbits have disjoint supports, so this is the
    reduced row-echelon basis of the solution space, row 0 holding the
    pivots.  With no constraints and d = 1 it is the identity.
    """
    moves = []
    for S, T, eps in constraints:
        if eps not in (1, -1):
            raise StructureError("twist sign must be +1 or -1")
        pos = [eps * s for s in S.sign]
        neg = [-s for s in pos]
        dest, rel = [], []
        for tc, ts in zip(T.col, T.sign):
            dest += [tc * d + c for c in S.col]
            rel += pos if ts == 1 else neg
        moves.append((dest, rel))
    value = [0] * (d * d)
    basis = []
    for start in range(d * d):
        if value[start]:
            continue
        value[start] = 1
        orbit = [start]
        live = True
        for u in orbit:
            su = value[u]
            for dest, rel in moves:
                v, sv = dest[u], rel[u] * su
                sign_v = value[v]
                if not sign_v:
                    value[v] = sv
                    orbit.append(v)
                elif sign_v != sv:
                    live = False
        if not live:
            continue
        col = [-1] * d
        sign = [1] * d
        for u in orbit:
            col[u // d], sign[u // d] = u % d, value[u]
        if len(orbit) != d or sorted(col) != list(range(d)):
            raise StructureError("a solved component is not a signed permutation")
        basis.append(SignedPerm(tuple(col), tuple(sign)))
    return basis


def build_rep(signature: Signature, volume_sign: int = 1) -> Rep:
    """Construct and verify a representation for the signature.

    The representation lives in the standard orthonormal frame.  For odd
    dimensions where the volume element acts as a scalar the sign of that
    scalar is normalized to `volume_sign` by negating all generators when
    needed.  This is the library's one way to construct a representation,
    and it builds every signature inside the dimension cap.
    """
    if volume_sign not in (1, -1):
        raise ValueError("volume_sign must be +1 or -1")
    perms = _build_sp_generators(signature.p, signature.q)
    if signature.n % 2 == 1 and _volume_scalar_sp(perms) == -volume_sign:
        perms = [g.neg() for g in perms]
    rep = Rep(signature, volume_sign, tuple(perms))
    _verify_commutant_dim(rep)
    return rep


def _volume_scalar_sp(gens: list[SignedPerm]) -> int | None:
    acc = gens[0]
    for g in gens[1:]:
        acc = acc.compose(g)
    return acc.scalar_value()


def _verify_commutant_dim(rep: Rep) -> None:
    want = rep.abs.commutant_dim
    got = len(rep.commutant)
    if got != want:
        raise StructureError(f"commutant dimension {got}, expected {want}")


# -- main subalgebra structures ------------------------------------------------------


@dataclass(frozen=True)
class MainSubalgebra:
    """Commutant structure of a representation: the case (``Rep.abs``) decides the fields.

    normal: commutant is scalars; J, D, H are all None.
    almost_complex: J realizes the action of the volume element
    (square -Id) and D is a real-linear map anticommuting with J and
    with every generator, normalized so D^2 = +-Id per the mod-8 class.
    quaternionic: H is a triple of commuting-with-everything complex
    structures multiplying like quaternion units.  Every map is a
    signed permutation; reports render one with ``report_rows``.
    """

    J: SignedPerm | None = None
    D: SignedPerm | None = None
    H: tuple[SignedPerm, SignedPerm, SignedPerm] | None = None

    @property
    def units(self) -> tuple[SignedPerm, ...]:
        """The commutant units past the identity: (), (D,) or (H1, H2, H3)."""
        if self.H is not None:
            return self.H
        return () if self.D is None else (self.D,)

    @cached_property
    def d_square_sign(self) -> int | None:
        """D^2 as +1 or -1 (None without D), composed once per structure."""
        if self.D is None:
            return None
        return 1 if self.D.compose(self.D).scalar_value() == 1 else -1


def d_square_target(signature: Signature) -> int:
    """Required sign of D^2 in the almost-complex case.

    The exponent (p - q + 1)/4 is an integer of class-invariant parity
    here: even when p - q = 7 mod 8, odd when p - q = 3 mod 8.
    """
    cls = signature.pq_class()
    if cls == 7:
        return 1
    if cls == 3:
        return -1
    raise StructureError("D exists only in the almost-complex case")


def build_structure(rep: Rep) -> MainSubalgebra:
    """Solve the case-specific commutant structure maps; ``Rep.structure`` caches them.

    ``build_rep`` has already checked the commutant's dimension.
    """
    case = rep.abs.case
    if case == CASE_NORMAL:
        return MainSubalgebra()
    if case == CASE_ALMOST_COMPLEX:
        vol = rep.volume_sp()
        if vol.compose(vol).scalar_value() != -1:
            raise StructureError("volume square is not -Id in the almost-complex case")
        return MainSubalgebra(J=vol, D=_solve_d(rep, vol))
    return MainSubalgebra(H=_quaternion_units(rep.commutant))


def _solve_d(rep: Rep, vol: SignedPerm) -> SignedPerm:
    """D: the intertwiner whose row-0 entry lies in the larger column, last-row entry -1.

    The intertwiners anticommute with every generator and with the
    volume element.  They span two dimensions, as two basis elements in
    the canonical form of ``solve_signed_perms``; D is the second
    (basis[1]), signed so that its entry in row d - 1 is -1.  This is
    the real structure the recorded reports use; either sign squares to
    the class target, which is checked.
    """
    cons = [(g, g.neg(), 1) for g in rep.perms]
    cons.append((vol, vol.neg(), 1))
    basis = solve_signed_perms(rep.d, cons)
    if len(basis) != 2:
        raise StructureError(f"D intertwiner space has dimension {len(basis)}, expected 2")
    d = basis[1].times(-basis[1].sign[-1])
    if d.compose(d).scalar_value() != d_square_target(rep.signature):
        raise StructureError("the intertwiner D does not square to the required D square")
    return d


def _quaternion_units(basis: tuple[SignedPerm, ...]) -> tuple[SignedPerm, SignedPerm, SignedPerm]:
    """H1 and H2: the first two non-scalar commutant elements, H3 = H1 H2.

    These are the units the row reduction of the trace-free commutant
    gives: the basis is in the canonical form of ``solve_signed_perms``,
    which is already reduced.  A unit of square -Id needs no rational
    rescaling, and two anticommuting units need no Gram-Schmidt step.
    H1^2 = H2^2 = -Id and H1 H2 = -H2 H1 are checked; with H3 = H1 H2
    they imply every other quaternion relation.
    """
    pure = [b for b in basis if b.scalar_value() is None]
    if len(pure) != 3:
        raise StructureError(f"pure commutant has dimension {len(pure)}, expected 3")
    h1, h2 = pure[0], pure[1]
    if {h1.compose(h1).scalar_value(), h2.compose(h2).scalar_value()} != {-1}:
        raise StructureError("a quaternion unit does not square to -Id")
    if h1.compose(h2) != h2.compose(h1).neg():
        raise StructureError("the quaternion units H1 and H2 do not anticommute")
    return h1, h2, h1.compose(h2)
