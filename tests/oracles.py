"""Independent reference implementations used to cross-check the library.

Each oracle recomputes a library operation through a structurally
different algorithm: permutation signs by explicit inversion counting
instead of bitmask parity tricks, Clifford products by pushing one
generator at a time through a sorted index list instead of precomputed
mask tables, contracted wedges by their one-pair-at-a-time recursion
instead of subset enumeration, and covariant expansions by ordered index
tuples weighted with 1/k! instead of ascending blade sums.  Agreement is
always exact; no tolerances appear anywhere.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from grafclifford.bilinear import Pairing, b_eval, table_sigma, table_tau
from grafclifford.exterior import Form, Metric, Signature, rational_from_str
from grafclifford.fierz import check_fierz, covariant
from grafclifford.graf import graf_product
from grafclifford.linalg import SignedPerm, _norm, as_matrix, mat_mul, mat_scale
from grafclifford.matrixrep import (
    CASE_ALMOST_COMPLEX,
    CASE_NORMAL,
    Rep,
    abs_type,
    d_square_target,
)

# -- tuple-based exterior algebra --------------------------------------------------------
#
# Oracle forms are dicts mapping strictly ascending 1-based index tuples
# to coefficients.  () is the scalar blade.


def sort_with_sign(seq):
    """Insertion-sort a tuple of indices, counting swaps.

    Returns (sorted_tuple, sign) with sign = (-1)^swaps, or (None, 0)
    when the sequence repeats an index.
    """
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None, 0
    return tuple(items), sign


def to_tuples(f: Form) -> dict:
    out = {}
    for mask, c in f.mask_items():
        tup = tuple(i + 1 for i in range(f.signature.n) if mask >> i & 1)
        out[tup] = c
    return out


def from_tuples(sig: Signature, terms: dict) -> Form:
    acc = {}
    for tup, c in terms.items():
        mask = 0
        for i in tup:
            mask |= 1 << (i - 1)
        acc[mask] = acc.get(mask, 0) + c
    return Form.from_mask_dict(sig, acc)


def wedge_oracle(f: Form, g: Form) -> Form:
    """Exterior product computed by concatenate-then-sort inversion signs."""
    acc = {}
    for ta, ca in to_tuples(f).items():
        for tb, cb in to_tuples(g).items():
            tup, sign = sort_with_sign(ta + tb)
            if sign == 0:
                continue
            acc[tup] = acc.get(tup, 0) + ca * cb * sign
    return from_tuples(f.signature, acc)


def interior_oracle(i: int, f: Form) -> Form:
    """Contraction with frame vector i via explicit position counting."""
    acc = {}
    for tup, c in to_tuples(f).items():
        if i not in tup:
            continue
        pos = tup.index(i)
        rest = tup[:pos] + tup[pos + 1 :]
        sign = -1 if pos % 2 else 1
        acc[rest] = acc.get(rest, 0) + c * sign
    return from_tuples(f.signature, acc)


def contracted_wedge_oracle(f: Form, g: Form, k: int, metric: Metric) -> Form:
    """Direct recursion: one metric contraction at a time down to a wedge."""
    if k == 0:
        return wedge_oracle(f, g)
    n = f.signature.n
    acc = Form.zero(f.signature)
    for i in range(1, n + 1):
        fi = interior_oracle(i, f)
        if fi.is_zero():
            continue
        for j in range(1, n + 1):
            gij = metric.entry(i, j)
            if not gij:
                continue
            gj = interior_oracle(j, g)
            if gj.is_zero():
                continue
            acc = acc + contracted_wedge_oracle(fi, gj, k - 1, metric).scale(gij)
    return acc


# -- sequential-generator Clifford product ------------------------------------------------


def clifford_blade_product(ta, tb, diag):
    """Multiply ascending blades by pushing each right factor through.

    Walks every generator of `tb` leftwards through a working index
    list, flipping the sign per transposition and contracting equal
    indices against the metric diagonal.
    """
    coeff = Fraction(1)
    out = list(ta)
    for j in tb:
        pos = len(out)
        sign = 1
        while pos > 0 and out[pos - 1] > j:
            pos -= 1
            sign = -sign
        if pos > 0 and out[pos - 1] == j:
            coeff *= sign * diag[j - 1]
            del out[pos - 1]
        else:
            coeff *= sign
            out.insert(pos, j)
    return tuple(out), coeff


def graf_product_oracle(f: Form, g: Form, metric: Metric) -> Form:
    """Bilinear extension of the sequential blade product (diagonal metrics)."""
    diag = metric.diagonal
    if diag is None:
        raise ValueError("the sequential oracle needs a diagonal metric")
    acc = {}
    for ta, ca in to_tuples(f).items():
        for tb, cb in to_tuples(g).items():
            tup, c = clifford_blade_product(ta, tb, diag)
            if c:
                acc[tup] = acc.get(tup, 0) + ca * cb * c
    return from_tuples(f.signature, acc)


def graf_product_reversed_check(f: Form, g: Form, metric: Metric) -> bool:
    """Check the reversed-order expansion against the direct product.

    For homogeneous f (grade m) and g (grade r) with m <= r, the product
    g * f admits an expansion over contractions of (f, g) with a global
    (-1)^(mr) and per-term sign (-1)^(k(m-k+1) + floor(k/2)).
    """
    if len(f.grades()) > 1 or len(g.grades()) > 1:
        raise ValueError("reversed-order check requires homogeneous inputs")
    if f.is_zero() or g.is_zero():
        return True
    m = next(iter(f.grades()), 0)
    r = next(iter(g.grades()), 0)
    if m > r:
        raise ValueError(f"reversed-order check requires left grade <= right grade, got {m} > {r}")
    rhs = Form.zero(f.signature)
    for k in range(m + 1):
        sign = -1 if (k * (m - k + 1) + k // 2) & 1 else 1
        term = contracted_wedge_oracle(f, g, k, metric)
        rhs = rhs + term.scale(Fraction(sign, math.factorial(k)))
    if (m * r) & 1:
        rhs = -rhs
    return graf_product(g, f, metric) == rhs


# -- the classification's master identity ---------------------------------------------------

# c of the master identity S o S = c B S on each classified signature: 2 on
# (1,2), and 16 on (9,0), where the low-grade slice carries half the covariant.
MASTER_CONSTANTS = {(1, 2): 2, (9, 0): 16}


@functools.lru_cache(maxsize=4)
def _blade_products(diag: tuple) -> dict:
    """The sequential blade products under one diagonal, memoized by mask pair.

    A product is kept as (mask, coefficient), the coefficient an int when
    integral; the squares below meet the same mask pairs sample after sample.
    """
    return {}


def _sequential_square(f: Form, diag: tuple, top: int | None = None) -> Form:
    """f * f by ``clifford_blade_product``, blade pair by blade pair.

    With ``top``, only the grades up to ``top`` are formed: a blade pair
    (a, b) lands on the blade a ^ b, so every other pair is skipped.
    """
    memo = _blade_products(diag)
    terms = list(f.mask_items())
    top = len(diag) if top is None else top
    acc = {}
    for ma, ca in terms:
        for mb, cb in terms:
            if (ma ^ mb).bit_count() > top:
                continue
            hit = memo.get((ma, mb))
            if hit is None:
                ta, tb = (tuple(i + 1 for i in range(len(diag)) if m >> i & 1) for m in (ma, mb))
                tup, c = clifford_blade_product(ta, tb, diag)
                mask = sum(1 << (i - 1) for i in tup)
                hit = memo[ma, mb] = (mask, c.numerator if c.denominator == 1 else c)
            mask, c = hit
            if c:
                acc[mask] = acc.get(mask, 0) + ca * cb * c
    return Form.from_mask_dict(f.signature, acc)


def master_residual(covs, b, volume_sign: int) -> Form:
    """S o S - c B S, with S the ``Form`` sum of the covariants, from the sequential product.

    o is the Clifford product, and in the truncation regime (odd n with
    volume square +1) the truncated product 2 P_L(P_s S P_s S) written
    out: P_s = (1 + s vol) / 2 for the volume sign s, and P_L keeps the
    grades up to floor(n/2).  The square is formed on 2 P_s S, whose
    coefficients are those of S and of its volume image, so
    2 P_L(P_s S P_s S) = P_L((2 P_s S)^2) / 2, with only the grades P_L
    keeps formed.
    """
    sig = covs[0].signature
    metric = Metric.standard(sig)
    diag = metric.diagonal
    s = Form.zero(sig)
    for f in covs:
        s = s + f
    vol = Form.blade(sig, (1 << sig.n) - 1)
    if sig.n % 2 == 1 and _sequential_square(vol, diag) == Form.unit(sig):
        doubled = s + graf_product_oracle(s, vol, metric).scale(volume_sign)
        square = _sequential_square(doubled, diag, sig.n // 2).scale(Fraction(1, 2))
    else:
        square = _sequential_square(s, diag)
    return square - s.scale(MASTER_CONSTANTS[(sig.p, sig.q)] * b)


def identity_result(identity: str, residual: Form) -> dict:
    """An identity verdict as the reports print it, grades split by mask popcount."""
    by_grade: dict[int, dict] = {}
    for mask, c in residual.mask_items():
        by_grade.setdefault(mask.bit_count(), {})[mask] = c
    return {
        "identity": identity,
        "passed": residual.is_zero(),
        "residual_by_grade": {
            str(k): Form.from_mask_dict(residual.signature, by_grade[k]).to_json_obj()
            for k in sorted(by_grade)
        },
    }


@dataclass(frozen=True)
class VolumeForm:
    """Unit-square top form together with its product square (+1 or -1)."""

    form: Form
    vsquare: int

    @classmethod
    def for_metric(cls, metric: Metric) -> "VolumeForm":
        sig = metric.signature
        v = Form.blade(sig, (1 << sig.n) - 1)
        prod = graf_product(v, v, metric)
        sq = prod.scalar_part()
        if prod != Form.scalar(sig, sq) or sq == 0:
            raise ValueError("volume form does not square to a scalar under this metric")
        if sq not in (1, -1):
            # rescale the top blade to unit square when rationally possible
            root = rational_sqrt(abs(sq))
            if root is None:
                raise ValueError("volume square admits no rational normalization")
            v = v.scale(Fraction(1, 1) / root)
            sq = 1 if sq > 0 else -1
        return cls(v, sq)


# -- dense linear algebra ------------------------------------------------------------------
#
# The library keeps only the dense products its reports and Fierz checks
# need; these are the dense references for everything else.


def identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def zeros(n: int, m: int):
    return tuple(tuple(0 for _ in range(m)) for _ in range(n))


def transpose(a):
    return tuple(zip(*a))


def mat_vec(a, v) -> tuple:
    return tuple(_norm(sum(x * y for x, y in zip(row, v))) for row in a)


def mat_trace(a):
    return _norm(sum(a[i][i] for i in range(len(a))))


def is_scalar_matrix(a):
    """Return c if a == c*Id, else None."""
    n = len(a)
    c = a[0][0]
    for i in range(n):
        for j in range(n):
            if a[i][j] != (c if i == j else 0):
                return None
    return c


def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def is_zero_matrix(a) -> bool:
    return all(all(v == 0 for v in row) for row in a)


def is_identity(a) -> bool:
    return all(a[i][j] == (1 if i == j else 0) for i in range(len(a)) for j in range(len(a)))


def mat_add(a, b):
    return tuple(tuple(_norm(x + y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def kron(a, b):
    """Kronecker product of two dense matrices."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def from_dense(a) -> SignedPerm | None:
    """The signed permutation with dense matrix a, or None if a is not one."""
    col, sign = [], []
    for row in a:
        hits = [(j, v) for j, v in enumerate(row) if v != 0]
        if len(hits) != 1 or hits[0][1] not in (1, -1):
            return None
        col.append(hits[0][0])
        sign.append(hits[0][1])
    if sorted(col) != list(range(len(a))):
        return None
    return SignedPerm(tuple(col), tuple(sign))


def to_dense(sp: SignedPerm):
    """The dense matrix of a signed permutation."""
    n = sp.dim
    return tuple(tuple(sp.sign[i] if j == sp.col[i] else 0 for j in range(n)) for i in range(n))


def generators(rep: Rep) -> tuple:
    """Dense matrices of the representation's generators."""
    return tuple(to_dense(g) for g in rep.perms)


def blade_matrix(rep: Rep, mask: int):
    """Dense matrix of the canonical blade with the given index mask."""
    return to_dense(rep.blade_sp(mask))


def lambda_form(rep: Rep, f: Form):
    """Dense image of a form: the blade matrices scaled by its coefficients and summed."""
    out = zeros(rep.d, rep.d)
    for mask, coeff in f.mask_items():
        out = mat_add(out, mat_scale(blade_matrix(rep, mask), coeff))
    return out


def volume_matrix(rep: Rep):
    """Dense matrix of the volume blade."""
    return blade_matrix(rep, (1 << rep.signature.n) - 1)


def rref(rows):
    """Reduced row echelon form over Fractions; returns (matrix, pivot columns)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def nullspace(rows, ncols: int) -> list[tuple]:
    """Basis of the right nullspace of the given constraint rows."""
    if not rows:
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(_norm(v) for v in vec))
    return basis


def rational_sqrt(x):
    """Exact square root of a nonnegative rational, or None."""
    f = Fraction(x)
    if f < 0:
        return None
    num, den = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if num * num != f.numerator or den * den != f.denominator:
        return None
    return _norm(Fraction(num, den))


def solve_twisted_system_dense(d: int, constraints) -> list:
    """Basis of {M : M S = eps T M} for dense S, T, as the nullspace of the stacked system."""
    rows = []
    for S, T, eps in constraints:
        for a in range(d):
            for b in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[a * d + k] += S[k][b]
                    row[k * d + b] -= eps * T[a][k]
                if any(row):
                    rows.append(row)
    vecs = nullspace(rows, d * d)
    return [as_matrix([vec[i * d : (i + 1) * d] for i in range(d)]) for vec in vecs]


# -- reference union-find solver ---------------------------------------------------------
#
# The signed union-find solver written plainly, with one path walk per
# ``find``.  Its components come in the order of their union-by-rank
# roots, with signs relative to those roots.  The library's orbit walk
# must return the same components in canonical form: each signed +1 on
# its row-0 entry and ordered by that entry's column.  The raw order
# still pins one convention: the recorded D is -(the first component
# here), which ``structure_oracle`` reads off directly while the library
# derives it from its stated rule.


class SignedUnionFindReference:
    """Union-find over matrix entries with a relative sign to the root."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = [1] * n
        self.rank = [0] * n
        self.dead = [False] * n

    def find(self, u: int) -> tuple[int, int]:
        """Return (root, s) with val[u] = s * val[root], compressing the path."""
        path = []
        while self.parent[u] != u:
            path.append(u)
            u = self.parent[u]
        # walk from the node nearest the root outward, accumulating signs
        cum = 1
        for node in reversed(path):
            cum = cum * self.sign[node]
            self.parent[node] = u
            self.sign[node] = cum
        return (u, cum) if path else (u, 1)

    def union(self, u: int, v: int, s: int) -> None:
        """Record val[u] = s * val[v]."""
        ru, su = self.find(u)
        rv, sv = self.find(v)
        if ru == rv:
            if su != s * sv:
                self.dead[ru] = True
            return
        # val[ru] = su*s*sv * val[rv]  (signs are their own inverses)
        rel = su * s * sv
        if self.rank[ru] > self.rank[rv]:
            ru, rv = rv, ru
        self.parent[ru] = rv
        self.sign[ru] = rel
        self.dead[rv] = self.dead[rv] or self.dead[ru]
        if self.rank[ru] == self.rank[rv]:
            self.rank[rv] += 1


def solve_twisted_system_reference(d: int, constraints) -> list:
    """Basis of {M : M S = eps T M} for signed-permutation S, T, ordered by union-find root."""
    uf = SignedUnionFindReference(d * d)
    for S, T, eps in constraints:
        if eps not in (1, -1):
            raise ValueError("twist sign must be +1 or -1")
        for a in range(d):
            ta = T.col[a]
            st_a = T.sign[a]
            for b in range(d):
                # (M S)[a][col_S[b]] = sign_S[b] M[a][b]
                # (T M)[a][col_S[b]] = sign_T[a] M[col_T[a]][col_S[b]]
                # => M[a][b] = eps sign_T[a] sign_S[b] M[col_T[a]][col_S[b]]
                u = a * d + b
                v = ta * d + S.col[b]
                uf.union(u, v, eps * st_a * S.sign[b])
    comps: dict[int, list[tuple[int, int]]] = {}
    for u in range(d * d):
        root, s = uf.find(u)
        if uf.dead[root]:
            continue
        comps.setdefault(root, []).append((u, s))
    basis = []
    for root in sorted(comps):
        rows = [[0] * d for _ in range(d)]
        for u, s in comps[root]:
            rows[u // d][u % d] = s
        basis.append(as_matrix(rows))
    return basis


# -- dense structure maps and pairings -----------------------------------------------------
#
# The library derives J, D, H and the pairing grams as signed permutations
# from solved components in canonical form.  These are the row-reduction
# derivations of the same maps, on the reference solver's raw components
# rendered dense:
# trace-free parts, rref, rational normalization and Gram-Schmidt for H;
# symmetric and antisymmetric parts, rref, first-entry normalization and
# an invertibility test for the pairings; eigenspace nullspaces and a
# B-evaluation loop for the isotropy.


def _span_rref(mats, d: int) -> list:
    """The reduced-row-echelon basis of the span of d x d matrices, as matrices."""
    if not mats:
        return []
    reduced, pivots = rref([[m[i][j] for i in range(d) for j in range(d)] for m in mats])
    return [
        as_matrix([[reduced[r][i * d + j] for j in range(d)] for i in range(d)])
        for r in range(len(pivots))
    ]


def _normalize_anticomplex(x):
    sq = is_scalar_matrix(mat_mul(x, x))
    root = rational_sqrt(-sq) if sq is not None and sq < 0 else None
    if root is None:
        raise ValueError("no rational scale makes this a complex structure")
    return mat_scale(x, Fraction(1, 1) / root)


def structure_oracle(rep: Rep) -> tuple:
    """(J, D, H) as dense matrices, each None where the case has no such map."""
    case = abs_type(rep.signature).case
    d = rep.d
    if case == CASE_NORMAL:
        return None, None, None
    if case == CASE_ALMOST_COMPLEX:
        vol = rep.volume_sp()
        cons = [(g, g.neg(), 1) for g in rep.perms] + [(vol, vol.neg(), 1)]
        dmat = mat_scale(solve_twisted_system_reference(d, cons)[0], -1)
        if is_scalar_matrix(mat_mul(dmat, dmat)) != d_square_target(rep.signature):
            raise ValueError("D does not square to the class target")
        return volume_matrix(rep), dmat, None
    pure = []
    for b in solve_twisted_system_reference(d, [(g, g, 1) for g in rep.perms]):
        tr = mat_trace(b)
        part = mat_add(b, mat_scale(identity(d), Fraction(-tr, d))) if tr else b
        if not is_zero_matrix(part):
            pure.append(part)
    pure = _span_rref(pure, d)
    h1 = _normalize_anticomplex(pure[0])
    # Gram-Schmidt against h1: {X, h1} = m Id fixes the coefficient
    m = is_scalar_matrix(mat_add(mat_mul(pure[1], h1), mat_mul(h1, pure[1])))
    h2 = _normalize_anticomplex(mat_add(pure[1], mat_scale(h1, Fraction(m, 2))))
    return None, None, (h1, h2, mat_mul(h1, h2))


def _first_nonzero_normalize(m):
    v = next(v for row in m for v in row if v)
    return m if v == 1 else mat_scale(m, Fraction(1, 1) / v)


def solve_pairing_oracle(rep: Rep, tau: int) -> list[tuple]:
    """(gram, sigma) of every invertible normalized pairing of type tau."""
    d = rep.d
    if rep.signature.n == 0:
        return [(identity(1), 1)]
    sym, anti = [], []
    for m in solve_twisted_system_reference(d, [(g, g.transpose(), tau) for g in rep.perms]):
        mt = transpose(m)
        half_sum = mat_scale(mat_add(m, mt), Fraction(1, 2))
        half_diff = mat_scale(mat_add(m, mat_scale(mt, -1)), Fraction(1, 2))
        if not is_zero_matrix(half_sum):
            sym.append(half_sum)
        if not is_zero_matrix(half_diff):
            anti.append(half_diff)
    out = []
    for sigma, parts in ((1, sym), (-1, anti)):
        for m in _span_rref(parts, d):
            cand = _first_nonzero_normalize(m)
            if len(rref([list(row) for row in cand])[1]) == d:
                out.append((cand, sigma))
    return out


def isotropy_oracle(gram, rep: Rep, dmat) -> int | None:
    """Isotropy of the gram on the eigenspace split of D (D^2 = +Id) or the volume."""
    split = None
    if dmat is not None and is_scalar_matrix(mat_mul(dmat, dmat)) == 1:
        split = dmat
    else:
        vol = volume_matrix(rep)
        if is_scalar_matrix(mat_mul(vol, vol)) == 1 and is_scalar_matrix(vol) is None:
            split = vol
    if split is None:
        return None
    d = rep.d
    halves = [
        nullspace([[split[i][j] - (ev if i == j else 0) for j in range(d)] for i in range(d)], d)
        for ev in (1, -1)
    ]
    assert len(halves[0]) + len(halves[1]) == d

    def vanishes(xs, ys):
        return all(vec_dot(x, mat_vec(gram, y)) == 0 for x in xs for y in ys)

    cross = vanishes(halves[0], halves[1]) and vanishes(halves[1], halves[0])
    diag = vanishes(halves[0], halves[0]) and vanishes(halves[1], halves[1])
    if cross and not diag:
        return 1
    if diag and not cross:
        return -1
    raise ValueError("pairing is neither orthogonal nor isotropic on the split")


def admissible_pairings_oracle(rep: Rep) -> list[tuple]:
    """(gram, sigma, tau, isotropy) of the pairings on the published table row."""
    tau = table_tau(rep.signature)
    want = table_sigma(rep.signature)
    _, dmat, _ = structure_oracle(rep)
    return [
        (gram, sigma, tau, isotropy_oracle(gram, rep, dmat))
        for gram, sigma in solve_pairing_oracle(rep, tau)
        if want is None or sigma == want
    ]


def pairing_from_json(text: str) -> Pairing:
    """Rebuild a pairing from its JSON report form."""
    obj = json.loads(text)
    dense = as_matrix(
        [[rational_from_str(v) if isinstance(v, str) else v for v in row] for row in obj["gram"]]
    )
    gram = from_dense(dense)
    if gram is None:
        raise ValueError("pairing gram is not a signed permutation")
    iso = obj.get("isotropy")
    return Pairing(gram, int(obj["sigma"]), int(obj["tau"]), None if iso is None else int(iso))


# -- transpose law over blades ---------------------------------------------------------------


def blade_transpose_sign(tau: int, k: int) -> int:
    """Sign in the blade transpose law: tau^k times the reversal sign."""
    s = 1 if k % 4 in (0, 1) else -1
    return s if tau == 1 or k % 2 == 0 else -s


def transpose_check(pairing: Pairing, rep: Rep) -> bool:
    """A M = s_k M^T A for the signed permutation M of each of the 2^n blades, s_k as above."""
    a, tau = pairing.gram, pairing.tau
    for mask in range(1 << rep.signature.n):
        m = rep.blade_sp(mask)
        if a.compose(m) != m.transpose().compose(a).times(blade_transpose_sign(tau, mask.bit_count())):
            return False
    return True


def vanishing_ranks(pairing: Pairing, n: int) -> set[int]:
    """Grades k with B(alpha, blade_k(alpha)) = 0 identically.

    The scalar B(a, M a) equals its own transpose, so it vanishes
    whenever sigma times the blade transpose sign is -1.
    """
    return {k for k in range(n + 1) if pairing.sigma * blade_transpose_sign(pairing.tau, k) == -1}


# -- ordered-tuple covariant expansion -----------------------------------------------------


def _apply_index_tuple(rep: Rep, vec, tup):
    """Apply the ordered generator word for `tup`, rightmost factor first."""
    out = tuple(vec)
    for i in reversed(tup):
        out = mat_vec(generators(rep)[i - 1], out)
    return out


def _pairing_value(pairing, x, y):
    gy = mat_vec(to_dense(pairing.gram), tuple(y))
    return sum(a * b for a, b in zip(x, gy))


def bilinear_profile(rep: Rep, pairing, alpha, w) -> dict:
    """B(alpha, blade(w)) for every canonical blade mask, from dense blade matrices."""
    out = {}
    for mask in range(1 << rep.signature.n):
        val = _pairing_value(pairing, alpha, mat_vec(blade_matrix(rep, mask), tuple(w)))
        if val:
            out[mask] = val
    return out


def _tuple_component(rep: Rep, pairing, alpha, w, scale, parity_weight: int) -> Form:
    n = rep.signature.n
    diag = rep.metric.diagonal
    acc = {}
    for k in range(n + 1):
        weight = Fraction(1, math.factorial(k))
        for tup in itertools.permutations(range(1, n + 1), k):
            val = _pairing_value(pairing, alpha, _apply_index_tuple(rep, w, tup))
            if not val:
                continue
            sorted_tup, sign = sort_with_sign(tup)
            lower = 1
            for i in tup:
                lower *= diag[i - 1]
            c = scale * weight * val * lower * sign
            if parity_weight == -1 and k % 2 == 1:
                c = -c
            acc[sorted_tup] = acc.get(sorted_tup, 0) + c
    return from_tuples(rep.signature, acc)


def ordered_tuple_covariant(rep: Rep, pairing, alpha, beta) -> tuple[Form, ...]:
    """Covariant components summed over ordered index tuples with 1/k!.

    Mirrors the library's ascending-blade construction for the normal
    and almost-complex cases; the two must agree because every index set
    has exactly k! orderings.  The D-component weight is the sign eps in
    D^T A D = eps A, computed here from the dense matrices.
    """
    pref = Fraction(rep.abs.k_const, 1 << rep.signature.n)
    structure = rep.structure
    if rep.abs.case == CASE_NORMAL:
        return (_tuple_component(rep, pairing, alpha, beta, pref, pairing.tau),)
    if rep.abs.case == CASE_ALMOST_COMPLEX:
        dmat, gram = to_dense(structure.D), to_dense(pairing.gram)
        dad = mat_mul(mat_mul(transpose(dmat), gram), dmat)
        eps = next(x * g for xrow, grow in zip(dad, gram) for x, g in zip(xrow, grow) if g)
        assert dad == mat_scale(gram, eps)
        dbeta = mat_vec(dmat, tuple(beta))
        return (
            _tuple_component(rep, pairing, alpha, beta, pref, -1),
            _tuple_component(rep, pairing, alpha, dbeta, pref * eps, 1),
        )
    raise ValueError("tuple expansion oracle covers the normal and almost-complex cases")


def fierz_on_spinors(rep: Rep, pairing, alpha1, beta1, alpha2, beta2):
    """``check_fierz`` on the covariants of (alpha1, beta1), (alpha2, beta2) and (alpha1, beta2)."""
    pairs = ((alpha1, beta1), (alpha2, beta2), (alpha1, beta2))
    covs = [covariant(rep, pairing, a, b) for a, b in pairs]
    return check_fierz(rep, pairing, *covs, b_eval(pairing, alpha2, beta1))


# -- seeded random inputs ------------------------------------------------------------------


# Denominators of rational test coefficients (1/2, -5/6, 7/32, ...): mixed,
# so a form's common denominator is an lcm above most single ones.
RATIONAL_DENOMINATORS = (1, 2, 3, 6, 7, 32)


def _rand_coeff(rng: random.Random, box: int, rational: bool):
    if not rational:
        return rng.randint(-box, box)
    return Fraction(rng.randint(-2 * box, 2 * box), rng.choice(RATIONAL_DENOMINATORS))


def rand_form(
    rng: random.Random, sig: Signature, terms: int = 5, box: int = 4, rational: bool = False
) -> Form:
    """Random form; `rational` draws mixed-denominator Fraction coefficients."""
    size = 1 << sig.n
    chosen = rng.sample(range(size), min(terms, size))
    return Form.from_mask_dict(sig, {m: _rand_coeff(rng, box, rational) for m in chosen})


def non_diagonal_metrics() -> tuple[Metric, ...]:
    """Grams with off-diagonal entries: (2,1), a rational (3,1), and a (2,2) zero diagonal.

    The (2,2) gram couples two hyperbolic pairs, so no frame vector has
    a nonzero square.
    """
    third = Fraction(1, 3)
    return (
        Metric(Signature(2, 1), [[2, 1, 0], [1, -3, 2], [0, 2, 5]]),
        Metric(
            Signature(3, 1),
            [[2, 1, 0, 0], [1, 3, 0, Fraction(1, 2)], [0, 0, 1, 1], [0, Fraction(1, 2), 1, -2]],
        ),
        Metric(Signature(2, 2), [[0, 1, 0, third], [1, 0, -2, 0], [0, -2, 0, 1], [third, 0, 1, 0]]),
    )


def rand_homogeneous(
    rng: random.Random, sig: Signature, k: int, terms: int = 3, box: int = 3, rational: bool = False
) -> Form:
    masks = [m for m in range(1 << sig.n) if m.bit_count() == k]
    chosen = rng.sample(masks, min(terms, len(masks)))
    return Form.from_mask_dict(sig, {m: _rand_coeff(rng, box, rational) for m in chosen})


def rand_vector(rng: random.Random, dim: int, box: int = 5) -> tuple:
    return tuple(rng.randint(-box, box) for _ in range(dim))
