"""Functor from diagrams to tensor powers of the fundamental module.

A k-point boundary goes to V^(x)k and a color sequence s to the image of
the projector f_s acting on V^(x)|s|.  On morphisms, a cup goes to
b: 1 -> V(x)V and a cap to d: V(x)V -> 1, extended over simple diagrams by
slicing into elementary layers and over linear combinations by linearity.

Equivalence verification compares three numbers per object pair: the size
of the diagram-side hom basis (generic) or its Gram rank (root of unity),
the rank of the representation-side quantum-trace Gram matrix, and the
rank of the pairing between functor images and intertwiners.  The functor
is an equivalence on the pair exactly when all three agree.
"""

import math
from functools import cache

from .scalars import (GENERIC, Mode, PoleError, ScalarGeneric,
                      _lmul, _poly_divexact, _poly_gcd)
from . import linalg
from .diagrams import SimpleDiagram, TLMorphism
from .tl_category import jones_wenzl
from .turaev import good_type_diagrams, hom_basis, object_seq, \
    purified_hom_dim, seq_size
from .uqsl2 import RepMap, TensorVector, elementary_morphisms, \
    mask_weight, rep_hom_basis


# ---------------------------------------------------------------------------
# the functor on simple diagrams

@cache
def _cap_layer(i: int, n: int, mode: Mode) -> RepMap:
    # d on strands (i, i+1) of n, 1-indexed: d(v0 x v1) = 1, d(v1 x v0) = -q^-1
    one = mode.one()
    mqinv = -mode.a_power(-2)
    s = n - i - 1  # bit shift of strand i+1; strand i sits at s+1
    entries = {}
    for tgt in range(1 << (n - 2)):
        base = ((tgt >> s) << (s + 2)) | (tgt & ((1 << s) - 1))
        entries[(tgt, base | (0b01 << s))] = one
        entries[(tgt, base | (0b10 << s))] = mqinv
    return RepMap(n, n - 2, entries, mode)


@cache
def _cup_layer(i: int, n: int, mode: Mode) -> RepMap:
    # b inserting strands (i, i+1) into n, 1-indexed: b(1) = v1 x v0 - q v0 x v1
    one = mode.one()
    mq = -mode.a_power(2)
    s = n - i - 1
    entries = {}
    for src in range(1 << (n - 2)):
        base = ((src >> s) << (s + 2)) | (src & ((1 << s) - 1))
        entries[(base | (0b10 << s), src)] = one
        entries[(base | (0b01 << s), src)] = mq
    return RepMap(n - 2, n, entries, mode)


def _drop_pair(d: SimpleDiagram, u: int) -> SimpleDiagram:
    # remove the arc joining boundary nodes u and u+1 and renumber
    k, l = d.inputs, d.outputs
    if u < k:
        k -= 2
    else:
        l -= 2
    match = []
    for x, y in enumerate(d.match):
        if x in (u, u + 1):
            continue
        match.append(y - 2 if y > u + 1 else y)
    return SimpleDiagram(k, l, tuple(match))


@cache
def _simple_rep(d: SimpleDiagram, mode: Mode) -> RepMap:
    """Image of a simple diagram: caps innermost-first, then cups."""
    k, l = d.inputs, d.outputs
    out = None
    for p in range(k - 1):
        if d.match[p] == p + 1:
            rest = _simple_rep(_drop_pair(d, p), mode)
            out = rest.compose(_cap_layer(p + 1, k, mode))
            break
    if out is None:
        for p in range(l - 1):
            u = k + p
            if d.match[u] == u + 1:
                rest = _simple_rep(_drop_pair(d, u), mode)
                out = _cup_layer(p + 1, l, mode).compose(rest)
                break
    if out is None:
        # no arcs at all: planarity forces the identity
        assert k == l and all(d.match[p] == k + p for p in range(k))
        out = RepMap.identity(k, mode)
    return out


def F_diagram(f: TLMorphism) -> RepMap:
    """Linear extension of the functor to a formal sum of simple diagrams."""
    total = None
    for d, c in f.terms.items():
        t = _simple_rep(d, f.mode).scale(c)
        total = t if total is None else total + t
    if total is None:
        return RepMap.zero(f.inputs, f.outputs, f.mode)
    return total


# ---------------------------------------------------------------------------
# object images: projector, first-independent-column basis, rank factorization

class _Mat:
    """Sparse matrix with explicit shape, for compressed coordinates."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict):
        self.rows = rows
        self.cols = cols
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}

    @staticmethod
    def from_repmap(m: RepMap) -> "_Mat":
        return _Mat(1 << m.target_rank, 1 << m.source_rank, m.entries)

    def mul(self, other: "_Mat") -> "_Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        rows_other: dict = {}
        for (j, k), y in other.entries.items():
            rows_other.setdefault(j, []).append((k, y))
        out: dict = {}
        for (i, j), x in self.entries.items():
            for k, y in rows_other.get(j, ()):
                key = (i, k)
                s = out.get(key)
                p = x * y
                out[key] = p if s is None else s + p
        return _Mat(self.rows, other.cols, out)

    def kron(self, other: "_Mat") -> "_Mat":
        entries = {}
        for (i1, j1), x in self.entries.items():
            for (i2, j2), y in other.entries.items():
                entries[(i1 * other.rows + i2, j1 * other.cols + j2)] = x * y
        return _Mat(self.rows * other.rows, self.cols * other.cols, entries)


@cache
def _color_data(n: int, mode: Mode):
    """Projector image data for a single color: (proj, C, R) with
    proj = C.R, R.C = identity, and C the first independent columns."""
    proj = F_diagram(jones_wenzl(n, mode).morphism)
    dim = 1 << n
    rows = [dict() for _ in range(dim)]
    for (i, j), v in proj.entries.items():
        rows[i][j] = v
    rr = linalg.rref_rows(rows)
    profile = [min(row) for row in rr]
    col_pos = {j: t for t, j in enumerate(profile)}
    c_entries = {}
    for (i, j), v in proj.entries.items():
        t = col_pos.get(j)
        if t is not None:
            c_entries[(i, t)] = v
    C = _Mat(dim, len(profile), c_entries)
    R = _Mat(len(profile), dim,
             {(t, j): v for t, row in enumerate(rr) for j, v in row.items()})
    return proj, C, R


@cache
def _object_data(s: tuple, mode: Mode):
    """Kronecker-assembled (projector, C, R) over the colors of s."""
    proj = RepMap.identity(0, mode)
    C = _Mat(1, 1, {(0, 0): mode.one()})
    R = _Mat(1, 1, {(0, 0): mode.one()})
    for n in s:
        pn, cn, rn = _color_data(n, mode)
        proj = proj.tensor(pn)
        C = C.kron(cn)
        R = R.kron(rn)
    return proj, C, R


def F_object(s, mode: Mode = GENERIC) -> dict:
    """Image data of an object: the projector f_s on V^(x)|s| and the basis
    of its image given by the first linearly independent columns."""
    s = object_seq(s, mode)
    proj, C, _ = _object_data(s, mode)
    k = seq_size(s)
    cols: dict = {}
    for (i, t), v in C.entries.items():
        cols.setdefault(t, {})[i] = v
    basis = [TensorVector(k, cols.get(t, {}), mode) for t in range(C.cols)]
    return {"projector": proj, "basis": basis}


# ---------------------------------------------------------------------------
# the induced matrix on hom spaces

def _flatten(m: _Mat) -> dict:
    return {i * m.cols + j: v for (i, j), v in m.entries.items()}


def F_hom_matrix(s, t, mode: Mode = GENERIC) -> list:
    """Matrix of the functor from the diagram-side hom basis to the
    projector-compressed intertwiner basis.

    Columns follow hom_basis(s, t); rows follow the first independent
    compressed intertwiners in canonical order.  Entries are exact, so the
    rank is exact.
    """
    s = object_seq(s, mode)
    t = object_seq(t, mode)
    k, l = seq_size(s), seq_size(t)
    _, Cs, _ = _object_data(s, mode)
    _, _, Rt = _object_data(t, mode)
    elim = linalg.Eliminator(track=True)
    kept = []
    for u, h in enumerate(rep_hom_basis(k, l, mode)):
        vec = _flatten(Rt.mul(_Mat.from_repmap(h)).mul(Cs))
        if vec and elim.add(vec, tag=u) is not None:
            kept.append(u)
    matrix = [[] for _ in kept]
    zero = mode.zero()
    for h in hom_basis(s, t, mode):
        vec = _flatten(Rt.mul(_Mat.from_repmap(F_diagram(h.value))).mul(Cs))
        coords = elim.coordinates(vec)
        assert coords is not None, "functor image escaped the intertwiner span"
        for row, u in zip(matrix, kept):
            row.append(coords.get(u, zero))
    return matrix


# ---------------------------------------------------------------------------
# ribbon structure on tensor powers, built from the elementary morphisms

# each public function calls a cached twin with positional arguments, so
# every spelling of a call shares one entry; recursion goes through the twin

def rep_coev(n: int, mode: Mode = GENERIC) -> RepMap:
    """Nested coevaluation 1 -> V^(x)2n."""
    return _rep_coev(n, mode)


@cache
def _rep_coev(n: int, mode: Mode) -> RepMap:
    if n == 0:
        return RepMap.identity(0, mode)
    id1 = RepMap.identity(1, mode)
    b = elementary_morphisms(mode)["b"]
    return id1.tensor(_rep_coev(n - 1, mode)).tensor(id1).compose(b)


def rep_ev(n: int, mode: Mode = GENERIC) -> RepMap:
    """Nested evaluation V^(x)2n -> 1."""
    return _rep_ev(n, mode)


@cache
def _rep_ev(n: int, mode: Mode) -> RepMap:
    if n == 0:
        return RepMap.identity(0, mode)
    id1 = RepMap.identity(1, mode)
    d = elementary_morphisms(mode)["d"]
    return d.compose(id1.tensor(_rep_ev(n - 1, mode)).tensor(id1))


def rep_braiding(n: int, m: int, mode: Mode = GENERIC) -> RepMap:
    """Braiding V^(x)n (x) V^(x)m -> V^(x)m (x) V^(x)n from layers of c."""
    return _rep_braiding(n, m, mode)


@cache
def _rep_braiding(n: int, m: int, mode: Mode) -> RepMap:
    total = n + m
    out = RepMap.identity(total, mode)
    c = elementary_morphisms(mode)["c"]
    for i in range(n, 0, -1):
        for j in range(m):
            pos = i + j
            layer = RepMap.identity(pos - 1, mode).tensor(c) \
                .tensor(RepMap.identity(total - pos - 1, mode))
            out = layer.compose(out)
    return out


def rep_twist(n: int, mode: Mode = GENERIC) -> RepMap:
    """Twist on V^(x)n via theta_{A(x)B} = c_{B,A} c_{A,B} (theta_A x theta_B)."""
    return _rep_twist(n, mode)


@cache
def _rep_twist(n: int, mode: Mode) -> RepMap:
    if n == 0:
        return RepMap.identity(0, mode)
    if n == 1:
        return elementary_morphisms(mode)["theta"]
    inner = _rep_twist(n - 1, mode).tensor(_rep_twist(1, mode))
    return _rep_braiding(1, n - 1, mode) \
        .compose(_rep_braiding(n - 1, 1, mode)).compose(inner)


def quantum_trace_rep(f: RepMap):
    """Quantum trace of an endomorphism of V^(x)n as the categorical
    composite ev . c . ((theta f) x id) . coev."""
    if f.source_rank != f.target_rank:
        raise ValueError("quantum trace needs an endomorphism")
    n = f.source_rank
    mode = f.mode
    g = rep_twist(n, mode).compose(f).tensor(RepMap.identity(n, mode))
    comp = rep_ev(n, mode).compose(rep_braiding(n, n, mode)) \
        .compose(g).compose(rep_coev(n, mode))
    return comp.entries.get((0, 0), mode.zero())


def _weighted_trace(g: RepMap):
    # tr(K^(x)n . g): the fast form of the quantum trace
    n = g.source_rank
    mode = g.mode
    total = None
    for (i, j), v in g.entries.items():
        if i == j:
            p = mode.a_power(2 * mask_weight(i, n)) * v
            total = p if total is None else total + p
    return total if total is not None else mode.zero()


# ---------------------------------------------------------------------------
# contraction coefficient and mates

def coefficient_b(n: int, m: int, j: int, mode: Mode = GENERIC):
    """q^{-m+j-1} [n+m-j+1] / [n], the scalar produced when the middle
    evaluation contracts adjacent coupled highest-weight vectors."""
    qn = mode.quantum_int(n)
    if qn.is_zero():
        raise PoleError(f"quantum integer [{n}]_q vanishes in mode {mode}")
    return mode.a_power(2 * (j - m - 1)) * mode.quantum_int(n + m - j + 1) / qn


def mate_sharp(f: RepMap) -> RepMap:
    """Right mate U -> W (x) V of f: U (x) V -> W, via (f x id)(id x b)."""
    if f.source_rank < 1:
        raise ValueError("mate needs at least one source strand")
    u = f.source_rank - 1
    mode = f.mode
    b = elementary_morphisms(mode)["b"]
    id1 = RepMap.identity(1, mode)
    return f.tensor(id1).compose(RepMap.identity(u, mode).tensor(b))


def mate_flat(g: RepMap) -> RepMap:
    """Inverse of mate_sharp: U (x) V -> W from g: U -> W (x) V, via
    (id x d)(g x id)."""
    if g.target_rank < 1:
        raise ValueError("mate needs at least one target strand")
    w = g.target_rank - 1
    mode = g.mode
    d = elementary_morphisms(mode)["d"]
    id1 = RepMap.identity(1, mode)
    return RepMap.identity(w, mode).tensor(d).compose(g.tensor(id1))


# ---------------------------------------------------------------------------
# equivalence verification

class FunctorReport:
    """Outcome of one object-pair comparison.

    The verdict is iso exactly when dim_diagram_side, dim_rep_side, and
    matrix_rank agree: injectivity and surjectivity of the induced map on
    (purified, in root mode) hom spaces.
    """

    __slots__ = ("source", "target", "dim_diagram_side", "dim_rep_side",
                 "matrix_rank", "verdict", "mode")

    def __init__(self, source, target, dim_diagram_side, dim_rep_side,
                 matrix_rank, mode):
        self.source = tuple(source)
        self.target = tuple(target)
        self.dim_diagram_side = dim_diagram_side
        self.dim_rep_side = dim_rep_side
        self.matrix_rank = matrix_rank
        self.mode = mode
        iso = dim_diagram_side == dim_rep_side == matrix_rank
        self.verdict = "iso" if iso else "not-iso"

    def to_json_dict(self) -> dict:
        return {
            "source": list(self.source),
            "target": list(self.target),
            "dim_diagram_side": self.dim_diagram_side,
            "dim_rep_side": self.dim_rep_side,
            "matrix_rank": self.matrix_rank,
            "verdict": self.verdict,
            "mode": str(self.mode),
        }

    def __repr__(self):
        return (f"FunctorReport({self.source}->{self.target} [{self.mode}]: "
                f"{self.dim_diagram_side}/{self.dim_rep_side}/"
                f"{self.matrix_rank} {self.verdict})")


def _denominator_clear(m: RepMap) -> RepMap:
    # scale a matrix by one scalar so every entry is denominator-free;
    # Gram and pairing ranks are unchanged by such scalings
    if not m.entries:
        return m
    mode = m.mode
    if mode.is_root:
        lcm = 1
        for v in m.entries.values():
            lcm = math.lcm(lcm, v.den)
        if lcm == 1:
            return m
        return m.scale(mode.from_int(lcm))
    lcm = {0: 1}
    seen = set()
    for v in m.entries.values():
        key = tuple(sorted(v.den.items()))
        if key in seen:
            continue
        seen.add(key)
        g = _poly_gcd(lcm, v.den)
        lcm = _poly_divexact(_lmul(lcm, v.den), g)
    if lcm == {0: 1}:
        return m
    # lcm / den is exact, so each product is a polynomial and needs no gcd
    return RepMap(m.source_rank, m.target_rank,
                  {k: ScalarGeneric.from_laurent(
                      _lmul(v.num, _poly_divexact(lcm, v.den)))
                   for k, v in m.entries.items()}, mode)


def _k_rows(m: RepMap) -> RepMap:
    # left-multiply by the diagonal K^(x)target_rank
    n = m.target_rank
    mode = m.mode
    return RepMap(m.source_rank, n,
                  {(i, j): mode.a_power(2 * mask_weight(i, n)) * v
                   for (i, j), v in m.entries.items()}, mode)


def _sparse_trace(x: RepMap, y: RepMap):
    # tr(x . y) without forming the product
    total = None
    for (i, j), v in x.entries.items():
        w = y.entries.get((j, i))
        if w is not None:
            p = v * w
            total = p if total is None else total + p
    return total if total is not None else x.mode.zero()


@cache
def _int_W(k: int, l: int, mode: Mode) -> list:
    return [_denominator_clear(h) for h in rep_hom_basis(k, l, mode)]


@cache
def _kproj(t: tuple, mode: Mode) -> RepMap:
    return _k_rows(_denominator_clear(_object_data(t, mode)[0]))


@cache
def _pairing_A(t: tuple, k: int, mode: Mode) -> list:
    # A_u = K pi_t h_u for h_u spanning Hom(V^k, V^|t|)
    kp = _kproj(t, mode)
    return [kp.compose(h) for h in _int_W(k, seq_size(t), mode)]


@cache
def _pairing_B(s: tuple, l: int, mode: Mode) -> list:
    # B_v = pi_s h_v' for h_v' spanning Hom(V^l, V^|s|)
    ps = _denominator_clear(_object_data(s, mode)[0])
    return [ps.compose(h) for h in _int_W(l, seq_size(s), mode)]


def _exact_rank(matrix: list) -> int:
    rows = [{j: x for j, x in enumerate(row) if not x.is_zero()}
            for row in matrix]
    return linalg.rank(rows)


def verify_equivalence(s, t, mode: Mode = GENERIC) -> FunctorReport:
    """Compare hom data across the functor for one pair of objects.

    Generic mode: the diagram-side dimension is the hom-basis size, the
    representation side is the rank of its quantum-trace Gram matrix, and
    the matrix rank is that of the pairing between functor images of the
    basis and the intertwiner space.  Root mode: the diagram side also
    passes to its Gram rank, so all three numbers live in the purified
    categories.  The verdict is iso exactly when the three agree.
    """
    s = object_seq(s, mode)
    t = object_seq(t, mode)
    A = _pairing_A(t, seq_size(s), mode)
    B = _pairing_B(s, seq_size(t), mode)
    gram = [[_sparse_trace(au, bv) for bv in B] for au in A]
    dim_rep = _exact_rank(gram)
    diagrams = good_type_diagrams(s, t)
    kp = _kproj(t, mode)
    pairing = []
    for d in diagrams:
        td = kp.compose(_simple_rep(d, mode))
        pairing.append([_sparse_trace(td, bv) for bv in B])
    matrix_rank = _exact_rank(pairing)
    if mode.is_root:
        dim_diag = purified_hom_dim(s, t, mode)
    else:
        dim_diag = len(diagrams)
    return FunctorReport(s, t, dim_diag, dim_rep, matrix_rank, mode)
