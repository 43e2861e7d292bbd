"""Functor from diagrams to tensor powers of the fundamental module.

A k-point boundary goes to V^(x)k and a color sequence s to the image of
the projector f_s acting on V^(x)|s|.  On morphisms, a cup goes to
b: 1 -> V(x)V and a cap to d: V(x)V -> 1, extended over simple diagrams as
a product of one such local weight per arc and over linear combinations by
linearity.

Equivalence verification compares three numbers per object pair: the size
of the diagram-side hom basis (generic) or its Gram rank (root of unity),
the rank of the representation-side quantum-trace Gram matrix, and the
rank of the pairing between functor images and intertwiners.  The functor
is an equivalence on the pair exactly when all three agree.  Each image
is itself an intertwiner, so the pairing is its coordinates against the
intertwiner basis times the Gram matrix, with no composition or trace of
its own.  So is each projected intertwiner pi h, so the Gram matrix is
its coordinates on both sides times one Gram matrix of the plain
intertwiner bases, traced once for every pair of the same sizes.
"""

from functools import cache, reduce

from .scalars import GENERIC, MOD_PRIME, Mode, PoleError, _contract, \
    clear_denominators, mod_map, times_a_power
from . import linalg
from .diagrams import SimpleDiagram, TLMorphism
from .turaev import good_type_diagrams, object_seq, purified_hom_dim, \
    seq_size
from .uqsl2 import RepMap, TensorVector, _free_unknowns, \
    _symmetrizer_factors, elementary_morphisms, hw_projector, mask_weight, \
    rep_hom_basis, rep_hom_coordinates


# ---------------------------------------------------------------------------
# the functor on simple diagrams

@cache
def _simple_rep(d: SimpleDiagram, mode: Mode) -> RepMap:
    """Image of a simple diagram, one local weight per arc: a through strand
    keeps its bit, and a cap or cup on positions p < q sets the bit of p or
    of q, weighted by the entry of d or b at v_1 (x) v_0 or v_0 (x) v_1.
    Masks read left to right, from the top bit."""
    k, l = d.inputs, d.outputs
    bot, top = k - 1, k + l - 1     # bit of input p: bot - p; output: top - p
    em = elementary_morphisms(mode)
    cap, cup = em["d"].entries, em["b"].entries
    entries = {(0, 0): mode.one()}
    for p, q in enumerate(d.match):
        if q < p:
            continue
        if q < k:
            sets = ((0, 1 << (bot - p), cap[(0, 0b10)]),
                    (0, 1 << (bot - q), cap[(0, 0b01)]))
        elif p >= k:
            sets = ((1 << (top - p), 0, cup[(0b10, 0)]),
                    (1 << (top - q), 0, cup[(0b01, 0)]))
        else:
            sets = ((0, 0, None), (1 << (top - q), 1 << (bot - p), None))
        entries = {(i | si, j | sj): v if w is None else v * w
                   for (i, j), v in entries.items() for si, sj, w in sets}
    return RepMap(k, l, entries, mode)


def F_diagram(f: TLMorphism) -> RepMap:
    """Linear extension of the functor to a formal sum of simple diagrams,
    one contraction of coefficients against diagram images per entry."""
    buckets: dict = {}
    for d, c in f.terms.items():
        for key, v in _simple_rep(d, f.mode).entries.items():
            buckets.setdefault(key, []).append((c, v))
    return RepMap(f.inputs, f.outputs,
                  {key: _contract(ps, f.mode) for key, ps in buckets.items()},
                  f.mode)


# ---------------------------------------------------------------------------
# object images: the projector f_s and a basis of its image

def _object_projector(s: tuple, mode: Mode) -> RepMap:
    """f_s = f_{s_1} (x) ... (x) f_{s_m}, built in full for F_object only;
    every other use applies it color by color (_apply_colors)."""
    return reduce(RepMap.tensor, [hw_projector(k, mode) for k in s]
                  or [RepMap.identity(0, mode)])


@cache
def _color_factors(k: int, mode: Mode) -> tuple:
    """(weights, inv, blocks) of lambda_k f_k, inv and blocks as in
    uqsl2._symmetrizer_factors: its entry at (a, b) in one block is
    weights[b] q^inv(a), weights[b] = c_j q^inv(b) for b with j ones and
    c_j = lambda_k / D_j.  lambda_k, the lcm of the denominators of the
    1 / D_j, leaves every entry denominator-free; ranks, rank profiles and
    coordinates against maps scaled alike do not see it."""
    inv, blocks, scalars = _symmetrizer_factors(k, mode)
    weights = [None] * (1 << k)
    for c, block in zip(clear_denominators(scalars, mode), blocks):
        for b in block:
            weights[b] = times_a_power(c, 2 * inv[b])
    return weights, inv, blocks


def _image_columns(s: tuple) -> list:
    """The first linearly independent columns of f_s, ascending.  f_k has
    rank one on each weight block and no zero entry inside one, so block
    j's first independent column is its smallest mask, the j low bits set,
    and RREF(A (x) B) = RREF(A) (x) RREF(B) makes those of f_s the
    products of each color's own."""
    cols = [0]
    for k in s:
        cols = [c << k | (1 << j) - 1 for c in cols for j in range(k + 1)]
    return cols


def _apply_colors(s: tuple, entries: dict, mode: Mode, keep=None) -> dict:
    """The entries of lambda_s f_s m, for a map m given by its entries
    keyed (target mask, source mask).  lambda_s f_s is the tensor product
    of each color's lambda_k f_k, never built: (A (x) B) X =
    (A (x) 1)(1 (x) B) X, so each color k > 1 acts on its own bits of the
    target mask, rank one on each weight block (_color_factors): the
    entries whose other bits, source mask and block agree contract once
    against the weights of their masks b, and each mask a of the block
    takes that sum times q^inv(a).  Color 1 is the identity, so it costs
    nothing.  The colors act on disjoint bits, so they commute, and the
    largest goes last: given a set keep of keys, the last color computes
    only the entries keyed in it and contracts no group that has none."""
    # (k, its shift: the number of bits after it) for each color k > 1
    colors = sorted((k, sum(s[n + 1:])) for n, k in enumerate(s) if k > 1)
    for n, (k, shift) in enumerate(colors, 1):
        weights, inv, blocks = _color_factors(k, mode)
        bits = (1 << k) - 1 << shift
        want = keep if n == len(colors) else None
        need = None if want is None else {
            (i & ~bits, j, ((i & bits) >> shift).bit_count()) for i, j in want}
        groups: dict = {}
        for (i, j), y in entries.items():
            b = (i & bits) >> shift
            group = (i & ~bits, j, b.bit_count())
            if need is None or group in need:
                groups.setdefault(group, []).append((weights[b], y))
        entries = {}
        for (rest, j, w), ps in groups.items():
            if not (v := _contract(ps, mode)).is_zero():
                for a in blocks[w]:
                    key = (rest | a << shift, j)
                    if want is None or key in want:
                        entries[key] = times_a_power(v, 2 * inv[a])
    return entries


def F_object(s, mode: Mode = GENERIC) -> dict:
    """Image data of an object: the projector f_s on V^(x)|s| and the basis
    of its image given by the first linearly independent columns."""
    s = object_seq(s, mode)
    proj = _object_projector(s, mode)
    cols: dict = {}
    for (i, j), v in proj.entries.items():
        cols.setdefault(j, {})[i] = v
    k = seq_size(s)
    basis = [TensorVector(k, cols[j], mode) for j in _image_columns(s)]
    return {"projector": proj, "basis": basis}


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
    """Quantum trace tr(K^(x)n . f) = sum_i a^(2 w(i)) f_ii of an
    endomorphism of V^(x)n, one contraction over its diagonal.  It equals
    the categorical composite ev . c . ((theta f) x id) . coev, which is
    the test oracle ``categorical_trace_rep`` in ``tests/oracles.py``."""
    if f.source_rank != f.target_rank:
        raise ValueError("quantum trace needs an endomorphism")
    n, mode = f.source_rank, f.mode
    return _contract([(mode.a_power(2 * mask_weight(i, n)), v)
                      for (i, j), v in f.entries.items() if i == j], mode)


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


def _sparse_trace(x: RepMap, y: RepMap):
    # tr(x . y) without forming the product, one contraction per entry
    ye = y.entries
    return _contract([(v, w) for (i, j), v in x.entries.items()
                      if (w := ye.get((j, i))) is not None], x.mode)


@cache
def _image_coordinates(d: SimpleDiagram, mode: Mode) -> dict:
    # F(d) = sum_u c_u h_u over rep_hom_basis, nonzero c_u keyed by u
    return {u: c
            for u, c in enumerate(rep_hom_coordinates(_simple_rep(d, mode)))
            if not c.is_zero()}


@cache
def _projector_coordinates(s: tuple, l: int, mode: Mode) -> list:
    """M_s: row v holds the nonzero coordinates {b: c} of pi_s h_v against
    the maps h_b of rep_hom_basis(l, |s|), for h_v in that basis, so
    pi_s h_v = sum_b c h_b.  pi_s = lambda_s f_s is an intertwiner, so as
    in rep_hom_coordinates coordinate b is the entry at the free unknown
    of h_b, and the colors are applied (_apply_colors) only to the source
    columns of those unknowns."""
    n = seq_size(s)
    free = {f: b for b, f in enumerate(_free_unknowns(l, n, mode))}
    columns = {j for _, j in free}
    rows = []
    for h in rep_hom_basis(l, n, mode):
        entries = _apply_colors(
            s, {key: v for key, v in h.entries.items() if key[1] in columns},
            mode, free)
        rows.append({free[key]: v for key, v in entries.items()
                     if key in free})
    return rows


@cache
def _base_gram(k: int, l: int, mode: Mode) -> dict:
    # the entries of G(k, l) traced so far, keyed (a, b) (_gram_matrix)
    return {}


@cache
def _coordinate_gram(t: tuple, k: int, mode: Mode) -> tuple:
    # (rows, done): row u of M_t G(k, |t|) for M_t = _projector_coordinates
    # (t, k), at the columns b in done, None for a zero row of M_t
    return [{} if row else None for row in
            _projector_coordinates(t, k, mode)], set()


def _unit(row: dict):
    # b when the coordinate row is {b: 1}, else None
    if len(row) == 1:
        (b, c), = row.items()
        if c.is_one():
            return b
    return None


def _gram_matrix(s: tuple, t: tuple, mode: Mode) -> list:
    """gram = M_t G(k, l) M_s^T for the coordinate rows M_t of t over
    rep_hom_basis(k, l) and M_s of s over rep_hom_basis(l, k), k = |s| and
    l = |t|, with G(k, l)[a][b] = tr(K h_a h'_b) over those plain bases.

    Each entry of G is traced once per process, at the coordinate
    supports only, and filed under both G(k, l) and G(l, k) = G(k, l)^T;
    K commutes with intertwiners, so G(k, k) is symmetric and the trace
    of (a, b) also gives (b, a).  The rows of M_t G are kept per (t, k) at
    the columns some M_s has needed, so a pair adds only the columns new
    to it, and then costs one contraction per Gram entry.  A zero row of
    M_t gives a zero Gram row, and a row {b: 1} (every row of an object of
    color 1 only) reads G or M_t G as it is."""
    k, l = seq_size(s), seq_size(t)
    left = _projector_coordinates(t, k, mode)
    if not left:        # odd k + l: no intertwiners either way
        return []
    right = _projector_coordinates(s, l, mode)
    rows, done = _coordinate_gram(t, k, mode)
    need = set().union(*right) - done
    if need:
        g = _base_gram(k, l, mode)
        gt = _base_gram(l, k, mode)     # g itself when k = l
        h_k = rep_hom_basis(k, l, mode)
        h_l = rep_hom_basis(l, k, mode)
        for a in set().union(*left):
            todo = [b for b in need if (a, b) not in g]
            if not todo:
                continue
            ka = RepMap(k, l, {(i, j): times_a_power(v, 2 * mask_weight(i, l))
                               for (i, j), v in h_k[a].entries.items()}, mode)
            for b in todo:
                g[a, b] = gt[b, a] = _sparse_trace(ka, h_l[b])
        for u, row in enumerate(left):
            if not row:
                continue
            a = _unit(row)
            if a is not None:
                rows[u].update((b, g[a, b]) for b in need)
            else:
                rows[u].update((b, _contract([(c, g[w, b])
                                              for w, c in row.items()], mode))
                               for b in need)
        done |= need
    zero = mode.zero()
    units = [_unit(r) for r in right]
    gram = []
    for tu in rows:
        if tu is None:
            gram.append([zero] * len(right))
            continue
        gram.append([zero if not r else tu[b] if b is not None else
                     _contract([(tu[w], c) for w, c in r.items()], mode)
                     for r, b in zip(right, units)])
    return gram


def _pairing_rows(diagrams, gram: list, columns, mode: Mode) -> list:
    """The pairing tr(K pi_t F(d) pi_s h_v) of each diagram d with the
    columns v of the Gram matrix gram[u][v] = tr(K pi_t h_u pi_s h_v), as
    sparse rows keyed by the position of v in columns: with
    F(d) = sum_u c_u h_u, it is sum_u c_u gram[u][v], one contraction."""
    rows = []
    for d in diagrams:
        coords = _image_coordinates(d, mode)
        row = {}
        for j, v in enumerate(columns):
            x = _contract([(c, gram[u][v]) for u, c in coords.items()], mode)
            if not x.is_zero():
                row[j] = x
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the rank certificate: images mod p (scalars.mod_map) and upper bounds

@cache
def _coordinate_rank(s: tuple, l: int, mode: Mode) -> int:
    """rank M_s for M_s = _projector_coordinates(s, l), exactly: a Gram
    matrix M_t G M_s^T has rank at most min(rank M_t, rank M_s).  M_s is
    the identity for an object of color 1 only."""
    rows = _projector_coordinates(s, l, mode)
    if all(k == 1 for k in s):
        return len(rows)
    return linalg.rank(rows)


def _mod_images(phi, matrix):
    # phi of every entry; None when there is no phi or it is undefined on one
    if phi is None:
        return None
    try:
        return [[phi(x) for x in row] for row in matrix]
    except PoleError:
        return None


def _pairing_images(phi, coords: list, columns):
    """phi of the pairing matrix C gram at the basis columns, as dense rows
    mod p: row d is sum_u phi(c_u) columns[u], for F(d) = sum_u c_u h_u
    and columns[u] the image of Gram row u at those columns.  None when
    columns is, or where phi is undefined on some c_u."""
    if columns is None:
        return None
    p, width = MOD_PRIME, len(columns[0]) if columns else 0
    images = []
    try:
        for cs in coords:
            acc = [0] * width
            for u, c in cs.items():
                x = phi(c)
                acc = [y + x * z for y, z in zip(acc, columns[u])]
            images.append([y % p for y in acc])
    except PoleError:
        return None
    return images


def verify_equivalence(s, t, mode: Mode = GENERIC) -> FunctorReport:
    """Compare hom data across the functor for one pair of objects.

    Generic mode: the diagram-side dimension is the hom-basis size, the
    representation side is the rank of its quantum-trace Gram matrix, and
    the matrix rank is that of the pairing between functor images of the
    basis and the intertwiner space.  Root mode: the diagram side also
    passes to its Gram rank, so all three numbers live in the purified
    categories.  The verdict is iso exactly when the three agree.

    The Gram matrix is gram[u][v] = tr(K pi_t h_u pi_s h_v) for the
    intertwiners h_u: V^|s| -> V^|t| and h_v: V^|t| -> V^|s|.  Both
    projected maps are intertwiners, pi_t h_u = sum_a M_t[u][a] h_a and
    pi_s h_v = sum_b M_s[v][b] h'_b over the same bases, so by linearity
    gram = M_t G M_s^T with G[a][b] = tr(K h_a h'_b): the coordinate rows
    are cached per object and size (_projector_coordinates), and G is
    shared by every pair of the same sizes (_gram_matrix).  The
    pairing of an image F(d) = sum_u c_u h_u is sum_u c_u gram[u][v]
    (_pairing_rows).  Every Gram column is a combination of the columns of
    any column basis of gram, so the pairing's rank is read on such a
    basis alone.  A functor image outside the intertwiner span raises
    ValueError.

    Both ranks are exact.  Each is proven by linalg.certified_profile when
    the matrix's image mod p reaches an upper bound on its rank: for the
    Gram matrix min(rank M_t, rank M_s), for the pairing its shape.  Where
    the bound does not close, the matrix is eliminated exactly.
    """
    s = object_seq(s, mode)
    t = object_seq(t, mode)
    gram = _gram_matrix(s, t, mode)
    phi = mod_map(mode)

    def gram_rows():
        return ({v: x for v, x in enumerate(row) if not x.is_zero()}
                for row in gram)

    if not gram:        # odd |s| + |t|: no intertwiners either way
        pivots, columns = [], None
    elif mode.is_root:
        # exact: the Gram form is degenerate here by design (the negligible
        # quotient), so its bound seldom closes.  Measured per root_sweep
        # unit (seed 3, caches warm but the coordinate ranks) on a 2-CPU
        # x86-64 machine, CPU time, with root products by one skipped: the
        # bound would close on 168 of 344 Gram matrices and 0.007 to
        # 0.008 s of Gram-rank time, against 0.029 to 0.033 s for the
        # exact ranks of M_t and M_s it needs and 0.044 to 0.051 s to map
        # the whole Gram matrices mod p.
        pivots = linalg.column_rank_profile(gram_rows())
        columns = _mod_images(phi, [[row[v] for v in pivots]
                                    for row in gram])
    else:
        images = _mod_images(phi, gram)
        bound = min(_coordinate_rank(t, seq_size(s), mode),
                    _coordinate_rank(s, seq_size(t), mode))
        pivots = linalg.certified_profile(bound, images, gram_rows)
        columns = None if images is None else \
            [[row[v] for v in pivots] for row in images]
    dim_rep = len(pivots)
    diagrams = good_type_diagrams(s, t)
    coords = [_image_coordinates(d, mode) for d in diagrams]
    matrix_rank = len(linalg.certified_profile(
        min(len(diagrams), dim_rep), _pairing_images(phi, coords, columns),
        lambda: _pairing_rows(diagrams, gram, pivots, mode)))
    if mode.is_root:
        dim_diag = purified_hom_dim(s, t, mode)
    else:
        dim_diag = len(diagrams)
    return FunctorReport(s, t, dim_diag, dim_rep, matrix_rank, mode)
