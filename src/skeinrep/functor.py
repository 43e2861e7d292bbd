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

Both ranks take one route in either scalar field.  The Gram rank is
proven from the matrix's image mod p, the product of the images of those
three factors, against an upper bound on it: dim Hom(V_s, V_t)
generically, and at a root of unity its dimension modulo negligible
morphisms, the truncated fusion count (uqsl2.hom_dim; the proof is in
verify_equivalence).  An image of higher rank proves the bound wrong and
raises ArithmeticError.  The exact Gram matrix is formed only where that
certificate or the pairing's cannot close.
"""

from functools import cache, reduce

from .scalars import GENERIC, MOD_PRIME, Mode, PoleError, _contract, \
    clear_denominators, mod_map, times_a_power
from . import linalg
from .diagrams import SimpleDiagram, TLMorphism
from .turaev import good_type_diagrams, object_seq, purified_hom_dim, \
    seq_size
from .uqsl2 import RepMap, TensorVector, _free_unknowns, \
    _symmetrizer_factors, elementary_morphisms, hom_dim, hw_projector, \
    mask_weight, rep_hom_basis, rep_hom_coordinates


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
    # the entries of G(k, l) traced so far, keyed (a, b) (_trace_base)
    return {}


def _trace_base(k: int, l: int, supports, need, mode: Mode) -> dict:
    """G(k, l) with its entries at (a, b) traced for every a in supports and
    b in need: each entry once per process, filed under both G(k, l) and
    G(l, k) = G(k, l)^T.  K commutes with intertwiners, so G(k, k) is
    symmetric and the trace of (a, b) also gives (b, a)."""
    g = _base_gram(k, l, mode)
    gt = _base_gram(l, k, mode)     # g itself when k = l
    h_k = rep_hom_basis(k, l, mode)
    h_l = rep_hom_basis(l, k, mode)
    for a in supports:
        todo = [b for b in need if (a, b) not in g]
        if not todo:
            continue
        ka = RepMap(k, l, {(i, j): times_a_power(v, 2 * mask_weight(i, l))
                           for (i, j), v in h_k[a].entries.items()}, mode)
        for b in todo:
            g[a, b] = gt[b, a] = _sparse_trace(ka, h_l[b])
    return g


def _gram_matrix(s: tuple, t: tuple, mode: Mode) -> list:
    """gram = M_t G(k, l) M_s^T for the coordinate rows M_t of t over
    rep_hom_basis(k, l) and M_s of s over rep_hom_basis(l, k), k = |s| and
    l = |t|, with G(k, l)[a][b] = tr(K h_a h'_b) over those plain bases:
    the rows of M_t G at the columns M_s reads, then one contraction per
    Gram entry.  The entries of G are traced at the coordinate supports
    only (_trace_base).  Nothing else is kept: the exact matrix is formed
    only where a rank certificate cannot close."""
    k, l = seq_size(s), seq_size(t)
    left = _projector_coordinates(t, k, mode)
    right = _projector_coordinates(s, l, mode)
    need = set().union(*right)
    g = _trace_base(k, l, set().union(*left), need, mode)
    gram = []
    for row in left:
        tg = {b: _contract([(c, g[a, b]) for a, c in row.items()], mode)
              for b in need}
        gram.append([_contract([(tg[b], c) for b, c in r.items()], mode)
                     for r in right])
    return gram


def _nonzero_rows(matrix):
    # the rows of a dense matrix as sparse rows
    return ({v: x for v, x in enumerate(row) if not x.is_zero()}
            for row in matrix)


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
def _coordinate_images(s: tuple, l: int, mode: Mode, phi) -> list:
    # phi of each row of M_s = _projector_coordinates(s, l), keyed alike
    return [{b: phi(c) for b, c in row.items()}
            for row in _projector_coordinates(s, l, mode)]


@cache
def _base_gram_images(k: int, l: int, mode: Mode, phi) -> dict:
    # phi of the entries of G(k, l) mapped so far, keyed (a, b)
    return {}


@cache
def _image_gram(t: tuple, k: int, mode: Mode, phi) -> tuple:
    # (rows, done): row u of phi(M_t) phi(G(k, |t|)) mod p, for M_t =
    # _projector_coordinates(t, k), at the columns b in done, None for a
    # zero row of M_t
    return [{} if row else None for row in
            _projector_coordinates(t, k, mode)], set()


def _gram_images(s: tuple, t: tuple, mode: Mode, phi):
    """phi(gram) as dense rows of ints mod p, for gram = M_t G M_s^T as in
    _gram_matrix, never formed: phi is a ring map, so the image of the
    product is the product of the images.  phi of each coordinate row is
    kept per (object, size), phi of each entry of G next to G, and the
    rows of phi(M_t) phi(G) per (t, k) at the columns needed so far, so a
    pair costs one product mod p.  The entries of G are still traced
    exactly, once per process (_trace_base).  None where there is no phi
    (scalars.mod_map) or it is undefined on some factor."""
    if phi is None:
        return None
    k, l = seq_size(s), seq_size(t)
    p = MOD_PRIME
    try:
        left = _coordinate_images(t, k, mode, phi)
        right = _coordinate_images(s, l, mode, phi)
        rows, done = _image_gram(t, k, mode, phi)
        need = set().union(*right) - done
        if need:
            supports = set().union(*left)
            g = _trace_base(k, l, supports, need, mode)
            gi = _base_gram_images(k, l, mode, phi)
            gti = _base_gram_images(l, k, mode, phi)
            for a in supports:
                for b in need:
                    if (a, b) not in gi:
                        gi[a, b] = gti[b, a] = phi(g[a, b])
            for u, row in enumerate(left):
                if row:
                    rows[u].update(
                        (b, sum(c * gi[a, b] for a, c in row.items()) % p)
                        for b in need)
            done |= need
    except PoleError:
        return None
    return [[0] * len(right) if tu is None else
            [sum(tu[b] * c for b, c in r.items()) % p for r in right]
            for tu in rows]


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
    shared by every pair of the same sizes (_trace_base).  The pairing of
    an image F(d) = sum_u c_u h_u is sum_u c_u gram[u][v]
    (_pairing_rows).  Every Gram column is a combination of the columns of
    any column basis of gram, so the pairing's rank is read on such a
    basis alone.  A functor image outside the intertwiner span raises
    ValueError.  An odd |s| + |t| has no intertwiners either way and
    returns at once.

    Both ranks are exact.  Each is proven by linalg.certified_profile when
    the matrix's image mod p reaches an upper bound on its rank; where the
    bound does not close, or where there is no image (scalars.mod_map has
    none at a root r with 4r not dividing p - 1), the matrix is eliminated
    exactly.  The pairing's bound is its shape, and its image is phi(C)
    times the Gram image at the basis columns (_pairing_images).

    The Gram image is phi(M_t) phi(G) phi(M_s)^T (_gram_images), and the
    bound is uqsl2.hom_dim(s, t, mode) = sum_w m_s(w) m_t(w), with the
    multiplicities of the fusion rule in mode.  It is a bound: write pi =
    lambda f with f idempotent.  f_s and f_t are intertwiners and K
    commutes with them, so by cyclicity gram[u][v] = lambda_s lambda_t
    tr(K (f_t h_u f_s)(f_s h_v f_t)).  That is the trace form between
    f_t Hom_U(V^|s|, V^|t|) f_s, isomorphic to Hom(V_s, V_t), and
    Hom(V_t, V_s), and both families span, so the Gram rank is the rank of
    the trace form on Hom(V_s, V_t).  Generically that is dim Hom(V_s,
    V_t).  At a root r the colors are at most r - 2, so each V_k is a
    tilting module and so is V_s; the kernel of the trace form is the
    negligible morphisms, and the rank is the multiplicity count of the
    truncated fusion rule, which drops the negligible summands of each
    V_w (x) V_k (Andersen, Tensor products of quantized tilting modules,
    CMP 149, 1992; Turaev, Quantum Invariants of Knots and 3-Manifolds,
    1994).  The exact Gram matrix (_gram_matrix) is formed only where a
    certificate cannot close: the Gram profile's elimination, or the
    pairing's exact rows.  No ring map raises rank, so
    an image with more independent columns than the bound proves the bound
    wrong: that raises ArithmeticError naming the pair, and no rank is
    reported.
    """
    s = object_seq(s, mode)
    t = object_seq(t, mode)
    diagrams = good_type_diagrams(s, t)
    if (seq_size(s) + seq_size(t)) % 2:     # no intertwiners either way
        pivots, matrix_rank = [], 0
    else:
        pivots, matrix_rank = _certified_ranks(s, t, diagrams, mode)
    if mode.is_root:
        dim_diag = purified_hom_dim(s, t, mode)
    else:
        dim_diag = len(diagrams)
    return FunctorReport(s, t, dim_diag, len(pivots), matrix_rank, mode)


def _certified_ranks(s: tuple, t: tuple, diagrams, mode: Mode) -> tuple:
    # (a column basis of gram, the pairing's rank), as verify_equivalence
    phi = mod_map(mode)
    images = _gram_images(s, t, mode, phi)
    try:
        pivots = linalg.certified_profile(
            hom_dim(s, t, mode), images,
            lambda: _nonzero_rows(_gram_matrix(s, t, mode)))
    except ArithmeticError as exc:
        raise ArithmeticError(f"{s} -> {t}: {exc}") from exc
    columns = None if images is None else \
        [[row[v] for v in pivots] for row in images]
    coords = [_image_coordinates(d, mode) for d in diagrams]
    matrix_rank = len(linalg.certified_profile(
        min(len(diagrams), len(pivots)), _pairing_images(phi, coords, columns),
        lambda: _pairing_rows(diagrams, _gram_matrix(s, t, mode), pivots,
                              mode)))
    return pivots, matrix_rank
