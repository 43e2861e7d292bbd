"""Independent reference computations used to cross-check the package.

Everything here recomputes an expected value by a route disjoint from the
implementation under test: brackets by brute-force state enumeration with
union-find circle counting, hom dimensions by Clebsch-Gordan fusion counts,
matchings by direct recursive chord placement on the boundary circle,
Jones-Wenzl projectors by the two-sided Wenzl recursion, the top-summand
projector of V^(x)n by inverting its matrix of Y-orbits, quantum traces
by the full braided composite d . c . ((theta f) x id) . b,
sparse products, traces, diagram composition, plain closures and the
functor's linear extension by pairwise scalar products and sums, the
scalar operators and the elimination row update by per-field bodies that
never enter the contraction kernel, root-mode sums by coefficient lists
reduced by a table of the powers of a mod Phi_4r, not by packed residues,
polynomial gcds by the primitive
remainder sequence and exact quotients on the dense lists in a itself,
not by evaluation and not in a power of a, the functor on a simple
diagram by composing elementary cap and cup layers, the pairing of functor
images with intertwiners by tracing each composed image, not by its
coordinates, Gram entries by tracing K pi_t h_u against pi_s h_v, not
by splitting K into two square roots, the Gram matrix by tracing each
projected intertwiner pair, not through projector coordinates and base
Gram matrices, the diagram-side Gram matrix by composing each diagram
with each hatted map and closing the composite, not in one contraction
per entry, the functor's matrix on hom spaces (F_hom_matrix, which only
tests use) by one RREF of the compressed intertwiners, and an object's
cleared projector by the full tensor
product of its colors', each scaled by full scalar multiplication, not
color by color from rank-one factors, and
intertwiner bases by solving the X and Y equations of each (k, l) on
their own, with full generator matrices, not by bending the invariants
of V^(x)(k+l).
"""

import math
from fractions import Fraction
from functools import cache
from math import comb, gcd

from skeinrep.diagrams import (SimpleDiagram, TLMorphism, _layer_morphism,
                               compose, e_generator, identity_morphism,
                               stack_simple, tensor)
from skeinrep.functor import (F_diagram, F_object, _apply_colors,
                              _image_columns, _image_coordinates,
                              _simple_rep, rep_braiding, rep_coev, rep_ev,
                              rep_twist)
from skeinrep.linalg import (Eliminator, column_rank_profile, kernel_basis,
                             rref_rows, transpose, vec_scale, vec_sub_scaled)
from skeinrep.scalars import (_ONE, GENERIC, ScalarCyclotomic, ScalarGeneric,
                              _contract, _from_list, _list_divexact,
                              _list_primitive, _lmul, _lscale, _to_list,
                              cyclotomic_poly, times_a_power)
from skeinrep.tl_category import (_closure_circles, braiding_tl,
                                  closure_trace, coev_tl, ev_tl, twist_tl)
from skeinrep.turaev import (good_type_diagrams, hom_basis, object_seq,
                             seq_size)
from skeinrep.uqsl2 import (RepMap, TensorVector, act, elementary_morphisms,
                            highest_weight_basis, hw_projector, mask_weight,
                            rep_hom_basis)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def hw_multiplicity(n: int, w: int) -> int:
    """Multiplicity of the simple of highest weight w inside V1^(tensor n)."""
    if w < 0 or w > n or (n - w) % 2:
        return 0
    k = (n - w) // 2
    return comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)


def fusion_multiplicities(s, r=None) -> dict:
    """Simple-object multiplicities in the tensor product over s.

    Generic fusion when r is None; at a root of unity the rules are
    truncated to colors at most r - 2.
    """
    mult = {0: 1}
    for n in s:
        new: dict = {}
        for w, c in mult.items():
            top = w + n
            if r is not None:
                top = min(top, 2 * (r - 2) - w - n)
            for k in range(abs(w - n), top + 1, 2):
                new[k] = new.get(k, 0) + c
        mult = new
    return mult


def hom_dimension(s, t, r=None) -> int:
    ms, mt = fusion_multiplicities(s, r), fusion_multiplicities(t, r)
    return sum(c * mt.get(w, 0) for w, c in ms.items())


def noncrossing_matchings(k: int, l: int) -> set:
    """All planar matchings of k bottom and l top points, as match tuples.

    Chords are placed recursively on the circular boundary walk (bottom
    left to right, then top right to left): the first point of a pending
    run pairs with any point an odd distance along it, splitting the run
    into two independent runs.
    """
    order = list(range(k)) + list(range(k + l - 1, k - 1, -1))
    out: set = set()

    def place(runs, pairs):
        runs = [r for r in runs if r]
        if not runs:
            out.add(tuple(pairs[i] for i in range(k + l)))
            return
        run = runs[0]
        p0 = run[0]
        for j in range(1, len(run), 2):
            q = run[j]
            pairs[p0], pairs[q] = q, p0
            place([run[1:j], run[j + 1:]] + runs[1:], pairs)
            del pairs[p0], pairs[q]

    place([order], {})
    return out


def state_sum_bracket(word, mode=GENERIC):
    """Kauffman bracket by full state enumeration.

    Resolves every crossing both ways, weights a by identity and 1/a by
    turn-back for x+ (mirrored for x-), counts closed circles with a
    union-find over strand segments, and sums weight * delta^circles.
    Completely independent of the diagram composition engine.
    """
    crossings = [idx for idx, lay in enumerate(word.layers)
                 if lay[0] in ("x+", "x-")]
    a, ainv = mode.a_power(1), mode.a_power(-1)
    delta = -(mode.a_power(2) + mode.a_power(-2))
    total = mode.zero()
    for bits in range(1 << len(crossings)):
        choice = {c: (bits >> t) & 1 for t, c in enumerate(crossings)}
        parent: dict = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        fresh = 0
        strands: list = []
        circles = 0
        weight = mode.one()
        for idx, lay in enumerate(word.layers):
            kind = lay[0]
            if kind == "id":
                continue
            i = lay[1]
            if kind == "cup":
                u, v = fresh, fresh + 1
                fresh += 2
                parent[u] = u
                parent[v] = u
                strands[i - 1:i - 1] = [u, v]
            elif kind == "cap":
                ru, rv = find(strands[i - 1]), find(strands[i])
                if ru == rv:
                    circles += 1
                else:
                    parent[ru] = rv
                del strands[i - 1:i + 1]
            else:
                turn = choice[idx]
                if kind == "x+":
                    weight = weight * (ainv if turn else a)
                else:
                    weight = weight * (a if turn else ainv)
                if turn:
                    ru, rv = find(strands[i - 1]), find(strands[i])
                    if ru == rv:
                        circles += 1
                    else:
                        parent[ru] = rv
                    nu, nv = fresh, fresh + 1
                    fresh += 2
                    parent[nu] = nu
                    parent[nv] = nu
                    strands[i - 1] = nu
                    strands[i] = nv
        if strands:
            raise ValueError("word is not closed")
        term = weight
        for _ in range(circles):
            term = term * delta
        total = total + term
    return total


def chebyshev_loop(k: int, mode=GENERIC):
    """Chebyshev value of the k-strand loop filter in the circle weight."""
    delta = -(mode.a_power(2) + mode.a_power(-2))
    prev, cur = mode.one(), delta
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, cur * delta - prev
    return cur


def _loop_weights(k: int, mode) -> list:
    # D_0..D_k with D_{j+1} = delta*D_j - D_{j-1}
    out = [mode.one(), mode.delta()]
    while len(out) <= k:
        out.append(mode.delta() * out[-1] - out[-2])
    return out[:k + 1]


@cache
def wenzl_jones_wenzl(k: int, mode=GENERIC) -> TLMorphism:
    """The k-strand projector by the Wenzl recursion
    f_k = ext - (D_{k-2}/D_{k-1}) ext e_{k-1} ext with ext = f_{k-1} x 1,
    D_0 = 1, D_1 = delta, D_{j+1} = delta*D_j - D_{j-1}: two full
    compositions per step, each pair of terms one scalar product."""
    if k == 0:
        return TLMorphism.from_diagram(SimpleDiagram(0, 0, ()), mode)
    if k == 1:
        return identity_morphism(1, mode)
    dd = _loop_weights(k - 1, mode)
    ratio = dd[k - 2] / dd[k - 1]
    ext = tensor(wenzl_jones_wenzl(k - 1, mode), identity_morphism(1, mode))
    return ext - compose(ext, compose(e_generator(k - 1, k, mode),
                                      ext)).scale(ratio)


def orbit_hw_projector(n: int, mode=GENERIC) -> RepMap:
    """The idempotent fixing the top isotypic component of V^{(x)n} and
    killing every lower one, from highest-weight bases and their Y-orbits,
    not by the closed form of hw_projector.  With C the matrix of orbit
    columns, one exact RREF takes [C | I] to [I | C^-1]; the projector is C
    restricted to the top orbits times the matching rows of C^-1.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    size = 1 << n
    cols: list = []
    top_count = 0
    for k in range(n, -1, -2):
        for hw in highest_weight_basis(n, k, mode):
            u = hw.vector
            for _ in range(k + 1):
                cols.append(u)
                u = act("Y", u)
        if k == n:
            top_count = len(cols)
        if k == 0:
            break
    if len(cols) != size:
        raise ValueError(f"tensor power is not spanned by Y-orbits in mode {mode}")
    rows = [{size + i: mode.one()} for i in range(size)]
    for t, col in enumerate(cols):
        for i, x in col.components.items():
            rows[i][t] = x
    inverse = rref_rows(rows)
    # [C | I] has rank size, so C is invertible iff its pivots are 0..size-1
    if min(inverse[-1]) >= size:
        raise ValueError(f"tensor power is not spanned by Y-orbits in mode {mode}")
    pairs: dict = {}
    for t in range(top_count):
        for j, c in inverse[t].items():
            if j >= size:
                for i, x in cols[t].components.items():
                    pairs.setdefault((i, j - size), []).append((c, x))
    return RepMap(n, n, {key: _contract(ps, mode) for key, ps in pairs.items()},
                  mode)


def input_order_elimination(rows, ncols: int, one) -> dict:
    """Rank, pivot columns, RREF rows and kernel basis from an Eliminator
    fed the rows one by one in the order given.

    This is the slow path the batch routes of ``linalg`` replace by adding
    their rows right to left; since the RREF of a row space is unique, the
    two must agree exactly.
    """
    el = Eliminator()
    for r in rows:
        el.add(r)
    pivots = sorted(el.rows)
    kernel = []
    for f in range(ncols):
        if f in el.rows:
            continue
        v = {f: one}
        for p in pivots:
            c = el.rows[p].get(f)
            if c is not None:
                v[p] = -c
        kernel.append(v)
    return {"rank": len(pivots), "pivots": pivots,
            "rref": [el.rows[p] for p in pivots], "kernel": kernel}


# the scalar operators one field at a time, pairwise, as the field classes
# computed them before every sum and product went through scalars._contract;
# an int operand takes the field of the other one

def _ladd(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _same_field(x, y):
    if isinstance(x, int):
        x = y.mode.from_int(x)
    if isinstance(y, int):
        y = x.mode.from_int(y)
    return x, y


def pairwise_add(x, y):
    x, y = _same_field(x, y)
    if isinstance(x, ScalarGeneric):
        if x.den == _ONE and y.den == _ONE:
            return ScalarGeneric(_ladd(x.num, y.num), dict(_ONE),
                                 _canonical=True)
        num = _ladd(_lmul(x.num, y.den), _lmul(y.num, x.den))
        return ScalarGeneric(num, _lmul(x.den, y.den))
    n = max(len(x.coeffs), len(y.coeffs))
    a = list(x.coeffs) + [0] * (n - len(x.coeffs))
    b = list(y.coeffs) + [0] * (n - len(y.coeffs))
    if x.den == y.den:
        return ScalarCyclotomic(x.mode, [u + v for u, v in zip(a, b)], x.den)
    return ScalarCyclotomic(x.mode, [u * y.den + v * x.den
                                     for u, v in zip(a, b)], x.den * y.den)


def pairwise_mul(x, y):
    x, y = _same_field(x, y)
    if isinstance(x, ScalarGeneric):
        return ScalarGeneric(_lmul(x.num, y.num), _lmul(x.den, y.den))
    if not x.coeffs or not y.coeffs:
        return x.mode.from_int(0)
    prod = [0] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, ci in enumerate(x.coeffs):
        for j, cj in enumerate(y.coeffs):
            prod[i + j] += ci * cj
    return ScalarCyclotomic(x.mode, prod, x.den * y.den)


def pairwise_truediv(x, y):
    x, y = _same_field(x, y)
    if y.is_zero():
        raise ZeroDivisionError("division by zero scalar")
    if isinstance(x, ScalarGeneric):
        return ScalarGeneric(_lmul(x.num, y.den), _lmul(x.den, y.num))
    return pairwise_mul(x, xgcd_inverse(y))


def _xgcd_mod(f: list, phi: list):
    """Return (u, g) with u*f = g (mod phi), g a nonzero rational."""
    r0 = [Fraction(c) for c in phi]
    r1 = [Fraction(c) for c in f]
    s0: list = [Fraction(0)]
    s1: list = [Fraction(1)]

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    while deg(r1) > 0:
        d0, d1 = deg(r0), deg(r1)
        while d0 >= d1 >= 0:
            c = r0[d0] / r1[d1]
            for j in range(d1 + 1):
                r0[d0 - d1 + j] -= c * r1[j]
            for j in range(len(s1)):
                while len(s0) < d0 - d1 + j + 1:
                    s0.append(Fraction(0))
                s0[d0 - d1 + j] -= c * s1[j]
            d0 = deg(r0)
        r0, r1 = r1, r0
        s0, s1 = s1, s0
    g = r1[deg(r1)]
    if g == 0:
        raise ZeroDivisionError("not invertible modulo the cyclotomic polynomial")
    return s1, g


def xgcd_inverse(x):
    """Inverse in Q(zeta_4r) by the extended Euclidean algorithm over
    Fraction polynomials modulo Phi_4r."""
    if not x.coeffs:
        raise ZeroDivisionError("division by zero scalar")
    u, g = _xgcd_mod(list(x.coeffs), cyclotomic_poly(4 * x.r))
    # x/den * (den * u / g) = 1
    den_lcm = 1
    for c in u:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    cs = [c.numerator * (den_lcm // c.denominator) * x.den * g.denominator
          for c in u]
    return ScalarCyclotomic(x.mode, cs, den_lcm * g.numerator)


@cache
def _power_table(r: int) -> tuple:
    """(deg Phi_{4r}, rows): row e is x^e mod Phi_{4r} for e < 4r, as its
    nonzero (index, coeff) pairs; x^{4r} = 1 modulo Phi_{4r}, so the rows
    repeat with period 4r."""
    phi = cyclotomic_poly(4 * r)
    deg = len(phi) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(4 * r):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * p for c, p in zip(cur, phi)]
    return deg, tuple(rows)


def _cyclo_reduce(cs: list, r: int) -> list:
    """An integer coefficient list mod Phi_{4r}, by the table of powers,
    trailing zeros dropped."""
    deg, table = _power_table(r)
    if len(cs) > deg:
        order = 4 * r
        out = cs[:deg]
        for e in range(deg, len(cs)):
            c = cs[e]
            if c:
                for j, t in table[e % order]:
                    out[j] += c * t
        cs = out
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def list_contract(pairs, r: int) -> tuple:
    """(coeffs, den) of the sum of x * y over root-mode pairs, by
    coefficient lists: the products convolved over the lcm of the
    denominators, reduced by the table of powers, and the content gcd
    cancelled, never through a packed residue."""
    den = math.lcm(1, *(x.den * y.den for x, y in pairs))
    acc = [0] * (2 * len(cyclotomic_poly(4 * r)))
    for x, y in pairs:
        m = den // (x.den * y.den)
        for i, c in enumerate(x.coeffs):
            for j, e in enumerate(y.coeffs, i):
                acc[j] += m * c * e
    cs = _cyclo_reduce(acc, r)
    g = gcd(den, *cs)
    if not cs:
        return (), 1
    return tuple(c // g for c in cs), den // g


def pairwise_row_update(u, v, c):
    """u - c*v entry by entry: one product, its negation and one sum."""
    out = dict(u)
    for col, x in v.items():
        s = out.get(col)
        p = -pairwise_mul(c, x)
        s = p if s is None else pairwise_add(s, p)
        if s.is_zero():
            out.pop(col, None)
        else:
            out[col] = s
    return out


def list_prem(f, g):
    """Pseudo-remainder of f by g, little-endian lists, g nonzero."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        lf = f[-1]
        shift = len(f) - 1 - dg
        f = [c * lg for c in f]
        for j, gj in enumerate(g):
            f[shift + j] -= lf * gj
        while f and f[-1] == 0:
            f.pop()
    return f


def dense_poly_gcd(f, g):
    """The gcd of _gcd_cofactors by the primitive remainder sequence on
    the full dense coefficient lists in a itself, never in a power of a,
    and with no evaluation."""
    if not f or not g:
        h = f or g
        return {e: -c for e, c in h.items()} if h and h[max(h)] < 0 else h
    u = _list_primitive(_to_list(f))
    v = _list_primitive(_to_list(g))
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _list_primitive(list_prem(u, v))
    return _lscale(_from_list(u), gcd(gcd(*f.values()), gcd(*g.values())))


def dense_poly_divexact(f, g):
    """f / g in a itself: long division of the dense lists."""
    return _from_list(_list_divexact(_to_list(f), _to_list(g)))


def scaled_denominator_clear(m):
    """A map times the lcm of its entries' denominators, by full scalar
    multiplication (one canonicalization per entry)."""
    if m.mode.is_root:
        lcm = 1
        for v in m.entries.values():
            lcm = math.lcm(lcm, v.den)
        return m.scale(m.mode.from_int(lcm))
    lcm = {0: 1}
    for v in m.entries.values():
        lcm = dense_poly_divexact(_lmul(lcm, v.den),
                                  dense_poly_gcd(lcm, v.den))
    return m.scale(ScalarGeneric.from_laurent(lcm))


def pairwise_trace(x, y):
    """tr(x . y), each product and each partial sum a canonical scalar."""
    total = None
    for (i, j), v in x.entries.items():
        w = y.entries.get((j, i))
        if w is not None:
            p = v * w
            total = p if total is None else total + p
    return total if total is not None else x.mode.zero()


def pairwise_compose(f, g):
    """f after g, each product and each partial sum a canonical scalar."""
    rows_g: dict = {}
    for (j, k), y in g.entries.items():
        rows_g.setdefault(j, []).append((k, y))
    out: dict = {}
    for (i, j), x in f.entries.items():
        for k, y in rows_g.get(j, ()):
            key = (i, k)
            s = out.get(key)
            p = x * y
            out[key] = p if s is None else s + p
    return RepMap(g.source_rank, f.target_rank, out, f.mode)


def pairwise_diagram_compose(f, g):
    """f after g on diagram combinations, each product c1 * c2 * delta^loops
    and each partial sum a canonical scalar."""
    if f.inputs != g.outputs:
        raise ValueError("arity mismatch")
    mode = f.mode
    out: dict = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            d, loops = stack_simple(d1, d2)
            p = c1 * c2 * mode.delta() ** loops
            s = out.get(d)
            out[d] = p if s is None else s + p
    return TLMorphism(g.inputs, f.outputs, out, mode)


def pairwise_markov_closure(f):
    """Plain closure of an endomorphism, each c * delta^circles and each
    partial sum a canonical scalar."""
    if f.inputs != f.outputs:
        raise ValueError("closure needs an endomorphism")
    total = f.mode.zero()
    for d, c in f.terms.items():
        total = total + c * f.mode.delta() ** _closure_circles(d)
    return total


def pairwise_resolve(word, mode=GENERIC):
    """A generator word multiplied out layer by layer with
    pairwise_diagram_compose."""
    out = None
    for layer in word.layers:
        m = _layer_morphism(layer, mode)
        out = m if out is None else pairwise_diagram_compose(m, out)
    return out


def _drop_pair(d, u):
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


def _elementary_layer(name, i, n, mode):
    # id_{i-1} x b x id_{n-i-1} or id_{i-1} x d x id_{n-i-1}, 1-indexed i
    layer = elementary_morphisms(mode)[name]
    return RepMap.identity(i - 1, mode).tensor(layer) \
        .tensor(RepMap.identity(n - i - 1, mode))


@cache
def layered_simple_rep(d, mode=GENERIC):
    """The functor on a simple diagram as a composite of elementary layers:
    an innermost cap of the inputs first, then an innermost cup of the
    outputs, down to a bare identity."""
    k, l = d.inputs, d.outputs
    for p in range(k - 1):
        if d.match[p] == p + 1:
            rest = layered_simple_rep(_drop_pair(d, p), mode)
            return rest.compose(_elementary_layer("d", p + 1, k, mode))
    for p in range(l - 1):
        u = k + p
        if d.match[u] == u + 1:
            rest = layered_simple_rep(_drop_pair(d, u), mode)
            return _elementary_layer("b", p + 1, l, mode).compose(rest)
    # no arcs at all: planarity forces the identity
    assert k == l and all(d.match[p] == k + p for p in range(k))
    return RepMap.identity(k, mode)


def pairwise_linear_extension(f):
    """The functor on a formal sum of simple diagrams, each image scaled by
    its coefficient and the scaled images added one map at a time."""
    total = None
    for d, c in f.terms.items():
        t = _simple_rep(d, f.mode).scale(c)
        total = t if total is None else total + t
    if total is None:
        return RepMap.zero(f.inputs, f.outputs, f.mode)
    return total


class TrackedEliminator:
    """Input-order elimination in which each stored row carries the
    combination of added vectors (by tag) that produced it, so a member's
    coordinates come out of its own reduction, not out of an RREF."""

    def __init__(self):
        self.rows: dict = {}  # pivot column -> vec
        self.augs: dict = {}  # pivot column -> combination of tags

    def _reduce(self, vec, aug):
        v, a = dict(vec), dict(aug)
        for p in sorted(self.rows):
            c = v.get(p)
            if c is not None:
                v = vec_sub_scaled(v, self.rows[p], c)
                a = vec_sub_scaled(a, self.augs[p], c)
        return v, a

    def add(self, vec, tag):
        """Add a vector; returns its pivot column, or None if dependent."""
        aug = {tag: x / x for x in list(vec.values())[:1]}
        v, a = self._reduce(vec, aug)
        if not v:
            return None
        p = min(v)
        cinv = v[p].inv()
        v, a = vec_scale(v, cinv), vec_scale(a, cinv)
        for p2, row in list(self.rows.items()):
            c = row.get(p)
            if c is not None:
                self.rows[p2] = vec_sub_scaled(row, v, c)
                self.augs[p2] = vec_sub_scaled(self.augs[p2], a, c)
        self.rows[p], self.augs[p] = v, a
        return p

    def coordinates(self, vec):
        """Coordinates of vec in the added vectors (by tag), or None."""
        v, a = self._reduce(vec, {})
        if v:
            return None
        return {t: -c for t, c in a.items()}


@cache
def generator_matrix(generator: str, rank: int, mode) -> RepMap:
    """Matrix of a generator action on V^(x)rank, column by column from
    act on the basis masks."""
    entries = {}
    for j in range(1 << rank):
        w = act(generator, TensorVector.basis(rank, j, mode))
        for i, c in w.components.items():
            entries[(i, j)] = c
    return RepMap(rank, rank, entries, mode)


def intertwiner_system(k: int, l: int, mode):
    """(pairs, rows): the K-allowed entries (u, v) of a map V^(x)k ->
    V^(x)l as unknowns, in (target, source) order, and the X and Y
    equations A M - M B = 0 on them as sparse rows, in a fixed order."""
    pairs = []
    for u in range(1 << l):
        wu = mask_weight(u, l)
        for v in range(1 << k):
            wv = mask_weight(v, k)
            if mode.a_power(2 * wu) == mode.a_power(2 * wv):
                pairs.append((u, v))
    index = {p: i for i, p in enumerate(pairs)}
    by_row: dict = {}
    by_col: dict = {}
    for u, v in pairs:
        by_row.setdefault(u, []).append(v)
        by_col.setdefault(v, []).append(u)
    rows: dict = {}
    for gen in ("X", "Y"):
        A = generator_matrix(gen, l, mode)
        B = generator_matrix(gen, k, mode)
        # (A M - M B)[u2, v] = 0
        for (u2, u), x in A.entries.items():
            for v in by_row.get(u, ()):
                row = rows.setdefault((gen, u2, v), {})
                c = index[(u, v)]
                row[c] = row.get(c, mode.zero()) + x
        for (v2, v), y in B.entries.items():
            for u2 in by_col.get(v2, ()):
                row = rows.setdefault((gen, u2, v), {})
                c = index[(u2, v2)]
                row[c] = row.get(c, mode.zero()) - y
    return pairs, [{c: x for c, x in rows[key].items() if not x.is_zero()}
                   for key in sorted(rows)]


def direct_rep_hom_basis(k: int, l: int, mode=GENERIC) -> list:
    """rep_hom_basis(k, l) by the kernel of the (k, l) system itself: one
    map per free unknown, one there and zero at every other."""
    pairs, rows = intertwiner_system(k, l, mode)
    return [RepMap(k, l, {pairs[i]: c for i, c in vec.items()}, mode)
            for vec in kernel_basis(rows, len(pairs), mode.one())]


def F_hom_matrix(s, t, mode=GENERIC):
    """Matrix of the functor from the diagram-side hom basis to the
    projector-compressed intertwiner basis.

    Columns follow hom_basis(s, t), the hatted good_type_diagrams(s, t);
    rows follow the first intertwiners h whose compressions f_t h f_s are
    independent, in canonical order.  Each compression is taken as
    f_t h C_s, with C_s the image columns of f_s (those of F_object);
    X -> X C_s is injective on maps with X = X f_s, so the kept rows and
    the coordinates are those of f_t h f_s.  Both projectors enter as
    lambda f, which scales every compression alike, and both act color by
    color (_apply_colors): f_t on the target of h, then f_s, which is
    symmetric, on its source, keeping the image columns C_s alone.  One
    exact RREF of the compressions gives the kept rows, its pivots, and in
    its row with pivot u the coefficient on compression u of every
    compression.  The image of the hatted diagram
    f_t d f_s is F(hat d) = f_t F(d) f_s, the compression of F(d) = sum_w
    c_w h_w (_image_coordinates, which raises ValueError for an image
    outside the span), so its coordinate on u is one contraction of that
    row against the c_w of the good-type diagram d itself.
    """
    s = object_seq(s, mode)
    t = object_seq(t, mode)
    coords = [_image_coordinates(d, mode) for d in good_type_diagrams(s, t)]
    image = set(_image_columns(s))
    compressions = []
    for h in rep_hom_basis(seq_size(s), seq_size(t), mode):
        left = _apply_colors(t, h.entries, mode)
        # keyed (source, target) from here on, the same for every h
        right = _apply_colors(s, {(j, i): v for (i, j), v in left.items()},
                              mode)
        compressions.append({key: v for key, v in right.items()
                             if key[0] in image})
    rref = rref_rows(transpose(compressions))
    return [[_contract([(x, c[j]) for j, x in row.items() if j in c], mode)
             for c in coords] for row in rref]


def full_projector_hom_matrix(s, t, mode=GENERIC):
    """F_hom_matrix with every compression taken as f_t h f_s on the full
    projectors, rows kept in canonical order."""
    s = object_seq(s, mode)
    t = object_seq(t, mode)
    ps = F_object(s, mode)["projector"]
    pt = F_object(t, mode)["projector"]
    elim = TrackedEliminator()
    kept = []
    for u, h in enumerate(rep_hom_basis(seq_size(s), seq_size(t), mode)):
        vec = pt.compose(h).compose(ps).entries
        if vec and elim.add(vec, tag=u) is not None:
            kept.append(u)
    matrix = [[] for _ in kept]
    for h in hom_basis(s, t, mode):
        coords = elim.coordinates(
            pt.compose(F_diagram(h.value)).compose(ps).entries)
        for row, u in zip(matrix, kept):
            row.append(coords.get(u, mode.zero()))
    return matrix


@cache
def tensor_cleared_projector(s, mode=GENERIC):
    """lambda_s f_s built in full, as the tensor product of each color's
    projector scaled by the lcm of its entries' denominators
    (scaled_denominator_clear): the route the functor's color-by-color,
    rank-one application (_apply_colors) replaces."""
    if not s:
        return RepMap.identity(0, mode)
    last = scaled_denominator_clear(hw_projector(s[-1], mode))
    if len(s) == 1:
        return last
    return tensor_cleared_projector(s[:-1], mode).tensor(last)


def tensor_image_columns(s, mode=GENERIC):
    """The column rank profile of tensor_cleared_projector(s), by one
    elimination of the full map."""
    rows: dict = {}
    for (i, j), v in tensor_cleared_projector(s, mode).entries.items():
        rows.setdefault(i, {})[j] = v
    return column_rank_profile(rows.values())


def weighted_rows(m, e):
    """m with the entry of target mask i times a^(e w(i)), by full scalar
    multiplication: K^(x)n on the left for e = 2, its square root for
    e = 1."""
    n, mode = m.target_rank, m.mode
    return RepMap(m.source_rank, n,
                  {(i, j): pairwise_mul(mode.a_power(e * mask_weight(i, n)), v)
                   for (i, j), v in m.entries.items()}, mode)


def projected_intertwiners(s, l, mode=GENERIC):
    """lambda_s f_s h_v for the maps h_v of rep_hom_basis(l, |s|), with
    lambda_s f_s built in full and composed pairwise."""
    ps = tensor_cleared_projector(s, mode)
    return [pairwise_compose(ps, h)
            for h in rep_hom_basis(l, seq_size(s), mode)]


@cache
def half_weighted_projections(s, l, mode=GENERIC):
    """P_v = K^(1/2) pi_s h_v for the maps h_v of rep_hom_basis(l, |s|):
    pi_s = lambda_s f_s applied color by color to every entry of h_v
    (_apply_colors), then target mask i weighted by a^w(i)."""
    n = seq_size(s)
    return [RepMap(l, n, {(i, j): times_a_power(v, mask_weight(i, n))
                          for (i, j), v in _apply_colors(
                              s, h.entries, mode).items()},
                   mode)
            for h in rep_hom_basis(l, n, mode)]


def trace_gram_matrix(s, t, mode=GENERIC):
    """The Gram matrix of verify_equivalence by traces, the route that its
    projector coordinates and shared base Gram matrices replace:
    gram[u][v] = tr(P_u P_v) for the intertwiners h_u: V^|s| -> V^|t| and
    h_v: V^|t| -> V^|s|, with P = K^(1/2) pi h each projected in full
    (half_weighted_projections) and traced pairwise.  Every map preserves
    weight, so this is tr(K pi_t h_u pi_s h_v)."""
    s = object_seq(s, mode)
    t = object_seq(t, mode)
    right = half_weighted_projections(s, seq_size(t), mode)
    return [[pairwise_trace(x, y) for y in right]
            for x in half_weighted_projections(t, seq_size(s), mode)]


def trace_pairing_matrix(s, t, mode=GENERIC):
    """The pairing matrix of verify_equivalence by traces: for each
    good-type diagram d and each intertwiner h_v: V^|t| -> V^|s|,
    tr(K pi_t F(d) pi_s h_v), with K pi_t F(d) composed in full."""
    s = object_seq(s, mode)
    t = object_seq(t, mode)
    kp = weighted_rows(tensor_cleared_projector(t, mode), 2)
    right = projected_intertwiners(s, seq_size(t), mode)
    return [[pairwise_trace(kp.compose(_simple_rep(d, mode)), y)
             for y in right]
            for d in good_type_diagrams(s, t)]


@cache
def _closer(n: int, mode):
    # the integer-coefficient evaluation folded into the braiding before
    # f is touched, so the large braid never multiplies rational terms
    return compose(ev_tl(n, mode), braiding_tl(n, n, mode))


def braided_closure_trace(f):
    """Diagrammatic quantum trace d_n . c_{n,n} . (twist f x id_n) . b_n of
    an n-strand endomorphism, composed diagram by diagram."""
    if f.inputs != f.outputs:
        raise ValueError("closure trace needs an endomorphism")
    n = f.inputs
    mode = f.mode
    if n == 0:
        return f.coefficient(SimpleDiagram(0, 0, ()))
    inner = tensor(compose(twist_tl(n, mode), f), identity_morphism(n, mode))
    out = compose(_closer(n, mode), compose(inner, coev_tl(n, mode)))
    return out.coefficient(SimpleDiagram(0, 0, ()))


def categorical_trace_rep(f):
    """Quantum trace of an endomorphism of V^(x)n as the categorical
    composite ev . c . ((theta f) x id) . coev of representation maps."""
    if f.source_rank != f.target_rank:
        raise ValueError("quantum trace needs an endomorphism")
    n = f.source_rank
    mode = f.mode
    g = rep_twist(n, mode).compose(f).tensor(RepMap.identity(n, mode))
    comp = rep_ev(n, mode).compose(rep_braiding(n, n, mode)) \
        .compose(g).compose(rep_coev(n, mode))
    return comp.entries.get((0, 0), mode.zero())


def composed_gram_matrix(s, s_prime, mode=GENERIC):
    """Gram matrix by composing each good-type diagram d with each hatted
    basis map h in full, one reduction per output diagram, then closing the
    composite: closure_trace(compose(d, h)), the route that one contraction
    per entry replaces."""
    s = object_seq(s, mode)
    s_prime = object_seq(s_prime, mode)
    cols_h = hom_basis(s_prime, s, mode)
    return [[closure_trace(compose(TLMorphism.from_diagram(d, mode), h.value))
             for h in cols_h]
            for d in good_type_diagrams(s, s_prime)]


def literal_gram_matrix(s, s_prime, mode=GENERIC):
    """Gram matrix straight from the definition: both factors hatted, each
    trace by the braided composite."""
    s = object_seq(s, mode)
    s_prime = object_seq(s_prime, mode)
    cols_h = hom_basis(s_prime, s, mode)
    return [[braided_closure_trace(compose(hi.value, hj.value))
             for hj in cols_h]
            for hi in hom_basis(s, s_prime, mode)]
