"""Exact representation theory of quantum sl2 on tensor powers of the
fundamental module V.

V has basis (v_0, v_1) with K v_0 = q v_0, X v_0 = 0, Y v_0 = v_1 and
K v_1 = q^-1 v_1, X v_1 = v_0, Y v_1 = 0, where q = a^2.  Tensor powers
carry the iterated-coproduct action of

    D(K) = K (x) K,   D(X) = 1 (x) X + X (x) K,   D(Y) = K^-1 (x) Y + Y (x) 1,

so X acting at position j picks up K-weights from the factors to its right
and Y picks up inverse K-weights from the left.  Basis vectors of V^{(x)n}
are indexed by n-bit masks read left to right (bit 0 = v_0), ordered
lexicographically, i.e. by ascending mask.

Elementary morphisms (all exact, with q^{1/2} = a):

    b(1) = v_1 (x) v_0 - q v_0 (x) v_1          (0 -> 2)
    d(v_0 (x) v_1) = 1, d(v_1 (x) v_0) = -q^-1  (2 -> 0)
    alpha(v_0) = v^1, alpha(v_1) = -q^-1 v^0    (V -> V*, dual basis)
    c = q^{1/2} id + q^{-1/2} b d               (V (x) V braiding)
    theta = q^{3/2} id                          (twist on V)
"""

from __future__ import annotations

from functools import cache

from .scalars import GENERIC, Mode, PoleError, _contract, times_a_power
from .linalg import kernel_basis, rref_rows


def mask_weight(mask: int, n: int) -> int:
    """K-weight of a basis mask: q^(n - 2 * popcount)."""
    return n - 2 * mask.bit_count()


def mask_bits(mask: int, n: int) -> str:
    return format(mask, f"0{n}b") if n else ""


class TensorVector:
    """Element of V^{(x)n} as a sparse mask -> scalar mapping."""

    __slots__ = ("rank", "components", "mode")

    def __init__(self, rank: int, components: dict, mode: Mode):
        self.rank = rank
        self.components = {m: c for m, c in components.items() if not c.is_zero()}
        self.mode = mode

    @staticmethod
    def basis(rank: int, mask: int, mode: Mode) -> "TensorVector":
        return TensorVector(rank, {mask: mode.one()}, mode)

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "TensorVector") -> "TensorVector":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        comps = dict(self.components)
        for m, c in other.components.items():
            s = comps.get(m)
            comps[m] = c if s is None else s + c
        return TensorVector(self.rank, comps, self.mode)

    def __neg__(self) -> "TensorVector":
        return TensorVector(self.rank,
                            {m: -c for m, c in self.components.items()},
                            self.mode)

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self.__add__(other.__neg__())

    def scale(self, c) -> "TensorVector":
        return TensorVector(self.rank,
                            {m: c * x for m, x in self.components.items()},
                            self.mode)

    def tensor(self, other: "TensorVector") -> "TensorVector":
        comps = {}
        for m1, c1 in self.components.items():
            for m2, c2 in other.components.items():
                comps[(m1 << other.rank) | m2] = c1 * c2
        return TensorVector(self.rank + other.rank, comps, self.mode)

    def __eq__(self, other):
        if not isinstance(other, TensorVector):
            return NotImplemented
        return self.rank == other.rank and self.components == other.components

    def __repr__(self):
        if not self.components:
            return f"TensorVector({self.rank}, 0)"
        body = " + ".join(f"({c})*|{mask_bits(m, self.rank)}>"
                          for m, c in sorted(self.components.items()))
        return f"TensorVector({self.rank}, {body})"

    def to_json_dict(self) -> dict:
        from .scalars import format_scalar
        return {mask_bits(m, self.rank): format_scalar(c)
                for m, c in sorted(self.components.items())}


class HWVector:
    """Highest-weight vector: X v = 0, K v = q^weight v."""

    __slots__ = ("vector", "weight")

    def __init__(self, vector: TensorVector, weight: int):
        self.vector = vector
        self.weight = weight

    def __repr__(self):
        return f"HWVector(weight={self.weight}, {self.vector!r})"


# ---------------------------------------------------------------------------
# generator actions

_GENERATORS = ("K", "K^-1", "X", "Y")


def act(generator: str, v: TensorVector) -> TensorVector:
    """Apply K, K^-1, X or Y through the iterated coproduct."""
    if generator not in _GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    n, mode = v.rank, v.mode
    out: dict = {}      # mask -> (coefficient, a-power) pairs to contract

    def put(mask, c, e):
        out.setdefault(mask, []).append((c, mode.a_power(e)))

    for mask, c in v.components.items():
        if generator in ("K", "K^-1"):
            w = mask_weight(mask, n)
            e = 2 * w if generator == "K" else -2 * w
            put(mask, c, e)
        elif generator == "X":
            # X at position j, K on every factor right of j
            for j in range(n):
                shift = n - 1 - j
                if (mask >> shift) & 1:
                    tail = mask & ((1 << shift) - 1)
                    w = shift - 2 * tail.bit_count()
                    put(mask & ~(1 << shift), c, 2 * w)
        else:
            # Y at position j, K^-1 on every factor left of j
            for j in range(n):
                shift = n - 1 - j
                if not (mask >> shift) & 1:
                    head = mask >> (shift + 1)
                    w = j - 2 * head.bit_count()
                    put(mask | (1 << shift), c, -2 * w)
    return TensorVector(n, {m: _contract(ps, mode) for m, ps in out.items()},
                        mode)


def _qbinom(i: int, s: int, mode: Mode):
    # [i choose s] = [i]! / ([s]! [i-s]!)
    num = mode.quantum_factorial(i)
    den = mode.quantum_factorial(s) * mode.quantum_factorial(i - s)
    if den.is_zero():
        raise PoleError(f"quantum binomial [{i};{s}] undefined in mode {mode}")
    return num / den


def act_Y_power(i: int, v: TensorVector, left_rank: int) -> TensorVector:
    """Apply Y^i across the split V^{(x)left_rank} (x) V^{(x)(rank-left_rank)}
    via the divided-power coproduct

        D(Y^i) = sum_s q^{-s(i-s)} [i;s] (K^-s Y^{i-s}) (x) Y^s.
    """
    if i < 0:
        raise ValueError("negative power")
    if not 0 <= left_rank <= v.rank:
        raise ValueError("bad split")
    n, m = left_rank, v.rank - left_rank
    mode = v.mode
    # split v into left/right parts
    out = TensorVector(v.rank, {}, mode)
    for s in range(i + 1):
        coeff = mode.a_power(-2 * s * (i - s)) * _qbinom(i, s, mode)
        for mask, c in v.components.items():
            lm, rm = mask >> m, mask & ((1 << m) - 1)
            lv = TensorVector.basis(n, lm, mode)
            for _ in range(i - s):
                lv = act("Y", lv)
            for _ in range(s):
                lv = act("K^-1", lv)
            rv = TensorVector.basis(m, rm, mode)
            for _ in range(s):
                rv = act("Y", rv)
            out = out + lv.tensor(rv).scale(c * coeff)
    return out


# ---------------------------------------------------------------------------
# linear maps between tensor powers

class RepMap:
    """Sparse exact matrix V^{(x)source_rank} -> V^{(x)target_rank}."""

    __slots__ = ("source_rank", "target_rank", "entries", "mode")

    def __init__(self, source_rank: int, target_rank: int, entries: dict,
                 mode: Mode):
        self.source_rank = source_rank
        self.target_rank = target_rank
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        self.mode = mode

    @staticmethod
    def identity(rank: int, mode: Mode) -> "RepMap":
        one = mode.one()
        return RepMap(rank, rank,
                      {(m, m): one for m in range(1 << rank)}, mode)

    @staticmethod
    def zero(source_rank: int, target_rank: int, mode: Mode) -> "RepMap":
        return RepMap(source_rank, target_rank, {}, mode)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "RepMap") -> "RepMap":
        if (self.source_rank, self.target_rank) != (other.source_rank,
                                                    other.target_rank):
            raise ValueError("shape mismatch")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            s = entries.get(k)
            entries[k] = v if s is None else s + v
        return RepMap(self.source_rank, self.target_rank, entries, self.mode)

    def __neg__(self) -> "RepMap":
        return RepMap(self.source_rank, self.target_rank,
                      {k: -v for k, v in self.entries.items()}, self.mode)

    def __sub__(self, other: "RepMap") -> "RepMap":
        return self.__add__(other.__neg__())

    def scale(self, c) -> "RepMap":
        return RepMap(self.source_rank, self.target_rank,
                      {k: c * v for k, v in self.entries.items()}, self.mode)

    def compose(self, other: "RepMap") -> "RepMap":
        """self after other."""
        if self.source_rank != other.target_rank:
            raise ValueError("rank mismatch in composition")
        rows_other: dict = {}
        for (j, k), y in other.entries.items():
            rows_other.setdefault(j, []).append((k, y))
        pairs: dict = {}
        for (i, j), x in self.entries.items():
            row = rows_other.get(j)
            if row is None:
                continue
            for k, y in row:
                pairs.setdefault((i, k), []).append((x, y))
        mode = self.mode
        return RepMap(other.source_rank, self.target_rank,
                      {key: _contract(ps, mode) for key, ps in pairs.items()},
                      mode)

    def tensor(self, other: "RepMap") -> "RepMap":
        k2, l2 = other.source_rank, other.target_rank
        entries = {}
        for (i1, j1), x in self.entries.items():
            for (i2, j2), y in other.entries.items():
                entries[((i1 << l2) | i2, (j1 << k2) | j2)] = x * y
        return RepMap(self.source_rank + k2, self.target_rank + l2,
                      entries, self.mode)

    def apply(self, v: TensorVector) -> TensorVector:
        if v.rank != self.source_rank:
            raise ValueError("rank mismatch")
        cols: dict = {}
        for (i, j), x in self.entries.items():
            cols.setdefault(j, []).append((i, x))
        pairs: dict = {}
        for j, c in v.components.items():
            for i, x in cols.get(j, ()):
                pairs.setdefault(i, []).append((x, c))
        mode = self.mode
        return TensorVector(self.target_rank,
                            {i: _contract(ps, mode) for i, ps in pairs.items()},
                            mode)

    def __eq__(self, other):
        if not isinstance(other, RepMap):
            return NotImplemented
        return (self.source_rank == other.source_rank
                and self.target_rank == other.target_rank
                and self.entries == other.entries)

    def __repr__(self):
        return (f"RepMap({self.source_rank}->{self.target_rank}, "
                f"{len(self.entries)} entries)")

    def to_json_dict(self) -> dict:
        from .scalars import format_scalar
        return {f"{mask_bits(i, self.target_rank)},{mask_bits(j, self.source_rank)}":
                format_scalar(v)
                for (i, j), v in sorted(self.entries.items())}


def elementary_morphisms(mode: Mode = GENERIC) -> dict:
    """The structural maps b, d, alpha, c, theta on V (exact matrices), in a
    fresh dict; the maps are built once per mode."""
    return dict(_elementary_morphisms(mode))


@cache
def _elementary_morphisms(mode: Mode) -> dict:
    # positional arguments only, so every spelling of a call shares one entry
    one = mode.one()
    q = mode.a_power(2)
    qinv = mode.a_power(-2)
    b = RepMap(0, 2, {(0b10, 0): one, (0b01, 0): -q}, mode)
    d = RepMap(2, 0, {(0, 0b01): one, (0, 0b10): -qinv}, mode)
    alpha = RepMap(1, 1, {(1, 0): one, (0, 1): -qinv}, mode)
    c = RepMap.identity(2, mode).scale(mode.a_power(1)) \
        + b.compose(d).scale(mode.a_power(-1))
    theta = RepMap.identity(1, mode).scale(mode.a_power(3))
    return {"b": b, "d": d, "alpha": alpha, "c": c, "theta": theta}


# ---------------------------------------------------------------------------
# highest-weight structure

def weight_slice(rank: int, weight: int) -> list:
    """Basis masks of the q^weight eigenspace, ascending."""
    if (rank - weight) % 2 or not -rank <= weight <= rank:
        return []
    ones = (rank - weight) // 2
    return [m for m in range(1 << rank) if m.bit_count() == ones]


def highest_weight_basis(n: int, target_weight: int, mode: Mode = GENERIC) -> list:
    """Basis of {v in V^{(x)n} : Xv = 0, Kv = q^target_weight v}.

    Kernel of X on the weight slice, with the reduced-echelon free-column
    normalization in lexicographic basis order.
    """
    k = target_weight
    if (n - k) % 2 or not 0 <= k <= n:
        raise ValueError(f"weight {k} not reachable from rank {n}")
    src = weight_slice(n, k)
    if not src:
        return []
    tgt = weight_slice(n, k + 2)
    tgt_index = {m: i for i, m in enumerate(tgt)}
    src_index = {m: i for i, m in enumerate(src)}
    rows: list = [{} for _ in tgt]
    for j, m in enumerate(src):
        w = act("X", TensorVector.basis(n, m, mode))
        for m2, c in w.components.items():
            rows[tgt_index[m2]][j] = c
    out = []
    for vec in kernel_basis(rows, len(src), mode.one()):
        comps = {src[j]: c for j, c in vec.items()}
        out.append(HWVector(TensorVector(n, comps, mode), k))
    return out


def cg_vector(w: HWVector, wp: HWVector, p: int):
    """Highest-weight vector of weight n+m-2p inside w (x) wp:

        sum_i (-1)^i ([m-p+i]![n-i]! / ([i]![p-i]![m-p]![n]!))
              q^{-i(m-2p+i+1)} (Y^i w) (x) (Y^{p-i} wp)
    """
    n, m = w.weight, wp.weight
    if not 0 <= p <= min(n, m):
        raise ValueError(f"p={p} out of range for weights ({n},{m})")
    mode = w.vector.mode
    den_base = mode.quantum_factorial(m - p) * mode.quantum_factorial(n)
    if den_base.is_zero():
        raise PoleError(f"vanishing quantum factorial in mode {mode}")
    # precompute Y-orbits
    worbit = [w.vector]
    for _ in range(p):
        worbit.append(act("Y", worbit[-1]))
    wporbit = [wp.vector]
    for _ in range(p):
        wporbit.append(act("Y", wporbit[-1]))
    total = None
    for i in range(p + 1):
        num = mode.quantum_factorial(m - p + i) * mode.quantum_factorial(n - i)
        den = (mode.quantum_factorial(i) * mode.quantum_factorial(p - i)
               * den_base)
        if den.is_zero():
            raise PoleError(f"vanishing quantum factorial in mode {mode}")
        coeff = num / den * mode.a_power(-2 * i * (m - 2 * p + i + 1))
        if i % 2:
            coeff = -coeff
        term = worbit[i].tensor(wporbit[p - i]).scale(coeff)
        total = term if total is None else total + term
    return HWVector(total, n + m - 2 * p)


def cg_dims(n: int, m: int, mode: Mode = GENERIC):
    """Semisimple decomposition of V_n (x) V_m.

    Returns (multiplicities, has_negligible): weight -> 1 for weights
    |n-m|, |n-m|+2, ..., n+m, truncated at 2r-4-n-m in root mode, where a
    negligible summand absorbs the rest whenever n+m > r-2.
    """
    if n < 0 or m < 0:
        raise ValueError("negative colors")
    if mode.is_root:
        r = mode.r
        if n > r - 2 or m > r - 2:
            raise ValueError(
                f"colors ({n},{m}) invalid in mode {mode}: must be <= {r - 2}")
        top = min(n + m, 2 * r - 4 - n - m)
        has_negligible = n + m > r - 2
    else:
        top = n + m
        has_negligible = False
    mults = {k: 1 for k in range(abs(n - m), top + 1, 2)}
    return mults, has_negligible


def hom_dim(s: tuple, t: tuple, mode: Mode = GENERIC) -> int:
    """sum_w m_s(w) m_t(w), m_s(w) the multiplicity of V_w in V_s =
    V_{s_1} (x) ... (x) V_{s_m}, folded from cg_dims in mode.  At generic
    q it is dim Hom(V_s, V_t) (Kassel, Quantum Groups, GTM 155, ch. VII).
    At a root of unity, colors <= r - 2, cg_dims drops the negligible
    summands, so it is the truncated fusion count: the dimension of
    Hom(V_s, V_t) modulo negligible morphisms, the rank of the trace form
    on it (Andersen, Tensor products of quantized tilting modules, CMP 149,
    1992; Turaev, Quantum Invariants of Knots and 3-Manifolds, 1994)."""
    ms, mt = _multiplicities(s, mode), _multiplicities(t, mode)
    return sum(m * mt.get(w, 0) for w, m in ms.items())


@cache
def _multiplicities(s: tuple, mode: Mode) -> dict:
    # weight -> multiplicity in V_s, folded from cg_dims over the colors
    mults = {0: 1}
    for k in s:
        out: dict = {}
        for w, m in mults.items():
            for x in cg_dims(w, k, mode)[0]:
                out[x] = out.get(x, 0) + m
        mults = out
    return mults


# ---------------------------------------------------------------------------
# intertwiner spaces and the highest-weight projector

def rep_hom_basis(k: int, l: int, mode: Mode = GENERIC) -> list:
    """Basis of the maps V^{(x)k} -> V^{(x)l} commuting with K, X and Y.

    Only the invariants of V^{(x)(k+l)} are solved for, by exact kernel
    extraction from the X and Y equations on the K-fixed masks; every
    other basis is bent from them (see _rep_hom_basis).  K-weights have
    the parity of the rank, so an odd k + l has no intertwiners.
    """
    return _rep_hom_basis(k, l, mode)


@cache
def _rep_hom_basis(k: int, l: int, mode: Mode) -> list:
    """The cached basis of rep_hom_basis(k, l).

    With coev_k the nested cups 1 -> V^{(x)k} (x) V^{(x)k}, the maps f
    correspond to the invariants g = (f (x) id_k) coev_k of V^{(x)(k+l)}.
    coev_k has one entry per source mask v, c(v) = (-q)^(zeros of v) at
    v 2^k | w(v) with w(v) the bit-reversed complement of v, so

        f[u, v] = g[u 2^k | w(v)] / c(v).

    A kernel vector of the (k, l) X and Y equations, in (target mask,
    source mask) order, is one at its free unknown, its last entry, and
    zero at every other free unknown.  In reversed order these vectors
    are the unique RREF of the kernel, so the RREF of any spanning set,
    here the bent invariants, read back in reverse gives them.
    """
    # positional arguments only, so every spelling of a call shares one entry
    if (k + l) % 2:
        return []
    if k == 0:
        masks, rows = _invariant_system(l, mode)
        return [RepMap(0, l, {(masks[i], 0): c for i, c in vec.items()}, mode)
                for vec in kernel_basis(rows, len(masks), mode.one())]
    low = (1 << k) - 1
    unbend = []     # w -> (v, 1 / c(v)), c(v) = (-q)^(ones of w)
    for w in range(1 << k):
        z = w.bit_count()
        c = mode.a_power(-2 * z)
        v = low ^ int(mask_bits(w, k)[::-1], 2)
        unbend.append((v, -c if z % 2 else c))
    bent = []       # keyed -(u 2^k | v): reversed (target, source) order
    for g in _rep_hom_basis(0, k + l, mode):
        row = {}
        for (m, _), x in g.entries.items():
            v, c = unbend[m & low]
            row[-((m >> k << k) | v)] = x * c
        bent.append(row)
    return [RepMap(k, l, {divmod(-col, 1 << k): x for col, x in row.items()},
                   mode)
            for row in reversed(rref_rows(bent))]


def rep_hom_coordinates(x: RepMap) -> list:
    """Coordinates of an intertwiner x: V^{(x)k} -> V^{(x)l} against
    rep_hom_basis(k, l), checked exactly.

    Each basis map is the kernel vector of one free unknown of the RREF of
    the X and Y equations: one there, its other entries at pivot unknowns
    of rows holding that free unknown.  A row's pivot precedes its other
    unknowns, and the unknowns run in (target mask, source mask) order, so
    the free unknown is the map's last entry and no other basis map has an
    entry there.  An intertwiner is therefore the sum of the basis maps
    weighted by its own entries at their free unknowns.  That sum is
    rebuilt and compared with x, so a map outside the span raises
    ValueError instead of returning coordinates.
    """
    mode = x.mode
    basis = _rep_hom_basis(x.source_rank, x.target_rank, mode)
    zero = mode.zero()
    coords = [x.entries.get(f, zero)
              for f in _free_unknowns(x.source_rank, x.target_rank, mode)]
    pairs: dict = {}
    for c, h in zip(coords, basis):
        if not c.is_zero():
            for key, v in h.entries.items():
                pairs.setdefault(key, []).append((c, v))
    rebuilt = RepMap(x.source_rank, x.target_rank,
                     {key: _contract(ps, mode) for key, ps in pairs.items()},
                     mode)
    if rebuilt.entries != x.entries:
        raise ValueError("functor image escaped the intertwiner span")
    return coords


@cache
def _free_unknowns(k: int, l: int, mode: Mode) -> list:
    # the free unknown of each basis map, its last entry (rep_hom_coordinates)
    return [max(h.entries) for h in _rep_hom_basis(k, l, mode)]


def _invariant_system(n: int, mode: Mode):
    # (masks, rows): the K-fixed masks of V^{(x)n} as unknowns, and the X
    # and Y equations on them as sparse rows, in a fixed order
    one = mode.one()
    masks = [m for m in range(1 << n)
             if mode.a_power(2 * mask_weight(m, n)) == one]
    rows: dict = {}
    for i, m in enumerate(masks):
        e = TensorVector.basis(n, m, mode)
        for gen in ("X", "Y"):
            for m2, x in act(gen, e).components.items():
                rows.setdefault((gen, m2), {})[i] = x
    return masks, [rows[key] for key in sorted(rows)]


def hw_projector(n: int, mode: Mode = GENERIC) -> RepMap:
    """Idempotent fixing the top isotypic component of V^{(x)n} and killing
    every component of lower highest weight: the q-symmetrizer, in closed
    form (Frenkel-Khovanov, Duke Math. J. 87 (1997)).

    On the weight space of the masks with j ones it has rank one: with
    inv(m) the number of bit pairs 1 ... 0 of m read left to right, its
    entry at (i, i') is q^(inv(i) + inv(i')) / D_j for
    D_j = sum_{|m| = j} q^(2 inv(m)) = q^(j(n-j)) [n choose j]_q.  At a
    root of order r it is built only below r, where V^{(x)n} is semisimple
    and every D_j is nonzero; from n = r on ValueError is raised
    (D_1 = q^(r-1) [r]_q vanishes at n = r, though at n = 2r - 1 no D_j
    does).
    """
    inv, blocks, scalars = _symmetrizer_factors(n, mode)
    return RepMap(n, n, {(i, i2): times_a_power(d, 2 * (inv[i] + inv[i2]))
                         for d, block in zip(scalars, blocks)
                         for i in block for i2 in block}, mode)


@cache
def _symmetrizer_factors(n: int, mode: Mode) -> tuple:
    """The factors (inv, blocks, scalars) of hw_projector(n, mode): inv[m]
    is the inversion count of mask m, blocks[j] the masks with j ones and
    scalars[j] = 1 / D_j."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    if mode.is_root and n >= mode.r:
        raise ValueError(
            f"no top-summand projector on {n} strands in mode {mode}")
    # appending a last bit 0 to a mask adds one inversion per 1 before it
    inv = [0] * (1 << n)
    for m in range(1, 1 << n):
        inv[m] = inv[m >> 1] + (0 if m & 1 else (m >> 1).bit_count())
    blocks: list = [[] for _ in range(n + 1)]
    for m in range(1 << n):
        blocks[m.bit_count()].append(m)
    one = mode.one()
    scalars = [None] * (n + 1)
    for j in range(n // 2 + 1):
        d = _contract([(mode.a_power(4 * inv[m]), one) for m in blocks[j]],
                      mode)
        # D_{n-j} = D_j: reversing and complementing a mask keeps inv(m)
        scalars[j] = scalars[n - j] = d if d.is_one() else d.inv()
    return inv, blocks, scalars
