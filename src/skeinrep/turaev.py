"""The colored skein category: objects are sequences of colors, morphisms
are sandwiched by Jones-Wenzl tensors.

An object is a finite sequence s = (n_1, ..., n_m) of colors, n_i >= 1
(generically any positive integer; at a root of unity restricted to
1..r-2).  Color 0 is the unit object and normalizes away.  A morphism
s -> s' is a hatted element g^ = f_{s'} g f_s of the (|s|, |s'|) skein
space, where f_s is the tensor product of Jones-Wenzl projectors over the
blocks of s.

Good-type diagrams (no arc with both endpoints inside a single block of
the source or of the target) give a canonical basis of the hom spaces; the
Gram matrix of quantum traces against the opposite basis detects the
negligible radical, and its rank is the hom dimension in the purified
quotient.  Its entries are quantum traces, (-1)^n times the plain closure,
with the hat on one factor absorbed by cyclicity, each closed in one
contraction (``gram_matrix``).  Composing first and closing the composite
is the test oracle ``composed_gram_matrix``, and the Gram matrix straight
from the definition, both factors hatted and each trace the braided
composite, is ``literal_gram_matrix``, both in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import cache

from . import linalg
from .diagrams import (SimpleDiagram, TLMorphism, _delta_power, compose,
                       enumerate_simple, stack_simple)
from .scalars import GENERIC, Mode, _contract
from .tl_category import (
    _closure_circles,
    braiding_tl,
    coev_tl,
    ev_tl,
    jw_tensor,
    twist_tl,
)


def object_seq(colors, mode: Mode = GENERIC) -> tuple:
    """Validate and normalize a color sequence (color 0 = unit, dropped)."""
    out = []
    for n in colors:
        if n == 0:
            continue
        if n < 0:
            raise ValueError(f"negative color {n}")
        if mode.is_root and n > mode.r - 2:
            raise ValueError(
                f"color {n} invalid in mode {mode}: must be <= {mode.r - 2}")
        out.append(int(n))
    return tuple(out)


def seq_size(s) -> int:
    return sum(s)


def dual_seq(s) -> tuple:
    return tuple(reversed(s))


class HattedMorphism:
    """Morphism between color sequences, absorbed by the JW sandwiches."""

    __slots__ = ("source", "target", "value")

    def __init__(self, source: tuple, target: tuple, value: TLMorphism):
        if value.inputs != seq_size(source) or value.outputs != seq_size(target):
            raise ValueError("arity mismatch between value and objects")
        self.source = tuple(source)
        self.target = tuple(target)
        self.value = value

    def __eq__(self, other):
        return (isinstance(other, HattedMorphism)
                and self.source == other.source
                and self.target == other.target
                and self.value == other.value)

    def __repr__(self):
        return f"HattedMorphism({self.source}->{self.target}, {self.value!r})"


def hat(g: TLMorphism, s, s_prime) -> HattedMorphism:
    """Sandwich g by the Jones-Wenzl tensors of the two objects."""
    mode = g.mode
    s = object_seq(s, mode)
    s_prime = object_seq(s_prime, mode)
    if g.inputs != seq_size(s) or g.outputs != seq_size(s_prime):
        raise ValueError(
            f"arity mismatch: {g.inputs}->{g.outputs} vs |{s}|, |{s_prime}|")
    y = compose(g, jw_tensor(s, mode))
    # f_{s'} kills each term with a top cup inside one of its blocks: the
    # innermost such cup joins adjacent points i, i+1, so the term is e_i D'
    # and f_k e_i = 0
    blocks = _block_index(s_prime)
    kept = {d: c for d, c in y.terms.items()
            if not _arc_in_block(d, blocks, top=True)}
    value = compose(jw_tensor(s_prime, mode),
                    TLMorphism(y.inputs, y.outputs, kept, mode))
    return HattedMorphism(s, s_prime, value)


# ---------------------------------------------------------------------------
# good-type diagram bases

def _block_index(s) -> list:
    out = []
    for b, n in enumerate(s):
        out.extend([b] * n)
    return out


def _arc_in_block(d: SimpleDiagram, blocks: list, top: bool) -> bool:
    """Some arc joins two points of one block (by the _block_index of the
    object), on the top line of d when top is true, else on its bottom."""
    lo, hi = (d.inputs, len(d.match)) if top else (0, d.inputs)
    return any(lo <= p < q < hi and blocks[p - lo] == blocks[q - lo]
               for p, q in enumerate(d.match))


def good_type(d: SimpleDiagram, s, s_prime) -> bool:
    """No arc inside a single source block or single target block."""
    return not (_arc_in_block(d, _block_index(s), top=False)
                or _arc_in_block(d, _block_index(s_prime), top=True))


def good_type_diagrams(s, s_prime) -> list:
    """All good-type simple (|s|,|s'|)-diagrams in canonical order."""
    return _good_type_diagrams(tuple(s), tuple(s_prime))


# The public functions normalize their arguments and call a cached twin with
# canonical positional ones, so every spelling of an object shares one entry.
@cache
def _good_type_diagrams(s: tuple, s_prime: tuple) -> list:
    return [d for d in enumerate_simple(seq_size(s), seq_size(s_prime))
            if good_type(d, s, s_prime)]


def hom_basis(s, s_prime, mode: Mode = GENERIC) -> list:
    """Hatted good-type diagrams: a basis of the hom space."""
    return _hom_basis(object_seq(s, mode), object_seq(s_prime, mode), mode)


@cache
def _hom_basis(s: tuple, s_prime: tuple, mode: Mode) -> list:
    return [hat(TLMorphism.from_diagram(d, mode), s, s_prime)
            for d in _good_type_diagrams(s, s_prime)]


def d_nmj(n: int, m: int, j: int) -> SimpleDiagram:
    """The (n+m -> n+m-2j) diagram with j nested caps joining the last j
    points of the n-block to the first j points of the m-block."""
    if not 0 <= j <= min(n, m):
        raise ValueError(f"j={j} out of range for blocks ({n},{m})")
    k = n + m
    match = [0] * (2 * k - 2 * j)
    for i in range(j):
        p, q = n - 1 - i, n + i
        match[p], match[q] = q, p
    t = k
    for p in list(range(n - j)) + list(range(n + j, k)):
        match[p], match[t] = t, p
        t += 1
    return SimpleDiagram(k, k - 2 * j, tuple(match))


# ---------------------------------------------------------------------------
# ribbon data

def ribbon_data(s, s_prime, mode: Mode = GENERIC) -> dict:
    """Hatted structural morphisms.

    braiding: s (x) s' -> s' (x) s; twist: s -> s; coev: () -> s (x) s*;
    ev: s* (x) s -> ().
    """
    s = object_seq(s, mode)
    s_prime = object_seq(s_prime, mode)
    n, m = seq_size(s), seq_size(s_prime)
    braiding = hat(braiding_tl(n, m, mode), s + s_prime, s_prime + s)
    twist = hat(twist_tl(n, mode), s, s)
    coev = hat(coev_tl(n, mode), (), s + dual_seq(s))
    ev = hat(ev_tl(n, mode), dual_seq(s) + s, ())
    return {"braiding": braiding, "twist": twist, "coev": coev, "ev": ev}


# ---------------------------------------------------------------------------
# Gram matrices and purification

def gram_matrix(s, s_prime, mode: Mode = GENERIC) -> list:
    """Quantum-trace pairing between the (s -> s') and (s' -> s) bases.

    Entry [i][j] is the closure trace of basis_i(s -> s') composed with
    basis_j(s' -> s).  The hat on the first factor is absorbed by
    cyclicity, so each entry pairs a plain diagram d with a hatted map:
    (-1)^|s'| times one contraction of its coefficients c_D against
    delta^(loops + circles), the loops of stacking d on D and the circles
    of closing the result.  The composite is never formed.
    """
    return _gram_matrix(object_seq(s, mode), object_seq(s_prime, mode), mode)


@cache
def _gram_matrix(s: tuple, s_prime: tuple, mode: Mode) -> list:
    cols_h = [h.value.terms.items() for h in _hom_basis(s_prime, s, mode)]
    odd = seq_size(s_prime) % 2
    out = []
    for d in _good_type_diagrams(s, s_prime):
        row = []
        for terms in cols_h:
            pairs = []
            for dh, c in terms:
                e, loops = stack_simple(d, dh)
                pairs.append(
                    (c, _delta_power(loops + _closure_circles(e), mode)))
            x = _contract(pairs, mode)
            row.append(-x if odd else x)
        out.append(row)
    return out


def purified_hom_dim(s, s_prime, mode: Mode = GENERIC) -> int:
    """Hom dimension after killing negligibles: the Gram-matrix rank."""
    g = gram_matrix(s, s_prime, mode)
    rows = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in g]
    return linalg.rank(rows)
