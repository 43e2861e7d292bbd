"""Ribbon structure on the Temperley-Lieb skein category.

Structural morphisms as explicit diagram combinations:

* ``braiding_tl(n, m)``: Kauffman resolution of the block of positive
  crossings taking the left n strands past the right m strands, normalized
  so that ``braiding_tl(1, 1) = a*id + a^-1*e_1``.
* ``twist_tl(n) = (-1)^n`` times the resolved positive curl on the n-cable,
  built by the ribbon recursion from ``twist_tl(1) = a^3 * id``.
* ``coev_tl(n)`` / ``ev_tl(n)``: nested cups / caps pairing boundary point
  i with 2n+1-i.
* ``jones_wenzl(k)``: the unique idempotent in the k-strand algebra that
  kills every e_i and has identity coefficient 1, built by the one-sided
  recursion f_k = ext + sum_{i=1}^{k-1} ([i]_q/[k]_q) ext e_{k-1} ... e_i
  with ext = f_{k-1} x 1: each step stacks every term of ext on k-1 single
  diagrams and contracts once per output diagram.  At a root of unity (a
  primitive 4r-th) [k]_q vanishes at k = r, so only k <= r-1 exist.  The
  two-sided Wenzl recursion is the test oracle ``wenzl_jones_wenzl`` in
  ``tests/oracles.py``.
* ``closure_trace(f) = (-1)^n`` times the plain closure ``markov_closure(f)``
  of an n-strand endomorphism: the diagrammatic quantum trace
  d_n . c_{n,n} . (twist_tl(n) f x id_n) . b_n, whose only
  non-topological contribution is the twist sign.  This closed form is the
  library's route; the braided composite itself is the test oracle
  ``braided_closure_trace`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import cache

from .diagrams import (
    SimpleDiagram,
    TLMorphism,
    _delta_power,
    compose,
    crossing,
    e_diagram,
    identity_diagram,
    identity_morphism,
    stack_simple,
    tensor,
    tensor_simple,
)
from .scalars import GENERIC, Mode, PoleError, _contract


class JWProjector:
    """Jones-Wenzl idempotent on ``strand_count`` strands."""

    __slots__ = ("strand_count", "morphism")

    def __init__(self, strand_count: int, morphism: TLMorphism):
        self.strand_count = strand_count
        self.morphism = morphism

    def __eq__(self, other):
        return (isinstance(other, JWProjector)
                and self.strand_count == other.strand_count
                and self.morphism == other.morphism)

    def __repr__(self):
        return f"JWProjector({self.strand_count}, {self.morphism!r})"


# ---------------------------------------------------------------------------
# braiding, twist, duality

def braiding_tl(n: int, m: int, mode: Mode = GENERIC) -> TLMorphism:
    """Resolved positive-crossing block moving the left n strands past m."""
    return _braiding_tl(n, m, mode)


@cache
def _braiding_tl(n: int, m: int, mode: Mode) -> TLMorphism:
    # positional arguments only, so every spelling of a call shares one entry
    out = identity_morphism(n + m, mode)
    # strand i of the left block crosses the right block, rightmost first
    for i in range(n, 0, -1):
        for j in range(m):
            out = compose(crossing(i + j, n + m, 1, mode), out)
    return out


def coev_tl(n: int, mode: Mode = GENERIC) -> TLMorphism:
    """Nested cups 0 -> 2n, output i joined to output 2n+1-i."""
    match = tuple(2 * n - 1 - p for p in range(2 * n))
    return TLMorphism.from_diagram(SimpleDiagram(0, 2 * n, match), mode)


def ev_tl(n: int, mode: Mode = GENERIC) -> TLMorphism:
    """Nested caps 2n -> 0, input i joined to input 2n+1-i."""
    match = tuple(2 * n - 1 - p for p in range(2 * n))
    return TLMorphism.from_diagram(SimpleDiagram(2 * n, 0, match), mode)


def twist_tl(n: int, mode: Mode = GENERIC) -> TLMorphism:
    """Twist on n parallel strands: (-1)^n times the resolved positive
    curl, built by theta_n = c_{1,n-1} c_{n-1,1} (theta_{n-1} x theta_1)."""
    return _twist_tl(n, mode)


@cache
def _twist_tl(n: int, mode: Mode) -> TLMorphism:
    if n <= 1:
        # theta_0 = id, theta_1 = a^3 id
        return identity_morphism(n, mode).scale(mode.a_power(3 * n))
    return compose(
        _braiding_tl(1, n - 1, mode),
        compose(_braiding_tl(n - 1, 1, mode),
                tensor(_twist_tl(n - 1, mode), _twist_tl(1, mode))))


# ---------------------------------------------------------------------------
# Jones-Wenzl idempotents

def jones_wenzl(k: int, mode: Mode = GENERIC) -> JWProjector:
    """The k-strand Jones-Wenzl projector.

    Raises PoleError in root mode when k >= r (the recursion would divide
    by the vanishing quantum integer [r]_q).
    """
    if k < 0:
        raise ValueError(f"strand count must be nonnegative, got {k}")
    if mode.is_root and k >= mode.r:
        # [j]_q vanishes first at j = r; refuse before recursing down to it
        raise PoleError(
            f"no {mode.r}-strand projector: quantum integer [{mode.r}]_q "
            f"vanishes in mode {mode}")
    return _jones_wenzl(k, mode)


@cache
def _jones_wenzl(k: int, mode: Mode) -> JWProjector:
    # positional arguments only, so every spelling of a call shares one entry
    if k == 0:
        return JWProjector(0, TLMorphism.from_diagram(SimpleDiagram(0, 0, ()),
                                                      mode))
    if k == 1:
        return JWProjector(1, identity_morphism(1, mode))
    # ext = f_{k-1} x 1 on top of w_i = e_{k-1} ... e_i, the word grown by
    # one generator at the bottom per step; ext's strand k is a through
    # strand and w_i's top has its only cup at k-1, k, so no loop closes
    strand = identity_diagram(1)
    ext = [(tensor_simple(d, strand), c)
           for d, c in _jones_wenzl(k - 1, mode).morphism.terms.items()]
    one = mode.one()
    buckets = {d: [(c, one)] for d, c in ext}
    qk = mode.quantum_int(k)
    word = identity_diagram(k)
    for i in range(k - 1, 0, -1):
        word, loops = stack_simple(word, e_diagram(i, k))
        assert loops == 0
        ratio = mode.quantum_int(i) / qk
        for d, c in ext:
            top, loops = stack_simple(d, word)
            assert loops == 0
            buckets.setdefault(top, []).append((c, ratio))
    return JWProjector(k, TLMorphism(
        k, k, {d: _contract(ps, mode) for d, ps in buckets.items()}, mode))


def jw_tensor(s, mode: Mode = GENERIC) -> TLMorphism:
    """Tensor product of Jones-Wenzl projectors over the entries of s."""
    return _jw_tensor(tuple(s), mode)


@cache
def _jw_tensor(s: tuple, mode: Mode) -> TLMorphism:
    out = TLMorphism.from_diagram(SimpleDiagram(0, 0, ()), mode)
    for n in s:
        out = tensor(out, jones_wenzl(n, mode).morphism)
    return out


# ---------------------------------------------------------------------------
# quantum trace

@cache
def _closure_circles(d: SimpleDiagram) -> int:
    """Circles formed when bottom i is joined to top i around the side."""
    n = d.inputs
    seen = [False] * (2 * n)
    circles = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        circles += 1
        p, use_match = start, True
        while True:
            seen[p] = True
            if use_match:
                p = d.match[p]
            else:
                p = p + n if p < n else p - n
            use_match = not use_match
            if p == start and use_match:
                break
    return circles


def markov_closure(f: TLMorphism):
    """Plain closure of an endomorphism: join bottom i to top i, count
    circles against delta."""
    if f.inputs != f.outputs:
        raise ValueError("closure needs an endomorphism")
    mode = f.mode
    return _contract([(c, _delta_power(_closure_circles(d), mode))
                      for d, c in f.terms.items()], mode)


def closure_trace(f: TLMorphism):
    """Quantum trace of an endomorphism of n strands: (-1)^n times its
    plain closure, the sign being the twist's."""
    if f.inputs != f.outputs:
        raise ValueError("closure trace needs an endomorphism")
    c = markov_closure(f)
    return -c if f.inputs % 2 else c
