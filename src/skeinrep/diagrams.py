"""Planar diagram combinatorics for Temperley-Lieb skein spaces.

A simple diagram with k inputs and l outputs is a planar fixed-point-free
matching of k+l boundary points: inputs 1..k left to right on the bottom
line, outputs k+1..k+l left to right on the top line.  Simple diagrams form
a basis of the morphism space; general morphisms are finite linear
combinations with scalar coefficients.

Composition stacks diagrams and removes each closed loop against the scalar
delta = -(a^2 + a^-2).  Crossings are not stored: generator words containing
them resolve through the Kauffman relation

    (positive crossing) = a * (identity smoothing) + a^-1 * (cup-cap smoothing)

and the negative crossing with a and a^-1 exchanged.
"""

from __future__ import annotations

from functools import cache

from .scalars import GENERIC, Mode, _contract


class WordError(ValueError):
    """Malformed or arity-incompatible generator word."""


def delta(mode: Mode = GENERIC):
    """Loop value -(a^2 + a^-2)."""
    return mode.delta()


@cache
def _delta_power(loops: int, mode: Mode):
    """delta^loops, the weight of that many closed loops."""
    if loops == 0:
        return mode.one()
    return _delta_power(loops - 1, mode) * mode.delta()


# ---------------------------------------------------------------------------
# simple diagrams

class SimpleDiagram:
    """Planar matching of k bottom and l top boundary points.

    ``match`` is a 0-indexed involution tuple over bottom points 0..k-1 then
    top points k..k+l-1; the 1-indexed form used in serialization is
    :meth:`involution_array`.
    """

    __slots__ = ("inputs", "outputs", "match", "_hash")

    def __init__(self, inputs: int, outputs: int, match: tuple):
        n = inputs + outputs
        if len(match) != n:
            raise ValueError("matching length does not cover the boundary")
        for p, q in enumerate(match):
            if q == p or not 0 <= q < n or match[q] != p:
                raise ValueError("not a fixed-point-free involution")
        if not _is_planar(inputs, outputs, match):
            raise ValueError("matching is not planar")
        self.inputs = inputs
        self.outputs = outputs
        self.match = tuple(match)
        self._hash = hash((inputs, outputs, self.match))

    def involution_array(self) -> list:
        """1-indexed involution array (serialization form)."""
        return [q + 1 for q in self.match]

    @staticmethod
    def from_involution_array(inputs: int, outputs: int, arr) -> "SimpleDiagram":
        return SimpleDiagram(inputs, outputs, tuple(q - 1 for q in arr))

    def __eq__(self, other):
        return (isinstance(other, SimpleDiagram)
                and self.inputs == other.inputs
                and self.outputs == other.outputs
                and self.match == other.match)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.match < other.match

    def __repr__(self):
        return f"SimpleDiagram({self.inputs}->{self.outputs}, {self.involution_array()})"


def _boundary_order(k: int, l: int) -> list:
    # walk the rectangle boundary: bottom left to right, top right to left
    return list(range(k)) + list(range(k + l - 1, k - 1, -1))


def _is_planar(k: int, l: int, match) -> bool:
    stack: list = []
    for p in _boundary_order(k, l):
        if stack and stack[-1] == match[p]:
            stack.pop()
        elif match[p] in stack:
            return False
        else:
            stack.append(p)
    return not stack


@cache
def enumerate_simple(k: int, l: int) -> list:
    """All simple (k,l)-diagrams, ordered lexicographically on the
    involution array.  Empty when k+l is odd."""
    if (k + l) % 2:
        return []
    order = _boundary_order(k, l)
    out = []

    # arcs may nest but not cross in the boundary order: match the first
    # point to any point an odd distance in, split inside from outside
    def matchings(points: tuple):
        if not points:
            yield []
            return
        first = points[0]
        for j in range(1, len(points), 2):
            for inner in matchings(points[1:j]):
                for outer in matchings(points[j + 1:]):
                    yield [(first, points[j])] + inner + outer

    for pairing in matchings(tuple(order)):
        n = k + l
        match = [0] * n
        for p, q in pairing:
            match[p], match[q] = q, p
        out.append(SimpleDiagram(k, l, tuple(match)))
    out.sort(key=lambda d: d.match)
    return out


def identity_diagram(n: int) -> SimpleDiagram:
    match = tuple(range(n, 2 * n)) + tuple(range(n))
    return SimpleDiagram(n, n, match)


def e_diagram(i: int, k: int) -> SimpleDiagram:
    """Cap joining bottom i, i+1 and cup joining top i, i+1 (1-indexed)."""
    if not 1 <= i <= k - 1:
        raise ValueError(f"e_{i} undefined on {k} strands")
    match = list(range(k, 2 * k)) + list(range(k))
    b0, b1 = i - 1, i
    t0, t1 = k + i - 1, k + i
    match[b0], match[b1] = b1, b0
    match[t0], match[t1] = t1, t0
    return SimpleDiagram(k, k, tuple(match))


def cup_diagram(i: int, n: int) -> SimpleDiagram:
    """n -> n+2 diagram whose top points i, i+1 (1-indexed) are joined."""
    if not 1 <= i <= n + 1:
        raise ValueError(f"cup position {i} out of range for {n} strands")
    match = [0] * (2 * n + 2)
    for j in range(n):  # bottom j to top, skipping the new pair
        t = n + j if j < i - 1 else n + j + 2
        match[j], match[t] = t, j
    t0, t1 = n + i - 1, n + i
    match[t0], match[t1] = t1, t0
    return SimpleDiagram(n, n + 2, tuple(match))


def cap_diagram(i: int, n: int) -> SimpleDiagram:
    """n -> n-2 diagram whose bottom points i, i+1 (1-indexed) are joined."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"cap position {i} out of range for {n} strands")
    match = [0] * (2 * n - 2)
    b0, b1 = i - 1, i
    match[b0], match[b1] = b1, b0
    t = n
    for j in range(n):
        if j in (b0, b1):
            continue
        match[j], match[t] = t, j
        t += 1
    return SimpleDiagram(n, n - 2, tuple(match))


# ---------------------------------------------------------------------------
# stacking with loop removal

@cache
def stack_simple(top: SimpleDiagram, bot: SimpleDiagram):
    """Glue bot's outputs to top's inputs; returns (SimpleDiagram, loops)."""
    if bot.outputs != top.inputs:
        raise ValueError(
            f"cannot stack {top.inputs} inputs onto {bot.outputs} outputs")
    k, l, m = bot.inputs, bot.outputs, top.outputs
    # result boundary indices: bottom 0..k-1 (bot's inputs), then
    # k..k+m-1 (top's outputs); interface strands get l extra nodes
    # k+m..k+m+l-1.  Every node carries exactly one bot arc end or one
    # top arc end (boundary) or one of each (interface).

    def bot_node(x: int) -> int:
        return x if x < k else k + m + (x - k)

    def top_node(x: int) -> int:
        return k + m + x if x < l else k + (x - l)

    via_bot = [-1] * (k + m + l)  # neighbor through an arc of bot
    via_top = [-1] * (k + m + l)
    for p, q in enumerate(bot.match):
        via_bot[bot_node(p)] = bot_node(q)
    for p, q in enumerate(top.match):
        via_top[top_node(p)] = top_node(q)

    match = [-1] * (k + m)
    seen = [False] * l
    for start in range(k + m):
        if match[start] >= 0:
            continue
        # boundary nodes touch exactly one diagram; alternate thereafter
        p = via_bot[start] if start < k else via_top[start]
        used_bot = start < k
        while p >= k + m:
            seen[p - (k + m)] = True
            p = via_top[p] if used_bot else via_bot[p]
            used_bot = not used_bot
        match[start], match[p] = p, start
    loops = 0
    for j in range(l):
        if seen[j]:
            continue
        loops += 1
        s = k + m + j
        p, use_bot = s, True
        while True:
            seen[p - (k + m)] = True
            p = via_bot[p] if use_bot else via_top[p]
            use_bot = not use_bot
            if p == s:
                break
    return SimpleDiagram(k, m, tuple(match)), loops


def tensor_simple(left: SimpleDiagram, right: SimpleDiagram) -> SimpleDiagram:
    k1, l1 = left.inputs, left.outputs
    k2, l2 = right.inputs, right.outputs
    k, l = k1 + k2, l1 + l2

    def remap_left(p: int) -> int:
        return p if p < k1 else k2 + p

    def remap_right(p: int) -> int:
        return k1 + p if p < k2 else k1 + l1 + p

    match = [0] * (k + l)
    for p, q in enumerate(left.match):
        match[remap_left(p)] = remap_left(q)
    for p, q in enumerate(right.match):
        match[remap_right(p)] = remap_right(q)
    return SimpleDiagram(k, l, tuple(match))


# ---------------------------------------------------------------------------
# linear combinations

class TLMorphism:
    """Finite scalar combination of simple (k,l)-diagrams."""

    __slots__ = ("inputs", "outputs", "mode", "terms")

    def __init__(self, inputs: int, outputs: int, terms: dict, mode: Mode):
        self.inputs = inputs
        self.outputs = outputs
        self.mode = mode
        self.terms = {d: c for d, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero(inputs: int, outputs: int, mode: Mode) -> "TLMorphism":
        return TLMorphism(inputs, outputs, {}, mode)

    @staticmethod
    def from_diagram(d: SimpleDiagram, mode: Mode) -> "TLMorphism":
        return TLMorphism(d.inputs, d.outputs, {d: mode.one()}, mode)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "TLMorphism"):
        if (self.inputs, self.outputs) != (other.inputs, other.outputs):
            raise ValueError("arity mismatch")
        if self.mode != other.mode:
            raise ValueError("mode mismatch")

    def __add__(self, other: "TLMorphism") -> "TLMorphism":
        self._check(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            s = terms.get(d)
            terms[d] = c if s is None else s + c
        return TLMorphism(self.inputs, self.outputs, terms, self.mode)

    def __neg__(self) -> "TLMorphism":
        return TLMorphism(self.inputs, self.outputs,
                          {d: -c for d, c in self.terms.items()}, self.mode)

    def __sub__(self, other: "TLMorphism") -> "TLMorphism":
        return self.__add__(other.__neg__())

    def scale(self, c) -> "TLMorphism":
        return TLMorphism(self.inputs, self.outputs,
                          {d: c * x for d, x in self.terms.items()}, self.mode)

    def __eq__(self, other):
        if not isinstance(other, TLMorphism):
            return NotImplemented
        return (self.inputs == other.inputs and self.outputs == other.outputs
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.inputs, self.outputs,
                     tuple(sorted(self.terms.items(),
                                  key=lambda t: t[0].match))))

    def compose(self, other: "TLMorphism") -> "TLMorphism":
        """self after other (other's outputs glued to self's inputs)."""
        return compose(self, other)

    def tensor(self, other: "TLMorphism") -> "TLMorphism":
        return tensor(self, other)

    def coefficient(self, d: SimpleDiagram):
        return self.terms.get(d, self.mode.zero())

    def to_pairs(self) -> list:
        """Sorted (involution array, scalar) pairs."""
        return [(d.involution_array(), self.terms[d])
                for d in sorted(self.terms, key=lambda d: d.match)]

    def __repr__(self):
        if not self.terms:
            return f"TLMorphism({self.inputs}->{self.outputs}, 0)"
        body = " + ".join(f"({c}) * {d.involution_array()}"
                          for d, c in sorted(self.terms.items(),
                                             key=lambda t: t[0].match))
        return f"TLMorphism({self.inputs}->{self.outputs}, {body})"


def identity_morphism(n: int, mode: Mode) -> TLMorphism:
    return TLMorphism.from_diagram(identity_diagram(n), mode)


def e_generator(i: int, k: int, mode: Mode = GENERIC) -> TLMorphism:
    """Temperley-Lieb generator e_i on k strands, 1 <= i <= k-1."""
    return TLMorphism.from_diagram(e_diagram(i, k), mode)


def crossing(i: int, n: int, sign: int, mode: Mode) -> TLMorphism:
    """Kauffman resolution a^sign * id + a^-sign * e_i of a crossing of
    strands i and i+1 of n; sign 1 is the positive crossing."""
    return TLMorphism(n, n, {identity_diagram(n): mode.a_power(sign),
                             e_diagram(i, n): mode.a_power(-sign)}, mode)


def compose(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """f after g; each closed loop contributes a factor delta.  The term
    pairs are bucketed per output diagram as (c1, c2 * delta^loops), each
    weighted c2 formed once per term of g and loop count, and each bucket
    is contracted once."""
    if f.inputs != g.outputs:
        raise ValueError(
            f"arity mismatch: composing {f.inputs} inputs with {g.outputs} outputs")
    if f.mode != g.mode:
        raise ValueError("mode mismatch")
    mode = f.mode
    buckets: dict = {}
    weighted: dict = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            d, loops = stack_simple(d1, d2)
            if loops:
                key = (d2, loops)
                if key not in weighted:
                    weighted[key] = c2 * _delta_power(loops, mode)
                c2 = weighted[key]
            buckets.setdefault(d, []).append((c1, c2))
    return TLMorphism(g.inputs, f.outputs,
                      {d: _contract(ps, mode) for d, ps in buckets.items()},
                      mode)


def tensor(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """f placed to the left of g.  tensor_simple is injective for fixed
    arities, so each pair of terms gives a diagram of its own."""
    if f.mode != g.mode:
        raise ValueError("mode mismatch")
    return TLMorphism(f.inputs + g.inputs, f.outputs + g.outputs,
                      {tensor_simple(d1, d2): c1 * c2
                       for d1, c1 in f.terms.items()
                       for d2, c2 in g.terms.items()}, f.mode)


# ---------------------------------------------------------------------------
# generator words

_LAYER_KINDS = ("id", "cup", "cap", "x+", "x-")


def _layer_arity(L, arity):
    """Strand count above layer L, given the count below it (None under the
    first layer); raises WordError for a malformed or mismatched layer."""
    kind = L[0]
    if kind not in _LAYER_KINDS:
        raise WordError(f"unknown layer kind {kind!r}")
    n = L[-1]
    if n < 0:
        raise WordError(f"negative arity in layer {L!r}")
    if arity is not None and n != arity:
        raise WordError(
            f"layer {L!r} declares {n} strands but {arity} are present")
    if kind == "id":
        return n
    i = L[1]
    if kind == "cup":
        if not 1 <= i <= n + 1:
            raise WordError(f"cup position out of range in {L!r}")
        return n + 2
    if kind == "cap":
        if not 1 <= i <= n - 1:
            raise WordError(f"cap position out of range in {L!r}")
        return n - 2
    if not 1 <= i <= n - 1:
        raise WordError(f"crossing position out of range in {L!r}")
    return n


class GeneratorWord:
    """Sequence of elementary layers read bottom to top.

    Text form, one layer per line (semicolons also separate layers):
    ``id n``, ``cup i of n``, ``cap i of n``, ``x+ i of n``, ``x- i of n``,
    where n is the strand count below the layer.
    """

    __slots__ = ("layers", "inputs", "outputs")

    def __init__(self, layers):
        layers = tuple(layers)
        if not layers:
            raise WordError("empty word")
        arity = None
        for L in layers:
            arity = _layer_arity(L, arity)
        self.layers = layers
        self.inputs = layers[0][-1]
        self.outputs = arity

    def __repr__(self):
        return f"GeneratorWord({format_word(self)!r})"

    def __eq__(self, other):
        return isinstance(other, GeneratorWord) and self.layers == other.layers

    def __hash__(self):
        return hash(self.layers)


def _parse_layer(line: str) -> tuple:
    parts = line.split()
    kind = parts[0]
    try:
        if kind == "id":
            if len(parts) != 2:
                raise ValueError
            return ("id", int(parts[1]))
        if kind in ("cup", "cap", "x+", "x-"):
            if len(parts) != 4 or parts[2] != "of":
                raise ValueError
            return (kind, int(parts[1]), int(parts[3]))
        raise ValueError
    except ValueError:
        raise WordError(f"bad layer line {line!r}") from None


def parse_layers(chunks, max_width=None, max_layers=None) -> list:
    """The layers of the text form, read one physical line at a time from
    chunks that end at line breaks, such as an open file's lines; an error
    names the first line at which the word goes wrong (layers split by ';'
    share a line).  A word wider than max_width strands at a layer, or
    longer than max_layers layers, is refused at its first layer past the
    limit, and nothing after it is read."""
    layers = []
    arity = None
    lines = (line for chunk in chunks for line in chunk.splitlines())
    for number, raw in enumerate(lines, 1):
        for part in raw.split(";"):
            line = part.strip()
            if not line:
                continue
            try:
                layer = _parse_layer(line)
                arity = _layer_arity(layer, arity)
                width = max(layer[-1], arity)
                if max_width is not None and width > max_width:
                    raise WordError(f"word reaches {width} strands, above "
                                    f"the limit of {max_width}")
                if max_layers is not None and len(layers) == max_layers:
                    raise WordError(f"word reaches {max_layers + 1} layers, "
                                    f"above the limit of {max_layers}")
            except WordError as exc:
                raise WordError(f"line {number}: {exc}") from None
            layers.append(layer)
    return layers


def parse_word(text: str) -> GeneratorWord:
    """Read the text form in one pass (parse_layers)."""
    return GeneratorWord(parse_layers((text,)))


def format_word(word: GeneratorWord) -> str:
    lines = []
    for L in word.layers:
        if L[0] == "id":
            lines.append(f"id {L[1]}")
        else:
            lines.append(f"{L[0]} {L[1]} of {L[2]}")
    return "\n".join(lines)


def _layer_morphism(layer, mode: Mode) -> TLMorphism:
    kind = layer[0]
    if kind == "id":
        return identity_morphism(layer[1], mode)
    i, n = layer[1], layer[2]
    if kind == "cup":
        return TLMorphism.from_diagram(cup_diagram(i, n), mode)
    if kind == "cap":
        return TLMorphism.from_diagram(cap_diagram(i, n), mode)
    return crossing(i, n, 1 if kind == "x+" else -1, mode)


def resolve(word: GeneratorWord, mode: Mode = GENERIC) -> TLMorphism:
    """Expand crossings by the Kauffman relation and multiply out layers."""
    out = None
    for layer in word.layers:
        m = _layer_morphism(layer, mode)
        out = m if out is None else compose(m, out)
    return out


def bracket(word: GeneratorWord, mode: Mode = GENERIC):
    """Kauffman bracket of a closed word (coefficient of the empty diagram)."""
    if word.inputs != 0 or word.outputs != 0:
        raise WordError(
            f"bracket needs a closed word, got {word.inputs} -> {word.outputs}")
    m = resolve(word, mode)
    if not m.terms:
        return mode.zero()
    (d, c), = m.terms.items()
    return c
