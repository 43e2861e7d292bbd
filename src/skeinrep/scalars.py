"""Exact scalar arithmetic for skein computations.

Two scalar domains, selected by a :class:`Mode`:

* generic: rational functions in one variable ``a`` over Q, held as a
  quotient of integer-coefficient Laurent polynomials in canonical form
  (denominator is a true polynomial with nonzero constant term, positive
  leading coefficient, and no common factor with the numerator, integer
  content included).  Equality is structural.
* root of unity: the cyclotomic field Q(zeta_{4r}), elements held as integer
  residues modulo the cyclotomic polynomial Phi_{4r} over a positive integer
  denominator, content-reduced.

Conventions used throughout the package: ``q = a**2``, ``q**(1/2) = a``,
``[n]_q = (q**n - q**-n)/(q - q**-1)`` and the loop value
``delta = -(a**2 + a**-2) = -[2]_q``.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from math import gcd, lcm
from struct import unpack

Laurent = dict  # exponent (int) -> coefficient (int), zero coefficients absent


class PoleError(ArithmeticError):
    """A denominator vanished under specialization: at a root of unity, or
    mod p (mod_map)."""


# ---------------------------------------------------------------------------
# integer Laurent polynomial helpers (plain dicts, never mutated after return)

_ONE: Laurent = {0: 1}


def _lneg(f: Laurent) -> Laurent:
    return {e: -c for e, c in f.items()}

def _lmul(f: Laurent, g: Laurent) -> Laurent:
    if not f or not g:
        return {}
    if len(g) < len(f):
        f, g = g, f
    out: Laurent = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out

def _lscale(f: Laurent, c: int) -> Laurent:
    if c == 0:
        return {}
    return {e: c * v for e, v in f.items()}

def _lshift(f: Laurent, k: int) -> Laurent:
    if k == 0:
        return f
    return {e + k: c for e, c in f.items()}


def _to_list(f: Laurent, s: int = 1) -> list:
    # little-endian coefficient list in x = a^s; caller guarantees min
    # exponent 0 and every exponent a multiple of s
    out = [0] * (max(f) // s + 1)
    for e, c in f.items():
        out[e // s] = c
    return out

def _from_list(cs: list, s: int = 1) -> Laurent:
    return {e * s: c for e, c in enumerate(cs) if c}


def _list_divexact(f: list, g: list) -> list:
    # long division knowing g | f over Z[x]; asserts exactness
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    q = [0] * (len(f) - dg)
    for k in range(len(f) - 1 - dg, -1, -1):
        c = f[k + dg]
        if c == 0:
            continue
        qc, rem = divmod(c, lg)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = qc
        for j, gj in enumerate(g):
            f[k + j] -= qc * gj
    if any(f[:dg]):
        raise ArithmeticError("inexact polynomial division")
    return q


def _list_primitive(f: list) -> list:
    c = gcd(*f)
    if c == 0:
        return []
    if f[-1] < 0:
        c = -c
    return [v // c for v in f]


def _list_eval(f: list, x: int) -> int:
    n = 0
    for c in reversed(f):
        n = n * x + c
    return n


def _list_gcd(u: list, v: list) -> tuple:
    """(h, u / h, v / h) for h the gcd of primitive u and v with positive
    leads, by the heuristic gcd GCDHEU (Char, Geddes & Gonnet 1989): h is
    the primitive part of the symmetric xi-adic digits of the integer
    gcd(u(xi), v(xi)), and divides both exactly, which proves it is the
    gcd once xi >= 2 min(|u|, |v|) + 2 (sup norms).  A constant h is the
    gcd 1 as it stands.  On an inexact division xi grows: a spurious
    factor of the integer gcd divides the resultant of the cofactors, so
    a large enough xi rebuilds a multiple of the gcd and the loop ends."""
    # CGG's start, above the bound so that few small points need to grow
    xi = 2 * min(max(map(abs, u)), max(map(abs, v))) + 29
    while True:
        n = gcd(_list_eval(u, xi), _list_eval(v, xi))
        if 2 * n <= xi:         # one digit
            return [1], u, v
        h = []
        while n:
            d = n % xi
            if 2 * d > xi:
                d -= xi
            h.append(d)
            n = (n - d) // xi
        h = _list_primitive(h)
        try:
            return h, _list_divexact(u, h), _list_divexact(v, h)
        except ArithmeticError:
            xi = xi * 73794 // 27011    # CGG's growth, about 1 + sqrt(3)


def _gcd_cofactors(f: Laurent, g: Laurent) -> tuple:
    """(h, f / h, g / h) for h = gcd(f, g) in Z[a], f and g nonzero
    polynomials with min exponent 0: h has positive leading coefficient
    and content gcd(content f, content g), so the cofactors keep the signs
    of f and g.  Polynomials in x = a^s are worked in x, since
    gcd(f(x^s), g(x^s)) = gcd(f, g)(x^s); the gcd of the primitive parts
    is _list_gcd's, and a gcd 1 returns f and g themselves."""
    s = gcd(*f, *g) or 1    # every exponent of f and g is a multiple of s
    u, v = _to_list(f, s), _to_list(g, s)
    cf, cg = gcd(*u), gcd(*v)
    c = gcd(cf, cg)
    if u[-1] < 0:
        cf = -cf
    if v[-1] < 0:
        cg = -cg
    h, u, v = _list_gcd([x // cf for x in u] if cf != 1 else u,
                        [x // cg for x in v] if cg != 1 else v)
    if len(h) == 1:
        if c == 1:
            return _ONE, f, g
        return {0: c}, {e: x // c for e, x in f.items()}, \
            {e: x // c for e, x in g.items()}
    cf //= c
    cg //= c
    return (_from_list([c * x for x in h] if c != 1 else h, s),
            _from_list([cf * x for x in u] if cf != 1 else u, s),
            _from_list([cg * x for x in v] if cg != 1 else v, s))


def _poly_divexact(f: Laurent, g: Laurent) -> Laurent:
    # f / g knowing g | f; in x = a^s as in _gcd_cofactors, since the quotient
    # of f(x^s) by g(x^s) is a polynomial in x^s as well
    if g == _ONE:
        return f
    s = gcd(*f, *g) or 1
    return _from_list(_list_divexact(_to_list(f, s), _to_list(g, s)), s)


# ---------------------------------------------------------------------------
# operators both scalar fields share, bound by name in each class body (so
# each stays in its class's own __dict__); self._coerce(other) brings an int
# or a scalar of the same field into that field, or gives NotImplemented.
# Every sum and product is one _contract in the field of self.mode.

def _add(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return other
    one = self.mode.signs[0]
    return _contract(((self, one), (other, one)), self.mode)


def _sub(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return other
    one, minus_one = self.mode.signs
    return _contract(((self, one), (other, minus_one)), self.mode)


def _mul(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return other
    return _contract(((self, other),), self.mode)


def _truediv(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return other
    return _contract(((self, other.inv()),), self.mode)


def _rsub(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return other
    return other.__sub__(self)


def _rtruediv(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return other
    return other.__truediv__(self)


def _pow(self, e: int):
    if e < 0:
        return self.inv() ** (-e)
    out = self._coerce(1)
    base = self
    while e:
        if e & 1:
            out = out * base
        base = base * base if e > 1 else base
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# generic scalars: quotients of integer Laurent polynomials

class ScalarGeneric:
    """Rational function in ``a`` over Q, canonical num/den pair.

    Invariants: ``den`` is nonzero with min exponent 0 and positive leading
    coefficient; ``gcd(num * a**-minexp(num), den) = 1`` in Z[a], integer
    content included.  Zero is ``{} / {0: 1}``.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Laurent, den: Laurent, _canonical: bool = False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # constructors ----------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "ScalarGeneric":
        return ScalarGeneric({0: n} if n else {}, dict(_ONE), _canonical=True)

    @staticmethod
    def a_power(e: int) -> "ScalarGeneric":
        return ScalarGeneric({e: 1}, dict(_ONE), _canonical=True)

    @staticmethod
    def from_laurent(f: Laurent) -> "ScalarGeneric":
        return ScalarGeneric(dict(f), dict(_ONE), _canonical=True)

    # predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _ONE and self.den == _ONE

    # arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarGeneric):
            return other
        if isinstance(other, int):
            return ScalarGeneric.from_int(other)
        return NotImplemented

    __add__ = __radd__ = _add
    __sub__, __rsub__ = _sub, _rsub
    __mul__ = __rmul__ = _mul
    __truediv__, __rtruediv__ = _truediv, _rtruediv
    __pow__ = _pow

    def __neg__(self):
        return ScalarGeneric(_lneg(self.num), self.den, _canonical=True)

    def inv(self) -> "ScalarGeneric":
        # num = a^s * n0 with n0 prime to den, so den / num needs no gcd:
        # the shift moves to den and the sign of n0's lead goes with it
        if not self.num:
            raise ZeroDivisionError("division by zero scalar")
        s = min(self.num)
        n0, num = _lshift(self.num, -s), _lshift(self.den, -s)
        if n0[max(n0)] < 0:
            n0, num = _lneg(n0), _lneg(num)
        return ScalarGeneric(num, n0, _canonical=True)

    # comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = ScalarGeneric.from_int(other)
        if not isinstance(other, ScalarGeneric):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((tuple(sorted(self.num.items())),
                               tuple(sorted(self.den.items()))))
        return self._hash

    def __repr__(self):
        return f"ScalarGeneric({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


def _canonicalize(num: Laurent, den: Laurent):
    """The canonical (num, den) pair of num / den: both are shifted to min
    exponent 0, _gcd_cofactors gives them with their gcd cancelled (the
    reduced pair itself, no quotient taken after), and the pair is negated
    if den's lead is negative; num gets back its shift less den's."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, dict(_ONE)
    dshift = min(den)
    nshift = min(num)
    d0 = _lshift(den, -dshift)
    n0 = _lshift(num, -nshift)
    _, n0, d0 = _gcd_cofactors(n0, d0)
    if d0[max(d0)] < 0:
        n0 = _lneg(n0)
        d0 = _lneg(d0)
    return _lshift(n0, nshift - dshift), d0


# ---------------------------------------------------------------------------
# cyclotomic polynomials and root-of-unity scalars

@cache
def cyclotomic_poly(n: int) -> list:
    """Coefficient list (little-endian) of the n-th cyclotomic polynomial."""
    # (x^n - 1) / prod of Phi_d over proper divisors d of n
    f = [0] * (n + 1)
    f[0], f[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            f = _list_divexact(f, cyclotomic_poly(d))
    return f


class ScalarCyclotomic:
    """Element of Q(zeta_{4r}): integer residue mod Phi_{4r} over den > 0,
    in the field of its mode, the one RootMode(r).

    The residue c_0 + c_1 a + ... is one int, ``packed`` = sum c_i 2^(w i)
    for the slot width w = ``width`` (Kronecker substitution, signed
    slots).  The width is the narrowest of the ladder 64, 128, 256, ...
    with every |c_i| < 2^(w-1), so equal values have equal (packed, den,
    width); ``bits`` is a proven bound, |c_i| <= 2^bits.  The content of
    the residue is prime to den, and zero is 0 / 1.  The constructor takes
    any coefficient list in a and reduces it."""

    __slots__ = ("mode", "packed", "den", "width", "bits", "_hash")

    def __init__(self, mode: "RootMode", coeffs, den: int = 1):
        f = mode._field
        cs = [0] * (2 * f.half)     # a^(4r) = 1
        for i, c in enumerate(coeffs):
            cs[i % len(cs)] += c
        if den < 0:
            den = -den
            cs = [-c for c in cs]
        bound = max(map(abs, cs)) * f.growth
        w = _width(bound)
        z = _finish(mode, f, _pack(cs, w), den, w, bound)
        self.mode = mode
        self.packed, self.den, self.width, self.bits = \
            z.packed, z.den, z.width, z.bits
        self._hash = None

    @property
    def r(self) -> int:
        return self.mode.r

    @property
    def coeffs(self) -> tuple:
        """c_0, c_1, ... up to the last nonzero one."""
        cs = _digits(self.packed, self.width)
        while cs and not cs[-1]:
            cs.pop()
        return tuple(cs)

    @staticmethod
    def from_int(n: int, r: int) -> "ScalarCyclotomic":
        return RootMode(r).from_int(n)

    @staticmethod
    def a_power(e: int, r: int) -> "ScalarCyclotomic":
        return RootMode(r).a_power(e)

    def is_zero(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        return self.packed == 1 and self.den == 1

    def _coerce(self, other):
        if isinstance(other, int):
            return self.mode.from_int(other)
        if isinstance(other, ScalarCyclotomic):
            if other.mode is not self.mode:
                raise ValueError("mixed cyclotomic orders")
            return other
        return NotImplemented

    __add__ = __radd__ = _add
    __sub__, __rsub__ = _sub, _rsub
    __mul__ = __rmul__ = _mul
    __truediv__, __rtruediv__ = _truediv, _rtruediv
    __pow__ = _pow

    def __neg__(self):
        return _new(self.mode, -self.packed, self.den, self.width, self.bits)

    def inv(self) -> "ScalarCyclotomic":
        if not self.packed:
            raise ZeroDivisionError("division by zero scalar")
        return _inverse(self)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.mode.from_int(other)
        if not isinstance(other, ScalarCyclotomic):
            return NotImplemented
        return (self.mode is other.mode and self.packed == other.packed
                and self.den == other.den and self.width == other.width)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.r, self.packed, self.den, self.width))
        return self._hash

    def __repr__(self):
        return f"ScalarCyclotomic(r={self.r}, {format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


_object_new = object.__new__


def _new(mode, packed: int, den: int, width: int, bits: int):
    z = _object_new(ScalarCyclotomic)
    z.mode = mode
    z.packed = packed
    z.den = den
    z.width = width
    z.bits = bits
    z._hash = None
    return z


@cache
def _inverse(x: ScalarCyclotomic) -> ScalarCyclotomic:
    # x = y / den, y in Z[a]; y times its conjugates a -> a^k, k > 1 prime
    # to 4r, is the integer N(y), so 1/x = den * those / N(y)
    mode, order = x.mode, 4 * x.r
    cs0 = x.coeffs
    p = mode.signs[0]
    for k in range(3, order, 2):
        if gcd(k, order) == 1:
            cs = [0] * order
            for i, c in enumerate(cs0):
                cs[i * k % order] += c
            p = _contract(((p, ScalarCyclotomic(mode, cs)),), mode)
    y = _new(mode, x.packed, 1, x.width, x.bits)
    norm = _contract(((y, p),), mode).packed    # a constant: its slot 0
    return ScalarCyclotomic(mode, [c * x.den for c in p.coeffs], norm)


def _width(bound: int) -> int:
    # the narrowest slot width of the ladder that holds |c| <= bound
    w = 64
    while bound >> (w - 1):
        w <<= 1
    return w


def _pack(cs, w: int) -> int:
    p = 0
    for c in reversed(cs):
        p = (p << w) + c
    return p


@cache
def _bias(w: int, slots: int) -> int:
    # 2^(w-1) in each of the low slots
    return ((1 << w * slots) - 1) // ((1 << w) - 1) << (w - 1)


def _digits(p: int, w: int) -> list:
    """The slots of p at width w, c_0 first, through its top nonzero slot
    (one zero slot may follow): each biased into [0, 2^w), read as bytes."""
    slots = p.bit_length() // w + 1
    data = (p + _bias(w, slots)).to_bytes(w * slots // 8, "little")
    h = 1 << (w - 1)
    if w == 64:
        return [c - h for c in unpack(f"<{slots}Q", data)]
    k = w // 8
    return [int.from_bytes(data[i:i + k], "little") - h
            for i in range(0, len(data), k)]


def _spread(p: int, v: int, w: int) -> int:
    # p, packed at width v, packed at width w >= v
    return p if v == w else _pack(_digits(p, v), w)


class _Field(dict):
    """The constants of Q(zeta_{4r}) for the packed kernel: n = deg Phi_{4r},
    half = 2r, tail = Phi_{4r} - a^n, and growth, a factor by which _reduce
    can at most multiply the largest |slot| of its input, counting every
    intermediate.  Keyed by slot width w, the masks and packed tail there."""

    def __init__(self, r: int):
        phi = cyclotomic_poly(4 * r)
        self.n = n = len(phi) - 1
        self.half = 2 * r
        self.tail = tail = phi[:n]
        # follow _reduce on slots below 4r, each at most 1 in size, with a
        # bound per slot: a^(2r) = -1 adds slot i + 2r to slot i, and each
        # a^n = -tail step adds the high slots times |tail| to the low ones
        top = max(i for i, c in enumerate(tail) if c)
        b = [2] * (2 * r)
        growth = 2
        while len(b) > n:
            low = b[:n] + [0] * (len(b) - 2 * n + top)
            for j, h in enumerate(b[n:]):
                for i in range(top + 1):
                    low[i + j] += h * abs(tail[i])
            b = low
            growth = max(growth, *b)
        self.growth = growth
        # -2^24 <= c < 2^24 in every slot at width 64, the test of _finish
        self.bias24 = _bias(64, n) >> 39
        self.high24 = (_bias(64, n) << 1) - (self.bias24 << 1)

    def __missing__(self, w):
        self[w] = c = (w * self.half, (1 << w * self.half) - 1,
                       _bias(w, self.half),
                       w * self.n, (1 << w * self.n) - 1, _bias(w, self.n),
                       _pack(self.tail, w))
        return c


def _reduce(p: int, consts) -> int:
    """p mod Phi_{4r} at the width of consts, for p with every |slot| times
    growth below 2^(w-1) and no slot at or past 4r.  A slot at or past a
    split shows as a bit past it.  Biasing each slot below the split into
    [0, 2^w) splits p by a mask and a shift.  First a^(2r) = -1 subtracts
    the high slots; then a^n = -tail subtracts them times the tail."""
    s2, m2, b2, sn, mn, bn, tail = consts
    if p.bit_length() >= s2:
        u = p + b2
        p = (u & m2) - b2 - (u >> s2)
    while p.bit_length() >= sn:
        u = p + bn
        p = (u & mn) - bn - (u >> sn) * tail
    return p


def _finish(mode, f: _Field, p: int, den: int, w: int, bound: int):
    """The canonical scalar p / den, for p at width w with no slot at or
    past 4r and every |slot| <= bound through the reduction (at most
    growth times its input's): p spread first to the width bound fits
    when w does not, the reduction, the content gcd with den (none over
    den 1), the narrowest width, and a bound of 24 bits when the a priori
    one is wider but the slots pass the test for it, or else their exact
    one: a product of two such bounds fits width 64 for every r <= 20."""
    if bound >> (w - 1):
        p, w = _spread(p, w, _width(bound)), _width(bound)
    p = _reduce(p, f[w])
    if not p:
        return _new(mode, 0, 1, 64, 0)
    cs = None
    if den != 1:
        cs = _digits(p, w)
        g = gcd(den, *cs)
        if g > 1:
            p //= g
            den //= g
            bound //= g
            cs = [c // g for c in cs]
    bits = bound.bit_length()
    if w == 64 and bits > 24:
        u = p + f.bias24
        if u >= 0 and not u & f.high24:
            return _new(mode, p, den, 64, 24)
    if w > 64 or bits > 24:
        if cs is None:
            cs = _digits(p, w)
        m = max(map(abs, cs))
        bits = m.bit_length()
        if _width(m) != w:
            w = _width(m)
            p = _pack(cs, w)
    return _new(mode, p, den, w, bits)


def specialize(x: ScalarGeneric, r: int) -> ScalarCyclotomic:
    """Evaluate a generic scalar at a primitive 4r-th root of unity.

    Raises PoleError if the denominator vanishes there.
    """
    mode = RootMode(r)
    num = _eval_cyclo(x.num, mode)
    den = _eval_cyclo(x.den, mode)
    if den.is_zero():
        raise PoleError(
            f"denominator {format_laurent(x.den)} vanishes at a primitive "
            f"{4 * r}-th root of unity")
    return num / den


def _eval_cyclo(f: Laurent, mode: "RootMode") -> ScalarCyclotomic:
    order = 4 * mode.r
    cs: list = [0] * order
    for e, c in f.items():
        cs[e % order] += c
    return ScalarCyclotomic(mode, cs)


def _lcm_step(den, d, folded: list):
    """The factor taking den to lcm(den, d), or None if d divides den.  A
    den is an int (root) or a polynomial (generic); folded lists the dens
    den is a multiple of, so a repeated one costs no gcd, and lcm(1, d) = d
    costs none either."""
    if d == den or d in folded:
        return None
    folded.append(d)
    if type(d) is int:
        grow = d // gcd(den, d)
        return None if grow == 1 else grow
    if den == _ONE:
        return d
    grow = _gcd_cofactors(den, d)[2]
    return None if grow == _ONE else grow


def _contract(pairs, mode):
    """Sum of x * y over the (x, y) pairs, exactly, normalized once: the
    numerators are convolved into one accumulator over a running common
    denominator.  Root mode multiplies packed residues in one pass at width
    64, and in one more when an operand is wider or the a priori bound of
    the sum passes 64 bits, at a width that bound provably fits through the
    reduction; _finish reduces the sum once mod Phi_{4r} and takes the
    content gcd only over den != 1.  Generic mode cancels the polynomial
    gcd (none over den 1).  A generic product by a unit +-a^e is the other
    factor's numerator shifted and signed, canonical as it stands: no gcd,
    no convolution.  A root product by one, a residue 1 over den 1, is the
    other factor itself: no product, no reduction.
    """
    if not mode.is_root:
        folded: list = []
        if len(pairs) == 1:
            x, y = pairs[0]
            for u, v in ((y, x), (x, y)):
                if len(u.num) == 1 and u.den == _ONE:
                    (e, c), = u.num.items()
                    if c == 1 or c == -1:
                        return ScalarGeneric({k + e: c * w for k, w
                                              in v.num.items()},
                                             v.den, _canonical=True)
        acc: Laurent = {}       # zero coefficients dropped at the end
        den = _ONE
        for x, y in pairs:
            xs, ys = x.num, y.num
            if not xs or not ys:
                continue
            d = (y.den if x.den == _ONE else x.den if y.den == _ONE
                 else _lmul(x.den, y.den))
            if d != den:
                grow = _lcm_step(den, d, folded)
                if grow is not None:
                    acc = _lmul({e: c for e, c in acc.items() if c}, grow)
                    den = _lmul(den, grow)
                if d != den:
                    xs = _lmul(xs, _poly_divexact(den, d))
            for e1, c1 in xs.items():
                for e2, c2 in ys.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
        num = {e: c for e, c in acc.items() if c}
        if den == _ONE:
            return ScalarGeneric(num, dict(_ONE), _canonical=True)
        return ScalarGeneric(num, den)
    if len(pairs) == 1:
        x, y = pairs[0]
        if x.packed == 1 and x.den == 1:
            return y
        if y.packed == 1 and y.den == 1:
            return x
    f = mode._field
    acc, den, bound, widest = _accumulate(pairs, f.n, 64)
    w = 64
    if widest > 64 or bound >> 63:
        w = max(widest, _width(bound * f.growth))
        acc = _accumulate(pairs, f.n, w)[0]
    return _finish(mode, f, acc, den, w, bound * f.growth)


def _accumulate(pairs, n: int, w: int) -> tuple:
    """(acc, den, bound, widest) for root-mode pairs: den is the lcm of the
    x.den * y.den, every |slot| of the sum of the x * y * den / (x.den *
    y.den) is at most bound (a product has up to n terms per slot), and
    widest is the widest operand width, at least 64.  acc is that sum
    packed at w, each operand narrower than w spread to it, when widest <=
    w; past that the products of wider operands are left out of it."""
    folded: list = []
    acc = bound = 0
    den = 1
    widest = 64
    for x, y in pairs:
        px, py = x.packed, y.packed
        if not px or not py:
            continue
        d = x.den * y.den
        m = 1
        if d != den:
            grow = _lcm_step(den, d, folded)
            if grow is not None:
                acc *= grow
                bound *= grow
                den *= grow
            if d != den:
                m = den // d
        bound += (n * m) << (x.bits + y.bits)
        if x.width != w or y.width != w:
            widest = max(widest, x.width, y.width)
            if widest > w:
                continue
            px, py = _spread(px, x.width, w), _spread(py, y.width, w)
        acc += px * py if m == 1 else px * m * py
    return acc, den, bound, widest


def times_a_power(x, e: int):
    """x * a^e without a multiply: generic mode shifts the numerator (the
    result is canonical as it stands), root mode shifts the packed residue
    by e mod 4r slots and reduces it once.  A zero shift, e = 0 or e = 0
    mod 4r, returns x itself."""
    if isinstance(x, ScalarGeneric):
        if not e:
            return x
        return ScalarGeneric(_lshift(x.num, e), x.den, _canonical=True)
    return _shift(x, e)


def _shift(x: ScalarCyclotomic, e: int) -> ScalarCyclotomic:
    mode = x.mode
    e %= 4 * mode.r
    if not e:
        return x
    f = mode._field
    p = x.packed << x.width * (e % f.half)      # a^(2r) = -1
    return _finish(mode, f, p if e < f.half else -p, x.den, x.width,
                   (1 << x.bits) * f.growth)


def clear_denominators(values, mode) -> list:
    """The values times the lcm of their denominators (by the lcm step of
    _contract), each one product with the lcm through _contract; lcm / den
    is exact, so the content gcd of _finish (root) or _canonicalize
    (generic) brings every product to denominator 1."""
    values = list(values)
    one = 1 if mode.is_root else _ONE
    lcm, folded = one, []
    for v in values:
        grow = _lcm_step(lcm, v.den, folded)
        if grow is not None:
            lcm = lcm * grow if mode.is_root else _lmul(lcm, grow)
    if lcm == one:
        return values
    m = mode.from_int(lcm) if mode.is_root else ScalarGeneric.from_laurent(lcm)
    return [_contract(((v, m),), mode) for v in values]


# ---------------------------------------------------------------------------
# modes

class Mode:
    """Scalar domain: generic (rational functions in a) or root of unity."""

    is_root = False
    r: int | None = None

    @cached_property
    def signs(self) -> tuple:
        """1 and -1 in this field, built once: the weights by which a sum
        and a difference contract their two operands."""
        return self.from_int(1), self.from_int(-1)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def delta(self):
        # loop value -(a^2 + a^-2)
        return -(self.a_power(2) + self.a_power(-2))

    def quantum_int(self, n: int):
        # [n]_q = q^{n-1} + q^{n-3} + ... + q^{1-n} with q = a^2
        if n < 0:
            return -self.quantum_int(-n)
        out = self.zero()
        for i in range(n):
            out = out + self.a_power(2 * (n - 1 - 2 * i))
        return out

    def quantum_factorial(self, n: int):
        out = self.one()
        for k in range(2, n + 1):
            out = out * self.quantum_int(k)
        return out


class GenericMode(Mode):
    def from_int(self, n: int):
        return ScalarGeneric.from_int(n)

    def a_power(self, e: int):
        return ScalarGeneric.a_power(e)

    def __repr__(self):
        return "generic"

    __str__ = __repr__

    def __eq__(self, other):
        return isinstance(other, GenericMode)

    def __hash__(self):
        return hash("generic-mode")


class RootMode(Mode):
    """Scalars live in Q(zeta_{4r}), a specialized to a primitive 4r-th root.
    There is one instance per r, so modes compare and hash by identity."""

    is_root = True

    @staticmethod
    @cache
    def __new__(cls, r: int):
        if r < 3:
            raise ValueError(f"root order r must be >= 3, got {r}")
        mode = object.__new__(cls)
        mode.r = r
        return mode

    def from_int(self, n: int):
        return _new(self, n, 1, _width(abs(n)), abs(n).bit_length())

    def a_power(self, e: int):
        return self._a_powers[e % (4 * self.r)]

    @cached_property
    def _field(self) -> "_Field":
        return _Field(self.r)

    @cached_property
    def _a_powers(self) -> tuple:
        one = self.one()
        return tuple(_shift(one, e) for e in range(4 * self.r))

    def __repr__(self):
        return f"root:{self.r}"

    __str__ = __repr__


GENERIC = GenericMode()
ScalarGeneric.mode = GENERIC    # every generic scalar is in Q(a)


# ---------------------------------------------------------------------------
# reduction mod p: a ring map phi from the field of a mode into F_p, defined
# on every scalar whose denominator it does not send to zero, for the rank
# certificate of linalg

MOD_PRIME = 4611686005030104001     # prime; 931170240 = lcm(4r : r = 3..20)
                                    # divides MOD_PRIME - 1
MOD_POINT = 2718281828459045235     # phi(a) in generic mode
_MOD_GENERATOR = 37                 # a primitive root mod MOD_PRIME


class _ModPowers(dict):
    # MOD_POINT^e mod MOD_PRIME by exponent, each computed once
    def __missing__(self, e):
        x = self[e] = pow(MOD_POINT, e, MOD_PRIME)
        return x


def mod_root(r: int) -> int | None:
    """phi(a) in root mode r: an element of order exactly 4r mod MOD_PRIME,
    so a root of Phi_{4r} there, or None when 4r does not divide
    MOD_PRIME - 1 and no such element exists."""
    if (MOD_PRIME - 1) % (4 * r):
        return None
    return pow(_MOD_GENERATOR, (MOD_PRIME - 1) // (4 * r), MOD_PRIME)


@cache
def mod_map(mode: Mode):
    """phi for the field of mode, as a function from its scalars to ints
    mod MOD_PRIME that raises PoleError where a denominator maps to zero;
    None for a root order r with no element of order 4r mod MOD_PRIME.
    Generic mode sends a to MOD_POINT by a cached power per exponent, root
    mode sends a to mod_root(r) by a table of its powers."""
    p = MOD_PRIME
    if mode.is_root:
        omega = mod_root(mode.r)
        if omega is None:
            return None
        table = [pow(omega, i, p) for i in range(4 * mode.r)]

        def phi(x):
            n = sum(c * w for c, w in zip(x.coeffs, table))
            if x.den != 1:
                if not x.den % p:
                    raise PoleError(f"denominator {x.den} vanishes mod p")
                n *= pow(x.den, -1, p)
            return n % p
        return phi
    powers = _ModPowers()

    def phi(x):
        n = sum(c * powers[e] for e, c in x.num.items())
        if x.den != _ONE:
            d = sum(c * powers[e] for e, c in x.den.items()) % p
            if not d:
                raise PoleError(f"denominator {format_laurent(x.den)} "
                                f"vanishes at a = {MOD_POINT} mod p")
            n *= pow(d, -1, p)
        return n % p
    return phi


def parse_mode(text: str) -> Mode:
    text = text.strip()
    if text == "generic":
        return GENERIC
    if text.startswith("root:"):
        try:
            r = int(text[5:])
        except ValueError:
            raise ValueError(f"bad mode {text!r}") from None
        return RootMode(r)
    raise ValueError(f"bad mode {text!r}: expected 'generic' or 'root:<r>'")


# ---------------------------------------------------------------------------
# text form: signed sums of c*a^e terms, rational functions as "num / den"

def format_laurent(f: Laurent) -> str:
    if not f:
        return "0"
    parts = []
    for e in sorted(f, reverse=True):
        c = f[e]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            var = "a" if e == 1 else f"a^{e}"
            body = var if c == 1 else f"{c}*{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def format_scalar(x) -> str:
    if isinstance(x, ScalarGeneric):
        if x.den == _ONE:
            return format_laurent(x.num)
        return f"{format_laurent(x.num)} / {format_laurent(x.den)}"
    if isinstance(x, ScalarCyclotomic):
        f = {e: c for e, c in enumerate(x.coeffs) if c}
        if x.den == 1:
            return format_laurent(f)
        return f"{format_laurent(f)} / {x.den}"
    raise TypeError(f"not a scalar: {x!r}")


def _coefficient(text: str) -> tuple:
    # an integer or p/q coefficient as (p, q), the forms format_laurent
    # writes: with no decimal point or exponent, its size is bounded by
    # its length
    m = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", text.strip())
    if m is None:
        raise ValueError(f"bad coefficient {text!r}")
    den = int(m[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return int(m[1]), den


def parse_laurent(text: str):
    """Parse a signed sum of ``c*a^e`` terms, each c an integer or p/q.

    Returns (laurent_with_integer_coeffs, common_denominator).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    # split into signed terms
    terms = []
    i = 0
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        i = 1
    cur = ""
    while i < len(text):
        ch = text[i]
        if ch in "+-" and cur.strip() and not cur.rstrip().endswith(("^", "*", "/")):
            terms.append((sign, cur.strip()))
            sign = -1 if ch == "-" else 1
            cur = ""
        else:
            cur += ch
        i += 1
    if not cur.strip():
        raise ValueError(f"dangling sign in {text!r}")
    terms.append((sign, cur.strip()))

    parts = []  # (numerator, denominator, exponent)
    for sign, t in terms:
        num, den, expo = sign, 1, 0
        if "*" in t:
            cs, vs = t.split("*", 1)
            p, q = _coefficient(cs)
            num, den = num * p, den * q
            t = vs.strip()
        if t.startswith("a"):
            rest = t[1:]
            if rest == "":
                expo = 1
            elif rest.startswith("^"):
                expo = int(rest[1:])
            else:
                raise ValueError(f"bad term {t!r}")
        elif t:
            p, q = _coefficient(t)
            num, den = num * p, den * q
        parts.append((num, den, expo))

    den = lcm(*(q for _, q, _ in parts))
    out: Laurent = {}
    for p, q, e in parts:
        v = out.get(e, 0) + p * (den // q)
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out, den


def parse_scalar(text: str) -> ScalarGeneric:
    """Parse ``num`` or ``num / den`` in the Laurent text form."""
    if " / " in text:
        ns, ds = text.split(" / ", 1)
        n, nden = parse_laurent(ns)
        d, dden = parse_laurent(ds)
        return ScalarGeneric(_lscale(n, dden), _lscale(d, nden))
    n, nden = parse_laurent(text)
    return ScalarGeneric(n, {0: nden})
