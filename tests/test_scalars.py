import ast
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (_cyclo_reduce, dense_poly_divexact, dense_poly_gcd,
                     list_contract, pairwise_add, pairwise_mul,
                     pairwise_row_update, pairwise_truediv, xgcd_inverse)
from skeinrep import scalars
from skeinrep.linalg import vec_sub_scaled
from skeinrep.cli import MAX_ROOT
from skeinrep.scalars import (GENERIC, MOD_POINT, MOD_PRIME,
                              _MOD_GENERATOR, PoleError, RootMode,
                              ScalarCyclotomic, ScalarGeneric, _accumulate,
                              _contract, _gcd_cofactors, _inverse, _lcm_step,
                              _list_divexact, _lmul, _lscale, _lshift, _pack,
                              _poly_divexact, _reduce, _width,
                              clear_denominators,
                              cyclotomic_poly, format_scalar, mod_map,
                              mod_root, parse_mode, parse_scalar, specialize,
                              times_a_power)


def test_generic_ring_relations():
    a = ScalarGeneric.a_power(1)
    one = ScalarGeneric.from_int(1)
    assert a * a.inv() == one
    assert (a + a.inv()) ** 2 == a ** 2 + ScalarGeneric.from_int(2) + a ** -2
    assert a - a == ScalarGeneric.from_int(0)
    assert (a ** 3).is_zero() is False
    assert ScalarGeneric.from_int(0).is_zero()
    assert one.is_one()
    # int on either side of -, / and the ** identities
    x = (a + 2) / (a ** 2 + 3)
    assert (1 - x) + x == one
    assert (x - 1) + 1 == x
    assert (2 / x) * x == 2
    assert x ** -3 * (x * x * x) == one
    assert x ** 0 == one


def test_operators_refuse_other_types():
    g = ScalarGeneric.a_power(1) + 1
    for x in (g, ScalarCyclotomic.a_power(1, 5) + 1):
        with pytest.raises(TypeError):
            x - 1.5
        with pytest.raises(TypeError):
            1.5 / x
    with pytest.raises(TypeError):
        g - ScalarCyclotomic.from_int(1, 5)
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        ScalarCyclotomic.a_power(1, 5) - ScalarCyclotomic.a_power(1, 7)


def test_generic_fraction_canonical():
    a = ScalarGeneric.a_power(1)
    one = ScalarGeneric.from_int(1)
    # (a^2 - 1)/(a - 1) reduces to a + 1
    x = (a ** 2 - one) / (a - one)
    assert x == a + one
    # different constructions of the same fraction compare equal
    y = (a + one) * (a - one) / (a - one)
    assert x == y
    assert hash(x) == hash(y)


def test_generic_division_by_zero():
    a = ScalarGeneric.a_power(1)
    with pytest.raises(ZeroDivisionError):
        a / ScalarGeneric.from_int(0)


def test_quantum_integers_generic():
    m = GENERIC
    assert m.quantum_int(1) == m.one()
    assert m.quantum_int(2) == m.a_power(2) + m.a_power(-2)
    assert m.quantum_int(3) == m.a_power(4) + m.one() + m.a_power(-4)
    # [n][2] = [n+1] + [n-1]
    for n in range(1, 8):
        assert (m.quantum_int(n) * m.quantum_int(2)
                == m.quantum_int(n + 1) + m.quantum_int(n - 1))
    assert m.delta() == -m.quantum_int(2)
    assert m.quantum_factorial(3) == m.quantum_int(1) * m.quantum_int(2) * m.quantum_int(3)


def test_format_parse_round_trip():
    m = GENERIC
    samples = [
        m.one(),
        -m.a_power(2) - m.a_power(-2),
        m.quantum_int(3) / m.quantum_int(2),
        m.a_power(7) - m.from_int(5) + m.a_power(-3),
        m.zero(),
        (m.a_power(2) + m.one()) / (m.a_power(4) - m.a_power(-4)),
    ]
    for x in samples:
        assert parse_scalar(format_scalar(x)) == x
    assert format_scalar(-m.a_power(2) - m.a_power(-2)) == "-a^2 - a^-2"
    assert format_scalar(m.zero()) == "0"
    assert format_scalar(m.one()) == "1"


def test_parse_scalar_rejects_garbage():
    for bad in ("", "a^", "2a", "a**2", "1 +", "a^2 / ", "x + 1", "1e3",
                "0.5*a", "1/0"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]
    assert cyclotomic_poly(20) == [1, 0, -1, 0, 1, 0, -1, 0, 1]


def test_root_mode_basics():
    for r in (3, 4, 5):
        m = RootMode(r)
        a = m.a_power(1)
        assert a ** (4 * r) == m.one()
        assert a ** (4 * r - 1) == a.inv()
        # a is a primitive 4r-th root, so no smaller power is 1
        assert all((a ** k) != m.one() for k in range(1, 4 * r))
        assert m.quantum_int(r).is_zero()
        assert m.quantum_int(2 * r).is_zero()
        for n in range(1, 2 * r):
            if n % r:
                assert not m.quantum_int(n).is_zero()


def test_root_division_and_poles():
    m = RootMode(5)
    x = m.quantum_int(3)
    assert x / x == m.one()
    assert x * x.inv() == m.one()
    with pytest.raises(ZeroDivisionError):
        x / m.zero()


def test_specialize_matches_root_arithmetic():
    for r in (3, 4, 5):
        m = RootMode(r)
        g = GENERIC
        samples = [
            g.quantum_int(2),
            g.quantum_int(r - 1),
            g.a_power(3) - g.from_int(2),
            g.quantum_int(r + 1) / g.quantum_int(1),
        ]
        direct = [
            m.quantum_int(2),
            m.quantum_int(r - 1),
            m.a_power(3) - m.from_int(2),
            m.quantum_int(r + 1),
        ]
        for x, y in zip(samples, direct):
            assert specialize(x, r) == y


def test_specialize_pole_detection():
    g = GENERIC
    x = g.one() / g.quantum_int(3)
    with pytest.raises(PoleError):
        specialize(x, 3)
    # [6]/[3] = q^3 + q^-3 survives specialization at r = 3, where it is -2
    y = g.quantum_int(6) / g.quantum_int(3)
    assert y == g.a_power(6) + g.a_power(-6)
    assert specialize(y, 3) == RootMode(3).from_int(-2)


def test_parse_mode():
    assert parse_mode("generic") == GENERIC
    assert parse_mode("root:5") == RootMode(5)
    assert str(parse_mode("root:5")) == "root:5"
    assert str(GENERIC) == "generic"
    for bad in ("root:2", "root:x", "weird", "root:"):
        with pytest.raises(ValueError):
            parse_mode(bad)


def test_mode_equality_and_hash():
    assert RootMode(5) == RootMode(5)
    assert RootMode(5) != RootMode(7)
    assert GENERIC != RootMode(5)
    assert len({GENERIC, RootMode(5), RootMode(5), RootMode(7)}) == 3


def test_cyclotomic_format_parse():
    m = RootMode(5)
    x = m.a_power(3) - m.from_int(2) + m.a_power(-1)
    # root-mode values format as reduced polynomials; re-specializing the
    # parsed generic form recovers the value
    assert specialize(parse_scalar(format_scalar(x)), 5) == x
    assert isinstance(x, ScalarCyclotomic)


# ---------------------------------------------------------------------------
# the cyclotomic core: packed reduction, canonical form, contraction kernel

def _deg(r):
    return len(cyclotomic_poly(4 * r)) - 1


# coefficients and denominators on both sides of every slot width up to
# 512 bits: small ones, ones near 2^64 and ones up to 2^300
_COEFF = st.one_of(st.integers(-40, 40), st.integers(-2 ** 70, 2 ** 70),
                   st.integers(-2 ** 300, 2 ** 300))
_DEN = st.one_of(st.integers(-12, 12), st.integers(-2 ** 70, 2 ** 70)) \
    .filter(bool)


def _cyclo(r):
    # any integer list over any nonzero integer, reduced by the constructor
    return st.builds(lambda cs, den: ScalarCyclotomic(RootMode(r), cs, den),
                     st.lists(_COEFF, max_size=2 * _deg(r) + 3), _DEN)


def _assert_canonical(z, r):
    assert z.r == r
    assert not z.coeffs or z.coeffs[-1] != 0
    assert len(z.coeffs) <= _deg(r)
    assert z.den > 0
    assert z.coeffs or z.den == 1
    g = z.den
    for c in z.coeffs:
        g = gcd(g, c)
    assert g == 1
    # one packed int at the narrowest width that holds it, within its bound
    top = max(map(abs, z.coeffs), default=0)
    assert z.width == _width(top) and z.packed == _pack(z.coeffs, z.width)
    assert top <= 2 ** z.bits


# r = 15 is the one order up to 20 whose reduction takes several a^n steps
@pytest.mark.parametrize("r", [*range(3, 9), 15, 19, 20])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cyclo_reduce_matches_sympy_remainder(r, data):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.cyclotomic_poly(4 * r, x)
    assert sympy.Poly(phi, x).all_coeffs()[::-1] == cyclotomic_poly(4 * r)
    cs = data.draw(st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                                      _COEFF),
                            min_size=2 * _deg(r) + 1, max_size=10 * r))
    rem = sympy.rem(sum(c * x ** e for e, c in enumerate(cs)), phi, x)
    want = [int(c) for c in sympy.Poly(rem, x).all_coeffs()[::-1]]
    while want and want[-1] == 0:
        want.pop()
    assert _cyclo_reduce(list(cs), r) == want
    # the packed reduction: through the constructor, which folds by a^(4r)
    # = 1 first, and straight on the slots below 4r, at the narrowest width
    # the bound admits and at one twice as wide
    assert list(ScalarCyclotomic(RootMode(r), cs).coeffs) == want
    low = cs[:4 * r - 1]
    rem = sympy.rem(sum(c * x ** e for e, c in enumerate(low)), phi, x)
    want = [int(c) for c in sympy.Poly(rem, x).all_coeffs()[::-1]]
    f = RootMode(r)._field
    w = _width(max(map(abs, low)) * f.growth)
    for w in (w, 2 * w):
        got = _reduce(_pack(low, w), f[w])
        assert got == _pack(want, w)


def _reduction_rows(r):
    # each step of the reduction on slots below 4r as a linear map of them:
    # a^(2r) = -1, then a^n = -tail while a slot at or past n is nonzero
    f = RootMode(r)._field
    unit = [[int(i == j) for j in range(4 * r)] for i in range(4 * r)]
    rows = [[a - b for a, b in zip(unit[i], unit[i + f.half])]
            for i in range(f.half)]
    steps = [rows]
    while any(map(any, rows[f.n:])):
        high, rows = rows[f.n:], rows[:f.n] + [[0] * (4 * r)] * len(rows)
        for j, row in enumerate(high):
            for k, t in enumerate(f.tail):
                rows[j + k] = [a - t * b for a, b in zip(rows[j + k], row)]
        while not any(rows[-1]):
            rows.pop()
        steps.append(rows)
    return steps


@pytest.mark.parametrize("r", [*range(3, 9), 15, 19, 20])
def test_reduction_growth_bounds_every_step(r):
    # growth bounds every slot of every step over inputs in [-1, 1]: the
    # largest l1 norm of a row of a step's map.  The input signed like that
    # row, each slot as large as width 64 admits, reduces exactly there.
    mode, f = RootMode(r), RootMode(r)._field
    norm, row = max((sum(map(abs, row)), row)
                    for rows in _reduction_rows(r) for row in rows)
    assert norm <= f.growth
    limit = ((1 << 63) - 1) // f.growth     # bound * growth < 2^63
    cs = [limit * ((c > 0) - (c < 0)) for c in row]
    z = ScalarCyclotomic(mode, cs)
    assert z.width == 64 and list(z.coeffs) == _cyclo_reduce(cs, r)


@pytest.mark.parametrize("r", range(3, 9))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cyclotomic_arithmetic_stays_canonical(r, data):
    x = data.draw(_cyclo(r))
    y = data.draw(_cyclo(r))
    for z in (x, y, x * y, x + y, x - y, 1 - x, x - 1, x ** 0):
        _assert_canonical(z, r)
    assert (1 - x) + x == 1 and (x - 1) + 1 == x
    assert x ** 0 == 1
    if not y.is_zero():
        q = x * y.inv()
        _assert_canonical(q, r)
        assert q * y == x
        for z in (2 / y, y ** -3):
            _assert_canonical(z, r)
        assert (2 / y) * y == 2
        assert y ** -3 * (y * y * y) == 1


# generic draws: Laurent numerators over a few shared denominators, so a
# sum mixes equal, coprime and overlapping denominators
_DENS = [{0: 1}, {0: 3}, {0: 1, 2: 1}, {0: 1, 2: 1, 4: 1}, {0: -1, 2: 1},
         {0: 2, 1: 2}, {0: 1, 1: -2, 2: 1}]


def _generic():
    nums = st.dictionaries(st.integers(-4, 4), st.integers(-6, 6).filter(bool),
                           max_size=4)
    return st.builds(lambda num, den, e: ScalarGeneric(num, _lshift(den, e)),
                     nums, st.sampled_from(_DENS), st.integers(0, 2))


def _to_sympy(z, a):
    if isinstance(z, ScalarGeneric):
        return (sum(c * a ** e for e, c in z.num.items())
                / sum(c * a ** e for e, c in z.den.items()))
    # start from sympy's zero: an empty residue would give 0 / den, a float
    return sum((c * a ** e for e, c in enumerate(z.coeffs)), 0 * a) / z.den


def _assert_generic_canonical(z, sympy, a):
    assert min(z.den) == 0
    assert z.den[max(z.den)] > 0
    if z.num:
        shift = min(z.num)
        num = sum(c * a ** (e - shift) for e, c in z.num.items())
        den = sum(c * a ** e for e, c in z.den.items())
        # over Z[a], so integer content counts
        assert sympy.gcd(num, den) == 1
    else:
        assert z.den == {0: 1}


# the kernel's modes: r = 19 and 20 have the largest degrees admitted, and
# r = 15 the most steps of reduction
_KERNEL_MODES = [GENERIC] + [RootMode(r) for r in (*range(3, 9), 15, 19,
                                                   20)]


@pytest.mark.parametrize("mode", _KERNEL_MODES,
                         ids=lambda m: str(m.r) if m.is_root else "generic")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_contraction_kernel_matches_pairwise_sum(mode, data):
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    draw = _cyclo(mode.r) if mode.is_root else _generic()
    pairs = data.draw(st.lists(st.tuples(draw, draw), max_size=8))
    if data.draw(st.booleans()):
        # the negated copy cancels the whole sum
        pairs += [(-x, y) for x, y in pairs]
    pairs = data.draw(st.permutations(pairs))
    assert _contract([], mode) == mode.zero()
    want = mode.zero()
    for x, y in pairs:
        want = want + x * y
    got = _contract(pairs, mode)
    total = _contract([(x, mode.one()) for x, _ in pairs], mode)
    assert got == want
    assert total == sum((x for x, _ in pairs), mode.zero())
    if mode.is_root:
        _assert_canonical(got, mode.r)
        _assert_canonical(total, mode.r)
        assert (got.coeffs, got.den) == list_contract(pairs, mode.r)
        phi = sympy.cyclotomic_poly(4 * mode.r, a)
        expect = sympy.rem(sympy.expand(sum(_to_sympy(x, a) * _to_sympy(y, a)
                                            for x, y in pairs)), phi, a)
        assert sympy.expand(_to_sympy(got, a) - expect) == 0
        return
    _assert_generic_canonical(got, sympy, a)
    _assert_generic_canonical(total, sympy, a)
    expect = sympy.cancel(sum((_to_sympy(x, a) * _to_sympy(y, a)
                               for x, y in pairs), sympy.Integer(0)))
    assert sympy.cancel(_to_sympy(got, a) - expect) == 0
    expect = sympy.cancel(sum((_to_sympy(x, a) for x, _ in pairs),
                              sympy.Integer(0)))
    assert sympy.cancel(_to_sympy(total, a) - expect) == 0


@pytest.mark.parametrize("mode", _KERNEL_MODES,
                         ids=lambda m: str(m.r) if m.is_root else "generic")
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_times_a_power_matches_multiply(mode, data):
    # the draws include non-unit denominators; e spans several periods 4r
    x = data.draw(_cyclo(mode.r) if mode.is_root else _generic())
    e = data.draw(st.integers(-100, 100))
    got = times_a_power(x, e)
    assert got == mode.a_power(e) * x
    if mode.is_root:
        _assert_canonical(got, mode.r)
    else:
        assert got.den == x.den


@pytest.mark.parametrize("mode", [GENERIC] + [RootMode(r) for r in range(3, 9)],
                         ids=lambda m: str(m.r) if m.is_root else "generic")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_times_a_power_of_a_zero_shift_is_x_itself(mode, data):
    # a^0 = 1, and a^(4r) = 1 at a root of order r: no new scalar is built
    x = data.draw(_cyclo(mode.r) if mode.is_root else _generic())
    assert times_a_power(x, 0) is x
    if mode.is_root:
        r = mode.r
        assert times_a_power(x, 4 * r) is x
        assert times_a_power(x, -8 * r) is x


# ---------------------------------------------------------------------------
# the kernel route: every operator and the row update go through _contract,
# checked against the pairwise per-field bodies in oracles.py

_MODES = [GENERIC] + [RootMode(r) for r in range(3, 9)]


def _draw_scalar(mode):
    return _cyclo(mode.r) if mode.is_root else _generic()


def _assert_field_canonical(z, mode, sympy, a):
    assert z.mode is mode
    if mode.is_root:
        _assert_canonical(z, mode.r)
    else:
        _assert_generic_canonical(z, sympy, a)


def _same_form(got, want):
    # equal as values and in representation: scalars compare structurally
    assert type(got) is type(want) and got == want
    if isinstance(got, ScalarGeneric):
        assert (got.num, got.den) == (want.num, want.den)
    else:
        assert (got.coeffs, got.den) == (want.coeffs, want.den)
        assert (got.packed, got.width) == (want.packed, want.width)


@pytest.mark.parametrize("mode", _KERNEL_MODES, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_operators_match_pairwise_oracles(mode, data):
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    x = data.draw(_draw_scalar(mode))
    y = data.draw(st.one_of(_draw_scalar(mode), st.just(mode.zero()),
                            st.just(x), st.just(-x)))
    n = data.draw(st.integers(-5, 5))
    cases = [(x + y, pairwise_add(x, y)), (y + x, pairwise_add(y, x)),
             (x - y, pairwise_add(x, -y)), (x * y, pairwise_mul(x, y)),
             (x + n, pairwise_add(x, n)), (n + x, pairwise_add(n, x)),
             (x - n, pairwise_add(x, -n)), (n - x, pairwise_add(n, -x)),
             (x * n, pairwise_mul(x, n)), (n * x, pairwise_mul(n, x))]
    for div, num in ((x, y), (x, n), (n, x)):
        den = num if not isinstance(num, int) else mode.from_int(num)
        if den.is_zero():
            with pytest.raises(ZeroDivisionError):
                div / num
            with pytest.raises(ZeroDivisionError):
                pairwise_truediv(div, num)
        elif not mode.is_root or (mode.r <= 8 and den.bits <= 64):
            cases.append((div / num, pairwise_truediv(div, num)))
        else:
            # the Euclid oracle over Fraction polynomials takes seconds on
            # such divisors (12 s for 70-bit slots at r = 19); a canonical
            # quotient whose pairwise product with num is div is div / num
            got = div / num
            _assert_field_canonical(got, mode, sympy, a)
            cases.append((pairwise_mul(got, num), div if isinstance(
                div, ScalarCyclotomic) else mode.from_int(div)))
    for got, want in cases:
        _same_form(got, want)
        _assert_field_canonical(got, mode, sympy, a)


@settings(max_examples=100, deadline=None)
@given(x=_generic())
def test_generic_inv_swaps_num_and_den(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inv()
        return
    _same_form(x.inv(), ScalarGeneric(x.den, x.num))
    assert x.inv().mode is GENERIC


@st.composite
def _invertible_candidate(draw, r):
    # units +-a^e, quantum integers [k] with k < r, Phi_m(a) for m a proper
    # divisor of 4r (zero at a = zeta^(4r/m), a root no Galois conjugate
    # reaches), or a dense residue over a denominator > 1 (zero only when
    # every coefficient is)
    mode = RootMode(r)
    kind = draw(st.sampled_from(["unit", "quantum", "factor", "dense"]))
    if kind == "unit":
        return mode.a_power(draw(st.integers(-4 * r, 4 * r))) \
            * draw(st.sampled_from([1, -1]))
    if kind == "quantum":
        return mode.quantum_int(draw(st.integers(1, r - 1)))
    if kind == "factor":
        m = draw(st.sampled_from([m for m in range(1, 4 * r) if 4 * r % m == 0]))
        return ScalarCyclotomic(mode, cyclotomic_poly(m))
    cs = draw(st.lists(st.integers(-40, 40), min_size=_deg(r),
                       max_size=_deg(r)))
    return ScalarCyclotomic(mode, cs, draw(st.integers(2, 12)))


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8, 19, 20])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cyclotomic_inv_matches_euclid_oracle(r, data):
    x = data.draw(_invertible_candidate(r))
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inv()
        return
    _same_form(x.inv(), xgcd_inverse(x))
    assert (x * x.inv()).is_one()


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8, 19, 20])
def test_cyclotomic_inv_of_every_cyclotomic_factor(r):
    # Phi_m(a) vanishes at a = zeta^(4r/m); an inverse that also took the
    # maps a -> a^k with k not prime to 4r would divide by zero here
    mode = RootMode(r)
    for m in range(1, 4 * r):
        if 4 * r % m == 0:
            x = ScalarCyclotomic(mode, cyclotomic_poly(m))
            _same_form(x.inv(), xgcd_inverse(x))


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8, 19, 20])
def test_cyclotomic_inv_of_zero_raises(r):
    with pytest.raises(ZeroDivisionError):
        RootMode(r).zero().inv()
    with pytest.raises(ZeroDivisionError):
        xgcd_inverse(RootMode(r).zero())


@pytest.mark.parametrize("r", [3, 5, 19, 20])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_repeated_inverses_match_euclid_oracle(r, data):
    # inverses are memoized by value: equal values built apart, and the
    # same value asked again, give the Euclid oracle's inverse each time
    x = data.draw(_invertible_candidate(r))
    if x.is_zero():
        return
    twin = ScalarCyclotomic(RootMode(r), x.coeffs, x.den)
    assert twin == x and twin is not x
    want = xgcd_inverse(x)
    for z in (x, twin, x, twin):
        _same_form(z.inv(), want)
    assert x.inv() is twin.inv()
    _same_form(_inverse.__wrapped__(x), want)


@pytest.mark.parametrize("r", [3, 5, 19, 20])
@pytest.mark.parametrize("k", [1, 63, 64, 200])
def test_wide_intermediates_give_the_narrow_value(r, k):
    # a value taken through slots wider than it needs comes back at the
    # narrowest width: equal, equally hashed and packed alike
    mode = RootMode(r)
    x = mode.a_power(3) - 2 + mode.a_power(-1) / 3
    for z in ((x * 2 ** k) / 2 ** k, (x * 2 ** k - x * (2 ** k - 1)),
              times_a_power(times_a_power(x * 2 ** k, 5), -5) / 2 ** k,
              clear_denominators([x, mode.one() / 2 ** k], mode)[0] / (3 << k)):
        assert z == x and hash(z) == hash(x)
        assert (z.packed, z.den, z.width) == (x.packed, x.den, x.width)
        _assert_canonical(z, r)
    wide = x * 2 ** k
    _assert_canonical(wide, r)
    assert wide.width == _width(max(abs(c) for c in wide.coeffs))


def _kernel_branch(pairs, f):
    # the widest operand width, and where the sum's slots first pass width
    # 64: 0 nowhere, 1 in the reduction (one pass, reduced wider), 2 in
    # the products (a second pass)
    _, _, bound, widest = _accumulate(pairs, f.n, 64)
    return widest, (bound >> 63 > 0) + (bound * f.growth >> 63 > 0)


def _kernel_pairs(mode, case):
    # (pairs, branch): deterministic pairs for one branch of the root
    # kernel.  On width 64 every operand has all its coefficients 2^b - 1,
    # so the sum nears its bound, with product bits s: the largest s that
    # keeps to the branch, or the least that passes 64 bits in the sum
    f = mode._field

    def z(bits, den=1, shift=0):
        return ScalarCyclotomic(mode, [0] * shift + [(1 << bits) - 1] * f.n,
                                den)

    def near(s):
        return [(z(s // 2), z(s - s // 2)), (z(s // 2), z(s - 1 - s // 2))]
    if case.startswith("width 64"):
        branch = (64, ["bound fits", "reduced wider", "summed wider"].index(
            case[len("width 64, "):]))
        reach = [s for s in range(2, 64)
                 if _kernel_branch(near(s), f) == branch]
        return near(min(reach) if branch[1] == 2 else max(reach)), branch
    if case == "one at 128":
        pairs = [(z(2), z(3, shift=1)), (z(100), z(5)), (z(6), z(1))]
    else:
        pairs = [(z(2, 3), z(3, shift=1)), (z(5, 7), z(100, 5, shift=2)),
                 (z(6), z(1, 9))]
    return pairs, (128, 2)


@pytest.mark.parametrize("r", [5, 19])
@pytest.mark.parametrize("case", ["width 64, bound fits",
                                  "width 64, reduced wider",
                                  "width 64, summed wider", "one at 128",
                                  "mixed denominators"])
def test_each_branch_of_the_root_kernel(r, case):
    # one pass at width 64, reduced there or, when the bound passes 64 bits
    # only through the reduction, spread wider by _finish; or a second pass
    # at the width the bound fits when an operand or a product is wider.
    # In both orders of the pairs, against the coefficient-list oracle, at
    # the narrowest width; a result past 64 bits shows that the wider slots
    # were needed
    mode = RootMode(r)
    pairs, branch = _kernel_pairs(mode, case)
    for order in (pairs, pairs[::-1]):
        assert _kernel_branch(order, mode._field) == branch
        got = _contract(order, mode)
        assert (got.coeffs, got.den) == list_contract(order, r)
        _assert_canonical(got, r)
        assert (got.width > 64) == (branch != (64, 0))


@pytest.mark.parametrize("r", [3, 5, 19, 20])
def test_root_product_by_one_is_the_other_factor(r):
    # a single pair with a factor 1 / 1 returns the other factor itself, at
    # either width, over den 1 or more, and for zero; the value is the
    # coefficient-list oracle's
    mode = RootMode(r)
    one = mode.one()
    xs = [mode.zero()]
    for bits in (20, 100):
        x = ScalarCyclotomic(mode, [(1 << bits) - 7, 0, -3, 1 << bits // 2])
        xs += [x, x / 15]
    assert {x.width for x in xs} == {64, 128}
    assert {x.den > 1 for x in xs} == {False, True}
    for x in xs:
        for pairs in (((one, x),), ((x, one),)):
            got = _contract(pairs, mode)
            assert got is x
            assert (got.coeffs, got.den) == list_contract(pairs, r)


@pytest.mark.parametrize("mode", [GENERIC, RootMode(5), RootMode(19)],
                         ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_clear_denominators_multiplies_by_the_lcm(mode, data):
    # each value times the lcm of the denominators, a product through
    # _contract, has denominator 1 and equals the pairwise product
    values = data.draw(st.lists(_draw_scalar(mode), max_size=6))
    got = clear_denominators(values, mode)
    if mode.is_root:
        m = mode.from_int(lcm(1, *(v.den for v in values)))
    else:
        den = {0: 1}
        for v in values:
            den = dense_poly_divexact(_lmul(den, v.den),
                                      dense_poly_gcd(den, v.den))
        m = ScalarGeneric.from_laurent(den)
    assert len(got) == len(values)
    for v, c in zip(values, got):
        assert c.den == mode.one().den
        _same_form(c, pairwise_mul(v, m))


def test_mixed_root_orders_refused_by_every_operator():
    x, y = RootMode(5).a_power(1), RootMode(7).a_power(1)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
               lambda: y + x, lambda: y / x):
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            op()


def test_scalars_know_their_field():
    g = ScalarGeneric.a_power(1) + 1
    assert g.mode is GENERIC and (g / 3).mode is GENERIC
    assert GENERIC.one().mode is GENERIC
    for r in range(3, 9):
        mode = RootMode(r)
        assert mode is RootMode(r) and parse_mode(f"root:{r}") is mode
        x = ScalarCyclotomic.a_power(1, r) + 1
        for z in (x, x * x, x - 2, 1 / x, -x, x.inv(), mode.zero(),
                  ScalarCyclotomic.from_int(3, r), specialize(g, r),
                  times_a_power(x, 3)):
            assert z.mode is mode and z.r == r
    assert RootMode(5) is not RootMode(7)
    with pytest.raises(ValueError):
        RootMode(2)


@settings(max_examples=50, deadline=None)
@given(dens=st.lists(st.sampled_from(_DENS), max_size=6))
def test_lcm_step_gives_the_least_common_multiple(dens):
    den, folded, want = {0: 1}, [], {0: 1}
    for d in dens:
        grow = _lcm_step(den, d, folded)
        if grow is not None:
            den = _lmul(den, grow)
        want = dense_poly_divexact(_lmul(want, d), dense_poly_gcd(want, d))
    assert den == want
    # so clear_denominators scales by the lcm itself, not a multiple of it
    values = [ScalarGeneric({0: 1}, d) for d in dens]
    assert clear_denominators(values, GENERIC) == \
        [ScalarGeneric.from_laurent(_poly_divexact(want, d)) for d in dens]


@pytest.mark.parametrize("mode", _MODES, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_row_update_matches_pairwise_oracle(mode, data):
    cols = st.integers(0, 5)
    u = data.draw(st.dictionaries(cols, _draw_scalar(mode), max_size=4))
    v = data.draw(st.dictionaries(cols, _draw_scalar(mode), max_size=4))
    u = {j: s for j, s in u.items() if not s.is_zero()}
    v = {j: s for j, s in v.items() if not s.is_zero()}
    c = data.draw(_draw_scalar(mode).filter(lambda s: not s.is_zero()))
    if data.draw(st.booleans()):
        # u = c*v on the shared columns, so those entries cancel
        u.update(pairwise_row_update({}, v, -c))
    got = vec_sub_scaled(u, v, c)
    want = pairwise_row_update(u, v, c)
    assert got.keys() == want.keys()
    for j in got:
        _same_form(got[j], want[j])
        assert got[j].mode is mode


# ---------------------------------------------------------------------------
# polynomials in a power of a, and sums over shared factors

def _poly(max_deg):
    return st.lists(st.integers(-4, 4), min_size=1, max_size=max_deg + 1) \
        .map(lambda cs: {e: c for e, c in enumerate(cs) if c}).filter(bool)


@settings(max_examples=100, deadline=None)
@given(f=_poly(4), g=_poly(4), common=_poly(3), s=st.integers(1, 4),
       shift=st.integers(0, 1))
def test_strided_gcd_matches_dense_route_and_sympy(f, g, common, s, shift):
    # f and g share the factor common; in a^s they share it stretched
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    f = {e * s + shift: c for e, c in _lmul(f, common).items()}
    g = {e * s: c for e, c in _lmul(g, common).items()}
    got, *cofactors = _gcd_cofactors(f, g)
    assert got == dense_poly_gcd(f, g)
    want = sympy.Poly(sympy.gcd(sum(c * a ** e for e, c in f.items()),
                                sum(c * a ** e for e, c in g.items())), a)
    assert got == {m[0]: int(c) for m, c in want.terms()}
    for h, co in zip((f, g), cofactors):
        assert co == _poly_divexact(h, got) == dense_poly_divexact(h, got)
        assert _lmul(co, got) == h


def _cyclotomic_product(ms, s):
    # prod of Phi_m(a^s) over ms
    out = {0: 1}
    for m in ms:
        out = _lmul(out, {e * s: c for e, c in
                          enumerate(cyclotomic_poly(m)) if c})
    return out


@st.composite
def _gcd_operand_pair(draw):
    # two polynomials in a^s that share a factor, each with its own content
    # and sign: small dense ones, constants among them, or products of
    # Phi_m(a^2) as the workloads' denominators are
    if draw(st.booleans()):
        f, g, common = draw(_poly(4)), draw(_poly(4)), draw(_poly(3))
        s = draw(st.integers(1, 4))
        f, g = ({e * s: c for e, c in _lmul(h, common).items()}
                for h in (f, g))
    else:
        cyclos = st.lists(st.integers(1, 12), max_size=4)
        f, g, common = draw(cyclos), draw(cyclos), draw(cyclos)
        f, g = (_cyclotomic_product(common + m, 2) for m in (f, g))
    contents = st.integers(-12, 12).filter(bool)
    return (_lscale(f, draw(contents)), _lscale(g, draw(contents)))


@settings(max_examples=200, deadline=None)
@given(pair=_gcd_operand_pair())
def test_gcd_cofactors_match_dense_oracle_and_sympy(pair):
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    f, g = pair
    h, cf, cg = _gcd_cofactors(f, g)
    assert h == dense_poly_gcd(f, g)
    assert h[max(h)] > 0
    assert cf == dense_poly_divexact(f, h)
    assert cg == dense_poly_divexact(g, h)
    want = sympy.Poly(sympy.gcd(sum(c * a ** e for e, c in f.items()),
                                sum(c * a ** e for e, c in g.items())), a)
    assert h == {m[0]: int(c) for m, c in want.terms()}


@pytest.mark.parametrize("common", [{0: 1}, {0: 1, 1: 1}],
                         ids=["coprime", "shared"])
def test_gcd_cofactors_grow_the_evaluation_point(monkeypatch, common):
    # two quadratics (times common) whose values at the first evaluation
    # point share a factor they do not share as polynomials (a^2 - a + 2
    # and a^2 - 3a - 1 share 23 at a = 33, which rebuilds a - 10): the
    # rebuilt candidate divides neither, and the point must grow
    inexact = []

    def spy(f, g):
        try:
            return _list_divexact(f, g)
        except ArithmeticError:
            inexact.append((f, g))
            raise

    monkeypatch.setattr(scalars, "_list_divexact", spy)
    quadratics = [_lmul({e: c for e, c in enumerate((c0, b, 1)) if c},
                        common)
                  for b in range(-3, 4) for c0 in range(-3, 4) if c0]
    for f, g in ((f, g) for f in quadratics for g in quadratics):
        got = _gcd_cofactors(f, g)
        if inexact:
            break
    assert inexact, "no quadratic pair reached the growth branch"
    assert got == (dense_poly_gcd(f, g), dense_poly_divexact(f, got[0]),
                   dense_poly_divexact(g, got[0]))


@pytest.mark.parametrize("with_den", [False, True])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_unit_products_skip_the_gcd(with_den, data):
    # x * (+-a^e) and (+-a^e) * x equal the pairwise product and never
    # call the gcd
    if with_den:
        x = data.draw(_generic().filter(lambda z: z.den != {0: 1}))
    else:
        x = ScalarGeneric.from_laurent(data.draw(
            st.dictionaries(st.integers(-4, 4),
                            st.integers(-6, 6).filter(bool), max_size=4)))
    u = ScalarGeneric({data.draw(st.integers(-5, 5)):
                       data.draw(st.sampled_from([1, -1]))}, {0: 1})
    want = pairwise_mul(x, u)

    def no_gcd(f, g):
        raise AssertionError("a unit product ran a gcd")

    with mock.patch.object(scalars, "_gcd_cofactors", no_gcd):
        for pairs in (((x, u),), ((u, x),)):
            _same_form(_contract(pairs, GENERIC), want)


def test_strided_division_refuses_an_inexact_quotient():
    with pytest.raises(ArithmeticError):
        _poly_divexact({0: 1, 8: 1}, {0: 1, 4: -1})


def _quantum_dens():
    # a^(2n - 2) [n] for n = 2..5, prime to each other exactly when the n
    # share no factor, and the integer 3
    q = [_lshift(f, -min(f)) for f in
         (GENERIC.quantum_int(n).num for n in range(2, 6))]
    return q + [{0: 3}]


@pytest.mark.parametrize("terms", [
    # [2] | both denominators, and [5] + [3] = 0 modulo [2] (q^2 = -1)
    [({0: 1}, (0, 1)), ({4: 1}, (0, 3))],
    # one repeated denominator that the numerators' sum cancels
    [({0: 1}, (0,)), ({4: 1}, (0,))],
    # a third term prime to the first two does not hide their cancellation
    [({0: 1}, (0, 1)), ({4: 1}, (0, 3)), ({0: 1}, (4,))]])
def test_sums_over_shared_factors_are_cancelled(terms):
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")
    dens = _quantum_dens()
    xs = []
    for num, factors in terms:
        den = {0: 1}
        for i in factors:
            den = _lmul(den, dens[i])
        xs.append(ScalarGeneric(num, den))
    one = GENERIC.signs[0]
    got = _contract([(x, one) for x in xs], GENERIC)
    want = GENERIC.zero()
    for x in xs:
        want = pairwise_add(want, x)
    _same_form(got, want)
    _assert_generic_canonical(got, sympy, a)


# ---------------------------------------------------------------------------
# reduction mod p, the ring map of the rank certificate

ROOT = Path(__file__).parents[1]


def _perfbench_constants() -> dict:
    # PRIME and GENERIC_POINT of the benchmark's own GF(p) rank check, read
    # from its source without importing it
    tree = ast.parse((ROOT / "perfbench" / "checks.py").read_text())
    return {t.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Name)
            and t.id in ("PRIME", "GENERIC_POINT")}


def test_mod_p_constants():
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(MOD_PRIME) and MOD_PRIME.bit_length() == 62
    assert sympy.is_primitive_root(_MOD_GENERATOR, MOD_PRIME)
    assert 0 < MOD_POINT < MOD_PRIME
    for r in range(3, MAX_ROOT + 1):
        order = 4 * r
        assert (MOD_PRIME - 1) % order == 0, r
        w = mod_root(r)
        assert pow(w, order, MOD_PRIME) == 1, r
        assert all(pow(w, order // q, MOD_PRIME) != 1
                   for q in sympy.primefactors(order)), r
    # so w is a root of Phi_4r mod p, and phi a ring map from Z[zeta_4r]
    assert mod_root(23) is None and mod_map(RootMode(23)) is None
    bench = _perfbench_constants()
    assert set(bench) == {"PRIME", "GENERIC_POINT"}
    assert MOD_PRIME != bench["PRIME"]
    assert MOD_POINT != bench["GENERIC_POINT"]


def test_cli_import_leaves_sympy_out():
    code = "import sys, skeinrep.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT / "src")
    assert out.stdout == "False\n"


@pytest.mark.parametrize("mode", _MODES, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mod_map_is_a_ring_map(mode, data):
    phi, p = mod_map(mode), MOD_PRIME
    # phi is defined where no denominator is a multiple of p; the wide
    # root-mode draws reach p itself
    draw = _draw_scalar(mode)
    if mode.is_root:
        draw = draw.filter(lambda z: z.den % p)
    x, y = data.draw(draw), data.draw(draw)
    assert phi(x + y) == (phi(x) + phi(y)) % p
    assert phi(x * y) == phi(x) * phi(y) % p
    assert phi(mode.one()) == 1 and phi(mode.zero()) == 0
    if phi(y):
        assert phi(x / y) * phi(y) % p == phi(x)
    assert phi(mode.a_power(1)) \
        == (mod_root(mode.r) if mode.is_root else MOD_POINT)
