import pytest
from hypothesis import given, settings, strategies as st

from oracles import input_order_elimination, intertwiner_system
from skeinrep import linalg
from skeinrep.scalars import (GENERIC, MOD_POINT, MOD_PRIME, PoleError,
                              RootMode, ScalarCyclotomic, ScalarGeneric,
                              mod_map)


def _vec(mode, *entries):
    return {j: mode.from_int(c) for j, c in enumerate(entries) if c}


def test_rank_small_generic():
    m = GENERIC
    a = m.a_power(1)
    assert linalg.rank([]) == 0
    assert linalg.rank([_vec(m, 1, 0), _vec(m, 0, 1)]) == 2
    # second row is a times the first
    rows = [{0: m.one(), 1: a}, {0: a, 1: a * a}]
    assert linalg.rank(rows) == 1
    rows = [_vec(m, 1, 1, 0), _vec(m, 0, 1, 1), _vec(m, 1, 0, -1)]
    assert linalg.rank(rows) == 2


def test_rank_root_mode():
    m = RootMode(5)
    x = m.quantum_int(2)
    rows = [{0: m.one(), 1: x}, {0: x, 1: x * x}, {2: m.one()}]
    assert linalg.rank(rows) == 2


def test_column_rank_profile():
    m = GENERIC
    # first column zero, columns 1 and 2 dependent, column 3 new
    rows = [{1: m.one(), 2: m.from_int(2)},
            {1: m.from_int(3), 2: m.from_int(6), 3: m.one()}]
    assert linalg.column_rank_profile(rows) == [1, 3]


def test_rref_rows_pivot_structure():
    m = GENERIC
    rows = [_vec(m, 2, 4, 2), _vec(m, 1, 2, 3)]
    rr = linalg.rref_rows(rows)
    assert len(rr) == 2
    pivots = [min(r) for r in rr]
    assert pivots == [0, 2]
    for r, p in zip(rr, pivots):
        assert r[p].is_one()
        # pivot columns are cleared in the other rows
        for other in rr:
            if other is not r:
                assert p not in other


def test_kernel_basis():
    m = GENERIC
    rows = [_vec(m, 1, 1, 1), _vec(m, 0, 1, 2)]
    ker = linalg.kernel_basis(rows, 3, m.one())
    assert len(ker) == 1
    v = ker[0]
    for r in rows:
        s = m.zero()
        for j, c in r.items():
            s = s + c * v.get(j, m.zero())
        assert s.is_zero()
    assert linalg.kernel_basis([_vec(m, 1, 0), _vec(m, 0, 1)], 2, m.one()) == []


def test_eliminator_coordinates():
    m = GENERIC
    a = m.a_power(1)
    elim = linalg.Eliminator()
    v0 = {0: m.one(), 1: a}
    v1 = {1: m.one(), 2: a}
    assert elim.add(v0) == 0
    assert elim.add(v1) == 1
    # a dependent vector is rejected; its coordinates are against the
    # stored RREF rows, keyed by pivot column
    w = {0: m.from_int(2), 1: a * m.from_int(2) + a ** 3,
         2: a ** 4}
    assert elim.add(w) is None
    coords = elim.coordinates(w)
    assert coords == {0: m.from_int(2), 1: a * m.from_int(2) + a ** 3}
    rebuilt = {}
    for p, c in coords.items():
        rebuilt = linalg.vec_sub_scaled(rebuilt, elim.rows[p], -c)
    assert rebuilt == w
    assert elim.coordinates({}) == {}
    assert elim.contains(w)
    assert not elim.contains({3: m.one()})
    assert elim.rank == 2
    assert elim.pivots() == [0, 1]
    assert elim.coordinates({3: m.one()}) is None
    assert elim.coordinates({0: m.one()}) is None


def test_independent_subset():
    m = GENERIC
    vs = [_vec(m, 1, 1), _vec(m, 2, 2), _vec(m, 0, 1), _vec(m, 1, 0)]
    kept = linalg.independent_subset(vs)
    assert kept == [0, 2]


def _assert_matches_input_order(rows, ncols, mode):
    # the batch routes add rows right to left; the RREF, and so every
    # result, must equal an Eliminator fed the rows in input order
    one = mode.one()
    want = input_order_elimination(rows, ncols, one)
    assert linalg.rank(rows) == want["rank"]
    assert linalg.column_rank_profile(rows) == want["pivots"]
    assert linalg.rref_rows(rows) == want["rref"]
    kernel = linalg.kernel_basis(rows, ncols, one)
    assert kernel == want["kernel"]
    assert len(kernel) == ncols - want["rank"]
    for v in kernel:
        for r in rows:
            total = mode.zero()
            for j, x in r.items():
                c = v.get(j)
                if c is not None:
                    total = total + x * c
            assert total.is_zero()


@pytest.mark.parametrize("mode", [GENERIC, RootMode(5)], ids=str)
def test_batch_routes_match_input_order_on_intertwiner_systems(mode):
    for k in range(7):
        for l in range(7 - k):
            pairs, rows = intertwiner_system(k, l, mode)
            _assert_matches_input_order(rows, len(pairs), mode)


def _laurent(mode, coeffs):
    total = mode.zero()
    for e, c in coeffs.items():
        total = total + mode.a_power(e) * mode.from_int(c)
    return total


_ENTRY = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3)


@st.composite
def _sparse_matrix(draw):
    mode = draw(st.sampled_from([GENERIC, RootMode(5)]))
    ncols = draw(st.integers(1, 7))
    cells = st.dictionaries(st.integers(0, ncols - 1), _ENTRY, max_size=4)
    base = [{j: _laurent(mode, c) for j, c in draw(cells).items()}
            for _ in range(draw(st.integers(0, 5)))]
    base = [{j: x for j, x in r.items() if not x.is_zero()} for r in base]
    rows = list(base)
    # rows that are combinations of earlier ones, so the rank drops
    for _ in range(draw(st.integers(0, 3))):
        if not base:
            break
        i, j = draw(st.integers(0, len(base) - 1)), draw(
            st.integers(0, len(base) - 1))
        c = _laurent(mode, draw(_ENTRY))
        rows.append(linalg.vec_sub_scaled(base[i], base[j], c))
    return mode, ncols, draw(st.permutations(rows))


@settings(max_examples=80, deadline=None)
@given(_sparse_matrix())
def test_batch_routes_match_input_order_on_shuffled_matrices(case):
    mode, ncols, rows = case
    _assert_matches_input_order(rows, ncols, mode)


# ---------------------------------------------------------------------------
# the rank certificate

def _spy_exact(monkeypatch):
    # the matrices that reach the exact route, column_rank_profile
    seen = []
    eliminate = linalg.column_rank_profile

    def spy(rows):
        seen.append(rows)
        return eliminate(rows)

    monkeypatch.setattr(linalg, "column_rank_profile", spy)
    return seen


def _certify(rows, ncols, bound, mode):
    # certified_profile as verify_equivalence calls it: the dense image of
    # the matrix under mod_map, or None where a denominator vanishes
    phi = mod_map(mode)
    try:
        images = [[phi(r[j]) if j in r else 0 for j in range(ncols)]
                  for r in rows]
    except PoleError:
        images = None
    return linalg.certified_profile(bound, images, lambda: rows)


def test_certificate_proves_full_rank_without_elimination(monkeypatch):
    exact = _spy_exact(monkeypatch)
    for m in (GENERIC, RootMode(5)):
        a = m.a_power(1)
        # determinant 1 - a^2, nonzero
        assert _certify([{0: m.one(), 1: a}, {0: a, 1: m.one()}], 2, 2,
                        m) == [0, 1]
        # rank 2 of 3 columns, the first two dependent: a basis, not
        # necessarily the lexicographic one, without elimination
        rows = [{0: m.one(), 1: a, 2: m.one()}, {0: a, 1: a * a}]
        assert _certify(rows, 3, 2, m) == [0, 2]
    assert not exact


def test_bound_below_the_image_rank_raises(monkeypatch):
    # no ring map raises rank, so an image of rank above the bound proves
    # the bound wrong: an error, never a count
    exact = _spy_exact(monkeypatch)
    m = GENERIC
    a = m.a_power(1)
    rows = [{0: m.one(), 1: a}, {0: a, 1: m.one()}]
    for bound in (0, 1):
        with pytest.raises(ArithmeticError, match="above the rank bound$"):
            _certify(rows, 2, bound, m)
    assert not exact


def test_vanishing_denominator_takes_the_exact_route(monkeypatch):
    generic = ScalarGeneric({0: 1}, {0: -MOD_POINT, 1: 1})  # 1/(a - a0)
    root = ScalarCyclotomic(RootMode(5), (1, 1), MOD_PRIME)
    for x in (generic, root):
        with pytest.raises(PoleError):
            mod_map(x.mode)(x)
        exact = _spy_exact(monkeypatch)
        assert _certify([{0: x}], 1, 1, x.mode) == [0]
        assert len(exact) == 1
        monkeypatch.undo()


def test_unclosed_bound_takes_the_exact_route(monkeypatch):
    exact = _spy_exact(monkeypatch)
    m = GENERIC
    one = m.one()
    # a - a0 is nonzero but maps to zero mod p: rank_p 0 < 1
    assert _certify([{0: ScalarGeneric({0: -MOD_POINT, 1: 1}, {0: 1})}],
                    1, 1, m) == [0]
    # a bound above the rank never closes
    assert _certify([{0: one, 1: one}, {0: one, 1: one}], 2, 2, m) == [0]
    assert len(exact) == 2
    # no element of order 4r mod p at r = 23, so no image at all
    mode = RootMode(23)
    assert mod_map(mode) is None
    assert linalg.certified_profile(1, None, lambda: [{0: mode.one()}]) \
        == [0]
    assert len(exact) == 3


@settings(max_examples=80, deadline=None)
@given(_sparse_matrix())
def test_certified_bases_are_exact_bases(case):
    # under the exact rank or the shape as the bound, a certified basis is
    # independent, checked exactly, and numbers the exact rank
    mode, ncols, rows = case
    rank = linalg.rank(rows)
    for bound in (rank, min(len(rows), ncols)):
        basis = _certify(rows, ncols, bound, mode)
        assert len(basis) == rank
        kept = [{j: r[v] for j, v in enumerate(basis) if v in r}
                for r in rows]
        assert linalg.rank(kept) == rank
