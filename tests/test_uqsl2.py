import itertools
import random

import pytest

from oracles import (direct_rep_hom_basis, generator_matrix, hom_dimension,
                     hw_multiplicity, intertwiner_system, orbit_hw_projector)
from skeinrep import uqsl2
from skeinrep.scalars import GENERIC, RootMode
from skeinrep.uqsl2 import (HWVector, RepMap, TensorVector, act, act_Y_power,
                            cg_dims, cg_vector, elementary_morphisms,
                            highest_weight_basis, hw_projector, mask_weight,
                            rep_hom_basis, rep_hom_coordinates, weight_slice)


def _basis_vectors(n, mode):
    return [TensorVector.basis(n, mask, mode) for mask in range(2 ** n)]


def test_mask_weight_and_slices():
    assert mask_weight(0, 3) == 3
    assert mask_weight(0b111, 3) == -3
    assert mask_weight(0b010, 3) == 1
    for n in range(4):
        for w in range(-n, n + 1):
            got = weight_slice(n, w)
            assert got == [m for m in range(2 ** n)
                           if mask_weight(m, n) == w]


def test_hopf_relations_through_coproduct():
    m = GENERIC
    q2 = m.a_power(4)
    qmq = m.a_power(2) - m.a_power(-2)
    for n in (1, 2, 3):
        for v in _basis_vectors(n, m):
            kv = act("K", v)
            assert act("K^-1", kv) == v
            # K X K^-1 = q^2 X and K Y K^-1 = q^-2 Y
            assert act("K", act("X", act("K^-1", v))) \
                == act("X", v).scale(q2)
            assert act("K", act("Y", act("K^-1", v))) \
                == act("Y", v).scale(q2.inv())
            # [X, Y] = (K - K^-1)/(q - q^-1)
            lhs = act("X", act("Y", v)) - act("Y", act("X", v))
            rhs = (act("K", v) - act("K^-1", v)).scale(qmq.inv())
            assert lhs == rhs


def test_generator_matrix_matches_act():
    m = GENERIC
    for n in (1, 2):
        for gen in ("K", "K^-1", "X", "Y"):
            g = generator_matrix(gen, n, m)
            for v in _basis_vectors(n, m):
                assert g.apply(v) == act(gen, v)


def test_act_y_power_matches_iteration():
    m = GENERIC
    v = TensorVector.basis(3, 0, m)
    for i in (1, 2, 3):
        it = v
        for _ in range(i):
            it = act("Y", it)
        # the split used in the coproduct expansion must not matter
        for left_rank in range(4):
            assert act_Y_power(i, v, left_rank) == it, (i, left_rank)


def test_highest_weight_basis_counts():
    m = GENERIC
    for n in range(5):
        for w in range(n % 2, n + 1, 2):
            vs = highest_weight_basis(n, w, m)
            assert len(vs) == hw_multiplicity(n, w)
            for hv in vs:
                assert hv.weight == w
                assert act("X", hv.vector).is_zero()
                assert act("K", hv.vector) == hv.vector.scale(m.a_power(2 * w))
    with pytest.raises(ValueError):
        highest_weight_basis(3, 2, m)  # parity mismatch


def test_elementary_morphism_values():
    m = GENERIC
    em = elementary_morphisms(m)
    b, d, c, theta = em["b"], em["d"], em["c"], em["theta"]
    q = m.a_power(2)
    assert b.entries == {(0b10, 0): m.one(), (0b01, 0): -q}
    assert d.entries == {(0, 0b01): m.one(), (0, 0b10): -q.inv()}
    assert theta == RepMap.identity(1, m).scale(m.a_power(3))
    # Kauffman form of the braiding
    skein = RepMap.identity(2, m).scale(m.a_power(1)) \
        + b.compose(d).scale(m.a_power(-1))
    assert c == skein
    # inverse braiding from the mirrored skein form
    cinv = RepMap.identity(2, m).scale(m.a_power(-1)) \
        + b.compose(d).scale(m.a_power(1))
    assert c.compose(cinv) == RepMap.identity(2, m)


def test_zigzag_identities():
    m = GENERIC
    em = elementary_morphisms(m)
    b, d = em["b"], em["d"]
    i1 = RepMap.identity(1, m)
    assert i1.tensor(d).compose(b.tensor(i1)) == i1
    assert d.tensor(i1).compose(i1.tensor(b)) == i1


def test_braiding_yang_baxter_rep_side():
    m = GENERIC
    c = elementary_morphisms(m)["c"]
    i1 = RepMap.identity(1, m)
    left = c.tensor(i1).compose(i1.tensor(c)).compose(c.tensor(i1))
    right = i1.tensor(c).compose(c.tensor(i1)).compose(i1.tensor(c))
    assert left == right


def test_elementary_are_intertwiners():
    m = GENERIC
    em = elementary_morphisms(m)
    for gen in ("K", "X", "Y"):
        for name, f in (("b", em["b"]), ("d", em["d"]), ("c", em["c"])):
            src = generator_matrix(gen, f.source_rank, m)
            tgt = generator_matrix(gen, f.target_rank, m)
            assert f.compose(src) == tgt.compose(f), (gen, name)


def test_repmap_tensor_indexing():
    m = GENERIC
    # shift by tensoring basis "matrix units" and check mixed-radix layout
    u = RepMap(1, 1, {(0, 1): m.one()}, m)
    v = RepMap(1, 1, {(1, 0): m.one()}, m)
    w = u.tensor(v)
    assert w.entries == {((0 << 1) | 1, (1 << 1) | 0): m.one()}
    x = TensorVector.basis(2, 0b10, m)
    assert w.apply(x) == TensorVector.basis(2, 0b01, m)


def test_cg_vector_frozen_and_annihilated():
    m = GENERIC
    one = m.one()
    v1 = HWVector(TensorVector.basis(1, 0, m), 1)
    cg = cg_vector(v1, v1, 1)
    assert cg.weight == 0
    assert cg.vector.components == {0b01: one, 0b10: -m.a_power(-2)}
    for n, mm in itertools.product((1, 2, 3), repeat=2):
        wn = HWVector(TensorVector.basis(n, 0, m), n)
        wm = HWVector(TensorVector.basis(mm, 0, m), mm)
        for p in range(0, min(n, mm) + 1):
            out = cg_vector(wn, wm, p)
            assert out.weight == n + mm - 2 * p
            assert act("X", out.vector).is_zero(), (n, mm, p)


def test_cg_dims():
    m = GENERIC
    mults, negligible = cg_dims(2, 3, m)
    assert mults == {1: 1, 3: 1, 5: 1} and negligible is False
    mode = RootMode(4)
    mults, negligible = cg_dims(2, 2, mode)
    assert mults == {0: 1} and negligible is True
    with pytest.raises(ValueError):
        cg_dims(3, 1, mode)


def test_rep_hom_basis_dims_and_intertwining():
    m = GENERIC
    for k in range(4):
        for l in range(4):
            hb = rep_hom_basis(k, l, m)
            want = hom_dimension((1,) * k, (1,) * l)
            assert len(hb) == want
            for g in hb:
                for gen in ("K", "X", "Y"):
                    src = generator_matrix(gen, k, m)
                    tgt = generator_matrix(gen, l, m)
                    assert g.compose(src) == tgt.compose(g)


def test_rep_hom_basis_past_size_eight():
    # 252 unknowns; the dimension is the Clebsch-Gordan fusion count
    assert len(rep_hom_basis(5, 5)) == hom_dimension((1,) * 5, (1,) * 5) == 42


_MODES = [GENERIC, RootMode(3), RootMode(4), RootMode(5)]


def _assert_same_basis(got, want, key):
    # entry for entry, in the same order and with the same printed scalars
    assert len(got) == len(want), key
    for g, w in zip(got, want):
        assert g == w and g.to_json_dict() == w.to_json_dict(), key


@pytest.mark.parametrize("mode", _MODES, ids=str)
def test_bent_hom_basis_matches_direct_solve(mode):
    # every key with k > 0 is bent from the invariants of V^(k+l); the
    # oracle solves the (k, l) equations with full generator matrices
    for n in range(9):
        if n % 2 == 0:
            masks, rows = uqsl2._invariant_system(n, mode)
            pairs, want_rows = intertwiner_system(0, n, mode)
            assert (masks, rows) == ([u for u, _ in pairs], want_rows), n
        for k in range(n + 1):
            _assert_same_basis(rep_hom_basis(k, n - k, mode),
                               direct_rep_hom_basis(k, n - k, mode),
                               (k, n - k))


@pytest.mark.parametrize("mode", [GENERIC, RootMode(19)], ids=str)
def test_bent_hom_basis_matches_direct_solve_past_size_eight(mode):
    for k, l in [(5, 5), (3, 7), (10, 0)]:
        _assert_same_basis(rep_hom_basis(k, l, mode),
                           direct_rep_hom_basis(k, l, mode), (k, l))


def test_odd_hom_basis_is_empty_without_a_solve(monkeypatch):
    # K-weights have the parity of the rank, so an odd k + l has no
    # K-allowed entry; the uncached body returns before any system exists
    def refused(*args):
        raise AssertionError("an intertwiner system was built")

    monkeypatch.setattr(uqsl2, "_invariant_system", refused)
    monkeypatch.setattr(uqsl2, "kernel_basis", refused)
    monkeypatch.setattr(uqsl2, "rref_rows", refused)
    for mode in _MODES + [RootMode(19)]:
        for k, l in [(1, 0), (0, 3), (2, 1), (4, 5), (7, 2), (0, 9)]:
            assert uqsl2._rep_hom_basis.__wrapped__(k, l, mode) == []


@pytest.mark.parametrize("mode", _MODES, ids=str)
def test_hom_basis_maps_are_one_at_their_own_last_entry(mode):
    # the premise of rep_hom_coordinates, k + l <= 8
    count = 0
    for k in range(9):
        for l in range(k % 2, 9 - k, 2):
            basis = rep_hom_basis(k, l, mode)
            for u, h in enumerate(basis):
                last = max(h.entries)
                assert h.entries[last].is_one(), (k, l, u)
                assert all(last not in g.entries
                           for w, g in enumerate(basis) if w != u), (k, l, u)
                count += 1
    assert count > 100


@pytest.mark.parametrize("mode", _MODES, ids=str)
def test_hom_coordinates_rebuild_combinations(mode):
    rng = random.Random(16)
    for k, l in [(0, 2), (2, 2), (3, 1), (2, 4), (3, 3)]:
        basis = rep_hom_basis(k, l, mode)
        coords = [mode.from_int(rng.randint(-3, 3)) for _ in basis]
        x = RepMap.zero(k, l, mode)
        for c, h in zip(coords, basis):
            x = x + h.scale(c)
        assert rep_hom_coordinates(x) == coords, (k, l)


@pytest.mark.parametrize("mode", _MODES, ids=str)
def test_hom_coordinates_refuse_a_map_outside_the_span(mode):
    one = mode.one()
    for k, l in [(1, 1), (2, 2), (3, 1), (2, 4)]:
        for h in rep_hom_basis(k, l, mode):
            last = max(h.entries)
            # the matrix unit at a free unknown, and h with that entry moved
            unit = RepMap(k, l, {last: one}, mode)
            bumped = h + unit
            for x in (unit, bumped):
                with pytest.raises(ValueError, match="^functor image "
                                   "escaped the intertwiner span$"):
                    rep_hom_coordinates(x)


def test_hw_projector_properties():
    m = GENERIC
    for n in (1, 2, 3):
        p = hw_projector(n, m)
        assert p.compose(p) == p
        # fixes the top highest-weight line, kills the lower ones
        top = TensorVector.basis(n, 0, m)
        assert p.apply(top) == top
        for w in range(n - 2, -1, -2):
            for hv in highest_weight_basis(n, w, m):
                assert p.apply(hv.vector).is_zero()
    with pytest.raises(ValueError):
        hw_projector(0, m)
    # no top-summand idempotent from n = r on at a root, as for the
    # Y-orbit route; at n = 2r - 1 no D_j vanishes, yet it is refused too
    for r in (3, 4, 5):
        for n in (r, r + 1):
            with pytest.raises(ValueError):
                orbit_hw_projector(n, RootMode(r))
        for n in (r, r + 1, 2 * r - 1):
            with pytest.raises(ValueError):
                hw_projector(n, RootMode(r))
