import contextlib
import io
import random

import pytest

from oracles import (F_hom_matrix, categorical_trace_rep,
                     full_projector_hom_matrix,
                     half_weighted_projections, hom_dimension,
                     layered_simple_rep, orbit_hw_projector,
                     pairwise_compose, pairwise_linear_extension,
                     pairwise_trace, projected_intertwiners,
                     scaled_denominator_clear, tensor_cleared_projector,
                     tensor_image_columns, trace_gram_matrix,
                     trace_pairing_matrix, weighted_rows)
from skeinrep import functor
from skeinrep import cli, linalg, tl_category, uqsl2
from skeinrep.cli import main
from skeinrep.diagrams import (TLMorphism, e_generator, enumerate_simple,
                               identity_morphism)
from skeinrep.functor import (F_diagram, F_object, FunctorReport,
                              _apply_colors, _gram_matrix,
                              _image_columns, _object_projector,
                              _pairing_rows, _projector_coordinates,
                              _simple_rep, _sparse_trace,
                              coefficient_b, mate_flat, mate_sharp,
                              quantum_trace_rep,
                              rep_braiding, rep_coev, rep_ev, rep_twist,
                              verify_equivalence)
from skeinrep.scalars import GENERIC, PoleError, RootMode
from skeinrep.tl_category import (braiding_tl, closure_trace, coev_tl, ev_tl,
                                  jones_wenzl, twist_tl)
from skeinrep.turaev import (good_type_diagrams, hom_basis, object_seq,
                             seq_size)
from skeinrep.uqsl2 import (HWVector, RepMap, TensorVector, cg_vector,
                            elementary_morphisms, hw_projector, rep_hom_basis,
                            rep_hom_coordinates)


def _random_morphism(rng, k, l, mode):
    diags = enumerate_simple(k, l)
    terms = {d: mode.from_int(rng.randint(-2, 2)) for d in diags}
    return TLMorphism(k, l, terms, mode)


def _random_repmap(rng, n, mode):
    entries = {}
    for _ in range(rng.randint(1, 6)):
        i = rng.randrange(1 << n)
        j = rng.randrange(1 << n)
        entries[(i, j)] = mode.from_int(rng.randint(-3, 3))
    return RepMap(n, n, entries, mode)


def test_images_of_elementary_diagrams():
    m = GENERIC
    e = elementary_morphisms(m)
    assert F_diagram(coev_tl(1, m)) == e["b"]
    assert F_diagram(ev_tl(1, m)) == e["d"]
    assert F_diagram(e_generator(1, 2, m)) == e["b"].compose(e["d"])
    for n in range(4):
        assert F_diagram(identity_morphism(n, m)) == RepMap.identity(n, m)


def test_functor_respects_composition_and_tensor():
    rng = random.Random(11)
    for mode in (GENERIC, RootMode(5)):
        for _ in range(15):
            k = rng.randint(0, 3)
            l = rng.randint(k % 2, 3)
            if (l - k) % 2:
                l += 1
            j = rng.randint(l % 2, 3)
            if (j - l) % 2:
                j += 1
            f = _random_morphism(rng, k, l, mode)
            g = _random_morphism(rng, l, j, mode)
            assert F_diagram(g.compose(f)) == F_diagram(g).compose(F_diagram(f))
            assert F_diagram(f.tensor(g)) == F_diagram(f).tensor(F_diagram(g))


def test_jones_wenzl_maps_to_hw_projector():
    # the closed-form q-symmetrizer is the functor's image of f_n
    roots = [(RootMode(r), range(1, r)) for r in (3, 4, 5, 8)]
    for mode, ns in [(GENERIC, range(1, 8)), *roots, (RootMode(19), (7,)),
                     (RootMode(20), (7,))]:
        for n in ns:
            assert F_diagram(jones_wenzl(n, mode).morphism) \
                == hw_projector(n, mode), (mode, n)
    # and the Y-orbit projector, which takes 5 s at generic n = 7
    for mode, ns in [(GENERIC, range(1, 7)), *roots]:
        for n in ns:
            assert orbit_hw_projector(n, mode) == hw_projector(n, mode), \
                (mode, n)


def test_ribbon_structure_transport():
    for mode in (GENERIC, RootMode(4)):
        c = elementary_morphisms(mode)["c"]
        assert F_diagram(braiding_tl(1, 1, mode)) == c
        for n in range(3):
            for k in range(3):
                assert F_diagram(braiding_tl(n, k, mode)) \
                    == rep_braiding(n, k, mode)
        for n in range(4):
            assert F_diagram(coev_tl(n, mode)) == rep_coev(n, mode)
            assert F_diagram(ev_tl(n, mode)) == rep_ev(n, mode)
            assert F_diagram(twist_tl(n, mode)) == rep_twist(n, mode)


def test_quantum_trace_matches_closure_trace():
    m = GENERIC
    samples = [
        identity_morphism(0, m),
        identity_morphism(2, m),
        e_generator(1, 2, m),
        e_generator(2, 3, m),
        jones_wenzl(3, m).morphism,
        braiding_tl(1, 1, m),
        twist_tl(2, m),
        braiding_tl(1, 1, m).compose(e_generator(1, 2, m)),
    ]
    for f in samples:
        assert quantum_trace_rep(F_diagram(f)) == closure_trace(f)
    two = m.quantum_int(2)
    total = m.one()
    for n in range(4):
        assert quantum_trace_rep(RepMap.identity(n, m)) == total
        total = total * two


def test_weighted_trace_matches_categorical_composite():
    # the library trace, tr(K^(x)n . g), agrees with
    # ev . c . ((theta g) x id) . coev even on maps that are not intertwiners
    rng = random.Random(23)
    for mode in (GENERIC, RootMode(3)):
        for n in range(1, 4):
            for _ in range(6):
                g = _random_repmap(rng, n, mode)
                assert quantum_trace_rep(g) == categorical_trace_rep(g)


def test_quantum_trace_cyclic_and_multiplicative():
    rng = random.Random(31)
    m = GENERIC
    for _ in range(8):
        # cyclicity needs module maps, so draw them as functor images
        f = F_diagram(_random_morphism(rng, 2, 2, m))
        g = F_diagram(_random_morphism(rng, 2, 2, m))
        assert quantum_trace_rep(f.compose(g)) == quantum_trace_rep(g.compose(f))
        # multiplicativity under tensor holds for arbitrary matrices
        x = _random_repmap(rng, 2, m)
        y = _random_repmap(rng, 1, m)
        assert quantum_trace_rep(x.tensor(y)) \
            == quantum_trace_rep(x) * quantum_trace_rep(y)


def test_mates_invert_each_other():
    rng = random.Random(47)
    m = GENERIC
    e = elementary_morphisms(m)
    assert mate_sharp(e["d"]) == RepMap.identity(1, m)
    assert mate_flat(RepMap.identity(1, m)) == e["d"]
    for _ in range(6):
        f = RepMap(2, 1, {(rng.randrange(2), rng.randrange(4)):
                          m.from_int(rng.randint(-3, 3)) for _ in range(3)}, m)
        assert mate_flat(mate_sharp(f)) == f
        g = RepMap(1, 2, {(rng.randrange(4), rng.randrange(2)):
                          m.from_int(rng.randint(-3, 3)) for _ in range(3)}, m)
        assert mate_sharp(mate_flat(g)) == g
    with pytest.raises(ValueError):
        mate_sharp(RepMap.identity(0, m))


def test_contraction_coefficient():
    m = GENERIC
    assert coefficient_b(1, 1, 1, m) == m.one() + m.a_power(-4)
    # [n+m-j+1]/[n] with the balancing power of a
    assert coefficient_b(2, 1, 1, m) \
        == m.a_power(-2) * m.quantum_int(3) / m.quantum_int(2)
    with pytest.raises(PoleError):
        coefficient_b(3, 1, 1, RootMode(3))


def _hw(n, mode):
    return HWVector(TensorVector.basis(n, 0, mode), n)


def test_middle_evaluation_contracts_coupled_vectors():
    m = GENERIC
    d = elementary_morphisms(m)["d"]
    for n in range(1, 4):
        for mm in range(1, 4):
            for j in range(1, min(n, mm) + 1):
                contract = RepMap.identity(n - 1, m).tensor(d) \
                    .tensor(RepMap.identity(mm - 1, m))
                lhs = contract.apply(cg_vector(_hw(n, m), _hw(mm, m), j).vector)
                rhs = cg_vector(_hw(n - 1, m), _hw(mm - 1, m), j - 1).vector \
                    .scale(coefficient_b(n, mm, j, m))
                assert lhs == rhs


def test_object_image_basis():
    m = GENERIC
    out = F_object((2,), m)
    proj = out["projector"]
    assert proj == hw_projector(2, m)
    assert proj.compose(proj) == proj
    assert len(out["basis"]) == 3
    for s in [(2, 1), (1, 1, 1), (3,)]:
        out = F_object(s, m)
        expected = 1
        for n in s:
            expected *= n + 1
        assert len(out["basis"]) == expected
        elim = linalg.Eliminator()
        for v in out["basis"]:
            assert out["projector"].apply(v) == v
            assert elim.add(dict(v.components)) is not None
    # color zero is the unit and drops out
    assert len(F_object((0, 1), m)["basis"]) == 2
    # the basis is the first independent columns of the projector, taken
    # greedily left to right; the unit object has the single vector 1
    for s, mode in [((), m), ((2, 1), m), ((1, 2), RootMode(4))]:
        out = F_object(s, mode)
        columns = {}
        for (i, j), v in out["projector"].entries.items():
            columns.setdefault(j, {})[i] = v
        columns = [columns[j] for j in sorted(columns)]
        first = [columns[i] for i in linalg.independent_subset(columns)]
        assert [dict(v.components) for v in out["basis"]] == first, (s, mode)
    assert [dict(v.components) for v in F_object((), m)["basis"]] \
        == [{0: m.one()}]


def test_hom_matrix_square_and_invertible():
    cases = [
        ((1, 1), (1, 1), GENERIC),
        ((2, 1), (1, 2), GENERIC),
        ((1, 1, 1), (3,), GENERIC),
        ((2, 2), (2, 2), GENERIC),
        ((2, 2), (2, 2), RootMode(4)),
    ]
    for s, t, mode in cases:
        matrix = F_hom_matrix(s, t, mode)
        dim = len(hom_basis(s, t, mode)) if not mode.is_root \
            else len(matrix)
        if not mode.is_root:
            assert dim == hom_dimension(s, t)
        assert len(matrix) == dim
        assert all(len(row) == len(hom_basis(s, t, mode)) for row in matrix)
        rows = [{j: v for j, v in enumerate(row) if not v.is_zero()}
                for row in matrix]
        assert linalg.rank(rows) == dim
        # the rows follow the first independent compressions f_t h_u f_s,
        # and each column holds the coordinates of f_t F(h) f_s in them
        ps, pt = F_object(s, mode)["projector"], F_object(t, mode)["projector"]
        compressed = [pt.compose(h).compose(ps) for h in
                      rep_hom_basis(seq_size(s), seq_size(t), mode)]
        kept = [compressed[u] for u in linalg.independent_subset(
            [c.entries for c in compressed])]
        assert len(kept) == len(matrix)
        for col, h in enumerate(hom_basis(s, t, mode)):
            total = RepMap.zero(ps.source_rank, pt.target_rank, mode)
            for row, c in zip(matrix, kept):
                total = total + c.scale(row[col])
            assert total == pt.compose(F_diagram(h.value)).compose(ps), \
                (s, t, mode, col)


def test_verify_equivalence_reports():
    r = verify_equivalence((1, 1), (2,))
    assert (r.dim_diagram_side, r.dim_rep_side, r.matrix_rank) == (1, 1, 1)
    assert r.verdict == "iso"
    assert repr(r) == "FunctorReport((1, 1)->(2,) [generic]: 1/1/1 iso)"
    assert r.to_json_dict() == {
        "source": [1, 1],
        "target": [2],
        "dim_diagram_side": 1,
        "dim_rep_side": 1,
        "matrix_rank": 1,
        "verdict": "iso",
        "mode": "generic",
    }
    # opposite parities give zero spaces, still an isomorphism
    r = verify_equivalence((1,), (2,))
    assert (r.dim_diagram_side, r.dim_rep_side, r.matrix_rank) == (0, 0, 0)
    assert r.verdict == "iso"
    r = verify_equivalence((1, 1, 1), (1,))
    assert r.dim_diagram_side == hom_dimension((1, 1, 1), (1,)) == 2
    assert r.verdict == "iso"
    mode = RootMode(4)
    r = verify_equivalence((2, 2), (2, 2), mode)
    assert (r.dim_diagram_side, r.dim_rep_side, r.matrix_rank) == (1, 1, 1)
    assert r.verdict == "iso"
    assert str(r.mode) == "root:4"
    with pytest.raises(ValueError):
        verify_equivalence((3,), (3,), RootMode(4))


@pytest.mark.parametrize("mode", [GENERIC, RootMode(6)], ids=str)
def test_verify_equivalence_builds_no_tensor_product(monkeypatch, mode):
    # each color's projector acts on its own bits and each intertwiner
    # basis is bent from the invariants entry by entry, so no RepMap is
    # ever tensored on the verify_equivalence path, from cold caches
    cached = [functor._color_factors, uqsl2._symmetrizer_factors,
              functor._projector_coordinates,
              functor._base_gram, functor._coordinate_gram,
              uqsl2._rep_hom_basis, uqsl2._free_unknowns]
    for f in cached:
        f.cache_clear()

    def refused(self, other):
        raise AssertionError("a tensor product was built")

    with monkeypatch.context() as m:
        m.setattr(RepMap, "tensor", refused)
        r = verify_equivalence((2, 3), (3, 2), mode)
    assert r.verdict == "iso"
    assert functor._color_factors.cache_info().currsize == 2
    if mode.is_root:
        return      # purified_hom_dim builds the diagram-side projectors
    # generically the object projectors come from representation theory
    # alone: no Jones-Wenzl projector is built, of any color

    def no_projector(*args):
        raise AssertionError("a Jones-Wenzl projector was built")

    with monkeypatch.context() as m:
        for name in ("jones_wenzl", "_jones_wenzl"):
            m.setattr(tl_category, name, no_projector)
        m.setattr(cli, "jones_wenzl", no_projector)
        r = verify_equivalence((4,), (2, 2), mode)
    assert (r.dim_diagram_side, r.dim_rep_side, r.matrix_rank) == (1, 1, 1)
    assert r.verdict == "iso"


def test_verify_equivalence_past_size_eight():
    # a 10-strand pair: the intertwiner solve is a 252-unknown kernel
    r = verify_equivalence((5,), (5,))
    assert (r.dim_diagram_side, r.dim_rep_side, r.matrix_rank) == (1, 1, 1)
    assert r.verdict == "iso"


def test_apply_colors_is_the_fully_scaled_projector():
    # one color applied to the identity is lambda_k f_k, and lambda_k is
    # the lcm of the denominators of all of f_k's entries, as full scalar
    # multiplication takes it; k <= 7 bounds the C(2k, k) entries
    cases = [(k, GENERIC) for k in range(1, 8)]
    cases += [(k, RootMode(r)) for r in range(3, 21)
              for k in range(1, min(7, r - 2) + 1)]
    scaled = 0
    for k, mode in cases:
        f = hw_projector(k, mode)
        want = scaled_denominator_clear(f).entries
        got = _apply_colors((k,), RepMap.identity(k, mode).entries, mode)
        assert got == want, (mode, k)
        one = mode.one().den
        assert all(v.den == one for v in got.values())
        scaled += want != f.entries
    assert len(cases) == 112
    # not vacuous: every generic projector past f_1 carries denominators
    assert scaled >= 6


def _color_seqs(colors, max_size):
    out = [()]
    for s in out:
        out.extend(s + (c,) for c in colors if sum(s) + c <= max_size)
    return out


@pytest.mark.parametrize("mode", [GENERIC, RootMode(3), RootMode(4),
                                  RootMode(5)], ids=str)
def test_fused_contractions_match_pairwise_oracles(mode):
    # every base Gram trace tr(K h_a h'_b) that verify_equivalence takes,
    # k + l <= 6; then the color-projected factors K^(1/2) pi h of the
    # trace oracle, each color applied on its own bits, against the full
    # tensor projector, and the composed images K^(1/2) pi_t F(d),
    # |s|+|t| <= 6
    traces = 0
    for k in range(7):
        for l in range(k % 2, 7 - k, 2):
            for x in rep_hom_basis(k, l, mode):
                kx = weighted_rows(x, 2)
                for y in rep_hom_basis(l, k, mode):
                    assert _sparse_trace(kx, y) == pairwise_trace(kx, y)
                    traces += 1
    colors = (1, 2, 3) if not mode.is_root else tuple(range(1, mode.r - 1))
    seqs = _color_seqs(colors, 6)
    for s in seqs:
        for t in seqs:
            if seq_size(s) + seq_size(t) > 6:
                continue
            right = half_weighted_projections(s, seq_size(t), mode)
            assert [y.entries for y in right] \
                == [weighted_rows(y, 1).entries
                    for y in projected_intertwiners(s, seq_size(t), mode)]
            kp = weighted_rows(tensor_cleared_projector(t, mode), 1)
            rows = list(half_weighted_projections(t, seq_size(s), mode))
            for d in good_type_diagrams(s, t):
                td = kp.compose(_simple_rep(d, mode))
                assert td.entries \
                    == pairwise_compose(kp, _simple_rep(d, mode)).entries
                rows.append(td)
            for x in rows:
                for y in right:
                    assert _sparse_trace(x, y) == pairwise_trace(x, y)
                    traces += 1
    assert traces > 100


def _sparse_rows(matrix):
    return [{v: x for v, x in enumerate(row) if not x.is_zero()}
            for row in matrix]


@pytest.mark.parametrize("mode", [GENERIC, RootMode(3), RootMode(4),
                                  RootMode(5)], ids=str)
def test_pairing_by_coordinates_matches_trace_oracle(mode):
    # every criterion 6 or 7 pair with |s|+|t| <= 6 and a seeded sample of
    # size 8: C gram over all Gram columns equals the traced pairing entry
    # by entry, and the reported rank, read on the pivot columns, is its rank
    colors = (1, 2, 3) if not mode.is_root else tuple(range(1, mode.r - 1))
    seqs = _color_seqs(colors, 8)
    pairs = [(s, t) for s in seqs for t in seqs
             if seq_size(s) + seq_size(t) <= 6]
    pairs += random.Random(f"pairing {mode}").sample(
        [(s, t) for s in seqs for t in seqs
         if seq_size(s) + seq_size(t) == 8], 4)
    entries = 0
    for s, t in pairs:
        s, t = object_seq(s, mode), object_seq(t, mode)
        gram = trace_gram_matrix(s, t, mode)
        want = _sparse_rows(trace_pairing_matrix(s, t, mode))
        columns = range(len(rep_hom_basis(seq_size(t), seq_size(s), mode)))
        assert _pairing_rows(good_type_diagrams(s, t), gram, columns,
                             mode) == want, (s, t)
        assert verify_equivalence(s, t, mode).matrix_rank \
            == linalg.rank(want), (s, t)
        entries += sum(map(len, want))
    assert entries > 200


@pytest.mark.parametrize("mode", [GENERIC, RootMode(3), RootMode(4),
                                  RootMode(5)], ids=str)
def test_gram_entries_match_the_full_k_weighted_trace(monkeypatch, mode):
    # every pair with |s|+|t| <= 6: each entry tr(P_u P_v) of the Gram
    # matrix verify_equivalence ranks equals tr(K pi_t h_u pi_s h_v) with
    # both factors built in full by the oracles, K never split in halves
    grams = []

    def spy(s, t, mode):
        grams.append(_gram_matrix(s, t, mode))
        return grams[-1]

    monkeypatch.setattr(functor, "_gram_matrix", spy)
    colors = (1, 2, 3) if not mode.is_root else tuple(range(1, mode.r - 1))
    seqs = _color_seqs(colors, 6)
    entries = 0
    for s in seqs:
        for t in seqs:
            if seq_size(s) + seq_size(t) > 6:
                continue
            verify_equivalence(s, t, mode)
            left = [weighted_rows(x, 2) for x in
                    projected_intertwiners(t, seq_size(s), mode)]
            right = projected_intertwiners(s, seq_size(t), mode)
            assert grams.pop() == [[pairwise_trace(x, y) for y in right]
                                   for x in left], (s, t)
            entries += len(left) * len(right)
    assert entries > 150


def _transpose(matrix):
    return [list(col) for col in zip(*matrix)]


@pytest.mark.parametrize("mode", [GENERIC, RootMode(3), RootMode(4),
                                  RootMode(5)], ids=str)
def test_base_gram_matches_pairwise_traces(mode):
    # every (k, l) with k + l <= 8, from cold caches: the objects of color
    # 1 only have unit coordinate rows, so their Gram matrix is G(k, l),
    # tr(K h_a h'_b) over the plain bases, as the library keeps it; it
    # equals the pairwise trace, and the traces taken in each orientation
    # on their own show G(l, k) = G(k, l)^T and G(k, k) symmetric
    functor._base_gram.cache_clear()
    functor._coordinate_gram.cache_clear()
    want = {}
    for k in range(9):
        for l in range(k % 2, 9 - k, 2):
            h_k, h_l = rep_hom_basis(k, l, mode), rep_hom_basis(l, k, mode)
            want[k, l] = [[pairwise_trace(weighted_rows(x, 2), y)
                           for y in h_l] for x in h_k]
            assert _gram_matrix((1,) * k, (1,) * l, mode) == want[k, l]
            assert functor._base_gram(k, l, mode) \
                == {(a, b): x for a, row in enumerate(want[k, l])
                    for b, x in enumerate(row)}, (k, l)
    for k, l in want:
        assert want[l, k] == _transpose(want[k, l]), (k, l)
    assert all(want[k, k] == _transpose(want[k, k]) for k in range(5))
    assert sum(len(g) * len(g[0]) for g in want.values()) > 400


SIZE_TEN = pytest.mark.parametrize(
    "s, t, mode", [((5,), (5,), GENERIC), ((5,), (5,), RootMode(19)),
                   ((7, 3), (), RootMode(19)),
                   ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), GENERIC)],
    ids=["5-5-generic", "5-5-root:19", "7,3-0-root:19",
         "1,1,1,1,1-1,1,1,1,1-generic"])


@SIZE_TEN
def test_gram_matrix_matches_trace_oracle_at_size_ten(monkeypatch, s, t,
                                                      mode):
    grams = []

    def spy(s, t, mode):
        grams.append(_gram_matrix(s, t, mode))
        return grams[-1]

    monkeypatch.setattr(functor, "_gram_matrix", spy)
    functor._base_gram.cache_clear()
    functor._coordinate_gram.cache_clear()
    assert verify_equivalence(s, t, mode).verdict == "iso"
    assert grams.pop() == trace_gram_matrix(s, t, mode)
    if not t:
        # pi_s kills every intertwiner, so no entry of G(10, 0) is traced
        assert not functor._base_gram(10, 0, mode)
        assert not functor._base_gram(0, 10, mode)


# ---------------------------------------------------------------------------
# the rank certificate against exact elimination

def _spy_certificate(monkeypatch):
    """Each call of linalg.certified_profile as (basis, rows, exact), exact
    telling whether it took the exact route, column_rank_profile."""
    calls, exact = [], []
    certify, eliminate = linalg.certified_profile, linalg.column_rank_profile

    def exact_spy(rows):
        exact.append(rows)
        return eliminate(rows)

    def spy(bound, images, rows):
        exact.clear()
        calls.append((certify(bound, images, rows), rows, bool(exact)))
        return calls[-1][0]

    monkeypatch.setattr(linalg, "column_rank_profile", exact_spy)
    monkeypatch.setattr(linalg, "certified_profile", spy)
    return calls


def _assert_certified_ranks_are_exact(calls, s, t, mode):
    """verify_equivalence reports the ranks of exact elimination alone
    (the Gram rank profile, then the pairing read on its pivot columns),
    and every basis it was given is independent and spans, checked
    exactly: it is the exact route's own, or the rank of the matrix on its
    columns is its size, which is the exact rank.  Returns the (Gram,
    pairing) exact-route flags, the Gram's None at a root or for an empty
    Gram matrix (odd |s| + |t|), which is not certified."""
    calls.clear()
    report = verify_equivalence(s, t, mode)
    gram = _gram_matrix(s, t, mode)
    pivots = linalg.column_rank_profile(_sparse_rows(gram))
    pairing = linalg.column_rank_profile(
        _pairing_rows(good_type_diagrams(s, t), gram, pivots, mode))
    assert (report.dim_rep_side, report.matrix_rank) \
        == (len(pivots), len(pairing)), (s, t)
    certified_gram = bool(gram) and not mode.is_root
    assert len(calls) == 1 + certified_gram, (s, t)
    for (basis, rows, _), exact in zip(calls, [pivots, pairing][-len(calls):]):
        assert len(basis) == len(exact), (s, t)
        if basis != exact:
            kept = [{j: r[v] for j, v in enumerate(basis) if v in r}
                    for r in rows()]
            assert linalg.rank(kept) == len(basis), (s, t)
    flags = [exact for _, _, exact in calls]
    return flags if certified_gram else [None] + flags


@pytest.mark.parametrize("mode, gram_exact", [
    (GENERIC, 166), (RootMode(3), None), (RootMode(4), None),
    (RootMode(5), None)], ids=str)
def test_certified_ranks_match_exact_elimination_on_criteria_6_and_7(
        monkeypatch, mode, gram_exact):
    # every pair of criterion 6 (generic) or 7 (root): the certificate
    # closes on all but gram_exact nonempty Gram matrices and on every
    # pairing; a root's Gram matrix is eliminated exactly
    calls = _spy_certificate(monkeypatch)
    colors = (1, 2, 3) if not mode.is_root else tuple(range(1, mode.r - 1))
    seqs = _color_seqs(colors, 8)
    flags = [_assert_certified_ranks_are_exact(calls, s, t, mode)
             for s in seqs for t in seqs
             if seq_size(s) + seq_size(t) <= 8]
    assert len(flags) == {None: 963, 3: 45, 4: 512, 5: 963}[mode.r]
    assert sum(pairing for _, pairing in flags) == 0
    assert (None if mode.is_root else sum(g or 0 for g, _ in flags)) \
        == gram_exact


@SIZE_TEN
def test_certified_ranks_match_exact_elimination_at_size_ten(
        monkeypatch, s, t, mode):
    calls = _spy_certificate(monkeypatch)
    gram, pairing = _assert_certified_ranks_are_exact(calls, s, t, mode)
    assert (gram, pairing) == (None if mode.is_root else False, False)


@pytest.mark.parametrize("mode", [GENERIC, RootMode(5)], ids=str)
def test_unmapped_entries_take_the_exact_route(monkeypatch, mode):
    # with phi undefined on every scalar, as where a denominator vanishes
    # mod p, both ranks come from exact elimination alone
    def undefined(x):
        raise PoleError("denominator vanishes mod p")

    monkeypatch.setattr(functor, "mod_map", lambda mode: undefined)
    calls = _spy_certificate(monkeypatch)
    for s, t in [((1, 1), (1, 1)), ((2, 1), (1, 2)), ((1, 1, 1), (3,))]:
        gram, pairing = _assert_certified_ranks_are_exact(calls, s, t, mode)
        assert pairing and gram in (None, True), (s, t)


def _escaped_image(monkeypatch, mode):
    # F(d) with its last entry moved, for every simple diagram; the
    # projectors are built first, so no cached projector sees the change
    F_hom_matrix((1, 1), (1, 1), mode)
    verify_equivalence((1, 1), (2,), mode)
    true_rep = functor._simple_rep

    def bumped(d, mode):
        x = true_rep(d, mode)
        last = max(x.entries)
        return x + RepMap(x.source_rank, x.target_rank,
                          {last: mode.one()}, mode)

    monkeypatch.setattr(functor, "_simple_rep", bumped)
    functor._image_coordinates.cache_clear()


@pytest.mark.parametrize("mode", [GENERIC, RootMode(4)], ids=str)
def test_escaped_image_raises_value_error(monkeypatch, mode):
    escaped = "^functor image escaped the intertwiner span$"
    try:
        _escaped_image(monkeypatch, mode)
        with pytest.raises(ValueError, match=escaped):
            verify_equivalence((1, 1), (2,), mode)
        with pytest.raises(ValueError, match=escaped):
            F_hom_matrix((1, 1), (1, 1), mode)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["homdim", "1,1", "2", "--mode", str(mode)])
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue() \
            == "error: functor image escaped the intertwiner span\n"
    finally:
        monkeypatch.undo()
        functor._image_coordinates.cache_clear()


@pytest.mark.parametrize("mode", [GENERIC, RootMode(4), RootMode(5)],
                         ids=str)
def test_fused_contractions_on_uncleared_maps(mode):
    # the intertwiner bases are denominator-free, so they are divided by
    # small integers: mixed denominators exercise the common denominator
    maps = [h.scale(mode.one() / mode.from_int(u % 5 + 1))
            for u, h in enumerate(h for k in range(7) for l in range(7 - k)
                                  for h in rep_hom_basis(k, l, mode))]
    maps += [_object_projector(s, mode) for s in [(2,), (3,), (1, 2)]]
    one = mode.one().den
    with_den = 0
    for x in maps:
        with_den += any(v.den != one for v in x.entries.values())
        for y in maps:
            if x.source_rank == y.target_rank:
                assert x.compose(y).entries == pairwise_compose(x, y).entries
            if (x.source_rank, x.target_rank) \
                    == (y.target_rank, y.source_rank):
                assert _sparse_trace(x, y) == pairwise_trace(x, y)
    assert with_den >= 20


@pytest.mark.parametrize("mode", [GENERIC, RootMode(3), RootMode(4),
                                  RootMode(5)], ids=str)
def test_linear_extension_matches_pairwise_oracle(mode):
    # every projector f_k, then every hatted endomorphism basis element of
    # every object of size <= 4
    ks = range(1, mode.r) if mode.is_root else range(1, 7)
    maps = [jones_wenzl(k, mode).morphism for k in ks]
    colors = range(1, mode.r - 1) if mode.is_root else range(1, 5)
    maps += [h.value for s in _color_seqs(colors, 4)
             for h in hom_basis(s, s, mode)]
    for f in maps:
        assert F_diagram(f).entries == pairwise_linear_extension(f).entries
    assert len(maps) > 20


@pytest.mark.parametrize("mode", [GENERIC, RootMode(3), RootMode(5),
                                  RootMode(19)], ids=str)
def test_simple_rep_matches_layered_oracle(mode):
    # every simple (k, l) diagram with k + l <= 10
    count = 0
    for k in range(11):
        for l in range(k % 2, 11 - k, 2):
            for d in enumerate_simple(k, l):
                got, want = _simple_rep(d, mode), layered_simple_rep(d, mode)
                assert (got.source_rank, got.target_rank) == (k, l)
                assert got.entries == want.entries, d
                count += 1
    assert count == 637


def _projector_cases():
    # every object of size <= 6, generic and at r = 3, 4, 5
    yield GENERIC, _color_seqs(range(1, 7), 6)
    for r in (3, 4, 5):
        yield RootMode(r), _color_seqs(range(1, r - 1), 6)


def test_cleared_projector_is_a_polynomial_multiple_of_f_s():
    scaled = 0
    for mode, seqs in _projector_cases():
        one = mode.one().den
        for s in seqs:
            cleared = tensor_cleared_projector(s, mode)
            true = F_object(s, mode)["projector"]
            assert all(v.den == one for v in cleared.entries.values())
            assert (cleared.source_rank, cleared.target_rank) \
                == (true.source_rank, true.target_rank)
            key = next(iter(true.entries))
            c = cleared.entries[key] / true.entries[key]
            assert not c.is_zero()
            assert cleared.entries == true.scale(c).entries, (mode, s)
            scaled += not c.is_one()
    # not vacuous: generic projectors past f_1, and those of r = 4, carry
    # denominators
    assert scaled > 50


def test_image_columns_are_the_rank_profile_of_f_s():
    for mode, seqs in _projector_cases():
        for s in seqs:
            rows: dict = {}
            for (i, j), v in F_object(s, mode)["projector"].entries.items():
                rows.setdefault(i, {})[j] = v
            assert _image_columns(s) \
                == linalg.column_rank_profile(rows.values()), (mode, s)


def _rebuilt_coordinates(s, l, mode):
    # the nonzero coordinates of lambda_s f_s h_v, f_s built in full, by
    # rep_hom_coordinates, which rebuilds each map from them exactly
    return [{b: c for b, c in enumerate(rep_hom_coordinates(y))
             if not c.is_zero()}
            for y in projected_intertwiners(s, l, mode)]


@pytest.mark.parametrize("mode", [GENERIC, RootMode(3), RootMode(4),
                                  RootMode(5)], ids=str)
def test_pairing_B_matches_the_full_tensor_projector(mode):
    # every (s, l) with |s| + l <= 8, colors up to 5 generically: each row
    # of M_s, read at the free unknowns with each color applied on its own
    # bits, is the coordinate row of lambda_s f_s h_v built in full
    colors = range(1, 6) if not mode.is_root else range(1, mode.r - 1)
    keys = [(s, l) for s in _color_seqs(colors, 8)
            for l in range(seq_size(s) % 2, 9 - seq_size(s), 2)]
    rows = 0
    for s, l in keys:
        want = _rebuilt_coordinates(s, l, mode)
        assert _projector_coordinates(s, l, mode) == want, (s, l)
        rows += sum(map(bool, want))
    assert rows > 150


@pytest.mark.parametrize("s, l, mode", [((5, 3), 2, GENERIC),
                                        ((5, 3), 2, RootMode(7)),
                                        ((7, 1), 2, GENERIC)],
                         ids=["5,3-2-generic", "5,3-2-root:7",
                              "7,1-2-generic"])
def test_pairing_B_matches_the_full_tensor_projector_at_size_ten(s, l,
                                                                 mode):
    assert _projector_coordinates(s, l, mode) \
        == _rebuilt_coordinates(s, l, mode)


def test_image_columns_match_the_full_cleared_tensor():
    # every object of size <= 7: the product of each color's rank profile
    # is the rank profile of lambda_s f_s eliminated in full
    count = 0
    for mode, colors in [(GENERIC, range(1, 8)), (RootMode(4), (1, 2)),
                         (RootMode(5), (1, 2, 3))]:
        for s in _color_seqs(colors, 7):
            assert _image_columns(s) \
                == tensor_image_columns(s, mode), (mode, s)
            count += 1
    assert count > 150


def test_hom_matrix_matches_full_projector_composition():
    for mode, colors in [(GENERIC, (1, 2, 3)), (RootMode(5), (1, 2, 3))]:
        seqs = _color_seqs(colors, 6)
        pairs = 0
        for s in seqs:
            for t in seqs:
                if seq_size(s) + seq_size(t) <= 6:
                    assert F_hom_matrix(s, t, mode) \
                        == full_projector_hom_matrix(s, t, mode), (mode, s, t)
                    pairs += 1
        assert pairs > 50


# ---------------------------------------------------------------------------
# triangularity of the functor on good-type diagrams: ordering the diagrams
# by their escape paths makes the matrix of top-coefficient evaluations
# lower triangular with nonzero diagonal

def _block_ends(s):
    ends, total = [], 0
    for n in s:
        total += n
        ends.append(total)
    return ends


def _path_of(d, s):
    ends = _block_ends(s)
    return tuple(sum(1 for p in range(e) if d.match[p] >= e) for e in ends)


def _path_vector(s, path, mode):
    v = _hw(s[0], mode)
    for i in range(1, len(s)):
        j = (path[i - 1] + s[i] - path[i]) // 2
        v = cg_vector(v, _hw(s[i], mode), j)
    return v


def test_good_type_images_form_triangular_flag():
    m = GENERIC
    for s in [(1, 1, 1), (1, 1, 1, 1), (2, 1, 1), (3, 2, 1)]:
        size = seq_size(s)
        for k in range(2 - size % 2, size + 1, 2):
            diags = good_type_diagrams(s, (k,))
            if not diags:
                continue
            order = sorted(diags, key=lambda d: _path_of(d, s), reverse=True)
            paths = [_path_of(d, s) for d in order]
            assert len(set(paths)) == len(paths)
            vecs = [_path_vector(s, p, m) for p in paths]
            images = [F_diagram(TLMorphism.from_diagram(d, m)) for d in order]
            for p in range(len(order)):
                for q in range(len(order)):
                    img = images[q].apply(vecs[p].vector)
                    # a weight-k highest-weight image must sit on the top mask
                    assert all(mask == 0 for mask in img.components)
                    top = img.components.get(0, m.zero())
                    if q == p:
                        assert not top.is_zero()
                    elif q > p:
                        assert top.is_zero()
