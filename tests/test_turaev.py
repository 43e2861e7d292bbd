import pytest

from oracles import (braided_closure_trace, categorical_trace_rep,
                     composed_gram_matrix, hom_dimension, literal_gram_matrix,
                     pairwise_diagram_compose, pairwise_markov_closure)
from skeinrep.diagrams import (TLMorphism, compose, identity_morphism,
                               tensor)
from skeinrep.functor import (F_diagram, quantum_trace_rep, rep_braiding,
                              rep_coev, rep_ev, rep_twist)
from skeinrep.scalars import GENERIC, RootMode
from skeinrep.tl_category import (braiding_tl, closure_trace, coev_tl, ev_tl,
                                  jones_wenzl, jw_tensor, markov_closure,
                                  twist_tl)
from skeinrep.turaev import (HattedMorphism, d_nmj, dual_seq,
                             good_type, good_type_diagrams, gram_matrix,
                             hat, hom_basis, object_seq,
                             purified_hom_dim, ribbon_data, seq_size)
from skeinrep.uqsl2 import RepMap, rep_hom_basis


def _objects(maxcolor, maxsize):
    out = [()]
    stack = [((), 0)]
    while stack:
        pref, size = stack.pop()
        for c in range(1, maxcolor + 1):
            if size + c <= maxsize:
                out.append(pref + (c,))
                stack.append((pref + (c,), size + c))
    return sorted(set(out))


def test_object_seq_validation():
    assert object_seq((2, 1), GENERIC) == (2, 1)
    assert object_seq([], GENERIC) == ()
    # color 0 is the unit and is dropped
    assert object_seq((0,), GENERIC) == ()
    assert object_seq((1, 0, 2), GENERIC) == (1, 2)
    with pytest.raises(ValueError):
        object_seq((-1,), GENERIC)
    mode = RootMode(4)
    assert object_seq((2, 1), mode) == (2, 1)
    with pytest.raises(ValueError):
        object_seq((3,), mode)  # color r-1 is cut off


def test_seq_helpers():
    assert seq_size((2, 1, 3)) == 6
    assert dual_seq((2, 1, 3)) == (3, 1, 2)
    assert dual_seq(()) == ()


def test_d_nmj_shapes():
    d = d_nmj(2, 2, 1)
    assert d.inputs == 4 and d.outputs == 2
    assert d.match[1] == 2  # innermost cap joins the blocks
    # the cap joins points of the two blocks of (2, 2), but one block of (4,)
    assert good_type(d, (2, 2), (2,)) is True
    assert good_type(d, (4,), (2,)) is False
    with pytest.raises(ValueError):
        d_nmj(2, 2, 3)
    assert d_nmj(1, 1, 0).match == (2, 3, 0, 1)


def test_good_type_counts_match_fusion():
    for s in _objects(3, 5):
        for t in _objects(3, 5):
            if (seq_size(s) + seq_size(t)) % 2:
                continue
            if seq_size(s) + seq_size(t) > 7:
                continue
            ds = good_type_diagrams(s, t)
            assert len(ds) == hom_dimension(s, t), (s, t)
            for d in ds:
                assert good_type(d, s, t)


def test_good_type_filter():
    # the cup-cap through a single 2-block is not of good type
    ds_all = good_type_diagrams((1, 1), (1, 1))
    assert len(ds_all) == 2
    ds = good_type_diagrams((2,), (2,))
    assert len(ds) == 1  # only the identity pattern survives


def test_hom_basis_is_hatted_good_type():
    mode = GENERIC
    s, t = (1, 1), (2,)
    hb = hom_basis(s, t, mode)
    ds = good_type_diagrams(s, t)
    assert len(hb) == len(ds)
    pt = jw_tensor(t, mode)
    ps = jw_tensor(s, mode)
    for h, d in zip(hb, ds):
        assert isinstance(h, HattedMorphism)
        assert h.source == s and h.target == t
        # value is the sandwiched diagram, and re-sandwiching is absorbed
        assert compose(pt, compose(h.value, ps)) == h.value


def test_hat_arity_checks():
    mode = GENERIC
    with pytest.raises(ValueError):
        hat(identity_morphism(2, mode), (1,), (2,))
    h = hat(identity_morphism(3, mode), (2, 1), (2, 1))
    assert h.source == (2, 1) and h.value.inputs == 3


def test_hat_matches_pairwise_oracle():
    # every good-type diagram with |s| + |t| <= 6, sandwiched by the
    # library's compose and by pairwise products and sums, generic and at
    # roots of unity, where the colors stop at r - 2
    for mode in (GENERIC, RootMode(3), RootMode(4), RootMode(5)):
        maxcolor = mode.r - 2 if mode.is_root else 6
        objs = [o for o in _objects(maxcolor, 6) if o]
        for s in objs:
            for t in objs:
                if seq_size(s) + seq_size(t) > 6:
                    continue
                ps, pt = jw_tensor(s, mode), jw_tensor(t, mode)
                for d in good_type_diagrams(s, t):
                    g = TLMorphism.from_diagram(d, mode)
                    want = pairwise_diagram_compose(
                        pt, pairwise_diagram_compose(g, ps))
                    got = hat(g, s, t).value
                    assert got.to_pairs() == want.to_pairs(), (mode, s, t, d)
                    if seq_size(s) == seq_size(t):
                        assert markov_closure(got) \
                            == pairwise_markov_closure(want), (mode, s, t, d)


def test_ribbon_hats_match_pairwise_oracle():
    # the structural morphisms are not simple diagrams, and their hats drop
    # the terms f_{s'} kills just the same
    for mode in (GENERIC, RootMode(4), RootMode(5)):
        maxcolor = mode.r - 2 if mode.is_root else 3
        objs = _objects(maxcolor, 3)
        for s in objs:
            n = seq_size(s)
            for t in objs:
                m = seq_size(t)
                rd = ribbon_data(s, t, mode)
                for key, g, src, tgt in [
                        ("braiding", braiding_tl(n, m, mode), s + t, t + s),
                        ("twist", twist_tl(n, mode), s, s),
                        ("coev", coev_tl(n, mode), (), s + dual_seq(s)),
                        ("ev", ev_tl(n, mode), dual_seq(s) + s, ())]:
                    want = pairwise_diagram_compose(
                        jw_tensor(tgt, mode),
                        pairwise_diagram_compose(g, jw_tensor(src, mode)))
                    assert rd[key].value.to_pairs() == want.to_pairs(), \
                        (mode, s, t, key)


def test_hat_of_identity_is_the_projector():
    # one hatted identity per single color, up to 7 strands generic and
    # every admitted color (at most r - 2) at r = 5 and 8
    for mode, colors in ((GENERIC, range(1, 8)), (RootMode(5), range(1, 4)),
                         (RootMode(8), range(1, 7))):
        for k in colors:
            h = hat(identity_morphism(k, mode), (k,), (k,))
            assert h.value == jones_wenzl(k, mode).morphism, (mode, k)
            assert len(hom_basis((k,), (k,), mode)) == 1, (mode, k)


def test_closure_trace_of_hat_absorbs_one_projector():
    # tr(f d f) = tr(f f d) = tr(f d) by cyclicity and f f = f: an
    # independent check of every hatted endomorphism's trace, which the
    # benchmark's own trace check cannot see
    for mode in (GENERIC, RootMode(5), RootMode(7)):
        maxcolor = mode.r - 2 if mode.is_root else 5
        for s in _objects(maxcolor, 5):
            ps = jw_tensor(s, mode)
            for d in good_type_diagrams(s, s):
                g = TLMorphism.from_diagram(d, mode)
                assert closure_trace(hat(g, s, s).value) \
                    == closure_trace(compose(ps, g)), (mode, s, d)


def test_gram_frozen_values():
    m = GENERIC
    two = m.quantum_int(2)
    assert gram_matrix((1,), (1,)) == [[two]]
    g = gram_matrix((1, 1), (1, 1))
    assert g == [[two * two, -two], [-two, two * two]]


def test_gram_absorption_equals_literal():
    for s, t in [((1,), (1,)), ((1, 1), (1, 1)), ((1, 1), (2,)),
                 ((2, 1), (2, 1)), ((2,), (1, 1))]:
        assert gram_matrix(s, t) == literal_gram_matrix(s, t), (s, t)
    mode = RootMode(5)
    for s, t in [((1, 1), (1, 1)), ((2, 1), (2, 1)), ((3,), (1, 2))]:
        assert gram_matrix(s, t, mode) == literal_gram_matrix(s, t, mode)


@pytest.mark.parametrize("mode", [GENERIC] + [RootMode(r) for r in
                                              (3, 4, 5, 19, 20)], ids=str)
def test_gram_matches_composed_and_literal_routes(mode):
    # one contraction per entry against the composite closed afterwards, on
    # every pair of at most 6 strands, and against both factors hatted and
    # the braided trace on those of at most 4
    maxcolor = min(3, mode.r - 2) if mode.is_root else 3
    objs = _objects(maxcolor, 6)
    pairs = literal = 0
    for s in objs:
        for t in objs:
            if seq_size(s) + seq_size(t) > 6:
                continue
            g = gram_matrix(s, t, mode)
            assert g == composed_gram_matrix(s, t, mode), (s, t)
            pairs += 1
            if seq_size(s) + seq_size(t) <= 4:
                assert g == literal_gram_matrix(s, t, mode), (s, t)
                literal += 1
    assert (pairs, literal) == {1: (28, 15), 2: (147, 38),
                                3: (220, 46)}[maxcolor]


def test_purified_dims_match_truncated_fusion():
    for r in (3, 4, 5):
        mode = RootMode(r)
        objs = _objects(min(3, r - 2), 4)
        for s in objs:
            for t in objs:
                if (seq_size(s) + seq_size(t)) % 2:
                    continue
                if seq_size(s) + seq_size(t) > 6:
                    continue
                assert purified_hom_dim(s, t, mode) \
                    == hom_dimension(s, t, r), (r, s, t)


def test_purification_collapses_negligible_endomorphisms():
    # at r = 4 fusion of 2 (x) 2 truncates to the unit alone, so only one
    # of the three good-type endomorphisms survives the trace pairing
    mode = RootMode(4)
    assert len(hom_basis((2, 2), (2, 2), mode)) == 3
    assert purified_hom_dim((2, 2), (2, 2), mode) == 1
    assert purified_hom_dim((2, 2), (2, 2), GENERIC) == 3


def test_ribbon_data_hatted_axioms():
    mode = GENERIC
    for s, t in [((1,), (1,)), ((2,), (1,)), ((1, 1), (2,))]:
        rd = ribbon_data(s, t, mode)
        n, m = seq_size(s), seq_size(t)
        assert rd["braiding"].value \
            == compose(jw_tensor(t + s, mode),
                       compose(braiding_tl(n, m, mode), jw_tensor(s + t, mode)))
        assert rd["twist"].source == object_seq(s, mode)
        # hatted snake: (id (x) ev) . (coev (x) id) = hatted identity
        idn = jw_tensor(s, mode)
        lhs = compose(tensor(idn, rd["ev"].value),
                      tensor(rd["coev"].value, idn))
        assert lhs == idn


def test_trace_routes_match_braided_oracles():
    # closure_trace is (-1)^n markov_closure and quantum_trace_rep is
    # tr(K^(x)n . f); both must equal the full braided composites on every
    # hatted endomorphism basis element of every object of size <= 4
    for mode in (GENERIC, RootMode(3), RootMode(4), RootMode(5)):
        maxcolor = mode.r - 2 if mode.is_root else 4
        for s in _objects(maxcolor, 4):
            for h in hom_basis(s, s, mode):
                assert closure_trace(h.value) \
                    == braided_closure_trace(h.value), (mode, s)
                g = F_diagram(h.value)
                assert quantum_trace_rep(g) == categorical_trace_rep(g), \
                    (mode, s)
        # the K-trace of a module map cannot tell q from q^-1, so also
        # compare on the diagonal matrix units, which are not module maps
        for n in range(4):
            for i in range(1 << n):
                e = RepMap(n, n, {(i, i): mode.one()}, mode)
                assert quantum_trace_rep(e) == categorical_trace_rep(e), \
                    (mode, n, i)
    f5 = jones_wenzl(5).morphism
    assert closure_trace(f5) == braided_closure_trace(f5)


def test_closure_of_hatted_identity_is_quantum_dimension():
    m = GENERIC
    for n in (1, 2, 3):
        f = jones_wenzl(n, m).morphism
        assert closure_trace(f) == m.quantum_int(n + 1)
    mode = RootMode(5)
    assert closure_trace(jones_wenzl(4, mode).morphism).is_zero()


def test_equal_calls_share_one_cached_value():
    # defaults, keywords, lists and the unit color 0 all normalize to one
    # cache entry, so the recursion and every caller reuse the same object
    assert jones_wenzl(5) is jones_wenzl(5, GENERIC)
    assert jones_wenzl(3, RootMode(5)) is jones_wenzl(3, mode=RootMode(5))
    assert hom_basis([1, 0, 2], [3]) is hom_basis((1, 2), (3,), GENERIC)
    assert gram_matrix([1, 1], (2,)) is gram_matrix((1, 1), (2,), GENERIC)
    assert good_type_diagrams([1, 1], [2]) is good_type_diagrams((1, 1), (2,))
    assert jw_tensor([2, 1]) is jw_tensor((2, 1), GENERIC)
    assert braiding_tl(1, 1) is braiding_tl(1, 1, GENERIC)
    assert braiding_tl(1, 2) is braiding_tl(1, 2, mode=GENERIC)
    assert twist_tl(2) is twist_tl(2, GENERIC)
    assert rep_hom_basis(2, 2) is rep_hom_basis(2, 2, GENERIC)
    assert rep_hom_basis(1, 3, RootMode(5)) is rep_hom_basis(1, 3,
                                                             mode=RootMode(5))
    assert rep_coev(2) is rep_coev(2, GENERIC)
    assert rep_ev(2) is rep_ev(n=2, mode=GENERIC)
    assert rep_braiding(1, 2) is rep_braiding(1, 2, GENERIC)
    assert rep_twist(3) is rep_twist(3, mode=GENERIC)
