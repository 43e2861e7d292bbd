import pytest

from oracles import (braided_closure_trace, catalan, chebyshev_loop,
                     pairwise_diagram_compose, pairwise_markov_closure,
                     wenzl_jones_wenzl)
from skeinrep.diagrams import (TLMorphism, compose, e_generator,
                               identity_diagram, identity_morphism, tensor)
from skeinrep.scalars import GENERIC, PoleError, RootMode
from skeinrep.tl_category import (braiding_tl, closure_trace, coev_tl, ev_tl,
                                  jones_wenzl, jw_tensor, markov_closure,
                                  twist_tl)


def _identity_coefficient(f: TLMorphism):
    d = identity_diagram(f.inputs)
    return f.terms.get(d, f.mode.zero())


def _check_jw(k, mode):
    f = jones_wenzl(k, mode).morphism
    assert compose(f, f) == f
    assert _identity_coefficient(f).is_one()
    for i in range(1, k):
        e = e_generator(i, k, mode)
        assert compose(e, f).is_zero()
        assert compose(f, e).is_zero()


def test_jones_wenzl_generic():
    for k in range(5):
        _check_jw(k, GENERIC)
    f2 = jones_wenzl(2).morphism
    rows = f2.to_pairs()
    m = GENERIC
    # f_2 = id - e / delta, and -1/delta = 1/[2]
    assert rows == [
        ([2, 1, 4, 3], m.one() / m.quantum_int(2)),
        ([3, 4, 1, 2], m.one()),
    ]


def test_jones_wenzl_at_roots():
    for r in (3, 4, 5):
        mode = RootMode(r)
        for k in range(r):
            _check_jw(k, mode)
        message = f"no {r}-strand projector: quantum integer [{r}]_q " \
            f"vanishes in mode root:{r}"
        # past r the same pole is reported at once, with no recursion
        for k in (r, r + 1, 1500):
            with pytest.raises(PoleError) as err:
                jones_wenzl(k, mode)
            assert str(err.value) == message, (r, k)


def test_jones_wenzl_matches_wenzl_oracle():
    # the one-sided recursion against the two-sided Wenzl recursion, term
    # by term: the same diagrams with equal scalars
    cases = [(k, GENERIC) for k in range(8)]
    cases += [(k, RootMode(r)) for r in range(3, 9) for k in range(r)]
    for k, mode in cases:
        f = jones_wenzl(k, mode).morphism
        assert f.to_pairs() == wenzl_jones_wenzl(k, mode).to_pairs(), (k, mode)


def test_jones_wenzl_past_seven_strands():
    # identity coefficient 1 and every e_i killed on both sides determine
    # the projector, so idempotence follows without composing f with f
    for k in (8, 9):
        f = jones_wenzl(k).morphism
        assert len(f.terms) == catalan(k)
        assert _identity_coefficient(f).is_one()
        for i in range(1, k):
            e = e_generator(i, k)
            assert compose(e, f).is_zero(), (k, i)
            assert compose(f, e).is_zero(), (k, i)


def test_compose_and_closure_match_pairwise_oracles():
    # the bucketed contraction against one canonical product and one
    # canonical sum per term pair, on projectors and their e_i products
    cases = [(k, GENERIC) for k in range(7)]
    cases += [(k, RootMode(r)) for r in (3, 4, 5) for k in range(r)]
    for k, mode in cases:
        f = jones_wenzl(k, mode).morphism
        products = [(f, f)]
        for i in range(1, k):
            e = e_generator(i, k, mode)
            products += [(e, f), (f, e)]
        assert markov_closure(f) == pairwise_markov_closure(f), (k, mode)
        for x, y in products:
            got = compose(x, y)
            assert got.to_pairs() == pairwise_diagram_compose(x, y).to_pairs(), \
                (k, mode)
            assert markov_closure(got) == pairwise_markov_closure(got), \
                (k, mode)


def test_jw_tensor():
    m = GENERIC
    assert jw_tensor((2, 1), m) \
        == tensor(jones_wenzl(2, m).morphism, jones_wenzl(1, m).morphism)
    assert jw_tensor((), m).inputs == 0


def test_closure_trace_values():
    m = GENERIC
    two = m.quantum_int(2)
    assert closure_trace(identity_morphism(0, m)) == m.one()
    assert closure_trace(identity_morphism(1, m)) == two
    assert closure_trace(identity_morphism(2, m)) == two * two
    assert closure_trace(e_generator(1, 2, m)) == -two
    # the loop filter closes to a quantum integer, Chebyshev up to sign
    for k in range(10):
        t = closure_trace(jones_wenzl(k).morphism)
        assert t == m.quantum_int(k + 1)
        cheb = chebyshev_loop(k)
        assert t == (cheb if k % 2 == 0 else -cheb)


def test_closure_trace_cyclic_and_multiplicative():
    m = GENERIC
    f = braiding_tl(1, 1, m)
    g = e_generator(1, 2, m)
    assert closure_trace(compose(f, g)) == closure_trace(compose(g, f))
    assert closure_trace(tensor(f, g)) \
        == closure_trace(f) * closure_trace(g)


def test_markov_closure_sign():
    # the braided closure differs from the bare one by (-1)^strands
    m = GENERIC
    f = identity_morphism(3, m)
    assert braided_closure_trace(f) == -markov_closure(f)
    g = identity_morphism(2, m)
    assert braided_closure_trace(g) == markov_closure(g)


def test_braiding_hexagons():
    m = GENERIC
    for n in (1, 2):
        for k in (1, 2):
            for l in (1, 2):
                lhs = braiding_tl(n, k + l, m)
                rhs = compose(
                    tensor(identity_morphism(k, m), braiding_tl(n, l, m)),
                    tensor(braiding_tl(n, k, m), identity_morphism(l, m)))
                assert lhs == rhs
                lhs2 = braiding_tl(n + k, l, m)
                rhs2 = compose(
                    tensor(braiding_tl(n, l, m), identity_morphism(k, m)),
                    tensor(identity_morphism(n, m), braiding_tl(k, l, m)))
                assert lhs2 == rhs2


def test_braiding_naturality():
    m = GENERIC
    f = e_generator(1, 2, m)  # 2 -> 2
    g = coev_tl(1, m)         # 0 -> 2
    # slide f under the braiding with a single strand
    lhs = compose(braiding_tl(2, 1, m), tensor(f, identity_morphism(1, m)))
    rhs = compose(tensor(identity_morphism(1, m), f), braiding_tl(2, 1, m))
    assert lhs == rhs
    # slide a coevaluation across
    lhs = compose(braiding_tl(2, 1, m), tensor(g, identity_morphism(1, m)))
    rhs = tensor(identity_morphism(1, m), g)
    assert lhs == compose(rhs, identity_morphism(1, m))


def test_yang_baxter():
    m = GENERIC
    c = braiding_tl(1, 1, m)
    i1 = identity_morphism(1, m)
    left = compose(tensor(c, i1), compose(tensor(i1, c), tensor(c, i1)))
    right = compose(tensor(i1, c), compose(tensor(c, i1), tensor(i1, c)))
    assert left == right


def test_snake_identities():
    m = GENERIC
    for n in (1, 2, 3):
        idn = identity_morphism(n, m)
        lhs = compose(tensor(idn, ev_tl(n, m)), tensor(coev_tl(n, m), idn))
        assert lhs == idn
        rhs = compose(tensor(ev_tl(n, m), idn), tensor(idn, coev_tl(n, m)))
        assert rhs == idn


def test_twist_values_and_compatibility():
    m = GENERIC
    a = m.a_power(1)
    assert twist_tl(1, m) == identity_morphism(1, m).scale(a ** 3)
    for n in (1, 2):
        for k in (1, 2):
            lhs = twist_tl(n + k, m)
            rhs = compose(
                braiding_tl(k, n, m),
                compose(braiding_tl(n, k, m),
                        tensor(twist_tl(n, m), twist_tl(k, m))))
            assert lhs == rhs
    # the twist is central: it commutes with e_1 on two strands
    e = e_generator(1, 2, m)
    assert compose(twist_tl(2, m), e) == compose(e, twist_tl(2, m))
    # the twist is built by the ribbon recursion; check it against the
    # literal capped-curl composite, (-1)^n times the curl
    for n in range(1, 6):
        idn = identity_morphism(n, m)
        curl = compose(
            tensor(idn, ev_tl(n, m)),
            compose(tensor(braiding_tl(n, n, m), idn),
                    tensor(idn, coev_tl(n, m))))
        assert twist_tl(n, m) == (-curl if n % 2 else curl), n


def test_root_mode_braiding_still_ribbon():
    mode = RootMode(5)
    c = braiding_tl(1, 1, mode)
    i1 = identity_morphism(1, mode)
    left = compose(tensor(c, i1), compose(tensor(i1, c), tensor(c, i1)))
    right = compose(tensor(i1, c), compose(tensor(c, i1), tensor(i1, c)))
    assert left == right
    assert closure_trace(jones_wenzl(4, mode).morphism).is_zero()
    # every projector that exists closes to its quantum integer, and the
    # last one, k = r - 1, to [r]_q = 0
    for r in (3, 4, 5):
        mode = RootMode(r)
        for k in range(r):
            t = closure_trace(jones_wenzl(k, mode).morphism)
            assert t == mode.quantum_int(k + 1), (r, k)
        assert t.is_zero(), r
