import random

import pytest

from corpus import CLOSED_WORDS, RMOVE_PAIRS
from oracles import (catalan, noncrossing_matchings, pairwise_resolve,
                     state_sum_bracket)
from skeinrep.diagrams import (SimpleDiagram, TLMorphism, WordError, bracket,
                               cap_diagram, compose, cup_diagram, delta,
                               e_diagram, e_generator, enumerate_simple,
                               format_word, identity_diagram,
                               identity_morphism, parse_word, resolve,
                               stack_simple, tensor, tensor_simple)
from skeinrep.scalars import GENERIC, RootMode, specialize

WORDS = dict(CLOSED_WORDS)


def test_enumerate_counts():
    for k in range(6):
        assert len(enumerate_simple(k, k)) == catalan(k)
    assert len(enumerate_simple(0, 0)) == 1
    assert enumerate_simple(1, 2) == []
    assert enumerate_simple(3, 0) == []
    assert len(enumerate_simple(2, 4)) == catalan(3)


def test_enumerate_matches_chord_oracle():
    for k, l in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (4, 2),
                 (0, 4), (5, 3), (1, 5)]:
        got = {d.match for d in enumerate_simple(k, l)}
        assert got == noncrossing_matchings(k, l)
    # output is sorted and duplicate-free
    ds = enumerate_simple(4, 4)
    assert ds == sorted(ds) and len(set(ds)) == len(ds)


def test_simple_diagram_validation():
    with pytest.raises(ValueError):
        SimpleDiagram(1, 1, (0,))
    with pytest.raises(ValueError):
        SimpleDiagram(1, 1, (0, 1))  # fixed points
    with pytest.raises(ValueError):
        SimpleDiagram(2, 2, (1, 0, 3, 3))  # not an involution
    with pytest.raises(ValueError):
        SimpleDiagram(2, 2, (3, 2, 1, 0))  # crossing arcs
    d = SimpleDiagram(2, 2, (1, 0, 3, 2))
    assert d.involution_array() == [2, 1, 4, 3]
    assert SimpleDiagram.from_involution_array(2, 2, [2, 1, 4, 3]) == d


def test_generator_diagrams():
    assert identity_diagram(3).match == (3, 4, 5, 0, 1, 2)
    e = e_diagram(1, 2)
    assert e.match == (1, 0, 3, 2)
    assert cup_diagram(1, 0).match == (1, 0)
    assert cap_diagram(1, 2).match == (1, 0)
    d, loops = stack_simple(cap_diagram(1, 2), cup_diagram(1, 0))
    assert d == SimpleDiagram(0, 0, ()) and loops == 1


def test_tl_relations_small():
    m = GENERIC
    dl = delta(m)
    for k in range(2, 5):
        for i in range(1, k):
            ei = e_generator(i, k, m)
            assert compose(ei, ei) == ei.scale(dl)
            for j in range(1, k):
                ej = e_generator(j, k, m)
                if abs(i - j) == 1:
                    assert compose(ei, compose(ej, ei)) == ei
                elif i != j:
                    assert compose(ei, ej) == compose(ej, ei)


def test_compose_tensor_structure():
    rng = random.Random(7)
    m = GENERIC

    def rand_morphism(k, l):
        ds = enumerate_simple(k, l)
        out = TLMorphism.zero(k, l, m)
        for d in rng.sample(ds, min(2, len(ds))):
            out = out + TLMorphism.from_diagram(d, m).scale(
                m.from_int(rng.randint(-3, 3)))
        return out

    for _ in range(25):
        k, l, n = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        if (k + l) % 2 or (l + n) % 2:
            continue
        f = rand_morphism(l, n)
        g = rand_morphism(k, l)
        h = rand_morphism(n, rng.choice([n, n + 2]))
        assert compose(h, compose(f, g)) == compose(compose(h, f), g)
        u = rand_morphism(2, 2)
        # interchange law
        assert compose(tensor(h, u), tensor(f, u)) \
            == tensor(compose(h, f), compose(u, u))
        assert compose(tensor(f, identity_morphism(2, m)), tensor(g, u)) \
            == tensor(compose(f, g), u)


def test_tensor_keeps_every_pair_of_terms():
    # tensor_simple is injective for fixed arities, so no two pairs of
    # terms meet on one diagram
    rng = random.Random(5)
    for mode in (GENERIC, RootMode(5)):
        for _ in range(20):
            k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
            l1 = rng.randrange(k1 % 2, 5, 2)
            l2 = rng.randrange(k2 % 2, 5, 2)
            f, g = (TLMorphism(k, l, {d: mode.from_int(rng.choice([-2, 1, 3]))
                                      for d in enumerate_simple(k, l)
                                      if rng.random() < 0.7}, mode)
                    for k, l in ((k1, l1), (k2, l2)))
            fg = tensor(f, g)
            assert len(fg.terms) == len(f.terms) * len(g.terms)
            for d1, c1 in f.terms.items():
                for d2, c2 in g.terms.items():
                    assert fg.terms[tensor_simple(d1, d2)] == c1 * c2


def test_identity_neutral():
    m = GENERIC
    f = e_generator(1, 3, m)
    assert compose(identity_morphism(3, m), f) == f
    assert compose(f, identity_morphism(3, m)) == f


def test_word_parse_format_round_trip():
    for _, text in CLOSED_WORDS:
        w = parse_word(text)
        assert parse_word(format_word(w)) == w
    w = parse_word("id 3\nx+ 1 of 3")
    assert w.inputs == 3 and w.outputs == 3


def test_word_errors():
    with pytest.raises(WordError):
        parse_word("")
    with pytest.raises(WordError):
        parse_word("cup 1")
    with pytest.raises(WordError):
        parse_word("frob 1 of 2")
    with pytest.raises(WordError):
        parse_word("cup 1 of 0 ; cap 1 of 4")  # arity mismatch
    with pytest.raises(WordError):
        parse_word("cap 1 of 0")  # nothing to cap
    with pytest.raises(WordError):
        parse_word("x+ 2 of 2")  # position out of range
    with pytest.raises(WordError):
        bracket(parse_word("cup 1 of 0"))  # open word has no bracket


def test_bracket_frozen_values():
    m = GENERIC
    a = m.a_power(1)
    dl = delta(m)
    assert bracket(parse_word(WORDS["circle"])) == dl
    assert bracket(parse_word(WORDS["nested_pair"])) == dl * dl
    assert bracket(parse_word(WORDS["split_pair"])) == dl * dl
    assert bracket(parse_word(WORDS["trefoil"])) \
        == a ** 7 + a ** 3 + a ** -1 - a ** -9
    assert bracket(parse_word(WORDS["mirror_trefoil"])) \
        == -(a ** 9) + a + a ** -3 + a ** -7
    assert bracket(parse_word(WORDS["hopf"])) \
        == a ** 6 + a ** 2 + a ** -2 + a ** -6


def test_bracket_curl_factors():
    # removing a curl multiplies by -a^3 or -a^-3 depending on its sign
    m = GENERIC
    a = m.a_power(1)
    circle = bracket(parse_word(WORDS["circle"]))
    assert bracket(parse_word(WORDS["kink_plus"])) == -(a ** -3) * circle
    assert bracket(parse_word(WORDS["kink_minus"])) == -(a ** 3) * circle
    assert bracket(parse_word(WORDS["double_kink"])) == a ** -6 * circle


def test_bracket_matches_state_sum():
    for name, text in CLOSED_WORDS:
        w = parse_word(text)
        assert bracket(w) == state_sum_bracket(w), name


def test_bracket_root_mode_agrees_with_specialization():
    for r in (3, 5):
        m = RootMode(r)
        for name in ("trefoil", "hopf", "tangle_5x"):
            w = parse_word(WORDS[name])
            assert bracket(w, m) == specialize(bracket(w), r), (name, r)
            assert bracket(w, m) == state_sum_bracket(w, m), (name, r)


def test_resolve_matches_pairwise_oracle():
    for mode in (GENERIC, RootMode(3), RootMode(4), RootMode(5)):
        for name, text in CLOSED_WORDS:
            w = parse_word(text)
            assert resolve(w, mode).to_pairs() \
                == pairwise_resolve(w, mode).to_pairs(), (name, mode)


def test_reidemeister_pairs():
    for left, right in RMOVE_PAIRS:
        assert resolve(parse_word(left)) == resolve(parse_word(right)), \
            (left, right)
