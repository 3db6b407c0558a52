import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qzeta.rules
from qzeta import (
    THETA,
    ClassicalTerm,
    Compiled,
    Triple,
    Twos,
    TwosC,
    TwosOnes,
    attach,
    bar,
    base_state,
    classical_expand,
    closed_pattern,
    compose,
    delta,
    expand,
    idx,
    is_admissible,
    parse_composition,
    tokenize,
    zeta_admissible,
    CLOSED_FAMILIES,
)


def all_compositions(max_weight):
    out = []

    def rec(prefix, budget):
        if prefix:
            out.append(tuple(prefix))
        for e in range(1, budget + 1):
            prefix.append(e)
            rec(prefix, budget - e)
            prefix.pop()

    rec([], max_weight)
    return out


def test_parse_composition():
    assert parse_composition("2,1,3") == (2, 1, 3)
    assert parse_composition("2^3,1,4") == (2, 2, 2, 1, 4)
    assert parse_composition("2^0,3") == (3,)
    assert parse_composition(" 5 ") == (5,)
    for bad in ("", "2,,3", "2,x", "0,1", "2^-1", "-3", "3,2^-1", "2^0", "x^0", "2^x"):
        with pytest.raises(ValueError):
            parse_composition(bad)


def test_zeta_admissible():
    assert zeta_admissible((2, 1))
    assert not zeta_admissible((1, 2))


def test_block_validation():
    with pytest.raises(ValueError):
        Twos(-1)
    with pytest.raises(ValueError):
        TwosOnes(-1, 1)
    with pytest.raises(ValueError):
        TwosOnes(0, 0)
    with pytest.raises(ValueError):
        TwosC(0, 2)
    assert Twos(2).entries() == (2, 2)
    assert TwosOnes(1, 2).entries() == (2, 1, 1)
    assert TwosC(1, 4).entries() == (2, 4)


def test_tokenize_canonical_example():
    comp = (3, 1, 2, 7, 1, 1, 5, 2, 2, 4)
    assert tokenize(comp) == [
        TwosC(0, 3),
        TwosOnes(0, 1),
        TwosC(1, 7),
        TwosOnes(0, 2),
        TwosC(0, 5),
        TwosC(2, 4),
    ]
    assert tokenize((2, 2, 2)) == [Twos(3)]
    assert tokenize((2, 2, 1)) == [TwosOnes(2, 1)]
    with pytest.raises(ValueError):
        tokenize(())
    with pytest.raises(ValueError, match="positive integers, got True"):
        tokenize((2, True))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=7))
def test_tokenize_round_trips(entries):
    comp = tuple(entries)
    blocks = tokenize(comp)
    rebuilt = tuple(x for b in blocks for x in b.entries())
    assert rebuilt == comp


def test_base_patterns():
    d, pat = compose((2, 2, 2))
    assert (d, pat) == (-1, Triple((bar(6),), (3,), (1,)))
    d, pat = compose((2, 1))
    assert (d, pat) == (1, Triple((idx(3),), (2,), (2,)))
    d, pat = compose((2, 1, 1, 1))
    assert (d, pat) == (1, Triple((idx(3), idx(1), idx(1)), (2, 1, 1), (2, 0, 0)))
    d, pat = compose((4,))
    assert (d, pat) == (-1, Triple((bar(2), idx(1), idx(1)), (1, 0, 0), (1, THETA, THETA)))
    d, pat = compose((1, 4))
    assert (d, pat) == (
        -1,
        Triple((idx(1), bar(2), idx(1), idx(1)), (1, 1, 0, 0), (2, -1, THETA, THETA)),
    )


def test_two_term_family_pattern_and_expansion():
    for a in range(0, 3):
        for b in range(0, 3):
            comp = (2,) * b + (3,) + (2,) * a + (1,)
            d, pat = compose(comp)
            assert d == 1
            assert pat == Triple(
                (bar(2 * b + 2), bar(2 * a + 2)), (b + 1, a + 1), (1, 1)
            )
            assert expand(pat) == [
                Triple((idx(2 * a + 2 * b + 4),), (a + b + 2,), (2,)),
                pat,
            ]


def test_four_term_display_expansion():
    for a0, b, a1 in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 1)):
        comp = (2,) * a0 + (1,) + (2,) * b + (3,) + (2,) * a1 + (1,)
        d, pat = compose(comp)
        assert d == 1
        assert pat == Triple(
            (idx(2 * a0 + 1), bar(2 * b + 2), bar(2 * a1 + 2)),
            (a0 + 1, b + 1, a1 + 1),
            (2, -1, 1),
        )
        w = 2 * (a0 + b + a1)
        assert expand(pat) == [
            Triple((idx(w + 5),), (a0 + b + a1 + 3,), (2,)),
            Triple(
                (idx(2 * a0 + 1), idx(2 * a1 + 2 * b + 4)),
                (a0 + 1, a1 + b + 2),
                (2, 0),
            ),
            Triple(
                (bar(2 * a0 + 2 * b + 3), bar(2 * a1 + 2)),
                (a0 + b + 2, a1 + 1),
                (1, 1),
            ),
            pat,
        ]


def test_eight_term_display_expansion():
    for a, b, c, d_ in ((1, 0, 0, 0), (1, 1, 0, 1), (2, 1, 1, 0)):
        comp = (
            (2,) * a + (1,) + (2,) * b + (1,) + (2,) * c + (3,) + (2,) * d_ + (1,)
        )
        sign, pat = compose(comp)
        assert sign == 1
        assert pat == Triple(
            (idx(2 * a + 1), idx(2 * b + 1), bar(2 * c + 2), bar(2 * d_ + 2)),
            (a + 1, b + 1, c + 1, d_ + 1),
            (2, 0, -1, 1),
        )
        got = expand(pat)
        assert [tri.r for tri in got] == [
            (2,),
            (2, 0),
            (2, 0),
            (1, 1),
            (2, 0, 0),
            (2, -1, 1),
            (2, -1, 1),
            (2, 0, -1, 1),
        ]
        merged = got[0]
        assert merged.s == (idx(2 * (a + b + c + d_) + 6),)
        assert merged.t == (a + b + c + d_ + 4,)


def test_compose_weight_identity_exhaustive():
    for comp in all_compositions(10):
        d, pat = compose(comp)
        assert pat.weight == sum(comp)
        assert d == delta(comp)
        assert is_admissible(pat)
        # compose is the right-to-left fold of attach from the last block's base
        blocks = tokenize(comp)
        state = base_state(blocks[-1])
        for block in reversed(blocks[:-1]):
            state = attach(block, state)
        assert (d, pat) == state


def test_compose_builds_one_triple(monkeypatch):
    # compose keeps the slots as lists and builds the Triple once, not once
    # for each of the 50 blocks
    built = []

    def counted(*args):
        built.append(args)
        return Triple(*args)

    monkeypatch.setattr(qzeta.rules, "Triple", counted)
    for comp, depth in (((3,) * 50, 51), ((2, 1) * 50, 50)):
        built.clear()
        d, pat = compose(comp)
        assert len(built) == 1
        assert (d, pat.depth, pat.weight) == (delta(comp), depth, sum(comp))


def test_attach_merges_match_bigger_blocks():
    # stacking extra pairs onto a block equals the merged block
    for a, b, c in ((1, 0, 3), (2, 1, 4), (1, 2, 5)):
        merged = compose((2,) * (a + b) + (c,))[1]
        step = attach(Twos(a), base_state(TwosC(b, c)))
        assert step.pattern == merged
    for a, extra in ((1, 1), (2, 3)):
        assert attach(Twos(extra), base_state(Twos(a))) == compose((2,) * (a + extra))


def atomic_blocks(block):
    if isinstance(block, Twos):
        return [Twos(1)] * block.a
    if isinstance(block, TwosOnes):
        return [Twos(1)] * block.a + [TwosOnes(0, 1)] * block.l
    return [Twos(1)] * block.b + [TwosC(0, block.c)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6))
def test_segmentation_invariance(entries):
    comp = tuple(entries)
    pieces = [p for blk in tokenize(comp) for p in atomic_blocks(blk)]
    state = base_state(pieces[-1])
    for p in reversed(pieces[:-1]):
        state = attach(p, state)
    assert state == compose(comp)


def test_classical_expand_gate_and_terms():
    with pytest.raises(ValueError):
        classical_expand((1, 2))
    terms = classical_expand((2, 1))
    assert terms == [ClassicalTerm(1, 2, (idx(3),))]
    terms = classical_expand((2, 1, 2, 1))
    assert [(t.coefficient, t.index) for t in terms] == [
        (2, (idx(6),)),
        (4, (idx(3), idx(3))),
    ]


def test_classical_expand_key_coefficients():
    terms = classical_expand((2, 1, 1, 3, 1))
    assert [t.coefficient for t in terms] == [2, 4, 4, 4, 8, 8, 8, 16]
    assert all(t.sign == 1 for t in terms)
    assert [t.index for t in terms] == [
        (idx(8),),
        (idx(3), idx(5)),
        (idx(4), idx(4)),
        (bar(6), bar(2)),
        (idx(3), idx(1), idx(4)),
        (idx(3), bar(3), bar(2)),
        (idx(4), bar(2), bar(2)),
        (idx(3), idx(1), bar(2), bar(2)),
    ]


def test_classical_coefficient_total():
    for comp in all_compositions(8):
        if not zeta_admissible(comp):
            continue
        m = compose(comp).pattern.depth
        assert sum(t.coefficient for t in classical_expand(comp)) == 2 * 3 ** (m - 1)


@pytest.mark.parametrize("family", sorted(CLOSED_FAMILIES))
def test_closed_families_spot(family):
    spots = {
        "twos": [(2,), (5,)],
        "twos-ones": [(1, 2), (0, 3), (3, 1)],
        "c-ones": [(3, 1), (5, 2)],
        "2c2": [([1], []), ([1, 2], [4]), ([0, 1, 0], [3, 5])],
        "2c21": [([0], [3], [0]), ([1, 0], [4, 3], [0, 2])],
        "212c21": [(0, [], [], []), (1, [0], [3], [1])],
        "2c212": [([0], [3], [0], 1), ([1, 0], [5, 3], [0, 2], 2)],
        "212c212": [(0, [], [], [], 1), (2, [1], [4], [1], 1)],
    }
    for args in spots[family]:
        comp, compiled = closed_pattern(family, *args)
        assert compiled == compose(comp)


def test_closed_pattern_rejects_unknown_family():
    with pytest.raises(ValueError):
        closed_pattern("nope", 1)
