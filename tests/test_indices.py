from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qzeta import (
    THETA,
    SignedIndex,
    bar,
    boxplus,
    boxplus_fold,
    delta,
    idx,
    oplus,
    oplus_fold,
    parse_shift,
    proj,
    quad_exponent,
    shift_latex,
    shift_str,
    signed_string,
)

signed_indices = st.builds(
    SignedIndex, st.integers(min_value=0, max_value=20), st.sampled_from([1, -1])
)
shifts = st.one_of(st.just(THETA), st.integers(min_value=-6, max_value=6))


def test_zero_and_bar_zero_are_distinct():
    assert idx(0) != bar(0)
    assert str(idx(0)) == "0"
    assert str(bar(0)) == "-0"
    assert SignedIndex.parse("-0") == bar(0)


def test_parse_round_trip():
    for e in (idx(0), idx(7), bar(0), bar(3)):
        assert SignedIndex.parse(str(e)) == e
    with pytest.raises(ValueError):
        SignedIndex.parse("x")
    with pytest.raises(ValueError):
        SignedIndex.parse("")


def test_signed_index_validation():
    with pytest.raises(ValueError):
        SignedIndex(-1, 1)
    with pytest.raises(ValueError):
        SignedIndex(2, 0)
    # a bool is an int, but would print as True
    with pytest.raises(ValueError, match="got True"):
        SignedIndex(True)


def test_signed_string_coercion():
    assert signed_string([3, -4, bar(0)]) == (idx(3), bar(4), bar(0))
    with pytest.raises(TypeError):
        signed_string(["3"])
    with pytest.raises(TypeError, match="cannot interpret True"):
        signed_string([2, True])


def test_signed_string_shares_one_index_per_int():
    # True == 1 as a dict key, so a memo looked up before the type check
    # would read True as the index 1
    with pytest.raises(TypeError, match="cannot interpret True"):
        signed_string((1, True))
    with pytest.raises(TypeError, match="cannot interpret False"):
        signed_string((0, False))
    entries = (2, -3, 2, 0, -3, 1, bar(1), 2, idx(2))
    got = signed_string(entries)
    assert got == tuple(
        e if isinstance(e, SignedIndex) else SignedIndex(abs(e), -1 if e < 0 else 1)
        for e in entries
    )
    assert got[0] is got[2] is got[7] and got[1] is got[4]


def test_oplus_examples():
    assert oplus(idx(2), idx(3)) == idx(5)
    assert oplus(bar(2), idx(3)) == bar(5)
    assert oplus(bar(2), bar(3)) == idx(5)
    assert oplus_fold([idx(1), bar(1), bar(1)]) == idx(3)
    with pytest.raises(ValueError):
        oplus_fold([])


@given(signed_indices, signed_indices)
def test_oplus_commutative(a, b):
    assert oplus(a, b) == oplus(b, a)


@given(signed_indices, signed_indices, signed_indices)
def test_oplus_associative(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))


def test_boxplus_exceptional_pairs():
    assert boxplus(1, -1) is THETA
    assert boxplus(-1, 1) == 0
    assert boxplus(THETA, -1) == -1
    assert boxplus(5, THETA) == 5
    assert boxplus(THETA, THETA) is THETA
    assert boxplus(2, -1) == 1
    assert boxplus(-1, -1) == -2


def test_boxplus_not_commutative_or_associative():
    assert boxplus(1, -1) != boxplus(-1, 1)
    # (0 + 1) + (-1) resolves the exceptional pair, 0 + ((-1) after 1) does not
    assert boxplus(boxplus(0, 1), -1) is THETA
    assert boxplus(0, boxplus(1, -1)) == 0


def test_boxplus_fold_is_left_to_right():
    assert boxplus_fold([0, 1, -1]) is THETA
    assert boxplus_fold([1, -1, 1]) == 1
    assert boxplus_fold([THETA]) is THETA
    with pytest.raises(ValueError):
        boxplus_fold([])


@given(st.lists(shifts, min_size=1, max_size=6))
def test_proj_is_additive_along_folds(items):
    folded = boxplus_fold(items)
    assert proj(folded) == sum(proj(x) for x in items)


def test_parse_shift():
    assert parse_shift("theta") is THETA
    assert parse_shift("-3") == -3
    assert parse_shift("0") == 0
    with pytest.raises(ValueError):
        parse_shift("q")
    assert shift_str(THETA) == "theta"
    assert shift_latex(THETA) == r"\theta"
    assert shift_str(-2) == "-2"


def test_quad_exponent_values():
    # positive shifts scale the triangular number, nonpositive ones also
    # subtract k, theta contributes nothing
    assert quad_exponent(1, 4) == 6
    assert quad_exponent(2, 3) == 6
    assert quad_exponent(0, 5) == -5
    assert quad_exponent(-2, 3) == -9
    assert quad_exponent(THETA, 9) == 0
    with pytest.raises(ValueError):
        quad_exponent(1, 0)


@given(st.integers(min_value=-8, max_value=8).filter(lambda r: r != 0),
       st.integers(min_value=1, max_value=40))
def test_quad_exponent_shift_by_one(r, k):
    assert quad_exponent(r, k) + quad_exponent(1, k) == quad_exponent(boxplus(r, 1), k)


@given(st.sampled_from([0, -1]), st.integers(min_value=1, max_value=40))
def test_quad_exponent_shift_by_two(d, k):
    assert k * k + quad_exponent(d, k) == quad_exponent(boxplus(2, d), k)


def test_delta():
    assert delta((2, 1)) == 1
    assert delta((2, 2)) == -1
    assert delta((5,)) == -1
    assert delta((1,)) == 1
    with pytest.raises(ValueError):
        delta(())
