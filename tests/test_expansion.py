from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qzeta import (
    THETA,
    Triple,
    bar,
    boxplus_fold,
    expand,
    idx,
    is_admissible,
    iter_expansion,
    oplus_fold,
    proj,
)

entries = st.builds(
    lambda m, s: idx(m) if s else bar(m),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)
offsets = st.integers(min_value=0, max_value=3)
shifts = st.one_of(st.just(THETA), st.integers(min_value=-3, max_value=3))


@st.composite
def patterns(draw, max_depth=8):
    m = draw(st.integers(min_value=1, max_value=max_depth))
    return Triple(
        tuple(draw(st.lists(entries, min_size=m, max_size=m))),
        tuple(draw(st.lists(offsets, min_size=m, max_size=m))),
        tuple(draw(st.lists(shifts, min_size=m, max_size=m))),
    )


def test_triple_validation():
    with pytest.raises(ValueError):
        Triple((idx(1),), (0, 1), (1,))
    with pytest.raises(ValueError):
        Triple((), (), ())
    with pytest.raises(ValueError):
        Triple((idx(1),), (-1,), (1,))
    with pytest.raises(ValueError):
        Triple((idx(1),), (0,), ("x",))
    # bools are ints, but would print as [2; True; True]
    with pytest.raises(ValueError, match="offsets .* got True"):
        Triple((2,), (True,), (True,))
    with pytest.raises(ValueError, match="shifts .* got True"):
        Triple((2,), (0,), (True,))


def test_triple_coerces_plain_ints():
    tri = Triple((3, -4), (1, 0), (2, THETA))
    assert tri.s == (idx(3), bar(4))
    assert tri.weight == 7
    assert tri.depth == 2


def test_str_and_latex():
    tri = Triple((bar(4), idx(1)), (2, 0), (1, THETA))
    assert str(tri) == "[-4,1; 2,0; 1,theta]"
    assert tri.latex() == r"[\overline{4},1; 2,0; 1,\theta]"


def test_expansion_of_three_slots_by_hand():
    pat = Triple((idx(2), bar(1), idx(1)), (1, 0, 2), (2, -1, 1))
    got = expand(pat)
    # canonical order: comma subsets by size, lexicographic within a size
    assert got == [
        Triple((bar(4),), (3,), (2,)),          # no commas, r = (2 + -1) + 1
        Triple((idx(2), bar(2)), (1, 2), (2, 0)),   # comma after slot 0, -1 + 1 = 0
        Triple((bar(3), idx(1)), (1, 2), (1, 1)),   # comma after slot 1
        pat,
    ]


def test_left_fold_discriminates_merge_order():
    pat = Triple((idx(1), idx(1), idx(1)), (0, 0, 0), (0, 1, -1))
    merged = expand(pat)[0]
    # left fold: (0 + 1) + -1 hits the exceptional pair and yields theta;
    # a right fold would give 0 instead
    assert merged.r == (THETA,)


@settings(max_examples=60, deadline=None)
@given(patterns())
def test_expansion_cardinality_and_order(pat):
    got = expand(pat)
    assert len(got) == 2 ** (pat.depth - 1)
    assert got[-1] == pat
    assert got[0].depth == 1
    assert list(iter_expansion(pat)) == got


@settings(max_examples=60, deadline=None)
@given(patterns())
def test_expansion_conservation(pat):
    total_t = sum(pat.t)
    total_proj = sum(proj(x) for x in pat.r)
    for tri in iter_expansion(pat):
        assert tri.weight == pat.weight
        assert sum(tri.t) == total_t
        assert sum(proj(x) for x in tri.r) == total_proj


def test_is_admissible_cases():
    assert is_admissible(Triple((idx(2),), (1,), (2,)))
    assert is_admissible(Triple((idx(2), idx(1)), (1, 0), (2, -1)))
    assert is_admissible(Triple((idx(3), idx(3)), (2, 2), (2, 0)))
    assert is_admissible(Triple((idx(1),), (0,), (1,)))
    assert not is_admissible(Triple((idx(1),), (0,), (3,)))
    assert not is_admissible(Triple((idx(1),), (0,), (0,)))
    assert not is_admissible(Triple((idx(2), idx(1)), (1, 0), (2, -2)))
    # theta keeps the running fold where it was
    assert is_admissible(Triple((idx(2), idx(1)), (1, 0), (1, THETA)))


@settings(max_examples=60, deadline=None)
@given(patterns(max_depth=6))
def test_admissibility_survives_expansion(pat):
    if is_admissible(pat):
        for tri in iter_expansion(pat):
            assert is_admissible(tri)
