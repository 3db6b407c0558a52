import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qzeta import (
    THETA,
    QContext,
    SignedIndex,
    Triple,
    bar,
    boxplus,
    classical_zeta,
    classical_zeta_many,
    expand,
    frakz,
    idx,
    is_admissible,
    mhs,
    mhs_many,
    mollified_mhs,
    mollified_mhs_many,
    pattern_mhs_many,
    q_zeta,
)
from qzeta.evaluators import (
    MAX_CLASSICAL_TERMS,
    MAX_PATTERN_DEPTH,
    Ball,
    _ball_sweep,
    _harmonic_runs,
    frakz_enclosure,
    q_zeta_enclosure,
)
from qzeta.indices import signed_string

entries = st.builds(
    lambda m, s: idx(m) if s else bar(m),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)


def test_mhs_empty_string_and_zero_bound(ctx_half):
    assert mhs_many(ctx_half, (), 4) == [Fraction(1)] * 5
    assert mhs(ctx_half, (2, 1), 0) == 0
    assert mhs(ctx_half, (2,), 1, star=True) == mhs(ctx_half, (2,), 1)


def test_known_small_values(ctx_half):
    q = ctx_half.q
    # depth-three weak-descent sum at n = 1 collapses to its diagonal term
    assert mhs(ctx_half, (2, 2, 3), 1, star=True) == q**3
    assert mhs(ctx_half, (1,), 2) == q / ctx_half.q_int(1) + q**2 / ctx_half.q_int(2)
    assert mhs(ctx_half, (1,), 2) == Fraction(2, 3)
    # n = 1 star value of ({2}^a, c) is q^(a+1) for any c
    for a in range(0, 4):
        for c in (3, 4, 5):
            s = (2,) * a + (c,)
            assert mhs(ctx_half, s, 1, star=True) == q ** (a + 1)


def test_mollified_small_values(ctx_half):
    q = ctx_half.q
    # single negative slot at n = 1: ratio * q^t * (1 + q) / -[1]^mag
    assert mollified_mhs(ctx_half, Triple((bar(5),), (2,), (1,)), 1) == -Fraction(1, 4)
    for a in range(0, 4):
        for c in (3, 4, 5):
            tri = Triple((bar(2 * a + c),), (a + 1,), (1,))
            assert mollified_mhs(ctx_half, tri, 1) == -(q ** (a + 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(entries, min_size=1, max_size=3), st.booleans())
def test_mhs_matches_bruteforce(ctx_half, s, star):
    expect = oracles.harmonic_all_n(ctx_half.q, [(e.magnitude, e.sign) for e in s], 8, star)
    assert mhs_many(ctx_half, tuple(s), 8, star=star) == expect


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(entries, st.integers(0, 3), st.one_of(st.just(THETA), st.integers(-2, 3))),
        min_size=1,
        max_size=3,
    )
)
def test_mollified_matches_bruteforce(ctx_half, slots):
    tri = Triple(
        tuple(e for e, _, _ in slots),
        tuple(t for _, t, _ in slots),
        tuple(r for _, _, r in slots),
    )
    expect = oracles.mollified_all_n(
        ctx_half.q,
        [((e.magnitude, e.sign), t, None if r is THETA else r) for e, t, r in slots],
        8,
    )
    assert mollified_mhs_many(ctx_half, tri, 8) == expect


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 3), Fraction(1, 9), Fraction(7, 8)])
def test_mhs_matches_bruteforce_at_several_q(q):
    # integer DP over a common denominator against tuple enumeration:
    # magnitudes 0..3, both signs, depth <= 4, both descents
    rng = random.Random(str(q))
    ctx = QContext(q)
    strings = [(SignedIndex(mag, sign),) for mag in range(4) for sign in (1, -1)]
    strings += [
        tuple(SignedIndex(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(m))
        for m in (2, 2, 3, 3, 4, 4, 4)
    ]
    for s in strings:
        pairs = [(e.magnitude, e.sign) for e in s]
        for star in (False, True):
            expect = oracles.harmonic_all_n(q, pairs, 8, star)
            assert mhs_many(ctx, s, 8, star=star) == expect, (s, star)
            assert mhs(ctx, s, 8, star=star) == expect[8]


def _oracle_slots(triple):
    return [
        ((e.magnitude, e.sign), t, None if r is THETA else r)
        for e, t, r in zip(triple.s, triple.t, triple.r)
    ]


def test_pattern_engine_matches_bruteforce_over_expansion():
    # shifts include theta and both orders of +-1, where boxplus is not
    # associative, so a run folded in the wrong order would show here
    rng = random.Random(20130730)
    shift_pool = [THETA, 1, -1, 0, 2, -2, 3]
    n_max = 8
    for trial in range(60):
        m = rng.randint(1, 5)
        pattern = Triple(
            tuple(SignedIndex(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(m)),
            tuple(rng.randint(0, 3) for _ in range(m)),
            tuple(rng.choice(shift_pool) for _ in range(m)),
        )
        # a > 1 and denominators that are not powers of 2 would expose an
        # inexact division in the integer prefactor
        q = (Fraction(1, 2), Fraction(2, 3), Fraction(7, 8), Fraction(2, 9))[trial % 4]
        expect = [Fraction(0)] * (n_max + 1)
        for triple in expand(pattern):
            for n, value in enumerate(oracles.mollified_all_n(q, _oracle_slots(triple), n_max)):
                expect[n] += value
        ctx = QContext(q)
        assert pattern_mhs_many(ctx, pattern, n_max) == expect, pattern
        single = oracles.mollified_all_n(q, _oracle_slots(pattern), n_max)
        assert pattern_mhs_many(ctx, pattern, n_max, merge=False) == single, pattern


def test_pattern_engine_edges(ctx_half):
    tri = Triple((idx(2), bar(1)), (1, 0), (1, -1))
    assert pattern_mhs_many(ctx_half, tri, 0) == [0]
    # a one-slot pattern has a single resolution: itself
    one = Triple((bar(3),), (2,), (THETA,))
    assert pattern_mhs_many(ctx_half, one, 6) == mollified_mhs_many(ctx_half, one, 6)
    with pytest.raises(ValueError):
        pattern_mhs_many(ctx_half, tri, -1)


def test_upper_limit_caps(ctx_half, monkeypatch):
    import qzeta.evaluators as ev
    from qzeta.evaluators import (
        MAX_FRAKZ_TERMS,
        MAX_MHS_LIMIT,
        MAX_PATTERN_DEPTH,
        MAX_PATTERN_LIMIT,
    )

    def never(*args):
        raise AssertionError("a sum was started")

    tri = Triple((idx(2), bar(1)), (1, 0), (1, -1))
    # the caps are checked before the engine starts
    monkeypatch.setattr(ev, "_inner_terms", never)
    monkeypatch.setattr(ev, "_runs", never)
    monkeypatch.setattr(QContext, "p_lcm", never)
    with pytest.raises(ValueError, match=f"exceeds {MAX_PATTERN_LIMIT}"):
        pattern_mhs_many(ctx_half, tri, MAX_PATTERN_LIMIT + 1)
    # each cap itself is admitted: its sum starts
    with pytest.raises(AssertionError, match="a sum was started"):
        pattern_mhs_many(ctx_half, tri, MAX_PATTERN_LIMIT)
    with pytest.raises(AssertionError, match="a sum was started"):
        mhs_many(ctx_half, (2, 1), MAX_MHS_LIMIT)
    # a finite sum deeper than its cap is refused before its runs are built
    deep = MAX_PATTERN_DEPTH + 1
    deep_tri = Triple((idx(1),) * deep, (0,) * deep, (1,) + (THETA,) * (deep - 1))
    for merge in (True, False):
        with pytest.raises(ValueError, match=f"depth {deep} exceeds {MAX_PATTERN_DEPTH}"):
            pattern_mhs_many(ctx_half, deep_tri, 2, merge=merge)
    with pytest.raises(ValueError, match=f"exceeds {MAX_MHS_LIMIT}"):
        mhs_many(ctx_half, (2, 1), MAX_MHS_LIMIT + 1)
    # a q-series whose truncation would pass the cap is refused too
    with pytest.raises(ValueError, match=f"exceeds {MAX_MHS_LIMIT}"):
        q_zeta(QContext(Fraction(99, 100)), (2, 1), eps=Fraction(1, 10**25))
    # so is a mollified series whose truncation would pass its cap
    with pytest.raises(ValueError, match=f"exceeds {MAX_FRAKZ_TERMS}"):
        frakz(ctx_half, Triple((idx(3),), (2,), (2,)), eps=Fraction(1, 10**100000))
    pair = Triple((idx(2), bar(1)), (1, 0), (2, -1))
    with pytest.raises(ValueError, match=f"exceeds {MAX_FRAKZ_TERMS}"):
        frakz(QContext(Fraction(999, 1000)), pair, eps=Fraction(1, 10**30), merge=True)


def test_harmonic_truncation_matches_the_plain_walk(monkeypatch):
    # the search for K gallops up from m and bisects; K, the tail bound and
    # the error text are those of the walk up from m, one power at a time
    from qzeta.evaluators import MAX_MHS_LIMIT, _harmonic_truncation

    def bound(q, m, K):
        return (q / (1 - q)) ** (m - 1) / (1 - q) * q ** (K + 1)

    def walk(q, m, eps):
        K = m
        while bound(q, m, K) > eps:
            K += 1
            if K > MAX_MHS_LIMIT:
                raise ValueError(f"series length exceeds {MAX_MHS_LIMIT} for a harmonic sum")
        return K, bound(q, m, K)

    def outcome(search, *args):
        try:
            return search(*args)
        except ValueError as err:
            return str(err)

    near = Fraction(99, 100)
    cases = [
        (q, m, eps)
        for q in (Fraction(1, 1000), Fraction(1, 2), Fraction(4, 5), Fraction(9, 10), near)
        for m in (1, 3, 6)
        for eps in (Fraction(1, 10**3), Fraction(1, 10**25), Fraction(1, 10**60))
    ]
    # K = MAX_MHS_LIMIT is the last length served, one more is refused
    cases += [(near, 1, bound(near, 1, MAX_MHS_LIMIT + i)) for i in (0, 1)]
    expected = [outcome(walk, *case) for case in cases]
    # the cases reach the cap, stop at K = m and walk past m
    seen = {"raised" if isinstance(x, str) else x[0] - m for x, (_, m, _) in zip(expected, cases)}
    assert "raised" in seen and 0 in seen and MAX_MHS_LIMIT - 1 in seen
    for (q, m, eps), expect in zip(cases, expected):
        assert outcome(_harmonic_truncation, q, m, eps) == expect, (q, m, eps)
    # however long the series, the search evaluates no bound past the cap:
    # q**K for K ~ 7 * 10**10 would not fit in memory
    import qzeta.evaluators as ev

    search = ev._truncation

    def bounded(tail_bound, *args):
        def once(K):
            assert K <= MAX_MHS_LIMIT, f"the search evaluated the bound at K = {K}"
            return tail_bound(K)

        return search(once, *args)

    monkeypatch.setattr(ev, "_truncation", bounded)
    with pytest.raises(ValueError, match=f"exceeds {MAX_MHS_LIMIT}"):
        _harmonic_truncation(Fraction(10**9 - 1, 10**9), 2, Fraction(1, 10**30))


def _ceil_log2(n):
    return (n - 1).bit_length()


def test_truncation_search_evaluates_few_bounds():
    # the search gallops and bisects on a bound whose "fits" is monotone in
    # K: it returns the least K that fits, evaluating the bound at most
    # 2 ceil(log2(K - start + 1)) + 2 times, never past the cap and never
    # at a K whose outcome the earlier evaluations imply
    from qzeta.evaluators import _truncation

    def search(start, cap, least, defined):
        # no bound below `defined`; from there 1/(K+1), which fits from `least`
        eps = Fraction(1, least + 1)
        budget = 2 * _ceil_log2(min(least, cap) - start + 1) + 2
        seen = []

        def tail_bound(K):
            assert start <= K <= cap, (start, cap, K)
            assert all(K < k for k, fit in seen if fit), (K, seen)
            assert all(K > k for k, fit in seen if not fit), (K, seen)
            bound = None if K < defined else Fraction(1, K + 1)
            seen.append((K, bound is not None and bound <= eps))
            assert len(seen) <= budget, (start, cap, least, seen)
            return bound

        try:
            return _truncation(tail_bound, start, eps, cap, "a test series")
        except ValueError as err:
            return str(err)

    refusals = 0
    for start in (0, 1, 5):
        for cap in (start + gap for gap in (0, 1, 2, 7, 40, 100)):
            for least in range(start, cap + 3):
                for defined in {start, (start + least) // 2, least}:
                    got = search(start, cap, least, defined)
                    if least <= cap:
                        assert got == (least, Fraction(1, least + 1)), (start, cap, least)
                    else:
                        assert got == f"series length exceeds {cap} for a test series"
                        refusals += 1
    assert refusals
    # a start past the cap is refused before the bound is evaluated
    for start in (1, 8):
        assert search(start, start - 1, start, start).startswith("series length exceeds")


def test_quasi_stuffle_spot(ctx_half, ctx_third):
    for ctx in (ctx_half, ctx_third):
        one_minus_q = 1 - ctx.q
        for a, b in ((1, 1), (2, 3), (4, 2)):
            for n in (5, 12):
                lhs = mhs(ctx, (a,), n) * mhs(ctx, (b,), n)
                rhs = (
                    mhs(ctx, (a, b), n)
                    + mhs(ctx, (b, a), n)
                    + mhs(ctx, (a + b,), n)
                    - one_minus_q * mhs(ctx, (a + b - 1,), n)
                )
                assert lhs == rhs
                star = mhs(ctx, (a, b), n, star=True)
                strict = (
                    mhs(ctx, (a, b), n)
                    + mhs(ctx, (a + b,), n)
                    - one_minus_q * mhs(ctx, (a + b - 1,), n)
                )
                assert star == strict


def test_q_zeta_converges_to_partial_sums(ctx_half, ctx_third):
    val = q_zeta(ctx_half, (2, 1), eps=Fraction(1, 10**12))
    assert val.tail_bound <= Fraction(1, 10**12)
    refined = q_zeta(ctx_half, (2, 1), eps=Fraction(1, 10**24))
    assert abs(val.value - refined.value) <= val.tail_bound
    # the reported value is the exact partial sum through the stated bound
    assert mhs(ctx_half, (2, 1), val.terms) == val.value
    for ctx in (ctx_half, ctx_third):
        for star in (False, True):
            val = q_zeta(ctx, (2, 1), eps=Fraction(1, 10**6), star=star)
            expect = oracles.harmonic_all_n(ctx.q, [(2, 1), (1, 1)], val.terms, star)
            assert val.value == expect[val.terms]


def test_q_zeta_empty_and_errors(ctx_half):
    assert q_zeta(ctx_half, ()).value == 1
    with pytest.raises(ValueError):
        q_zeta(ctx_half, (2,), eps=Fraction(0))


ENCLOSURE_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(9, 10))


def _signed_strings(seed, count, max_depth):
    rng = random.Random(seed)
    return [
        tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(1, max_depth)))
        for _ in range(count)
    ]


def test_q_zeta_enclosure_contains_the_exact_partial_sum():
    # the ball holds q_zeta's exact value, at the same K and tail bound, weak
    # and strict and toward q -> 1, and it is narrow
    eps = Fraction(1, 10**6)
    for q in ENCLOSURE_QS:
        ctx = QContext(q)
        for s in _signed_strings(q.denominator, 3, 2):
            for star in (False, True):
                exact = q_zeta(ctx, s, eps=eps, star=star)
                ball = q_zeta_enclosure(q, s, eps=eps, star=star)
                assert (ball.terms, ball.tail_bound) == (exact.terms, exact.tail_bound)
                lo, hi = ball.value.bounds()
                assert lo <= exact.value <= hi, (q, s, star)
                assert ball.value.rad < 2**16
                # negative control: the exact value moved away from the centre
                # by one radius plus one unit falls outside
                unit = Fraction(1, 2**ball.value.prec)
                away = 1 if exact.value >= ball.value.mid * unit else -1
                moved = exact.value + away * (ball.value.rad + 1) * unit
                assert not lo <= moved <= hi
    with pytest.raises(ValueError, match="eps must be positive"):
        q_zeta_enclosure(Fraction(1, 2), (2,), eps=Fraction(0))
    # both enclosures take q itself, and refuse one outside (0, 1)
    for q in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError, match="q must lie strictly between 0 and 1"):
            q_zeta_enclosure(q, (2,))
        with pytest.raises(ValueError, match="q must lie strictly between 0 and 1"):
            frakz_enclosure(q, Triple((idx(2),), (0,), (2,)))


def test_ball_arithmetic_contains_the_exact_results():
    # values anywhere inside the operands (centre and both ends) give results
    # inside the result ball, also at a coarse binary point and with a
    # Fraction or int operand floored onto it
    rng = random.Random(11)
    for _ in range(300):
        prec = rng.choice((1, 3, 8, 40))
        x, y = (Ball(rng.randint(-(2**50), 2**50), rng.randint(0, 2**20), prec) for _ in "xy")
        c = Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9))
        unit = Fraction(1, 2**prec)

        def points(ball):
            return [(ball.mid + d * ball.rad) * unit for d in (-1, 0, 1)]

        def inside(value, ball):
            lo, hi = ball.bounds()
            return lo <= value <= hi

        for u in points(x):
            assert inside(abs(u), abs(x))
            assert inside(u + c, x + c) and inside(c + u, c + x) and inside(u - c, x - c)
            assert inside(u * c, x * c) and inside(u * 3, x * 3)
            for v in points(y):
                assert inside(u + v, x + y) and inside(u - v, x - y) and inside(u * v, x * y)
    with pytest.raises(ValueError, match="do not mix"):
        Ball(1, 0, 3) + Ball(1, 0, 4)


def test_ball_takes_an_exact_operand_on_the_left():
    # an int or Fraction on the left of *, - and + gives a ball that holds
    # the exact result for every value inside the ball operand, as it does
    # on the right; the check's report computes d * rhs with d an int
    rng = random.Random(12)
    for _ in range(300):
        prec = rng.choice((1, 3, 8, 40))
        x = Ball(rng.randint(-(2**50), 2**50), rng.randint(0, 2**20), prec)
        unit = Fraction(1, 2**prec)
        for c in (
            rng.randint(-(10**6), 10**6),
            Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9)),
        ):
            for d in (-1, 0, 1):
                u = (x.mid + d * x.rad) * unit
                for exact, ball in ((c * u, c * x), (c - u, c - x), (c + u, c + x)):
                    lo, hi = ball.bounds()
                    assert ball.prec == prec and lo <= exact <= hi, (c, x, d)
    # and it is the same ball as with the operand on the right
    x = Ball(13, 2, 3)
    assert 2 * x == x * 2 and Fraction(1, 3) + x == x + Fraction(1, 3)
    assert 1 - x == Ball(1 << 3, 0, 3) - x


def _left_ball(q, entries, n, star, prec):
    """The left side's ball to n: the sweep over one run per entry, whose
    floored terms lie within _COLUMN_SLACK units of the exact ones, as
    q_zeta_enclosure sweeps it at its K."""
    return _ball_sweep(_harmonic_runs(q, entries, n), n, prec, star)[0]


def test_mhs_enclosure_holds_at_coarse_binary_points():
    # with a few bits every floor drops a large share of a unit, so a radius
    # that left out the unit of each floored product, or the remainder flag
    # of each floored term, misses the exact sum on some of these cases
    strings = _signed_strings(5, 12, 4)
    for q in ENCLOSURE_QS:
        ctx = QContext(q)
        for s in strings:
            entries = signed_string(s)
            for star in (False, True):
                exact = mhs_many(ctx, s, 30, star=star)
                for n in (3, 10, 30):
                    for prec in (2, 4, 8, 16, 64):
                        lo, hi = _left_ball(q, entries, n, star, prec).bounds()
                        assert lo <= exact[n] <= hi, (q, s, star, n, prec)


def test_mhs_enclosure_matches_the_ball_oracles():
    # the left side's sweep gives the midpoint and radius of its stated
    # bound, computed index by index from the same runs and columns; both
    # its ball and the per-index oracle's, which floors every term at the
    # ball's own binary point, hold the exact sum, with barred entries and
    # zero magnitudes, in both descents and down to a 2-bit binary point.
    # The sweep reads each column at a finer binary point and pays a unit
    # for each column's error where the oracle pays a flag, so its radius
    # is at most twice the oracle's plus a few units, at every depth
    import qzeta.evaluators as ev

    rng = random.Random(27)
    strings = [
        tuple(
            SignedIndex(rng.randint(0, 3), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 4))
        )
        for _ in range(10)
    ]
    for q in ENCLOSURE_QS:
        ctx = QContext(q)
        for entries in strings:
            plain = [(e.magnitude, e.sign) for e in entries]
            for star in (False, True):
                exact = mhs_many(ctx, entries, 30, star=star)
                for n in (3, 10, 30):
                    for prec in (2, 8, 64, 300):
                        ball = _left_ball(q, entries, n, star, prec)
                        case = (q, entries, star, n, prec)
                        runs = _harmonic_runs(q, entries, n)
                        expect = _sweep_by_the_stated_bound(runs, n, prec, star, ev._COLUMN_SLACK)
                        assert (ball.mid, ball.rad) == expect, case
                        mid, rad = oracles.harmonic_ball_per_index(q, plain, n, star, prec)
                        unit = Fraction(1, 2**prec)
                        assert abs(exact[n] - mid * unit) <= rad * unit, case
                        lo, hi = ball.bounds()
                        assert lo <= exact[n] <= hi, case
                        assert ball.rad <= 2 * rad + 7, (case, ball.rad, rad)
        # and q_zeta_enclosure is that sweep at its K, at P and at a
        # coarse binary point
        for entries in strings[:4]:
            for star in (False, True):
                for prec in (None, 6):
                    ball = q_zeta_enclosure(q, entries, Fraction(1, 10**6), star, prec)
                    runs = _harmonic_runs(q, entries, ball.terms)
                    value = ball.value
                    expect = _sweep_by_the_stated_bound(
                        runs, ball.terms, value.prec, star, ev._COLUMN_SLACK
                    )
                    assert (value.mid, value.rad) == expect, (q, entries, star, prec)


def test_left_ball_of_a_deep_string_stays_narrow_toward_q_one():
    # a depth-32 string toward q -> 1: carried index by index, the radius
    # stays within 2**8 units, where a bound that does not follow the
    # nesting of the indices grows with the depth
    q = Fraction(17, 20)
    s = (2,) + (1,) * 31
    eps = Fraction(1, 4 * 10**25)
    ball = q_zeta_enclosure(q, s, eps=eps, star=True)
    assert ball.terms == 705
    assert 0 < ball.value.rad <= 2**8
    # both balls hold the same exact sum, so a finer one meets it
    finer = q_zeta_enclosure(q, s, eps=eps, star=True, prec=2 * ball.value.prec)
    lo, hi = ball.value.bounds()
    lo2, hi2 = finer.value.bounds()
    assert lo <= hi2 and lo2 <= hi


def test_frakz_certified_truncation(ctx_half):
    tri = Triple((idx(3),), (2,), (2,))
    val = frakz(ctx_half, tri, eps=Fraction(1, 10**15))
    refined = frakz(ctx_half, tri, eps=Fraction(1, 10**25))
    assert abs(val.value - refined.value) <= val.tail_bound
    assert val.tail_bound <= Fraction(1, 10**15)


def test_frakz_rejects_divergent_shifts(ctx_half):
    with pytest.raises(ValueError, match="divergent"):
        frakz(ctx_half, Triple((idx(1),), (0,), (0,)))


def test_frakz_is_the_prefactor_free_partial_sum():
    # the value is exactly the sum of the summands with outermost index <= K
    rng = random.Random(29)
    triples = []
    while len(triples) < 20:
        m = len(triples) % 3 + 1
        tri = Triple(
            tuple(SignedIndex(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(m)),
            tuple(rng.randint(0, 2) for _ in range(m)),
            tuple(rng.choice((THETA, -2, -1, 0, 1, 2, 3)) for _ in range(m)),
        )
        if is_admissible(tri):
            triples.append(tri)
    # at 7/8 and 2/9 a > 1 enters the engine's scale through negative
    # exponents, and b is not a power of 2
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(7, 8), Fraction(2, 9)):
        ctx = QContext(q)
        for tri in triples:
            val = frakz(ctx, tri, eps=Fraction(1, 10**12))
            slots = [
                ((e.magnitude, e.sign), t, None if r is THETA else r)
                for e, t, r in zip(tri.s, tri.t, tri.r)
            ]
            assert val.value == oracles.mollified_series_partial(q, slots, val.terms), tri


def test_mollified_stabilizes_toward_frakz(ctx_half):
    tri = Triple((idx(2), bar(1)), (1, 0), (2, -1))
    assert is_admissible(tri)
    limit = frakz(ctx_half, tri, eps=Fraction(1, 10**30)).value
    gaps = [abs(mollified_mhs(ctx_half, tri, n) - limit) for n in (10, 20, 40)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_classical_zeta_known_constants():
    z2 = classical_zeta((2,), K=100_000)
    assert abs(z2.value - math.pi**2 / 6) <= z2.tail_est + 1e-9
    z3 = classical_zeta((3,), K=100_000)
    assert abs(z3.value - 1.2020569031595942) <= z3.tail_est + 1e-12
    # alternating depth-one value of magnitude 4 is -(7/8) zeta(4)
    zbar4 = classical_zeta((bar(4),), K=100_000)
    assert abs(zbar4.value + (7 / 8) * math.pi**4 / 90) <= 1e-12
    # weak-descent (2,2) equals (zeta(2)^2 + zeta(4)) / 2
    star22 = classical_zeta((2, 2), K=100_000, star=True)
    expect = ((math.pi**2 / 6) ** 2 + math.pi**4 / 90) / 2
    assert abs(star22.value - expect) <= star22.tail_est + 1e-9


def test_classical_zeta_preconditions():
    with pytest.raises(ValueError):
        classical_zeta((1,))
    with pytest.raises(ValueError):
        classical_zeta((1, 2), star=True)
    # a signed leading 1 converges in the strict case
    assert classical_zeta((bar(1),), K=10_000).terms == 10_000
    assert classical_zeta((), K=5).value == 1.0


def test_classical_zeta_tail_shrinks():
    lo = classical_zeta((2, 1), K=10_000, star=True)
    hi = classical_zeta((2, 1), K=100_000, star=True)
    assert hi.tail_est < lo.tail_est
    assert abs(hi.value - 2 * 1.2020569031595942) < abs(lo.value - 2 * 1.2020569031595942)


def _random_classical_string(rng, star, tail):
    head = [SignedIndex(rng.randint(0, 4), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))]
    entries = head + tail
    if not entries:
        entries = [SignedIndex(rng.randint(2, 4), rng.choice((1, -1)))]
    lead = entries[0]
    if lead.magnitude < 2 and (star or lead != bar(1)):
        entries[0] = SignedIndex(rng.randint(2, 4), lead.sign)
    return tuple(entries)


def test_classical_engine_matches_per_string_oracle_bit_for_bit(monkeypatch):
    # several strings per call share suffixes and mix the strict, weak and
    # resolved descents, so a value reused across descents or a misplaced
    # odd-k sign shows here; K runs below, at and above the chunk, ending
    # in a short last chunk
    import qzeta.evaluators as ev

    rng = random.Random(19990910)
    for trial in range(120):
        tails = [
            [SignedIndex(rng.randint(0, 4), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))]
            for _ in range(2)
        ]
        items = []
        for _ in range(rng.randint(1, 6)):
            star = rng.choice((False, True, "resolved"))
            items.append((_random_classical_string(rng, star is True, rng.choice(tails)), star))
        chunk = rng.choice((1, 2, 3, 7, 64))
        monkeypatch.setattr(ev, "_CHUNK", chunk)
        K = rng.choice((1, chunk, chunk + 1, 3 * chunk - 1, 5 * chunk + 2, 200))
        got = classical_zeta_many(items, K=K)
        for (entries, star), value in zip(items, got):
            expect = oracles.classical_partial_sum(
                [(e.magnitude, e.sign) for e in entries], K, star=star, chunk=chunk
            )
            assert (value.value, value.tail_est, value.terms) == (*expect, K), (entries, star, K, chunk)
            single = classical_zeta(entries, K=K, star=star)
            assert (single.value, single.tail_est) == expect, (entries, star, K, chunk)
    # the default chunk, with a short second chunk
    monkeypatch.undo()
    items = [
        ((idx(2), bar(1), idx(1)), True),
        ((idx(3), bar(1), idx(1)), False),
        ((bar(1), idx(1)), False),
        ((idx(2),), False),
        ((idx(3), bar(1), idx(1)), "resolved"),
    ]
    K = ev._CHUNK + 1001
    for (entries, star), value in zip(items, classical_zeta_many(items, K=K)):
        expect = oracles.classical_partial_sum(
            [(e.magnitude, e.sign) for e in entries], K, star=star, chunk=ev._CHUNK
        )
        assert (value.value, value.tail_est) == expect, (entries, star)


def test_classical_engine_is_accurate_against_exact_sums(monkeypatch):
    # the float engine against the same partial sums in Fractions, which
    # share none of its order of operations: strict, weak and resolved
    # descents, barred entries and magnitudes 0-4, at K below, at and past
    # small chunks.  The error is bounded relative to the same series with
    # every sign positive, which bounds every cumulative the floats carry.
    import qzeta.evaluators as ev

    rng = random.Random(20010403)
    seen = set()
    for trial in range(30):
        star = (False, True, "resolved")[trial % 3]
        tail = [SignedIndex(rng.randint(0, 4), rng.choice((1, -1))) for _ in range(rng.randint(0, 2))]
        entries = _random_classical_string(rng, star is True, tail)
        pairs = [(e.magnitude, e.sign) for e in entries]
        seen.update(pairs)
        chunk = rng.choice((7, 64))
        monkeypatch.setattr(ev, "_CHUNK", chunk)
        for K in (1, chunk - 1, chunk, chunk + 1, 5 * chunk + 2):
            exact = oracles.classical_partial_sum_exact(pairs, K, star)
            scale = oracles.classical_partial_sum_exact([(mag, 1) for mag, _ in pairs], K, star)
            got = classical_zeta(entries, K=K, star=star).value
            assert abs(Fraction(got) - exact) <= Fraction(1e-13) * scale, (entries, star, K, chunk)
    assert {mag for mag, _ in seen} == set(range(5))
    assert {sign for _, sign in seen} == {1, -1}


def test_classical_engine_takes_one_reciprocal_column_per_chunk(monkeypatch):
    # a cold series of depth d over c chunks computes one column 1/k per
    # chunk, builds every k**-p from it with no np.power, and runs one
    # cumulative sum per inner level per chunk and none for the outermost,
    # whose cumulative is never read
    import numpy as np

    import qzeta.evaluators as ev

    calls = {name: 0 for name in ("power", "reciprocal", "cumsum")}

    def counted(name):
        ufunc = getattr(np, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return ufunc(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    chunk = 16
    monkeypatch.setattr(ev, "_CHUNK", chunk)
    for entries in ((3,), (bar(1), 2), (4, 0, 3), (2, 1, bar(2), 5)):
        for star in (False, True, "resolved"):
            if star is True and entries[0] == bar(1):
                continue
            for K, c in ((chunk - 1, 1), (chunk, 1), (3 * chunk + 1, 4)):
                for name in calls:
                    calls[name] = 0
                classical_zeta(entries, K=K, star=star)
                expect = {"power": 0, "reciprocal": c, "cumsum": (len(entries) - 1) * c}
                assert calls == expect, (entries, star, K)


def test_classical_values_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product of more than 10,000 terms between its
    # threads and rounds each part on its own, so an engine that summed with
    # np.dot would print other floats on a host with another thread count
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "from qzeta import classical_zeta\n"
        "for s, star in (((2, 1, 1, 1), True), ((2, -1, 2, 1), 'resolved'), ((3, 1, 2), False)):\n"
        "    print(classical_zeta(s, K=100_000, star=star).value.hex())"
    )
    outs = set()
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1, outs


def test_classical_engine_edges():
    assert classical_zeta_many([]) == []
    assert classical_zeta_many([((), True), ((), False)], K=0) == [(1.0, 0.0, 0)] * 2
    with pytest.raises(ValueError, match="K must be >= 1"):
        classical_zeta_many([((), False), ((2,), False)], K=0)
    with pytest.raises(ValueError, match="exceeds"):
        classical_zeta_many([((2,), False)], K=MAX_CLASSICAL_TERMS + 1)
    with pytest.raises(ValueError, match="leading"):
        classical_zeta_many([((2,), False), ((1, 2), True)], K=10)
    # the chunk is a constant, not an option
    with pytest.raises(TypeError):
        classical_zeta_many([((2,), False)], K=10, chunk=7)
    # a series deeper than MAX_PATTERN_DEPTH levels is refused in any descent
    deepest = (2,) + (1,) * (MAX_PATTERN_DEPTH - 1)
    for star in (False, True, "resolved"):
        assert classical_zeta(deepest, K=3, star=star).terms == 3
        with pytest.raises(ValueError, match=f"series depth 33 exceeds {MAX_PATTERN_DEPTH}"):
            classical_zeta_many([((2,), False), (deepest + (1,), star)], K=3)


def test_classical_resolved_series_is_the_sum_over_the_expansion(monkeypatch):
    # the resolved descent of a pattern's string sums 2**depth * zeta over
    # its resolutions: the same value as the expansion's strict terms, each
    # summed by the oracle, at every K, below, at and past the chunk
    import qzeta.evaluators as ev
    from qzeta import compose, zeta_admissible
    from qzeta.rules import classical_expand

    rng = random.Random(20130101)
    comps = set()
    while len(comps) < 40:
        comp = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
        if zeta_admissible(comp) and compose(comp)[1].depth <= 6:
            comps.add(comp)
    depths = set()
    for comp in sorted(comps):
        d, pattern = compose(comp)
        depths.add(pattern.depth)
        chunk = rng.choice((7, 64))
        monkeypatch.setattr(ev, "_CHUNK", chunk)
        for K in (1, chunk - 1, chunk, chunk + 1, 200):
            got = classical_zeta(pattern.s, K=K, star="resolved").value
            expect = sum(
                term.sign * term.coefficient * oracles.classical_partial_sum(
                    [(e.magnitude, e.sign) for e in term.index], K, star=False, chunk=chunk
                )[0]
                for term in classical_expand(comp)
            )
            assert abs(d * got - expect) <= 1e-12 * abs(expect), (comp, K, chunk)
    assert depths == set(range(1, 7))



def _classical_oracle(entries, K, star, chunk=None):
    import qzeta.evaluators as ev

    entries = signed_string(entries)
    chunk = ev._CHUNK if chunk is None else chunk
    return (*oracles.classical_partial_sum([(e.magnitude, e.sign) for e in entries], K, star=star, chunk=chunk), K)


def test_classical_memo_serves_hits_misses_and_duplicates_in_item_order(monkeypatch):
    # one call mixing memoized strings, new ones and repeats of both returns
    # the oracle's values in item order, cold and warm, and sums each
    # distinct new string once
    import qzeta.evaluators as ev

    K, chunk = 300, 64
    monkeypatch.setattr(ev, "_CHUNK", chunk)
    first = [((2, 1), False), ((3, -1, 1), True), ((-1, 2), False)]
    second = [
        ((3, -1, 1), True),  # memoized
        ((2, 2), True),  # new
        ((2, 1), False),  # memoized
        ((2, 2), True),  # new, repeated within the call
        ((2, 1), True),  # new: star is part of the key
        ((-1, 2), False),  # memoized
    ]
    for items in (first, second, second + first):
        got = classical_zeta_many(items, K=K)
        assert [tuple(v) for v in got] == [_classical_oracle(s, K, star, chunk) for s, star in items]
    info = ev._classical_sum.cache_info()
    # 3 + 2 + 0 distinct new strings; the rest of the 3 + 6 + 9 lookups hit
    assert (info.hits, info.misses, info.currsize) == (13, 5, 5), info


def test_classical_memo_keys_the_int_and_signed_index_spellings_alike():
    import qzeta.evaluators as ev

    ints = classical_zeta((2, -1, 1), K=500, star=True)
    signed = classical_zeta((idx(2), bar(1), idx(1)), K=500, star=True)
    assert ints == signed == _classical_oracle((2, -1, 1), 500, True)
    info = ev._classical_sum.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1), info


def test_classical_memo_keys_include_K_and_chunk(monkeypatch):
    # the same string at another K or chunk is a different value; a memo
    # keyed without either would serve the first one for both
    import qzeta.evaluators as ev

    for entries, star in (((2, 1), False), ((3, 1), True), ((2, -1, 2), False)):
        by_chunk = {chunk: _classical_oracle(entries, 200, star, chunk) for chunk in (7, 64)}
        by_K = {K: _classical_oracle(entries, K, star, 7) for K in (200, 201)}
        assert by_chunk[7] != by_chunk[64] and by_K[200] != by_K[201]
        for _ in range(2):
            for chunk, expect in by_chunk.items():
                monkeypatch.setattr(ev, "_CHUNK", chunk)
                assert tuple(classical_zeta(entries, K=200, star=star)) == expect
            monkeypatch.setattr(ev, "_CHUNK", 7)
            for K, expect in by_K.items():
                assert tuple(classical_zeta(entries, K=K, star=star)) == expect
    # a float K is refused, as the sum refuses it, even when the int it
    # equals is memoized
    with pytest.raises(TypeError):
        classical_zeta((2, 1), K=200.0)


def test_classical_memo_is_bounded_and_evicts_the_least_recent():
    import qzeta.evaluators as ev

    size = ev._classical_sum.cache_info().maxsize
    assert size == ev._CLASSICAL_MEMO_SIZE
    signs = (1, -1)
    strings = [
        ((p, a * u, b * v), False)
        for p in range(2, 12)
        for a in range(1, 11)
        for b in range(1, 11)
        for u in signs
        for v in signs
    ][: size + 100]
    K = 3
    # more distinct strings than the bound in one call, then in small calls
    got = classical_zeta_many(strings, K=K)
    assert ev._classical_sum.cache_info().currsize == size
    for items in (strings[:40], strings[40:90]):
        assert classical_zeta_many(items, K=K) == [got[strings.index(s)] for s in items]
        assert ev._classical_sum.cache_info().currsize == size
    # the first 100 were evicted by the first call and summed again by the
    # next two, so each string is a miss once plus 90 misses
    info = ev._classical_sum.cache_info()
    assert (info.misses, info.hits, info.currsize) == (size + 190, 0, size), info
    # the 90 strings summed last are kept, and so are strings[190:]; each
    # lookup stands on its own, so the 90 kept ones hit and refresh, and
    # each of the 3 misses evicts the least recent entry: strings[100]
    # evicts strings[190], strings[189] evicts strings[191], and
    # strings[190], summed again, evicts strings[192]
    before = ev._classical_sum.cache_info()
    classical_zeta_many(strings[:90] + strings[100:101] + strings[189:191], K=K)
    after = ev._classical_sum.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (90, 3)
    # a hit refreshes its entry: strings[193], now the least recent, is read,
    # so the next miss evicts strings[194] in its place
    for i, (hits, misses) in ((193, (1, 0)), (101, (0, 1)), (193, (1, 0)), (194, (0, 1))):
        before = ev._classical_sum.cache_info()
        classical_zeta_many([strings[i]], K=K)
        after = ev._classical_sum.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (hits, misses), i
    for i in (0, 89, 100, len(strings) - 1):
        assert tuple(got[i]) == _classical_oracle(strings[i][0], K, False)


def test_classical_memo_refuses_a_bad_batch_before_any_sweep(monkeypatch):
    # validation comes first: a batch with one invalid string raises before
    # any series is summed, stores nothing and counts no lookup, even when
    # its other strings are memoized
    import qzeta.evaluators as ev

    valid = [((2, 1), False), ((3,), True)]
    classical_zeta_many(valid, K=100)
    memo = ev._classical_sum
    before = memo.cache_info()
    sweeps = []
    monkeypatch.setattr(ev, "_classical_sum", lambda *args: sweeps.append(args) or memo(*args))
    for bad in ([*valid, ((1, 2), True)], [((2, 2), False), ((1, 2), True)], [((1,), False), *valid]):
        with pytest.raises(ValueError, match="leading"):
            classical_zeta_many(bad, K=100)
    assert sweeps == []
    assert memo.cache_info() == before
    # the patch is live: a new string reaches the sum
    classical_zeta_many([((2, 2), False)], K=100)
    assert len(sweeps) == 1

def _shift_proj(r):
    return 0 if r is THETA else r


def _admissible_pattern(rng, m):
    # each partial sum of the projected shifts stays in {1, 2}, so the
    # shifts include theta and 1, -1 next to each other in both orders
    shifts, level = [], 0
    for _ in range(m):
        r = rng.choice([x for x in (THETA, 0, 1, -1, 2) if level + _shift_proj(x) in (1, 2)])
        shifts.append(r)
        level += _shift_proj(r)
    return Triple(
        tuple(SignedIndex(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(m)),
        tuple(rng.randint(0, 2) for _ in range(m)),
        tuple(shifts),
    )


def _resolution_tail(q, d, K):
    # the per-triple bound of a depth-d resolution past K, from its formula
    def level(k):
        return 2**d * k ** (d - 1) * q ** (k * (k - 1) // 2 - (d - 1) * k)

    rho = 2 ** (d - 1) * q ** (K + 2 - d)
    return level(K + 1) / (1 - rho) if rho < 1 else None


def test_nested_series_oracle_matches_the_brute_force():
    # the nested-sum oracle against the tuple enumeration, on small K, on
    # random slots of every sign, offset and shift kind
    rng = random.Random(31)
    for trial in range(120):
        m = rng.randint(1, 4)
        slots = [
            ((rng.randint(0, 3), rng.choice((1, -1))), rng.randint(0, 3),
             rng.choice((None, 0, 1, 2, 3, -1, -2)))
            for _ in range(m)
        ]
        q = (Fraction(1, 2), Fraction(2, 3), Fraction(7, 8), Fraction(2, 9))[trial % 4]
        for K in range(0, 8):
            expect = oracles.mollified_series_partial(q, slots, K)
            assert oracles.mollified_series_nested(q, slots, K) == expect, (slots, q, K)


def test_frakz_merged_is_the_sum_over_every_resolution():
    rng = random.Random(20130731)
    patterns = [_admissible_pattern(rng, m) for m in (1, 2, 3, 3, 4, 4, 5)]
    # 1 then -1 merges to theta, -1 then 1 to 0: a run folded in the wrong
    # order would show here
    patterns += [
        Triple((idx(3), bar(1), idx(0), bar(2), idx(1)), (1, 0, 2, 0, 1), (1, 1, -1, 1, THETA)),
        Triple((bar(2), idx(1), idx(2), bar(0)), (0, 1, 0, 2), (2, -1, 1, -1)),
    ]
    adjacent = {pair for p in patterns for pair in zip(p.r, p.r[1:])}
    assert (1, -1) in adjacent and (-1, 1) in adjacent
    eps = Fraction(1, 10**12)
    # at 7/8 and 2/9 a > 1 enters the engine's scale through negative
    # exponents, and b is not a power of 2.  At 7/8 the series need K ~ 30,
    # where the brute-force oracle takes tens of seconds per depth-5
    # resolution, so every resolution is summed by the nested-sum oracle,
    # which test_nested_series_oracle_matches_the_brute_force checks.
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(7, 8), Fraction(2, 9)):
        ctx = QContext(q)
        for pattern in patterns:
            assert is_admissible(pattern)
            val = frakz(ctx, pattern, eps=eps, merge=True)
            K = val.terms
            resolutions = expand(pattern)
            expect = sum(
                (oracles.mollified_series_nested(q, _oracle_slots(T), K) for T in resolutions),
                Fraction(0),
            )
            assert val.value == expect, pattern
            # the aggregate tail is the sum of every resolution's own bound at
            # K, and K is the first length at which that sum fits eps
            tails = [_resolution_tail(q, T.depth, K) for T in resolutions]
            assert val.tail_bound == sum(tails) <= eps, pattern
            shorter = [_resolution_tail(q, T.depth, K - 1) for T in resolutions]
            assert None in shorter or sum(shorter) > eps, pattern
            refined = frakz(ctx, pattern, eps=Fraction(1, 10**25), merge=True)
            assert abs(val.value - refined.value) <= val.tail_bound, pattern


def test_frakz_merged_refusals(ctx_half):
    with pytest.raises(ValueError, match="divergent"):
        frakz(ctx_half, Triple((idx(2), idx(1)), (0, 0), (1, 2)), merge=True)
    deep = Triple((idx(1),) * 33, (0,) * 33, (1,) + (THETA,) * 32)
    with pytest.raises(ValueError, match="depth 33 exceeds"):
        frakz(ctx_half, deep, merge=True)


def test_frakz_truncation_matches_the_plain_walk(monkeypatch):
    # frakz finds K by the galloping search from 0; K, the aggregate tail
    # bound and the error text are those of the walk up from 0 over the
    # bound sum_d C(m-1, d-1) B_d(K+1) / (1 - rho_d), built here from its
    # formula, and each search evaluates the bound at most
    # 2 ceil(log2(K + 1)) + 2 times
    import qzeta.evaluators as ev
    from qzeta.evaluators import MAX_FRAKZ_TERMS

    refusal = f"series length exceeds {MAX_FRAKZ_TERMS} for a mollified series"

    @functools.lru_cache(maxsize=None)
    def bound(q, m, merge, K):
        classes = [(math.comb(m - 1, d - 1), d) for d in range(1, m + 1)] if merge else [(1, m)]
        tails = [(many, _resolution_tail(q, d, K)) for many, d in classes]
        return None if any(t is None for _, t in tails) else sum(n * t for n, t in tails)

    def walk(q, m, merge, eps):
        for K in range(MAX_FRAKZ_TERMS + 1):
            at_K = bound(q, m, merge, K)
            if at_K is not None and at_K <= eps:
                return K, at_K
        return refusal

    search = ev._truncation
    evaluations = []

    def counted(tail_bound, start, eps, cap, what):
        def once(K):
            evaluations[-1] += 1
            return tail_bound(K)

        evaluations.append(0)
        K, found = search(once, start, eps, cap, what)
        assert evaluations[-1] <= 2 * _ceil_log2(K - start + 1) + 2, (K, evaluations[-1])
        return K, found

    # nothing is summed: the engine yields zeros
    monkeypatch.setattr(ev, "_inner_terms", lambda *args: itertools.repeat((0, 0, 0)))
    monkeypatch.setattr(ev, "_truncation", counted)

    def outcome(ctx, pattern, eps, merge):
        try:
            val = frakz(ctx, pattern, eps=eps, merge=merge)
        except ValueError as err:
            return str(err)
        assert val.value == 0
        return val.terms, val.tail_bound

    qs = [Fraction(1, 1000), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5)]
    qs.append(Fraction(9, 10))
    epss = [Fraction(1, 10**e) for e in (3, 25, 60, 300)]
    results = set()
    for q in qs:
        ctx = QContext(q)
        for m in (1, 2, 3, 5, 8, 12):
            pattern = Triple((idx(2),) + (bar(1),) * (m - 1), (0,) * m, (1,) + (THETA,) * (m - 1))
            assert is_admissible(pattern)
            for merge in (False, True):
                cases = list(epss)
                if (q, m) == (Fraction(9, 10), 1):
                    # K = MAX_FRAKZ_TERMS is the last length served, one more
                    # is refused
                    cases += [bound(q, m, merge, MAX_FRAKZ_TERMS + i) for i in (0, 1)]
                for eps in cases:
                    expect = walk(q, m, merge, eps)
                    assert outcome(ctx, pattern, eps, merge) == expect, (q, m, merge, eps)
                    results.add(expect if isinstance(expect, str) else expect[0])
    assert refusal in results and MAX_FRAKZ_TERMS in results and 2 in results
    assert len(evaluations) == len(qs) * 6 * 2 * 4 + 4


def test_memoized_searches_equal_cold_and_direct_ones(monkeypatch):
    # a warm search returns what a cold one does, and both what _truncation
    # returns on the tail bound built here from its formula; a refusal is
    # not kept, so it is raised again
    import qzeta.evaluators as ev

    def outcome(fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except ValueError as err:
            return str(err)
        return (out.terms, out.tail_bound) if hasattr(out, "terms") else out

    def merged_tail(q, m, merge, K):
        classes = [(math.comb(m - 1, d - 1), d) for d in range(1, m + 1)] if merge else [(1, m)]
        tails = [(many, _resolution_tail(q, d, K)) for many, d in classes]
        return None if any(t is None for _, t in tails) else sum(n * t for n, t in tails)

    # nothing is summed: the engine yields zeros and the walk reads none
    monkeypatch.setattr(ev, "_inner_terms", lambda *args: itertools.repeat((0, 0, 0)))
    monkeypatch.setattr(ev, "_rescaled", lambda ctx, w, terms: iter(()))
    qs = [Fraction(1, 1000), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5)]
    qs.append(Fraction(9, 10))
    epss = [Fraction(1, 10**e) for e in (3, 25, 300)]
    refused = set()
    for q in qs:
        for m in range(1, 13):
            prefactor = (q / (1 - q)) ** (m - 1) / (1 - q)
            pattern = Triple((idx(2),) + (bar(1),) * (m - 1), (0,) * m, (1,) + (THETA,) * (m - 1))
            for eps in epss:
                direct = outcome(
                    ev._truncation, lambda K: prefactor * q ** (K + 1), m, eps,
                    ev.MAX_MHS_LIMIT, "a harmonic sum",
                )
                cold = outcome(ev._harmonic_truncation, q, m, eps)
                assert outcome(ev._harmonic_truncation, q, m, eps) == cold == direct
                if isinstance(direct, str):
                    refused.add("harmonic")
                for merge in (False, True):
                    direct = outcome(
                        ev._truncation, functools.partial(merged_tail, q, m, merge), 0, eps,
                        ev.MAX_FRAKZ_TERMS, "a mollified series",
                    )
                    cold = outcome(frakz, QContext(q), pattern, eps=eps, merge=merge)
                    warm = outcome(frakz, QContext(q), pattern, eps=eps, merge=merge)
                    assert warm == cold == direct, (q, m, merge, eps)
                    if isinstance(direct, str):
                        refused.add("frakz")
    assert refused == {"harmonic", "frakz"}
    assert ev._harmonic_search.cache_info().hits and ev._frakz_search.cache_info().hits


def test_memoized_searches_keep_no_refusal_and_no_stale_cap(monkeypatch):
    # a lower cap refuses what a warm entry under the old cap served, and a
    # refusal is searched again each time, never kept
    import qzeta.evaluators as ev

    ctx = QContext(Fraction(1, 2))
    eps = Fraction(1, 10**25)
    K, _ = ev._harmonic_truncation(ctx.q, 3, eps)
    pattern = Triple((idx(2), bar(1)), (0, 0), (1, THETA))
    terms = frakz(ctx, pattern, eps=eps, merge=True).terms
    monkeypatch.setattr(ev, "MAX_MHS_LIMIT", K - 1)
    monkeypatch.setattr(ev, "MAX_FRAKZ_TERMS", terms - 1)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"exceeds {K - 1} for a harmonic sum"):
            ev._harmonic_truncation(ctx.q, 3, eps)
        with pytest.raises(ValueError, match=f"exceeds {terms - 1} for a mollified series"):
            frakz(ctx, pattern, eps=eps, merge=True)
    for memo in (ev._harmonic_search, ev._frakz_search):
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 1), info


def test_the_ball_reads_h_without_the_lcm_table(monkeypatch):
    # the floored terms need only h_k; L_k = lcm(h_1, ..., h_k) has about
    # k**2 bits, and building it took over a second per column at q = 9/10
    # and K = 685, so the ball must not ask for it
    def never(self, n):
        raise AssertionError("the lcm table was built")

    monkeypatch.setattr(QContext, "_lcm_row", never)
    q = Fraction(6, 11)  # a q no other test sums a ball at
    ball = q_zeta_enclosure(q, (3, 1, 2), eps=Fraction(1, 10**9), star=True)
    exact = oracles.harmonic_all_n(q, [(3, 1), (1, 1), (2, 1)], ball.terms, star=True)
    lo, hi = ball.value.bounds()
    assert lo <= exact[ball.terms] <= hi
    # the patch is live: the exact sum does build it
    with pytest.raises(AssertionError, match="the lcm table was built"):
        q_zeta(QContext(q), (3, 1, 2), eps=Fraction(1, 10**9), star=True)


# the table tests' q: toward q -> 1, d = ceil(b / (b - a)) reaches 1000 at
# q = 999/1000, the most rounding the fixed-point [k] recurrence carries
TABLE_QS = (
    Fraction(1, 1000), Fraction(1, 2), Fraction(5, 8), Fraction(9, 10), Fraction(999, 1000),
)


def _table_over(q):
    """1 + 2**-G / d: the units above an entry of _floored_column or
    _magnitude_table within which their docstrings put the exact term, for
    G = _POWER_GUARD_BITS and d = ceil(b / (b - a)) at q = a/b."""
    import qzeta.evaluators as ev

    a, b = q.numerator, q.denominator
    return 1 + Fraction(1, 2**ev._POWER_GUARD_BITS * -(-b // (b - a)))


def test_floored_columns_bracket_the_exact_terms():
    # each t_k lies at most _table_over(q) units below 2**prec q**k / [k]**s,
    # with [k] from the oracle's q-integers, and never above it, for
    # magnitudes up to 33; the column is memoized
    from qzeta.evaluators import _floored_column

    def exact(q, s, k, prec):
        return q**k / oracles.q_integer(q, k) ** s * 2**prec

    for q in TABLE_QS:
        a, b = q.numerator, q.denominator
        over = _table_over(q)
        for s in (0, 1, 2, 5, 33):
            for prec in (0, 7, 300):
                ts = _floored_column(a, b, s, 40, prec)
                assert len(ts) == 40
                for k in range(1, 41):
                    term = exact(q, s, k, prec)
                    assert ts[k - 1] <= term < ts[k - 1] + over, (q, s, prec, k)
                assert _floored_column(a, b, s, 40, prec) is ts
    # the left ball's runs read prefixes of one column per power-of-two
    # length: two K in one length bucket share one memo entry
    _floored_column.cache_clear()
    q = Fraction(2, 3)
    entries = signed_string((2,))
    for n in (40, 57):
        (((_, _, column),),) = _harmonic_runs(q, entries, n)
        ts = column(300)
        assert len(ts) == n
        for k in range(1, n + 1):
            assert ts[k - 1] <= exact(q, 2, k, 300) < ts[k - 1] + _table_over(q), (n, k)
    info = _floored_column.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert ts == _floored_column(2, 3, 2, 64, 300)[:57]
    (((_, _, column),),) = _harmonic_runs(q, entries, 65)
    assert len(column(300)) == 65
    assert _floored_column.cache_info().misses == 2


FRAKZ_ENCLOSURE_QS = (
    Fraction(1, 1000), Fraction(1, 3), Fraction(5, 8), Fraction(4, 5), Fraction(9, 10),
)


def _resolutions_partial_sum(q, pattern, merge, K):
    """The partial sum to K that frakz sums, from the nested-sum oracle over
    every resolution the merge flag lets it sum."""
    triples = expand(pattern) if merge else [pattern]
    return sum((oracles.mollified_series_nested(q, _oracle_slots(T), K) for T in triples), Fraction(0))


def _frakz_ball(q, pattern, eps, merge):
    """frakz_enclosure, and with merge=False the same sweep at the K and
    tail bound of frakz read as one triple."""
    import qzeta.evaluators as ev

    if merge:
        return frakz_enclosure(q, pattern, eps=eps)
    K, bound = ev._frakz_truncation(q, pattern, eps, False)
    return ev.SeriesValue(_right_ball(q, pattern, False, K, ev._default_prec(eps)), bound, K)


def _right_ball(q, pattern, merge, n, prec):
    """The right side's ball to n: the strict sweep over the runs of the
    merge mask, whose floored terms lie within _COLUMN_SLACK units of the
    exact ones, as frakz_enclosure sweeps it (merged) at its K."""
    import qzeta.evaluators as ev

    runs = ev._mollified_runs(q, pattern, merge, n)
    return _ball_sweep(runs, n, prec, False)[0]


def test_frakz_enclosure_contains_the_exact_partial_sum():
    # the ball holds frakz's exact partial sum, at the same K and tail
    # bound, merged and read as one triple, for seeded patterns of depth
    # 1-12 with barred and zero magnitudes and shifts theta, 0, +-1 and 2,
    # toward q -> 1, and it is narrow.  Below depth 6 the exact value is the
    # independent oracle summed over every resolution; deeper, where
    # 2**(m-1) resolutions take too long, it is frakz.  At q = 9/10 the
    # exact sums of depths 10-12 take seconds, so they stop at depth 9
    rng = random.Random(29)
    patterns = [_admissible_pattern(rng, m) for m in range(1, 13)]
    eps = Fraction(1, 10**6)
    for q in FRAKZ_ENCLOSURE_QS:
        ctx = QContext(q)
        for pattern in patterns[: 9 if q == Fraction(9, 10) else 12]:
            for merge in (True, False):
                ball = _frakz_ball(q, pattern, eps, merge)
                case = (q, pattern, merge)
                if pattern.depth < 6:
                    exact = _resolutions_partial_sum(q, pattern, merge, ball.terms)
                else:
                    series = frakz(ctx, pattern, eps=eps, merge=merge)
                    assert (ball.terms, ball.tail_bound) == (series.terms, series.tail_bound), case
                    exact = series.value
                lo, hi = ball.value.bounds()
                assert lo <= exact <= hi, case
                assert ball.value.rad <= 2**16, case
                # negative control: the exact value moved away from the
                # centre by one radius plus one unit falls outside
                unit = Fraction(1, 2**ball.value.prec)
                away = 1 if exact >= ball.value.mid * unit else -1
                assert not lo <= exact + away * (ball.value.rad + 1) * unit <= hi, case
    shallow = patterns[2]
    series = frakz(QContext(Fraction(1, 2)), shallow, eps=eps, merge=True)
    ball = frakz_enclosure(Fraction(1, 2), shallow, eps=eps)
    assert (ball.terms, ball.tail_bound) == (series.terms, series.tail_bound)


def test_frakz_sweep_holds_at_coarse_binary_points():
    # with a few bits every floor drops a large share of a unit, so a
    # radius that left out the unit of a floored product, the error of a
    # column or the spread of a deeper level's radius would miss here
    import qzeta.evaluators as ev

    rng = random.Random(41)
    patterns = [_admissible_pattern(rng, m) for m in (1, 2, 3, 3, 4, 4, 5)]
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(7, 8), Fraction(2, 9)):
        for pattern in patterns:
            for merge in (True, False):
                for n in (1, 4, 12):
                    exact = _resolutions_partial_sum(q, pattern, merge, n)
                    for prec in (2, 4, 8, 16, 64):
                        lo, hi = _right_ball(q, pattern, merge, n, prec).bounds()
                        assert lo <= exact <= hi, (q, pattern, merge, n, prec)


def _near_two_patterns():
    """Patterns whose inner terms are 1 + q**k, about 2 toward q -> 1 (zero
    magnitudes, no offsets, theta shifts after the first), plain and barred:
    every floor's error is carried up, doubled, to the levels above."""
    out = []
    for m in (2, 3, 4, 5):
        out.append(Triple((idx(0),) * m, (0,) * m, (1,) + (THETA,) * (m - 1)))
        out.append(Triple((idx(0),) + (bar(0),) * (m - 1), (0,) * m, (1,) + (THETA,) * (m - 1)))
    return out


@pytest.mark.parametrize("tight", (False, True))
def test_frakz_sweep_levels_hold_the_exact_cumulatives(tight, monkeypatch):
    # the sweep's invariant, level by level: |x_j - 2**prec C_j| <= e_j at
    # every index a level is read at, for every inner level j, and the ball
    # holds level 0's sum.  On the right side C_j[k], k < n, comes from the
    # oracle over every resolution of the slots j..m-1; on the left side
    # C_j[k - d] comes from the harmonic oracle of the entries j..m-1, read
    # at k - d = k (weak) or k - 1 (strict) for k = 1..n.  Coarse binary
    # points and terms near 2 leave a floor's unit no slack to hide in;
    # with tight=True each column sits at the least binary point above the
    # level it reads, where a column's own error counts too
    import qzeta.evaluators as ev

    if tight:
        monkeypatch.setattr(ev, "_COLUMN_GUARD_BITS", 0)
        monkeypatch.setattr(ev, "_COLUMN_PREC_STEP", 1)
    rng = random.Random(43)
    patterns = _near_two_patterns() + [_admissible_pattern(rng, m) for m in (2, 3, 3, 4, 4, 5)]
    n = 7
    for q in (Fraction(1, 2), Fraction(7, 8), Fraction(2, 9)):
        for pattern in patterns:
            m = pattern.depth
            for merge in (True, False):
                runs = ev._mollified_runs(q, pattern, merge, n)
                levels = _ball_sweep(runs, n, 2, False)
                for j in range(1, m):
                    suffix = Triple(pattern.s[j:], pattern.t[j:], pattern.r[j:])
                    xs, _, es, _, _ = levels[j]
                    for k in range(n):
                        exact = _resolutions_partial_sum(q, suffix, merge, k) * 4
                        assert abs(xs[k] - exact) <= es[k], (q, pattern, merge, j, k)
                for prec in (1, 2, 4, 8):
                    lo, hi = _right_ball(q, pattern, merge, n, prec).bounds()
                    assert lo <= _resolutions_partial_sum(q, pattern, merge, n) <= hi
        # the left side, over strings of zero and near-1 magnitudes
        for s in ((0, 0, 0), (0, -1, 1, 0), (1, 1, 1, 1), (-2, 1, -1), (3, -1, 2, 1, 1)):
            entries = signed_string(s)
            plain = [(e.magnitude, e.sign) for e in entries]
            for star in (False, True):
                d = 0 if star else 1
                levels = _ball_sweep(_harmonic_runs(q, entries, n), n, 2, star)
                for j in range(1, len(entries)):
                    exact = oracles.harmonic_all_n(q, plain[j:], n, star=star)
                    xs, _, es, _, _ = levels[j]
                    for k in range(1, n + 1):
                        case = (q, s, star, j, k)
                        assert abs(xs[k - 1] - exact[k - d] * 4) <= es[k - 1], case
                for prec in (1, 2, 4, 8):
                    lo, hi = _left_ball(q, entries, n, star, prec).bounds()
                    assert lo <= oracles.harmonic_all_n(q, plain, n, star=star)[n] <= hi


def _sweep_by_the_stated_bound(runs, n, prec, weak, slack):
    """(mid, rad) of the ball of _ball_sweep from its stated bound, index by
    index in plain loops, from the same runs and columns.  Level j keeps
    x_j(k) and e_j(k) for k = 0..n, read at k (weak) or k - 1 (strict);
    below the innermost level is the exact 1; a product is the signed
    t_k x_j floored; an inner product costs 1 + ceil(slack top / 2**c) +
    ceil(t e / 2**c) with top = max |x_j| over the indices read plus e_j at
    the last of them, the last term counted as 1 wherever t E < 2**c for
    E that largest e_j (at least 1); and level 0 floors one sum per run,
    within 1 + ceil((sum t e + n slack top) / 2**c)."""
    import qzeta.evaluators as ev

    m = len(runs)
    d = 0 if weak else 1
    read = range(1 - d, n + 1 - d)
    levels = {m: ([1 << prec] * (n + 1), [0] * (n + 1))}
    mid = rad = 0
    for i in range(m - 1, -1, -1):
        mids, rads = [0] * (n + 1), [0] * (n + 1)
        for j, barred, column in runs[i]:
            xs, es = levels[j]
            top = max(abs(xs[k]) for k in read) + es[read[-1]]
            c = ev._column_prec(top, prec)
            ts = column(c)
            signed = [-t if barred and k % 2 else t for k, t in enumerate(ts, 1)]
            products = [signed[k - 1] * xs[k - d] for k in range(1, n + 1)]
            spreads = [ts[k - 1] * es[k - d] for k in range(1, n + 1)]
            if i:
                largest = max(1, es[read[-1]])
                for k in range(1, n + 1):
                    mids[k] += products[k - 1] >> c
                    rads[k] += 1 + math.ceil(Fraction(slack * top, 2**c))
                    if j < m and ts[k - 1] * largest < 2**c:
                        rads[k] += 1
                    else:
                        rads[k] += math.ceil(Fraction(spreads[k - 1], 2**c))
            else:
                mid += sum(products) >> c
                rad += 1 + math.ceil(Fraction(sum(spreads) + n * slack * top, 2**c))
        if i:
            levels[i] = (list(itertools.accumulate(mids)), list(itertools.accumulate(rads)))
    return mid, rad


@pytest.mark.parametrize("tight", (False, True))
def test_frakz_sweep_is_its_stated_bound(tight, monkeypatch):
    # the vectorized sweep gives the midpoint and radius of its stated
    # bound, computed index by index: a term left out of, or added to, the
    # radius would show here even where containment has slack to hide it.
    # With tight=True each column sits at the least binary point above the
    # level it reads, where a column's error is worth whole units
    import qzeta.evaluators as ev

    if tight:
        monkeypatch.setattr(ev, "_COLUMN_GUARD_BITS", 0)
        monkeypatch.setattr(ev, "_COLUMN_PREC_STEP", 1)
    rng = random.Random(47)
    patterns = _near_two_patterns() + [_admissible_pattern(rng, m) for m in range(1, 9)]
    eps = Fraction(1, 10**6)
    for q in (Fraction(1, 2), Fraction(7, 8), Fraction(2, 9)):
        for pattern in patterns:
            for merge in (True, False):
                for n, prec in ((5, 2), (12, 16), (20, 300)):
                    ball = _right_ball(q, pattern, merge, n, prec)
                    runs = ev._mollified_runs(q, pattern, merge, n)
                    expect = _sweep_by_the_stated_bound(runs, n, prec, False, ev._COLUMN_SLACK)
                    assert (ball.mid, ball.rad) == expect, (q, pattern, merge, n, prec)
            # and frakz_enclosure is that sweep, merged, at its K
            ball = frakz_enclosure(q, pattern, eps=eps)
            runs = ev._mollified_runs(q, pattern, True, ball.terms)
            prec = ball.value.prec
            expect = _sweep_by_the_stated_bound(runs, ball.terms, prec, False, ev._COLUMN_SLACK)
            assert (ball.value.mid, ball.value.rad) == expect, (q, pattern)


def test_run_columns_bracket_the_exact_terms():
    # each floored term t_k of a run at 2**-prec lies less than
    # _COLUMN_SLACK = 4 units below 2**prec times the exact term and never
    # above it, also for runs of negative alpha, whose terms lie far above
    # 1 and read a finer magnitude table, and of negative beta, whose
    # exponents do not rise with k, for magnitudes up to 33 (a q-series
    # pattern has at most 32 slots, and `33` compiles to 32)
    import qzeta.evaluators as ev

    assert ev._COLUMN_SLACK == 4

    rng = random.Random(53)
    for q in TABLE_QS:
        a, b = q.numerator, q.denominator
        for _ in range(12):
            s, alpha, beta = rng.randint(0, 33), rng.choice((-1, 0, 1, 2)), rng.randint(-1, 6)
            n = rng.randint(1, 30)
            halves = [k * (k - 1) // 2 for k in range(1, n + 1)]
            expos = [alpha * h + beta * k for k, h in enumerate(halves, 1)]
            for prec in (3, 64, 320):
                ts = ev._run_column(a, b, s, alpha, beta, halves, prec)
                assert len(ts) == n
                for k, (t, e) in enumerate(zip(ts, expos), 1):
                    exact = q**e * (1 + q**k) / oracles.q_integer(q, k) ** s * 2**prec
                    assert t <= exact < t + 4, (q, s, alpha, beta, prec, k)


def test_frakz_tables_bracket_the_exact_terms():
    # each magnitude entry m lies at most _table_over(q) units below
    # 2**prec (1 + q**k) / [k]**s, with [k] from the oracle's q-integers,
    # and never above it, for magnitudes up to 39; each power entry is the
    # floor of base**e, and a power table of a base below 1 ends in zeros
    import qzeta.evaluators as ev

    for q in TABLE_QS:
        a, b = q.numerator, q.denominator
        over = _table_over(q)
        for prec in (0, 7, 320):
            for group in (0, 1, 4):
                table = ev._magnitude_table(a, b, prec, 40, group)
                assert len(table) == ev._MAGNITUDE_GROUP
                for i, column in enumerate(table):
                    s = group * ev._MAGNITUDE_GROUP + i
                    assert len(column) == 40
                    for k in range(1, 41):
                        exact = (1 + q**k) / oracles.q_integer(q, k) ** s * 2**prec
                        assert column[k - 1] <= exact < column[k - 1] + over, (q, prec, s, k)
            for base in (q, 1 / q):
                powers = ev._power_table(base.numerator, base.denominator, prec, 600)
                assert len(powers) == 600
                assert list(powers) == [math.floor(base**e * 2**prec) for e in range(600)], (base, prec)
            assert ev._magnitude_table(a, b, prec, 40, 1) is ev._magnitude_table(a, b, prec, 40, 1)


@pytest.mark.parametrize("guard", (0, 1))
def test_fixed_point_tables_keep_their_bounds_without_guard_bits(guard, monkeypatch):
    # with G = _POWER_GUARD_BITS at 0 or 1, the bits that d and the
    # magnitudes add to the fixed-point binary point carry the bound alone:
    # left columns and magnitude entries stay within 1 + 2**-G / d units of
    # the exact terms, and run columns within _COLUMN_SLACK, as the
    # docstrings of _fixed_point_rows and _run_column derive for every G
    import qzeta.evaluators as ev

    caches = (ev._floored_column, ev._magnitude_table, ev._power_table)
    monkeypatch.setattr(ev, "_POWER_GUARD_BITS", guard)
    for cache in caches:
        cache.cache_clear()
    rng = random.Random(59)
    try:
        for q in TABLE_QS:
            a, b = q.numerator, q.denominator
            over = _table_over(q)  # reads the patched guard
            for prec in (0, 64):
                for s in (0, 1, 5, 33):
                    ts = ev._floored_column(a, b, s, 40, prec)
                    for k, t in enumerate(ts, 1):
                        exact = q**k / oracles.q_integer(q, k) ** s * 2**prec
                        assert t <= exact < t + over, (q, prec, s, k)
                for group in (0, 4):
                    for i, column in enumerate(ev._magnitude_table(a, b, prec, 40, group)):
                        s = group * ev._MAGNITUDE_GROUP + i
                        for k, m in enumerate(column, 1):
                            exact = (1 + q**k) / oracles.q_integer(q, k) ** s * 2**prec
                            assert m <= exact < m + over, (q, prec, s, k)
            for _ in range(4):
                s, alpha, beta = rng.randint(0, 33), rng.choice((-1, 0, 1, 2)), rng.randint(-1, 6)
                halves = [k * (k - 1) // 2 for k in range(1, 31)]
                ts = ev._run_column(a, b, s, alpha, beta, halves, 64)
                for k, (t, h) in enumerate(zip(ts, halves), 1):
                    e = alpha * h + beta * k
                    exact = q**e * (1 + q**k) / oracles.q_integer(q, k) ** s * 2**64
                    assert t <= exact < t + ev._COLUMN_SLACK, (q, s, alpha, beta, k)
    finally:
        # no table built without guard bits outlives the test
        for cache in caches:
            cache.cache_clear()


@pytest.mark.parametrize("guard", (1, 2, 5, 64))
def test_power_tables_divide_out_what_their_guard_bits_cannot_tell(guard, monkeypatch):
    # with few guard bits the recurrence's floor is often undecided and
    # divided out exactly; every entry is still the floor of base**e, and
    # the table stops computing at its first zero
    import qzeta.evaluators as ev

    monkeypatch.setattr(ev, "_POWER_GUARD_BITS", guard)
    ev._power_table.cache_clear()
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(999, 1000), Fraction(1, 7)):
        a, b = q.numerator, q.denominator
        for prec in (0, 5, 64, 200):
            powers = ev._power_table(a, b, prec, 300)
            assert list(powers) == [math.floor(q**e * 2**prec) for e in range(300)], (q, prec, guard)


def test_frakz_enclosure_refuses_as_frakz_does_before_any_table(monkeypatch):
    # a pattern over the depth cap, an inadmissible one, an eps that is not
    # a positive rational and a K over its cap are refused before the sweep
    # or any table is started, with frakz's messages
    import qzeta.evaluators as ev

    def never(*args, **kwargs):
        raise AssertionError("a table was built")

    for name in ("_ball_sweep", "_run_column", "_magnitude_table", "_power_table"):
        monkeypatch.setattr(ev, name, never)
    ctx = QContext(Fraction(1, 2))
    deep = Triple((idx(1),) * 33, (0,) * 33, (1,) + (THETA,) * 32)
    divergent = Triple((idx(2), idx(1)), (0, 0), (1, 2))
    admissible = Triple((idx(3), bar(1)), (1, 0), (1, THETA))
    for pattern, eps, message in (
        (deep, Fraction(1, 10**6), "depth 33 exceeds"),
        (divergent, Fraction(1, 10**6), "divergent"),
        (admissible, Fraction(0), "eps must be positive"),
        (admissible, "abc", "eps must be a rational number"),
        (admissible, Fraction(1, 10**6000), "series length exceeds 100 for a mollified series"),
    ):
        for merge in (True, False):
            with pytest.raises(ValueError, match=message):
                frakz(ctx, pattern, eps=eps, merge=merge)
        with pytest.raises(ValueError, match=message):
            frakz_enclosure(ctx.q, pattern, eps=eps)
    # the patches are live: an admissible pattern reaches the sweep
    with pytest.raises(AssertionError, match="a table was built"):
        frakz_enclosure(ctx.q, admissible, eps=Fraction(1, 10**6))


def test_merge_mask_sums_the_resolutions_it_allows():
    # a comma forced at a separator splits the pattern into blocks; the
    # resolutions the mask allows are the products of the blocks' expansions
    rng = random.Random(7)
    shift_pool = [THETA, 1, -1, 0, 2, -2, 3]
    n_max = 7
    for trial in range(30):
        m = rng.randint(1, 5)
        pattern = Triple(
            tuple(SignedIndex(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(m)),
            tuple(rng.randint(0, 3) for _ in range(m)),
            tuple(rng.choice(shift_pool) for _ in range(m)),
        )
        mask = tuple(rng.random() < 0.6 for _ in range(m - 1))
        cuts = [0] + [p + 1 for p, merged in enumerate(mask) if not merged] + [m]
        blocks = [
            expand(Triple(pattern.s[lo:hi], pattern.t[lo:hi], pattern.r[lo:hi]))
            for lo, hi in zip(cuts, cuts[1:])
        ]
        # a > 1 and denominators that are not powers of 2 would expose an
        # inexact division in the integer prefactor
        q = (Fraction(1, 2), Fraction(2, 3), Fraction(7, 8), Fraction(2, 9))[trial % 4]
        expect = [Fraction(0)] * (n_max + 1)
        for parts in itertools.product(*blocks):
            slots = [slot for T in parts for slot in _oracle_slots(T)]
            for n, value in enumerate(oracles.mollified_all_n(q, slots, n_max)):
                expect[n] += value
        assert pattern_mhs_many(QContext(q), pattern, n_max, merge=mask) == expect, (pattern, mask)
    with pytest.raises(ValueError, match="merge mask"):
        pattern_mhs_many(QContext(Fraction(1, 2)), pattern, 3, merge=mask + (True,))


def _one_denominator_values(ctx, pattern, n_max, merge):
    # the prefactor over the one common denominator D of inner[1..n_max]:
    # N_k = inner[k] D and out[n] = P_n**2 S_n / (P_2n D) with
    # S_n = sum_k G(2n, n-k) b**(k*k) N_k
    from qzeta.evaluators import _inner_terms

    a, b = ctx.q.numerator, ctx.q.denominator
    w = sum(e.magnitude for e in pattern.s)
    inner = list(itertools.islice(_inner_terms(ctx, pattern, merge), n_max))
    top_a = max([0] + [ea for _, ea, _ in inner])
    top_b = max([0] + [eb for _, _, eb in inner])
    den = ctx.p_lcm(n_max) ** w * a**top_a * b**top_b
    # inner[k] = y / (L_k**w a**ea b**eb), where ea and eb may be negative
    nums = [0] + [
        Fraction(y * den, ctx.p_lcm(k) ** w) / (Fraction(a) ** ea * Fraction(b) ** eb)
        for k, (y, ea, eb) in enumerate(inner, 1)
    ]
    assert all(x.denominator == 1 for x in nums)
    out = [Fraction(0)]
    for n in range(1, n_max + 1):
        row = ctx.gauss_row(2 * n, n)
        total = sum(row[n - k] * b ** (k * k) * nums[k] for k in range(1, n + 1))
        p_n, p_2n = (math.prod(ctx.h(i) for i in range(1, j + 1)) for j in (n, 2 * n))
        out.append(Fraction(p_n**2 * total, p_2n * den))
    return out, inner


def test_pattern_pairs_equal_the_one_denominator_prefactor():
    # each row over its own denominator, with b**(k*k) folded into the
    # engine's b-exponent, gives the value of the prefactor over the last
    # row's denominator; its denominator is G(2n, n) L_n**w a**A_n b**B_n,
    # with A_n = max(0, ea_k) and B_n = max(0, eb_k - k*k) over k <= n
    from qzeta import compose
    from qzeta.evaluators import _pattern_rows, _row_values

    rng = random.Random(15)
    shift_pool = [THETA, 1, -1, 0, 2, -2, 3]
    patterns = [compose(c)[1] for c in ((2, 1, 1, 3, 1), (3, 1, 2), (5,), (2, 2, 1, 1))]
    while len(patterns) < 12:
        m = rng.randint(1, 4)
        pattern = Triple(
            tuple(SignedIndex(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(m)),
            tuple(rng.randint(0, 3) for _ in range(m)),
            tuple(rng.choice(shift_pool) for _ in range(m)),
        )
        patterns.append(pattern)
    qs = (Fraction(1, 2), Fraction(2, 7), Fraction(5, 8), Fraction(9, 10))
    for i, pattern in enumerate(patterns):
        q = qs[i % 4]
        n_max = 40 if i < 4 else rng.randint(1, 24)
        for merge in (True, False):
            ctx = QContext(q)
            a, b = q.numerator, q.denominator
            w = sum(e.magnitude for e in pattern.s)
            expect, inner = _one_denominator_values(ctx, pattern, n_max, merge)
            rows = list(_pattern_rows(ctx, pattern, n_max, merge))
            assert len(rows) == n_max + 1 and rows[0] == (0, 1, 0)
            assert _row_values(ctx, w, rows) == expect, (pattern, q, merge)
            top_a = top_b = 0
            for n in range(1, n_max + 1):
                _, ea, eb = inner[n - 1]
                top_a, top_b = max(top_a, ea), max(top_b, eb - n * n)
                den = ctx.gauss_row(2 * n, n + 1)[n] * ctx.p_lcm(n) ** w * a**top_a * b**top_b
                _, c, e = rows[n]
                assert ctx.p_lcm(n) ** w * c * b**e == den, (pattern, q, merge, n)


def test_pattern_pairs_carry_the_prefactor_without_gaussian_rows(monkeypatch):
    # the pairs carry G(2n, n-k) from row to row by the factors b**i - a**i:
    # with every Gaussian row refused they still give the oracle's values,
    # at q near 0 and near 1, where those factors are large, and at the
    # smallest upper limits; each denominator is G(2n, n) L_n**w a**A_n b**B_n
    from qzeta import compose
    from qzeta.evaluators import _pattern_rows, _row_values

    cases = []
    for q in (Fraction(1, 1000), Fraction(999, 1000)):
        for comp in ((2, 1, 1, 3, 1), (3, 1, 2), (1,)):
            pattern = compose(comp)[1]
            for n_max in (0, 1, 2, 12):
                for merge in (True, False):
                    expect, inner = _one_denominator_values(QContext(q), pattern, n_max, merge)
                    cases.append((q, pattern, n_max, merge, expect, inner))

    def never(*args):
        raise AssertionError("a Gaussian row was built")

    monkeypatch.setattr(QContext, "gauss_row", never)
    for q, pattern, n_max, merge, expect, inner in cases:
        ctx = QContext(q)
        a, b = q.numerator, q.denominator
        w = sum(e.magnitude for e in pattern.s)
        rows = list(_pattern_rows(ctx, pattern, n_max, merge))
        assert len(rows) == n_max + 1 and rows[0] == (0, 1, 0)
        assert _row_values(ctx, w, rows) == expect, (pattern, q, n_max, merge)
        top_a = top_b = 0
        for n in range(1, n_max + 1):
            _, ea, eb = inner[n - 1]
            top_a, top_b = max(top_a, ea), max(top_b, eb - n * n)
            p_n, p_2n = (math.prod(ctx.h(i) for i in range(1, j + 1)) for j in (n, 2 * n))
            centre = p_2n // p_n**2
            den = centre * ctx.p_lcm(n) ** w * a**top_a * b**top_b
            _, c, e = rows[n]
            assert ctx.p_lcm(n) ** w * c * b**e == den, (pattern, q, merge, n)


def _engine_exponents(pattern, merge, n):
    # the (A, B) of inner[1..n] by the definition of the engine's scale:
    # level i takes the largest of its own exponents so far and the ones
    # each live run [i, j) needs, ea_j - e and eb_j - ((k-1)s - k - e), with
    # s, t and r folded over the run and e = t*k + Q(r, k); no sum is taken
    m = pattern.depth
    mask = (merge,) * (m - 1) if isinstance(merge, bool) else merge
    runs = []
    for i in range(m):
        row = []
        for j in range(i + 1, m + 1):
            if j > i + 1 and not mask[j - 2]:
                break
            shift = THETA
            for r in pattern.r[i:j]:
                shift = boxplus(shift, r)
            s = sum(e.magnitude for e in pattern.s[i:j])
            row.append((j, s, sum(pattern.t[i:j]), None if shift is THETA else shift))
        runs.append(row)
    ea = [None] * m + [0]
    eb = [0] * (m + 1)
    out = []
    for k in range(1, n + 1):
        for i in range(m):
            need = [
                (ea[j] - e, eb[j] - ((k - 1) * s - k - e))
                for j, s, t, r in runs[i]
                if ea[j] is not None
                for e in [t * k + oracles.quad_exp(r, k)]
            ]
            if i and ea[i] is not None:
                need.append((ea[i], eb[i]))
            top = (max(p[0] for p in need), max(p[1] for p in need)) if need else None
            if i == 0:
                out.append(top or (0, 0))
            elif top:
                ea[i], eb[i] = top
    return out


def test_run_engine_scale_is_the_largest_exponent_its_terms_need():
    # the one-pass scale raises a level's partial total whenever a run needs
    # a larger power, so it must end where the largest needed power is; the
    # values are checked against the oracles elsewhere, so equal exponents
    # give the same integers y.  Shifts theta, +-1 in both orders, 0, +-2
    # and 3, barred entries, magnitude 0, every kind of merge and q with
    # a > 1 as well as a = 1
    from qzeta.evaluators import _inner_terms

    rng = random.Random(23)
    shift_pool = [THETA, 1, -1, 0, 2, -2, 3]
    qs = (Fraction(1, 2), Fraction(2, 3), Fraction(5, 8), Fraction(1, 7), Fraction(9, 10))
    for trial in range(200):
        m = rng.randint(1, 7)
        pattern = Triple(
            tuple(SignedIndex(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(m)),
            tuple(rng.randint(0, 3) for _ in range(m)),
            tuple(rng.choice(shift_pool) for _ in range(m)),
        )
        merge = (True, False, tuple(rng.random() < 0.6 for _ in range(m - 1)))[trial % 3]
        ctx = QContext(qs[trial % 5])
        got = [(A, B) for _, A, B in itertools.islice(_inner_terms(ctx, pattern, merge), 25)]
        assert got == _engine_exponents(pattern, merge, 25), (pattern, merge)


def test_run_engine_scale_is_pinned():
    # the scale fixes how large the integers of every row grow, so a scale
    # that grows silently would slow the long checks without failing any
    # value test; both inputs have a > 1, where a wrong a-exponent shows
    from qzeta import compose
    from qzeta.evaluators import _inner_terms, _pattern_rows

    pattern = compose((2, 1, 1, 3, 1))[1]
    ctx = QContext(Fraction(5, 8))
    rows = _pattern_rows(ctx, pattern, 40)
    dens = [ctx.p_lcm(n) ** 8 * c * 8**e for n, (_, c, e) in enumerate(rows)]
    assert [den.bit_length() for den in dens] == [
        1, 19, 59, 130, 203, 337, 415, 609, 752, 950, 1098, 1412, 1574, 1949,
        2168, 2441, 2726, 3220, 3467, 4021, 4326, 4730, 5093, 5768, 6099, 6727,
        7163, 7754, 8203, 9057, 9428, 10343, 10916, 11583, 12162, 12935, 13436,
        14530, 15181, 15980, 16600,
    ]  # fmt: skip
    # row n's denominator is G(2n, n) L_n**8 a**A_n b**B_n, with
    # h_k = (b**k - a**k) / (b - a), L_n = lcm(h_1..h_n), P_n = h_1...h_n
    # and A_n, B_n the largest of 0, ea_k and eb_k - k*k over k <= n
    a, b = 5, 8
    h = [(b**k - a**k) // (b - a) for k in range(81)]
    exps = itertools.islice(_inner_terms(QContext(Fraction(a, b)), pattern, True), 40)
    top_a = top_b = 0
    for n, (_, ea, eb) in enumerate(exps, 1):
        top_a, top_b = max(top_a, ea), max(top_b, eb - n * n)
        centre = math.prod(h[1 : 2 * n + 1]) // math.prod(h[1 : n + 1]) ** 2
        lcm = math.lcm(*h[1 : n + 1])
        assert dens[n] == centre * lcm**8 * a**top_a * b**top_b, n
    inner = _inner_terms(QContext(Fraction(4, 5)), compose((9, 9, 9))[1], True)
    assert [(A, B) for _, A, B in itertools.islice(inner, 20)] == [
        (-3, 4), (-5, 6), (-8, 9), (-12, 13), (-17, 18), (-23, 24), (-30, 31),
        (-38, 39), (-47, 47), (-57, 56), (-68, 66), (-80, 77), (-93, 89),
        (-107, 102), (-122, 116), (-138, 131), (-155, 147), (-173, 164),
        (-192, 182), (-212, 201),
    ]  # fmt: skip


def test_pattern_rows_cofactor_is_pinned():
    # the finite rows leave L_n**w implied, so the check's one large product
    # is by the cofactor G(2n, n) a**A_n b**B_n alone; a cofactor that took
    # L_n**w back (11,781 of the 16,600 bits of row 40's denominator) would
    # slow the long checks without failing any value test
    from qzeta import compose
    from qzeta.evaluators import _pattern_rows, _row_values

    ctx = QContext(Fraction(5, 8))
    pattern = compose((2, 1, 1, 3, 1))[1]
    rows = list(_pattern_rows(ctx, pattern, 40))
    assert [(c * 8**e).bit_length() for _, c, e in rows] == [
        1, 19, 29, 45, 66, 93, 126, 165, 211, 262, 319, 382, 451, 526, 607,
        694, 787, 886, 991, 1102, 1219, 1342, 1471, 1606, 1747, 1894, 2047,
        2206, 2371, 2542, 2719, 2902, 3091, 3286, 3487, 3694, 3907, 4126,
        4351, 4582, 4819,
    ]  # fmt: skip
    assert (ctx.p_lcm(40) ** 8).bit_length() == 11781
    # a row's value multiplies the implied power back in
    values = _row_values(ctx, pattern.weight, rows)
    for n, ((num, c, e), value) in enumerate(zip(rows, values)):
        assert value == Fraction(num, ctx.p_lcm(n) ** 8 * c * 8**e), n


def test_mollified_mhs_reduces_only_row_n(monkeypatch):
    # one upper limit is the row of the whole family at n, reduced alone:
    # one Fraction is built, whatever n is
    import qzeta.evaluators as ev

    rng = random.Random(17)
    shift_pool = [THETA, 1, -1, 0, 2, -2, 3]
    qs = (Fraction(1, 2), Fraction(2, 7), Fraction(5, 8), Fraction(9, 10))
    cases = []
    for trial in range(16):
        m = rng.randint(1, 4)
        triple = Triple(
            tuple(SignedIndex(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(m)),
            tuple(rng.randint(0, 3) for _ in range(m)),
            tuple(rng.choice(shift_pool) for _ in range(m)),
        )
        q = qs[trial % 4]
        n_max = rng.randint(0, 12)
        cases.append((q, triple, n_max, mollified_mhs_many(QContext(q), triple, n_max)))
    built = [0]

    class Counted(Fraction):
        def __new__(cls, *args):
            built[0] += 1
            return Fraction(*args)

    monkeypatch.setattr(ev, "Fraction", Counted)
    for q, triple, n_max, values in cases:
        for n in range(n_max + 1):
            built[0] = 0
            assert mollified_mhs(QContext(q), triple, n) == values[n], (q, triple, n)
            assert built[0] == 1


def test_run_engine_folds_each_run_once(monkeypatch):
    # every run is folded into plain integers once per call, so no quadratic
    # exponent, oplus or SignedIndex is evaluated per index: the counts are
    # the same at n_max 10 and 40, and boxplus runs once per run at most
    import qzeta.evaluators as ev
    import qzeta.indices as indices
    from qzeta.evaluators import _pattern_rows

    pattern = Triple(
        (idx(2), bar(1), idx(0), bar(3), idx(1), idx(1), bar(2), idx(1)),
        (1, 0, 2, 0, 1, 0, 0, 3),
        (1, -1, THETA, 0, 2, -2, 1, 3),
    )
    m = pattern.depth
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("quad_exponent", "oplus", "boxplus"):
        monkeypatch.setattr(ev, name, counted(name, getattr(indices, name)), raising=False)
    post_init = SignedIndex.__post_init__

    def counted_post_init(self):
        calls["SignedIndex"] += 1
        post_init(self)

    monkeypatch.setattr(SignedIndex, "__post_init__", counted_post_init)
    seen = []
    for n_max in (10, 40):
        calls.clear()
        list(_pattern_rows(QContext(Fraction(5, 8)), pattern, n_max))
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert calls["quad_exponent"] == calls["oplus"] == 0
    assert 0 < calls["boxplus"] <= m * (m + 1) // 2


def test_harmonic_rows_are_over_the_scale_of_their_dp():
    # row n of _mhs_rows is (num, 1, e) over L_n**W * b**e, with W the total
    # magnitude left implied, L_n = lcm(h_1..h_n) for
    # h_k = (b**k - a**k) // (b - a) and e = sum_j beta_j(n), beta_j(n) = n
    # for a zero magnitude and 1 otherwise, and its value is the
    # brute-force sum; the strict strings keep X_0 = 0 for their first
    # steps, and the scale grows through them all the same
    from qzeta.evaluators import _mhs_rows

    rng = random.Random(25)
    n_max = 9
    strings = [
        (), ((0, 1),), ((0, -1), (2, 1)), ((1, 1), (0, 1), (0, -1)),
        ((2, -1), (0, 1), (1, 1), (0, 1)),
    ]  # fmt: skip
    for _ in range(12):
        depth = rng.randint(1, 4)
        strings.append(tuple((rng.randint(0, 3), rng.choice((1, -1))) for _ in range(depth)))
    for q in (Fraction(1, 3), Fraction(5, 8), Fraction(9, 10)):
        a, b = q.numerator, q.denominator
        h = [(b**k - a**k) // (b - a) for k in range(n_max + 1)]
        for s in strings:
            entries = tuple(SignedIndex(mag, sign) for mag, sign in s)
            weight = sum(mag for mag, _ in s)
            for star in (False, True):
                rows = list(_mhs_rows(QContext(q), entries, n_max, star))
                values = oracles.harmonic_all_n(q, s, n_max, star=star)
                assert len(rows) == n_max + 1
                for n, (num, c, e) in enumerate(rows):
                    beta = sum(n if mag == 0 else 1 for mag, _ in s)
                    assert c == 1 and e == beta, (q, s, star, n)
                    den = math.lcm(*h[1 : n + 1]) ** weight * b**e
                    assert Fraction(num, den) == values[n], (q, s, star, n)


def test_fractional_upper_limits_are_refused_before_any_term(monkeypatch):
    # an upper limit is read as an int, as K is, before a term is summed
    import qzeta.evaluators as ev

    def never(*args):
        raise AssertionError("a sum was started")

    monkeypatch.setattr(ev, "_inner_terms", never)
    ctx = QContext(Fraction(1, 2))
    pattern = Triple((idx(2), idx(1)), (0, 0), (1, THETA))
    for call in (
        lambda: mhs(ctx, (2, 1), 2.5),
        lambda: mhs_many(ctx, (2, 1), 2.5),
        lambda: pattern_mhs_many(ctx, pattern, 2.5),
        lambda: mollified_mhs_many(ctx, pattern, Fraction(5, 2)),
    ):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
    with pytest.raises(AssertionError, match="a sum was started"):
        pattern_mhs_many(ctx, pattern, 2)


def test_classical_descent_is_refused_unless_strict_weak_or_resolved(monkeypatch):
    # "strict" and every other star but False, True and "resolved" are
    # refused before any string is summed (a truthy star was once summed as
    # the weak descent); the three descents give the oracle's floats
    import qzeta.evaluators as ev

    def never(*args):
        raise AssertionError("a string was summed")

    with monkeypatch.context() as patch:
        patch.setattr(ev, "_classical_sum", never)
        for star in ("strict", "weak", "Resolved", None, 0, 1, 1.0):
            with pytest.raises(ValueError, match="star must be False, True or 'resolved', got"):
                classical_zeta((2, 1), K=1000, star=star)
        with pytest.raises(ValueError, match="got 'strict'"):
            classical_zeta_many([((2,), False), ((2, 1), "strict")], K=1000)
        with pytest.raises(AssertionError, match="a string was summed"):
            classical_zeta((2, 1), K=1000, star=False)
    for star, near in ((False, 1.19358), (True, 2.39563), ("resolved", 7.17842)):
        got = classical_zeta((2, 1), K=1000, star=star)
        assert tuple(got) == _classical_oracle((2, 1), 1000, star), star
        assert abs(got.value - near) < 1e-5, star
