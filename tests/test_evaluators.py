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
    _mhs_enclosure,
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
        assert outcome(_harmonic_truncation, QContext(q), m, eps) == expect, (q, m, eps)
    # however long the series, the search reads no power of q past the cap:
    # q**K for K ~ 7 * 10**10 would not fit in memory
    qpow = QContext.qpow

    def bounded(self, n):
        assert n <= MAX_MHS_LIMIT + 2, f"the search asked for q**{n}"
        return qpow(self, n)

    monkeypatch.setattr(QContext, "qpow", bounded)
    with pytest.raises(ValueError, match=f"exceeds {MAX_MHS_LIMIT}"):
        _harmonic_truncation(QContext(Fraction(10**9 - 1, 10**9)), 2, Fraction(1, 10**30))


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
                ball = q_zeta_enclosure(ctx, s, eps=eps, star=star)
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
        q_zeta_enclosure(QContext(Fraction(1, 2)), (2,), eps=Fraction(0))


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
                        lo, hi = _mhs_enclosure(ctx, entries, n, star, prec).bounds()
                        assert lo <= exact[n] <= hi, (q, s, star, n, prec)


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
    K = 65536 + 1001
    for (entries, star), value in zip(items, classical_zeta_many(items, K=K)):
        expect = oracles.classical_partial_sum([(e.magnitude, e.sign) for e in entries], K, star=star)
        assert (value.value, value.tail_est) == expect, (entries, star)


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
                    [(e.magnitude, e.sign) for e in term.index], K, chunk=chunk
                )[0]
                for term in classical_expand(comp)
            )
            assert abs(d * got - expect) <= 1e-12 * abs(expect), (comp, K, chunk)
    assert depths == set(range(1, 7))



def _classical_oracle(entries, K, star, chunk=65536):
    entries = signed_string(entries)
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

    for entries, star in (((2, 1), False), ((3, 1), True), ((2, -1, 1), False)):
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
                cold = outcome(ev._harmonic_truncation, QContext(q), m, eps)
                assert outcome(ev._harmonic_truncation, QContext(q), m, eps) == cold == direct
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
    K, _ = ev._harmonic_truncation(ctx, 3, eps)
    pattern = Triple((idx(2), bar(1)), (0, 0), (1, THETA))
    terms = frakz(ctx, pattern, eps=eps, merge=True).terms
    monkeypatch.setattr(ev, "MAX_MHS_LIMIT", K - 1)
    monkeypatch.setattr(ev, "MAX_FRAKZ_TERMS", terms - 1)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"exceeds {K - 1} for a harmonic sum"):
            ev._harmonic_truncation(ctx, 3, eps)
        with pytest.raises(ValueError, match=f"exceeds {terms - 1} for a mollified series"):
            frakz(ctx, pattern, eps=eps, merge=True)
    for memo in (ev._harmonic_search, ev._frakz_search):
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 1), info


def test_floored_columns_equal_a_direct_floor():
    # each (t, flag) is the floor of q**k / [k]**s at 2**-prec and whether
    # it dropped a remainder, with [k] from the oracle's q-integers
    from qzeta.evaluators import _floored_column

    for q in (Fraction(1, 1000), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
        for s in (0, 1, 2, 5):
            for prec in (0, 7, 300):
                column = _floored_column(q, s, prec, 40)
                assert len(column) == 41 and column[0] == (0, 0)
                for k in range(1, 41):
                    scaled = q**k / oracles.q_integer(q, k) ** s * 2**prec
                    t, rest = divmod(scaled.numerator, scaled.denominator)
                    assert column[k] == (t, 1 if rest else 0), (q, s, prec, k)
                assert _floored_column(q, s, prec, 40) is column


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
        out.append(Fraction(ctx.p_prod(n) ** 2 * total, ctx.p_prod(2 * n) * den))
    return out, inner


def test_pattern_pairs_equal_the_one_denominator_prefactor():
    # each row over its own denominator, with b**(k*k) folded into the
    # engine's b-exponent, gives the value of the prefactor over the last
    # row's denominator; its denominator is G(2n, n) L_n**w a**A_n b**B_n,
    # with A_n = max(0, ea_k) and B_n = max(0, eb_k - k*k) over k <= n
    from qzeta import compose
    from qzeta.evaluators import _pattern_pairs

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
            pairs = _pattern_pairs(ctx, pattern, n_max, merge)
            assert len(pairs) == n_max + 1 and pairs[0] == (0, 1)
            assert [Fraction(num, den) for num, den in pairs] == expect, (pattern, q, merge)
            top_a = top_b = 0
            for n in range(1, n_max + 1):
                _, ea, eb = inner[n - 1]
                top_a, top_b = max(top_a, ea), max(top_b, eb - n * n)
                den = ctx.gauss_row(2 * n, n + 1)[n] * ctx.p_lcm(n) ** w * a**top_a * b**top_b
                assert pairs[n][1] == den, (pattern, q, merge, n)


def test_pattern_pairs_carry_the_prefactor_without_gaussian_rows(monkeypatch):
    # the pairs carry G(2n, n-k) from row to row by the factors b**i - a**i:
    # with every Gaussian row refused they still give the oracle's values,
    # at q near 0 and near 1, where those factors are large, and at the
    # smallest upper limits; each denominator is G(2n, n) L_n**w a**A_n b**B_n
    from qzeta import compose
    from qzeta.evaluators import _pattern_pairs

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
        pairs = _pattern_pairs(ctx, pattern, n_max, merge)
        assert len(pairs) == n_max + 1 and pairs[0] == (0, 1)
        assert [Fraction(num, den) for num, den in pairs] == expect, (pattern, q, n_max, merge)
        top_a = top_b = 0
        for n in range(1, n_max + 1):
            _, ea, eb = inner[n - 1]
            top_a, top_b = max(top_a, ea), max(top_b, eb - n * n)
            centre = ctx.p_prod(2 * n) // ctx.p_prod(n) ** 2
            den = centre * ctx.p_lcm(n) ** w * a**top_a * b**top_b
            assert pairs[n][1] == den, (pattern, q, merge, n)
