from fractions import Fraction

import pytest

import oracles
from qzeta import QContext, as_q, bar, idx, mhs_many, THETA


def test_as_q_accepts_rationals_in_unit_interval():
    assert as_q("2/3") == Fraction(2, 3)
    assert as_q(Fraction(1, 2)) == Fraction(1, 2)
    for bad in (0, 1, Fraction(3, 2), "5/4", Fraction(-1, 2)):
        with pytest.raises(ValueError):
            as_q(bad)


def test_frozen_values(ctx_half):
    assert ctx_half.q_int(1) == 1
    assert ctx_half.q_int(3) == Fraction(7, 4)
    assert ctx_half.gauss_binomial(4, 2) == Fraction(35, 16)
    assert ctx_half.binom_ratio(1, 1) == Fraction(2, 3)
    assert ctx_half.a_kernel(1, 1) == Fraction(-1)
    assert ctx_half.a_kernel(2, 1) == Fraction(-9, 7)


def test_q_int_matches_oracle(ctx_half, ctx_nine_tenths):
    for ctx in (ctx_half, ctx_nine_tenths):
        for n in range(0, 31):
            assert ctx.q_int(n) == oracles.q_integer(ctx.q, n)


def test_gauss_binomial_matches_oracle(ctx_third):
    for n in range(0, 13):
        for m in range(0, n + 1):
            assert ctx_third.gauss_binomial(n, m) == oracles.q_binomial(ctx_third.q, n, m)


def test_gauss_binomial_symmetry(ctx_half, ctx_third, ctx_nine_tenths):
    for ctx in (ctx_half, ctx_third, ctx_nine_tenths):
        for n in range(0, 41):
            for m in range(0, n + 1):
                assert ctx.gauss_binomial(n, m) == ctx.gauss_binomial(n, n - m)


def test_gauss_binomial_pascal_recurrence(ctx_half, ctx_third, ctx_nine_tenths):
    for ctx in (ctx_half, ctx_third, ctx_nine_tenths):
        q = ctx.q
        for n in range(1, 41):
            for m in range(1, n):
                lhs = ctx.gauss_binomial(n, m)
                rhs = ctx.gauss_binomial(n - 1, m - 1) + q**m * ctx.gauss_binomial(n - 1, m)
                assert lhs == rhs


def test_gauss_binomial_out_of_range(ctx_half):
    assert ctx_half.gauss_binomial(3, 5) == 0
    assert ctx_half.gauss_binomial(3, -1) == 0
    with pytest.raises(ValueError):
        ctx_half.poch(-1)


def test_binom_ratio_edges(ctx_half, ctx_third, ctx_nine_tenths):
    assert ctx_half.binom_ratio(5, 0) == 1
    assert ctx_half.binom_ratio(3, 4) == 0
    # rows are built by a recurrence on first use; compare every entry
    for ctx in (ctx_half, ctx_third, ctx_nine_tenths, QContext(Fraction(5, 7))):
        for n in range(0, 13):
            for k in range(0, n + 2):
                assert ctx.binom_ratio(n, k) == oracles.binom_ratio(ctx.q, n, k)
    with pytest.raises(ValueError):
        ctx_half.binom_ratio(3, -1)
    with pytest.raises(ValueError):
        ctx_half.binom_ratio(-1, 0)


def test_kernel_row_sums(ctx_half, ctx_nine_tenths):
    # full rows of the alternating kernel sum to -1, the weighted rows to [n]
    for ctx in (ctx_half, ctx_nine_tenths):
        q = ctx.q
        for n in range(1, 31):
            assert sum(ctx.a_kernel(n, k) for k in range(1, n + 1)) == -1
            weighted = sum(
                (1 + q**k) * ctx.q_int(k) * ctx.binom_ratio(n, k) * q ** (k * (k - 1))
                for k in range(1, n + 1)
            )
            assert weighted == ctx.q_int(n)


def test_harmonic_term(ctx_half):
    # the k-th increment of a depth-one sum is its term at index k
    q = ctx_half.q

    def term(entry, k):
        values = mhs_many(ctx_half, (entry,), k)
        return values[k] - values[k - 1]

    assert term(idx(2), 3) == q**3 / ctx_half.q_int(3) ** 2
    assert term(bar(2), 3) == -(q**3) / ctx_half.q_int(3) ** 2
    assert term(bar(1), 2) == q**2 / ctx_half.q_int(2)
    assert term(idx(0), 4) == q**4


def test_p_lcm(ctx_third):
    # q = 1/3: P_k = 3^k - 1 = 2, 8, 26, 80
    assert [ctx_third.p_lcm(n) for n in range(5)] == [1, 2, 8, 104, 1040]


def test_integer_pochhammer_and_gauss_rows(ctx_half, ctx_third):
    # q = 1/3: P_n = prod (3^k - 1) = 2, 2*8, 2*8*26, 2*8*26*80
    assert [ctx_third.p_prod(n) for n in range(5)] == [1, 2, 16, 416, 33280]
    for ctx in (ctx_half, ctx_third, QContext(Fraction(7, 8)), QContext(Fraction(2, 9))):
        q, b = ctx.q, ctx.q.denominator
        for n in range(0, 13):
            poch = Fraction(1)
            for i in range(1, n + 1):
                poch *= 1 - q**i
            assert ctx.poch(n) == poch
            assert ctx.p_prod(n) == poch * b ** (n * (n + 1) // 2)
            row = ctx.gauss_row(n, n + 1)
            assert row == [oracles.q_binomial(q, n, j) * b ** (j * (n - j)) for j in range(n + 1)]
            assert all(type(g) is int for g in row)
            assert ctx.gauss_row(n, n // 2) == row[: n // 2]
        assert ctx.gauss_row(4, 0) == []


def test_mollified_term(ctx_half):
    q = ctx_half.q
    got = ctx_half.mollified_term(bar(2), 3, 1, 4)
    expect = q ** (3 * 4 + 6) * (1 + q**4) / ctx_half.q_int(4) ** 2
    assert got == expect
    assert ctx_half.mollified_term(idx(1), 0, THETA, 3) == (1 + q**3) / ctx_half.q_int(3)


def test_context_caches_are_consistent(ctx_half):
    # interleaved calls must keep returning identical values
    before = ctx_half.gauss_binomial(10, 4)
    ctx_half.poch(20)
    ctx_half.q_int(25)
    assert ctx_half.gauss_binomial(10, 4) == before
