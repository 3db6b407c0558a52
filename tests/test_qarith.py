from fractions import Fraction
from itertools import islice

import pytest

import oracles
from qzeta import QContext, Triple, as_q, bar, idx, mhs_many, THETA
from qzeta.evaluators import _inner_terms
from qzeta.verify import _kernel_row, _ratio_scale


def test_as_q_accepts_rationals_in_unit_interval():
    assert as_q("2/3") == Fraction(2, 3)
    assert as_q(Fraction(1, 2)) == Fraction(1, 2)
    for bad in (0, 1, Fraction(3, 2), "5/4", Fraction(-1, 2)):
        with pytest.raises(ValueError):
            as_q(bad)


def test_frozen_values(ctx_half):
    assert ctx_half.q_int(1) == 1
    assert ctx_half.q_int(3) == Fraction(7, 4)
    assert ctx_half.gauss_row(4, 3)[2] == 35
    # A(n, k) = c_n * U(n, k) with U(n, k) = (-1)^k (b^k + a^k) (ab)^{k(k-1)/2}
    # G(2n, n-k); at q = 1/2, c_1 = P_1**2 / P_2 = 1/3 and G(2, 0..1) = 1, 3
    assert _kernel_row(1, 2, 1, ctx_half.gauss_row(2, 2)) == [6, -3]
    assert _ratio_scale(ctx_half, 1) == Fraction(1, 3)
    # br(1, 1) = c_1 * G(2, 0) * b = 1 / (1 + q) = 2/3
    assert _ratio_scale(ctx_half, 1) * ctx_half.gauss_row(2, 2)[0] * 2 == Fraction(2, 3)
    for n, k, kernel in ((1, 1, Fraction(-1)), (2, 1, Fraction(-9, 7))):
        units = _kernel_row(1, 2, n, ctx_half.gauss_row(2 * n, n + 1))
        assert _ratio_scale(ctx_half, n) * units[k] == kernel


def test_q_int_matches_oracle(ctx_half, ctx_nine_tenths):
    for ctx in (ctx_half, ctx_nine_tenths):
        for n in range(0, 31):
            assert ctx.q_int(n) == oracles.q_integer(ctx.q, n)


def test_gauss_binomial_matches_oracle(ctx_half, ctx_third):
    # gauss_row holds the integers G(n, j) = gauss(n, j) * b**(j(n-j))
    for ctx in (ctx_half, ctx_third, QContext(Fraction(7, 8)), QContext(Fraction(2, 9))):
        q, b = ctx.q, ctx.q.denominator
        for n in range(0, 13):
            row = ctx.gauss_row(n, n + 1)
            assert row == [oracles.q_binomial(q, n, j) * b ** (j * (n - j)) for j in range(n + 1)]
            assert all(type(g) is int for g in row)
            assert ctx.gauss_row(n, n // 2) == row[: n // 2]
        assert ctx.gauss_row(4, 0) == []


def test_gauss_binomial_symmetry(ctx_half, ctx_third, ctx_nine_tenths):
    for ctx in (ctx_half, ctx_third, ctx_nine_tenths):
        for n in range(0, 41):
            row = ctx.gauss_row(n, n + 1)
            assert row == row[::-1]


def test_gauss_binomial_pascal_recurrence(ctx_half, ctx_third, ctx_nine_tenths):
    # q-Pascal on the integers: G(n, m) = b**(n-m) G(n-1, m-1) + a**m G(n-1, m)
    for ctx in (ctx_half, ctx_third, ctx_nine_tenths):
        a, b = ctx.q.numerator, ctx.q.denominator
        above = ctx.gauss_row(0, 1)
        for n in range(1, 41):
            row = ctx.gauss_row(n, n + 1)
            for m in range(1, n):
                assert row[m] == b ** (n - m) * above[m - 1] + a**m * above[m]
            above = row


def test_gauss_binomial_out_of_range(ctx_half):
    # the integer tables refuse an index they cannot serve, also once
    # longer rows are cached
    ctx_half.p_prod(5)
    ctx_half.p_lcm(5)
    for bad in (
        lambda: ctx_half.p_prod(-1),
        lambda: ctx_half.p_lcm(-1),
        lambda: ctx_half.gauss_row(-1, 0),
        lambda: ctx_half.gauss_row(3, 5),
        lambda: ctx_half.gauss_row(3, -1),
    ):
        with pytest.raises(ValueError):
            bad()
    assert ctx_half.gauss_row(3, 4) == [1, 7, 7, 1]


def _kernel(q, n, k):
    # A(n, k) = (-1)^k (1 + q^k) q^{k(k-1)/2} br(n, k), from the oracle
    return (-1) ** k * (1 + q**k) * q ** (k * (k - 1) // 2) * oracles.binom_ratio(q, n, k)


def test_binom_ratio_edges(ctx_half, ctx_third, ctx_nine_tenths):
    # br(n, k) = gauss(n, k) / gauss(n + k, k) = P_n**2 / P_2n * G(2n, n-k) * b**(k*k):
    # the finite prefactor and the kernel lemmas both rest on this identity,
    # and the kernel lemmas read A(n, k) as c_n times the integers U(n, k)
    contexts = (ctx_half, ctx_third, ctx_nine_tenths) + tuple(
        QContext(Fraction(x)) for x in ("5/7", "2/9", "7/8")
    )
    for ctx in contexts:
        q, a, b = ctx.q, ctx.q.numerator, ctx.q.denominator
        for n in range(0, 13):
            scale = Fraction(ctx.p_prod(n) ** 2, ctx.p_prod(2 * n))
            gauss = ctx.gauss_row(2 * n, n + 1)
            units = _kernel_row(a, b, n, gauss)
            assert _ratio_scale(ctx, n) == scale
            # the row stops at k = n: br(n, k) vanishes for k > n
            assert len(units) == n + 1
            assert all(type(u) is int for u in units)
            for k in range(0, n + 1):
                assert scale * gauss[n - k] * b ** (k * k) == oracles.binom_ratio(q, n, k)
                assert scale * units[k] == _kernel(q, n, k)
            assert scale * units[0] == 2


def test_kernel_row_sums(ctx_half, ctx_nine_tenths):
    # full rows of the alternating kernel sum to -1, the weighted rows to [n];
    # the kernel lemmas check only suffixes past l >= 1, so these stay
    for ctx in (ctx_half, ctx_nine_tenths):
        q, a, b = ctx.q, ctx.q.numerator, ctx.q.denominator
        for n in range(1, 31):
            scale = Fraction(ctx.p_prod(n) ** 2, ctx.p_prod(2 * n))
            gauss = ctx.gauss_row(2 * n, n + 1)
            assert scale * sum(_kernel_row(a, b, n, gauss)[1:]) == -1
            ratios = [gauss[n - k] * b ** (k * k) for k in range(n + 1)]
            weighted = sum(
                (1 + q**k) * oracles.q_integer(q, k) * ratios[k] * q ** (k * (k - 1))
                for k in range(1, n + 1)
            )
            assert scale * weighted == ctx.q_int(n)


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
            assert ctx.p_prod(n) == poch * b ** (n * (n + 1) // 2)
            assert type(ctx.p_prod(n)) is int
            row = ctx.gauss_row(n, n + 1)
            for j in range(n + 1):
                assert row[j] * ctx.p_prod(j) * ctx.p_prod(n - j) == ctx.p_prod(n)


def test_mollified_term():
    # the term of a one-slot triple at index k is the run engine's inner[k],
    # an integer over L_k**mag * a**A * b**B; at q = 7/8 and 2/9 a > 1 enters
    # that scale and b is not a power of 2
    def inner(ctx, triple, k):
        a, b = ctx.q.numerator, ctx.q.denominator
        y, ea, eb = list(islice(_inner_terms(ctx, triple, False), k))[-1]
        mag = triple.s[0].magnitude
        return y / (ctx.p_lcm(k) ** mag * Fraction(a) ** ea * Fraction(b) ** eb)

    for q in (Fraction(1, 2), Fraction(7, 8), Fraction(2, 9)):
        ctx = QContext(q)
        got = inner(ctx, Triple((bar(2),), (3,), (1,)), 4)
        assert got == q ** (3 * 4 + 6) * (1 + q**4) / oracles.q_integer(q, 4) ** 2
        got = inner(ctx, Triple((idx(1),), (0,), (THETA,)), 3)
        assert got == (1 + q**3) / oracles.q_integer(q, 3)


def test_context_caches_are_consistent(ctx_half):
    # interleaved calls must keep returning identical values
    row, p, lcm = ctx_half.gauss_row(10, 11), ctx_half.p_prod(10), ctx_half.p_lcm(10)
    units = _kernel_row(1, 2, 5, ctx_half.gauss_row(10, 6))
    ctx_half.p_prod(20)
    ctx_half.p_lcm(24)
    ctx_half.gauss_row(24, 13)
    ctx_half.q_int(25)
    assert ctx_half.gauss_row(10, 11) == row
    assert ctx_half.p_prod(10) == p
    assert ctx_half.p_lcm(10) == lcm
    assert _kernel_row(1, 2, 5, ctx_half.gauss_row(10, 6)) == units
    assert _ratio_scale(ctx_half, 5) * units[2] == _kernel(ctx_half.q, 5, 2)
