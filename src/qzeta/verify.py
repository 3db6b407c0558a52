"""Verification harness for the harmonic-sum identity layers.

Exact checks compare both sides of an identity in rational arithmetic and
pass only when every residual vanishes.  Numeric checks on infinite series
split the requested accuracy across all series involved, sum each one until
its rigorous tail bound fits its share, and then compare; within-eps
agreement is therefore certified, not a float coincidence.  Both q-series
checks read every series as a certified ball around its exact partial sum,
at finer binary points until the balls decide the report
(:func:`_decide`); no series is summed exactly.  Limit-side checks run in
floating point and treat the reported truncation estimates as error bars on
top of the stated tolerance.

Every entry point returns VerificationReport records with a stable JSON
shape, suitable both for the command line and for the test suite.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import time
from dataclasses import asdict, dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .evaluators import (
    Ball,
    SeriesValue,
    _RESOLVED,
    _check_depth,
    _default_prec,
    _frakz_truncation,
    _harmonic_truncation,
    _mhs_rows,
    _pattern_rows,
    _row_value,
    _upper_limit,
    classical_zeta_many,
    frakz_enclosure,
    mollified_mhs_many,
    pattern_mhs_many,
    q_zeta_enclosure,
)
from .expansion import Triple
from .indices import THETA, SignedIndex, bar, boxplus, idx, is_int, oplus, signed_string
from .indices import delta as sign_of
from .qarith import QContext, QLike, as_eps, as_int, as_q
from .rules import (
    CLOSED_FAMILIES,
    Composition,
    as_composition,
    closed_pattern,
    compose,
    zeta_composition,
)

DEFAULT_SEED = 101
_RESIDUAL_CAP = 16

Number = Union[str, float, None]


@dataclass
class VerificationReport:
    case: str
    family: str
    params: dict
    status: str
    q: Optional[str] = None
    n_range: Optional[list] = None
    residuals: list = field(default_factory=list)
    discrepancy: Number = None
    tail_bound: Number = None
    seed: Optional[int] = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status in ("exact-pass", "numeric-pass")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _ms(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


_EXACT_DIGITS = 10**30


def rational_repr(x: Fraction) -> str:
    """Exact "p/q" when compact, else a 12-digit decimal approximation.

    The certified comparisons always run on the exact values; this only
    controls how report fields are written out, where a residual from a
    high-precision series check can have thousands of digits.  The 12
    digits are the value rounded half to even on the grid of its 12th
    significant digit, so a larger value never rounds lower."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if abs(num) < _EXACT_DIGITS and den < _EXACT_DIGITS:
        return str(x)
    # The 12 digits come from one integer division of |num| * 10**s by den,
    # rounded half to even as the Decimal division below would: turning a
    # numerator of tens of thousands of bits into a Decimal costs
    # milliseconds.  An exact quotient takes the Decimal path, whose result
    # follows the ideal-exponent rule rather than showing 12 digits.
    a = abs(num)
    # first guess from the bit lengths (log10(2) ~ 0.30103), off by at most one
    s = 11 - (a.bit_length() - den.bit_length()) * 30103 // 100000
    while True:
        scaled, divisor = (a * 10**s, den) if s >= 0 else (a, den * 10**-s)
        digits, rest = divmod(scaled, divisor)
        if 10**11 <= digits < 10**12:
            break
        s += 1 if digits < 10**11 else -1
    if rest:
        if 2 * rest > divisor or (2 * rest == divisor and digits % 2):
            digits += 1
            if digits == 10**12:
                digits //= 10
                s -= 1
        return str(Decimal((num < 0, tuple(map(int, str(digits))), -s)))
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(num) / Decimal(den))


def _ball_repr(x: Ball) -> Optional[str]:
    """The text :func:`rational_repr` gives every value in a positive Ball
    when they all give the same, else None.

    They do when the ball holds no compact rational, both ends give the
    same text, and the grid point that text reads lies outside the ball:
    12-digit rounding is monotone, so every value inside rounds to that
    point and is written as its rounding, being neither compact nor the
    point itself.  The ball is symmetric about its centre, so if it holds a
    compact rational it holds the one nearest the centre.
    """
    lo, hi = x.bounds()
    if lo <= 0:
        return None
    centre = Fraction(x.mid, 1 << x.prec)
    if lo <= centre.limit_denominator(_EXACT_DIGITS - 1) <= hi:
        return None
    text = rational_repr(lo)
    if rational_repr(hi) != text or lo <= Fraction(text) <= hi:
        return None
    return text


def _label(items: Sequence) -> str:
    return ",".join(str(x) for x in items)


def _sequence(values: Sequence, name: str, noun: str) -> tuple:
    """values as a tuple, refusing a str, whose characters would be the items."""
    if isinstance(values, str):
        raise ValueError(f"{name} must be a sequence of {noun}, got the str {values!r}")
    return tuple(values)


def _q_list(q_values: Sequence[QLike]) -> list[Fraction]:
    """q_values as a nonempty list of distinct q: with none a report passes
    unchecked, and a q given twice would be checked twice."""
    qs = [as_q(q) for q in _sequence(q_values, "q_values", "q")]
    if not qs:
        raise ValueError("q_values needs at least one q")
    for i, q in enumerate(qs):
        if q in qs[:i]:
            raise ValueError(f"q_values gives q = {q} more than once")
    return qs


def all_passed(reports: Iterable[VerificationReport]) -> bool:
    return all(report.passed for report in reports)


class _Residuals:
    """Collects the exact checks of one report: counts them, flags a failure,
    tracks the worst residual and keeps the first _RESIDUAL_CAP as text."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.checks = 0
        self.failed = False
        self.worst = Fraction(0)
        self.lines: list[str] = []

    def add(self, label: str, res: Fraction) -> None:
        self.checks += 1
        if res:
            self.failed = True
            self.worst = max(self.worst, abs(res))
            if len(self.lines) < _RESIDUAL_CAP:
                self.lines.append(f"{label}: {rational_repr(res)}")

    def report(
        self, case: str, family: str, params: dict, q: str, n_range: list,
        seed: Optional[int] = None, show_worst: bool = False,
    ) -> VerificationReport:
        """The report of these checks; its discrepancy is the worst residual
        with ``show_worst``, else "0" on a pass and None on a failure."""
        discrepancy = rational_repr(self.worst) if show_worst else (None if self.failed else "0")
        return VerificationReport(
            case=case,
            family=family,
            params={**params, "checks": self.checks},
            status="fail" if self.failed else "exact-pass",
            q=q,
            n_range=n_range,
            residuals=self.lines,
            discrepancy=discrepancy,
            seed=seed,
            elapsed_ms=_ms(self.t0),
        )


def _numeric_report(
    t0: float, case: str, family: str, params: dict, q: Fraction,
    eps: Fraction, disc: Ball, tail: Fraction | Ball,
) -> Optional[VerificationReport]:
    """Report of a certified series check: it passes when |lhs - rhs| <= eps.

    disc is a Ball around the exact discrepancy, and tail the exact tail
    bound or a Ball around it.  The report is the one the exact values
    give, or None when the balls cannot tell: when disc straddles eps, or
    a field's text is not the same for every value inside its ball (see
    :func:`_ball_repr`).
    """
    lo, hi = disc.bounds()
    passed = True if hi <= eps else False if lo > eps else None
    discrepancy = _ball_repr(disc)
    tail_bound = _ball_repr(tail) if isinstance(tail, Ball) else rational_repr(tail)
    if passed is None or discrepancy is None or tail_bound is None:
        return None
    return VerificationReport(
        case=case,
        family=family,
        params=params,
        status="numeric-pass" if passed else "fail",
        q=str(q),
        discrepancy=discrepancy,
        tail_bound=tail_bound,
        elapsed_ms=_ms(t0),
    )


# The binary points a check tries: P, 2P, 4P and 8P bits, where P is that
# of :func:`~qzeta.evaluators.q_zeta_enclosure`; a check that none decides
# is refused, not summed exactly.  A ball's integers stay near its binary
# point while the exact sum's denominators grow like K**2 times the depth
# in bits, so each doubling costs a small multiple of the last and stays
# far below the exact sum.  At q = 1/2 and eps = 1e-25 on a shared 2-vCPU
# x86-64 host, in fresh processes, verify_qmzsv((2,)*300) is decided at
# 4P = 1,200 bits in 0.26-0.55 s and symmetric_pair_check(200, 200) in
# 1.0-2.2 s (the spread is the host's speed from one hour to the next),
# where the exact left side ran past 110 s and 130 s; the left ball at 8P
# for (2,)*300 alone takes 0.7-1.0 s.
_BALL_DOUBLINGS = 3


def _decide(
    q: Fraction, eps: Fraction, strings: Sequence[tuple], patterns: Sequence[Triple],
    report: Callable[..., Optional[VerificationReport]],
) -> VerificationReport:
    """The report of a certified q-series check at q, decided from balls alone.

    The series are the weak zeta star values of strings, then the mollified
    series of patterns, every resolution summed as one series
    (``merge=True``), each summed until its tail bound is at most eps.
    Every pattern's depth is checked against MAX_PATTERN_DEPTH first, then
    every truncation search runs, the strings' in order and then the
    patterns', so a pattern too deep for a q-series refuses before any
    search, and a cap on a series length before any series sums.
    Then each rung sums every series as a ball at one binary point
    (:func:`~qzeta.evaluators.q_zeta_enclosure` and
    :func:`~qzeta.evaluators.frakz_enclosure`), 2**-P on the first and
    twice as fine on each of the _BALL_DOUBLINGS after it, and passes them
    to report in that order.  report returns None when its balls cannot
    decide (see :func:`_numeric_report`), so the first report it returns is
    the one the exact values give.

    Raises ValueError, naming the finest binary point tried, when no rung
    decides; no series is ever summed exactly.
    """
    for pattern in patterns:
        _check_depth(pattern, "a q-series")
    for s in strings:
        _harmonic_truncation(q, len(s), eps)
    for pattern in patterns:
        _frakz_truncation(q, pattern, eps, True)
    for doublings in range(_BALL_DOUBLINGS + 1):
        prec = _default_prec(eps) << doublings
        lefts = [q_zeta_enclosure(q, s, eps=eps, star=True, prec=prec) for s in strings]
        rep = report(*lefts, *(frakz_enclosure(q, p, eps=eps, prec=prec) for p in patterns))
        if rep is not None:
            return rep
    raise ValueError(f"no ball down to the binary point 2**-{prec} decides the report")


def _raise_lighter(left: int, right, base: int, excess: int) -> tuple:
    """(left * base**excess, right) when excess >= 0, else
    (left, right * base**-excess): a cross product's side that lacks a
    factor the other side's denominator has over its own."""
    if excess >= 0:
        return left * base**excess, right
    return left, right * base**-excess


def verify_mhs(
    composition: Sequence[int],
    n_max: int = 10,
    q_values: Sequence[QLike] = (Fraction(1, 2),),
    case: Optional[str] = None,
    family: str = "composition",
) -> VerificationReport:
    """Exact check of the finite weak-sum identity at every n <= n_max.

    Both sides come as unreduced rows of one shape, (num, c, e) over
    L_n**w * c * b**e with L_n = lcm(h_1..h_n) implied: the left side's
    (:func:`~qzeta.evaluators._mhs_rows`, weight W, c = 1) and the right
    side's (:func:`~qzeta.evaluators._pattern_rows`, weight w,
    c = G(2n, n) * a**A_n).  ``compose`` keeps the weight, so W = w and the
    power of L_n, most of both denominators' bits, cancels, as does the
    smaller b-power: lhs - delta * rhs vanishes iff
    l_num * r_c * b**(r_e - l_e) == delta * r_num * l_c * b**(l_e - r_e),
    each side's numerator times the other's small cofactor, where a cross
    product of the full denominators would take three products of
    integers of about n**2 bits.  Should the weights differ, the lighter
    side takes the missing L_n**|W - w|, so the check stays exact.  Only a
    failing n reads both rows as values
    (:func:`~qzeta.evaluators._row_value`), to reduce its residual.

    Both engines are generators that raise every refusal of theirs before
    their first row, and whose row 0 needs no term.  The two streams are
    read in step, so row 0 of both, and with it every refusal of both
    sides, comes before the first term of either: ``verify 2^1000000`` is
    refused by the left side's work estimate before the right side sums a
    term.  No list of rows is built.  The right side is read first only so
    that, where both sides would refuse, its refusal is the one reported:
    its caps (MAX_PATTERN_LIMIT, MAX_PATTERN_DEPTH) are the tighter ones,
    so ``verify 2^5000 --n-max 200`` names the upper limit of 160 rather
    than the left side's work estimate.

    Raises ValueError, before any sum, for a composition entry that is a
    bool, not an int or below 1 (see :func:`~qzeta.rules.as_composition`),
    an empty or str q_values (see :func:`_q_list`), a bool n_max, or any
    refusal of either engine; TypeError when n_max is not an int.
    """
    comp = as_composition(composition)
    col = _Residuals()
    entries = signed_string(comp)
    qs = _q_list(q_values)
    n_max = as_int(n_max, "n_max")
    d, pattern = compose(comp)
    l_w, r_w = sum(comp), pattern.weight
    for q in qs:
        ctx = QContext(q)
        b = q.denominator
        rhs = _pattern_rows(ctx, pattern, n_max)
        lhs = _mhs_rows(ctx, entries, n_max, star=True)
        for n, (r_row, l_row) in enumerate(zip(rhs, lhs)):
            (l_num, l_c, l_e), (r_num, r_c, r_e) = l_row, r_row
            left, right = _raise_lighter(l_num * r_c, d * r_num * l_c, b, r_e - l_e)
            left, right = _raise_lighter(left, right, ctx.p_lcm(n), r_w - l_w)
            res = 0
            if left != right:
                # only a failing n pays for its denominators and a reduction
                res = _row_value(ctx, l_w, n, l_row) - d * _row_value(ctx, r_w, n, r_row)
            col.add(f"q={q} n={n}", res)
    params = {"composition": list(comp), "delta": d, "terms": 2 ** (pattern.depth - 1)}
    return col.report(
        case or f"weak-sum {_label(comp)}", family, params, _label(qs), [0, n_max],
        show_worst=True,
    )


def verify_qmzsv(
    composition: Sequence[int],
    q: QLike = Fraction(1, 2),
    eps: QLike = Fraction(1, 10**25),
    case: Optional[str] = None,
    family: str = "composition",
) -> VerificationReport:
    """Certified numeric check of the infinite weak-sum identity.

    The left side and the right side, every resolution of the pattern
    summed as one series, are each summed until their rigorous tail bound
    is at most eps/4, so the two sides of a true identity can differ by at
    most eps/2 < eps.  ``params["series"]`` still counts 1 + 2**(m-1).

    Both sides are balls around their exact partial sums, at finer binary
    points until they decide (:func:`_decide`).  A rung decides only the
    report the exact values give, so the report is always the exact one.
    At eps = 1e-25 the first rung decides all 175 weight-12 compositions
    with a first entry >= 2 and pattern depth 2-4 at q = 1/2, 2/3, 4/5 and
    9/10.  As the report's ``elapsed_ms``, medians of two sets of 14 fresh
    processes on a shared 2-vCPU x86-64 host (Python 3.11), (2,1,1,3,1)
    takes about 6-7 ms at q = 1/2, 10-16 ms at 4/5 and 22-32 ms at 9/10 on
    a first call, most of it building the memos below, and 1.0, 1.3-1.9
    and 2.3-3.2 ms on a second call at the same q.  (9,9,9), pattern depth
    22, takes about 0.06 s on a first call at q = 4/5.

    What does not depend on the composition is memoized in
    :mod:`~qzeta.evaluators` and shared by every check at the same q and
    eps: the two truncation searches, keyed by (q, depth, eps, cap) and
    (q, pattern depth, merge, eps, cap); the left ball's floored terms, one
    column per (q, magnitude, length, binary point), at the binary point
    the level it reads sets, built to a power-of-two length that the
    truncations of nearby depths read as a prefix; and the right ball's
    floored tables, magnitude columns per (q, binary point, length,
    magnitude group) and powers of q per (base, binary point, length).
    The left columns and the magnitude columns are read off one
    fixed-point sequence of [k], q**k and 1/[k] per q and binary point
    (:func:`~qzeta.evaluators._fixed_point_rows`): a term costs a few
    products and one division of integers of about twice that binary
    point, where an exact floor toward q -> 1 divides integers of
    k s log2(b) bits.  Both balls run the one sweep
    (:func:`~qzeta.evaluators._ball_sweep`) over these, with one error
    bound for every floored term.  The memos are bounded lru_caches of
    immutable values (64 searches each, 32 columns and 16 tables of each
    kind; see _COLUMN_CACHE_SIZE and _TABLE_CACHE_SIZE for their sizes),
    so a check reads the same values warm or cold and from any thread.
    Over the 105 checks of the benchmark's q-series batch at q = 1/2 they
    miss 4, 3, 4, 7 and 4 times.

    Raises ValueError, before either side sums, for a composition entry
    that is a bool, not an int or below 1, a composition that is not
    zeta-admissible, a pattern over MAX_PATTERN_DEPTH, or a truncation over
    either side's cap; the pattern's depth is checked before either
    truncation search, and the left side's cap before the right side's.
    Raises ValueError after the last rung when no ball decides.
    """
    t0 = time.perf_counter()
    comp = zeta_composition(composition)
    q = as_q(q)
    epsv = as_eps(eps)
    budget = epsv / 4
    d, pattern = compose(comp)
    series = 1 + 2 ** (pattern.depth - 1)
    params = {"composition": list(comp), "delta": d, "series": series, "eps": str(epsv)}

    def report(lhs: SeriesValue, rhs: SeriesValue) -> Optional[VerificationReport]:
        return _numeric_report(
            t0, case or f"weak-zeta {_label(comp)}", family, params, q, epsv,
            abs(lhs.value - d * rhs.value), lhs.tail_bound + rhs.tail_bound,
        )

    return _decide(q, budget, (comp,), (pattern,), report)


def verify_classical(
    composition: Sequence[int],
    K: int = 10**6,
    tol: float = 1e-4,
    case: Optional[str] = None,
) -> VerificationReport:
    """Floating-point check of the q -> 1 shadow at truncation K.

    The right side, 2**depth * zeta over every resolution of the pattern,
    is one float series: the pattern's signed string summed in the
    resolved descent of :func:`classical_zeta_many`, which never lists the
    resolutions.  So a check sums two series, the composition's weak one
    and that one, each read from the engine's bounded ``lru_cache`` when an
    earlier check summed it; the report is the same warm or cold.

    Both sides are partial sums, so the pass condition allows the stated
    tolerance plus the truncation estimates of both series.  The estimates
    are heuristic (leading-term integral comparisons), not the certified
    bounds of the q-side checks, and the right side's grows with its 2**m
    weights: at K = 10**6 the allowance of (9, 9, 9), pattern depth 22, is
    5.85, so that check is loose, not sharp.

    Raises ValueError, before summing, for a composition entry that is a
    bool, not an int or below 1, a composition that is not zeta-admissible,
    or unless tol is finite and >= 0: an infinite tolerance passes any
    identity, and a negative or NaN one fails every identity.  A
    composition of more than MAX_PATTERN_DEPTH entries, or a pattern of
    more slots, is refused by the engine.
    """
    t0 = time.perf_counter()
    comp = zeta_composition(composition)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    d, pattern = compose(comp)
    lhs, resolved = classical_zeta_many([(comp, True), (pattern.s, _RESOLVED)], K=K)
    rhs = d * resolved.value
    allowance = tol + lhs.tail_est + resolved.tail_est
    disc = abs(lhs.value - rhs)
    return VerificationReport(
        case=case or f"classical {_label(comp)}",
        family="composition",
        params={
            "composition": list(comp),
            "terms": 2 ** (pattern.depth - 1),
            "K": K,
            "tol": tol,
            "lhs": lhs.value,
            "rhs": rhs,
            "allowance": allowance,
        },
        status="numeric-pass" if disc <= allowance else "fail",
        discrepancy=disc,
        tail_bound=lhs.tail_est + resolved.tail_est,
        elapsed_ms=_ms(t0),
    )


def _kernel_unit(a: int, b: int, k: int) -> int:
    """w_k = (-1)^k (b^k + a^k) (ab)^{k(k-1)/2}, with q = a/b."""
    return (-1) ** k * (b**k + a**k) * (a * b) ** (k * (k - 1) // 2)


def _kernel_row(a: int, b: int, n: int, row: Sequence[int]) -> list[int]:
    """The integers U(n, k) = w_k G(2n, n-k) = A(n, k) / c_n, 0 <= k <= n, of
    the kernel A(n, k) = (-1)^k (1 + q^k) q^{k(k-1)/2} br(n, k), for
    row = ctx.gauss_row(2n, n + 1); br(n, k) = c_n G(2n, n-k) b^(k^2)."""
    return [_kernel_unit(a, b, k) * row[n - k] for k in range(n + 1)]


def _kernel_sum(case: str, n_max: int, q_values: Sequence[Fraction]) -> VerificationReport:
    """Exact check of the kernel part ``case`` for 1 <= n <= n_max at every q.

    Each check is linear in the kernel rows, so c_n cancels and, with
    q = a/b, its sides are integers.  _KERNEL_SUMS[case](a, b, h, rows) reads
    the factors h[i] = ctx.h(i), i <= 2 n_max, and the rows
    (n, ctx.gauss_row(2n, n + 1)) in turn and yields, per check,
    (n, label, left, right, unit, den): the check holds iff left == right,
    and only a failing one is reduced, to the residual (left - right) * unit
    / prod(den) * c_n, c_n = 1 / G(2n, n) = (h_1 ... h_n) / (h_(n+1) ... h_2n).
    """
    pairs = _KERNEL_SUMS[case]
    col = _Residuals()
    for q in q_values:
        ctx, text = QContext(q), str(q)
        h = [ctx.h(i) for i in range(2 * n_max + 1)]
        rows = ((n, ctx.gauss_row(2 * n, n + 1)) for n in range(1, n_max + 1))
        for n, label, left, right, unit, den in pairs(q.numerator, q.denominator, h, rows):
            res = 0
            if left != right:
                c_n = Fraction(math.prod(h[1 : n + 1]), math.prod(h[n + 1 : 2 * n + 1]))
                res = Fraction((left - right) * unit, math.prod(den)) * c_n
            col.add(f"q={text} n={n} {label}", res)
    params = {"a_max": _STEP_A_MAX} if case == "kernel-step" else {}
    return col.report(case, "kernel", params, _label(q_values), [1, n_max])


def _suffix_sum(a: int, b: int, h: Sequence[int], rows, terms, closed, den):
    """Pairs of sum_{l < k <= n} T(n, k) == C(n, l), 1 <= l < n, where with
    q = a/b the sides over c_n den(a, b, h, n) are the integers
    terms(a, b, h, n, row)[k] and closed(a, b, h, n, l, G(2n, n-l))."""
    for n, row in rows:
        d = (den(a, b, h, n),)
        # tails[l - 1] is the sum over l < k <= n
        tails = list(itertools.accumulate(terms(a, b, h, n, row)[:1:-1]))[::-1]
        for l in range(1, n):
            yield n, f"l={l}", tails[l - 1], closed(a, b, h, n, l, row[n - l]), 1, d


def _kernel_step(a: int, b: int, h: Sequence[int], rows):
    """Pairs of A(n - 1, k) sum_{i <= j} r^i == A(n, k) (r^j - 1/r) for
    1 <= k <= n and 0 <= j <= _STEP_A_MAX, with r = ([n] / [k])^2 q^(k - n).

    With q = a/b, r = F / D and c_(n-1) / c_n = E / F for F = h_n^2,
    D = h_k^2 (ab)^(n-k) and E = h_2n h_(2n-1), so times F^2 D^j / c_n the
    check reads U(n - 1, k) E F S_j == U(n, k) F (F^(j+1) - D^(j+1)) with
    S_j = sum_{i <= j} F^i D^(j-i).  The
    sides compared leave out the common factor w_k F of U(n, k) = w_k G(2n, n-k)
    (:func:`_kernel_row`); only a failing pair multiplies it back.
    """
    units = [1]  # w_k for k < n
    lower_row: list[int] = []  # G(2n - 2, .); at k = n the lower side is 0
    for n, row in rows:
        units.append(_kernel_unit(a, b, n))
        f = h[n] ** 2
        e = h[2 * n] * h[2 * n - 1]
        f_pow = [f**i for i in range(_STEP_A_MAX + 2)]
        for k in range(1, n + 1):
            d = h[k] ** 2 * (a * b) ** (n - k)
            lower = e * lower_row[n - 1 - k] if k < n else 0
            s, d_pow = 0, 1
            for j in range(_STEP_A_MAX + 1):
                s = s * d + f_pow[j]
                right = row[n - k] * (f_pow[j + 1] - d_pow * d)
                yield n, f"k={k} a={j}", lower * s, right, units[k], (f, d_pow)
                d_pow *= d
        lower_row = row


# The kernel parts as pair generators for :func:`_kernel_sum`.  With q = a/b,
# [n] = h_n / b^(n-1) and each side divided by c_n, the alternating term
# A(n, k) / c_n and its closed form ([l] - [n]) / [n] (-1)^l q^{l(l-1)/2}
# br(n, l) / c_n are over h_n, and the weighted term
# (1 + q^k) [k] q^{k(k-1)} br(n, k) / c_n and its closed form
# ([n] - [l]) q^{l^2} br(n, l) / c_n over b^(n-1); there
# h_l b^(n-l) - h_n = -a^l h_(n-l), (b^k + a^k) h_k = h_2k and
# br(n, l) / c_n = G(2n, n-l) b^(l^2) with g = G(2n, n-l).
_KERNEL_SUMS = {
    "alternating-kernel-sum": functools.partial(
        _suffix_sum,
        terms=lambda a, b, h, n, row: [h[n] * u for u in _kernel_row(a, b, n, row)],
        closed=lambda a, b, h, n, l, g: (-1) ** (l + 1) * (a * b) ** (l * (l + 1) // 2)
        * h[n - l] * g,
        den=lambda a, b, h, n: h[n],
    ),
    "weighted-kernel-sum": functools.partial(
        _suffix_sum,
        terms=lambda a, b, h, n, row: [
            h[2 * k] * a ** (k * (k - 1)) * b ** (n - k) * row[n - k] for k in range(n + 1)
        ],
        closed=lambda a, b, h, n, l, g: a ** (l * (l + 1)) * h[n - l] * g,
        den=lambda a, b, h, n: b ** (n - 1),
    ),
    "kernel-step": _kernel_step,
}


def inverse_power_pattern(c: int) -> Triple:
    """Pattern whose expansion represents -1/[n]^c as mollified sums."""
    if c < 0:
        raise ValueError(f"need c >= 0, got {c}")
    return Triple(
        (bar(0),) + (idx(1),) * c,
        (0,) * (c + 1),
        (1,) + (THETA,) * c,
    )


def _inverse_power(q: Fraction) -> VerificationReport:
    col = _Residuals()
    ctx = QContext(q)
    for c in range(_INVERSE_C_MAX + 1):
        rhs = pattern_mhs_many(ctx, inverse_power_pattern(c), _INVERSE_N_MAX)
        for n in range(1, _INVERSE_N_MAX + 1):
            col.add(f"c={c} n={n}", Fraction(1) / ctx.q_int(n) ** c + rhs[n])
    params = {"c_max": _INVERSE_C_MAX}
    return col.report("inverse-power-expansion", "kernel", params, str(q), [1, _INVERSE_N_MAX])


def head_reduction_pattern(a: SignedIndex, b: int, c: int, r) -> Triple:
    """Pattern for pulling a factor 1/[n]^c into a leading slot."""
    if c < 1:
        raise ValueError(f"need c >= 1, got {c}")
    return Triple(
        (bar(0),) + (idx(1),) * (c - 1) + (oplus(a, bar(1)),),
        (0,) * c + (b,),
        (1,) + (THETA,) * (c - 1) + (r,),
    )


def _head_reduction(samples: int, seed: int, q: Fraction) -> VerificationReport:
    """Randomized exact check of the head-reduction expansion with tails.

    The shift r is sampled away from -1: there the merged slot of the
    pattern would fold 1 with r into the empty shift while the underlying
    identity produces the integer 0, and the two exponents differ.
    """
    col = _Residuals()
    rng = random.Random(seed)
    ctx = QContext(q)
    shift_pool = [THETA] + [r for r in range(-5, 7) if r not in (0, -1)]
    tail_shift_pool = [THETA] + list(range(-2, 3))
    cases = []
    for _ in range(samples):
        a = SignedIndex(rng.randint(0, 3), rng.choice([1, -1]))
        b = rng.randint(0, 3)
        c = rng.randint(1, 3)
        r = rng.choice(shift_pool)
        x = SignedIndex(rng.randint(0, 2), rng.choice([1, -1]))
        y = rng.randint(0, 2)
        z = rng.choice(tail_shift_pool)
        cases.append(f"a={a} b={b} c={c} r={r} tail=[{x};{y};{z}]")
        lhs_triple = Triple((a, x), (b, y), (boxplus(r, 1), z))
        lhs_vals = mollified_mhs_many(ctx, lhs_triple, _HEAD_N_MAX)
        # every resolution of the c+1 head slots, each followed by the tail
        # slot: the separator before the tail stays a comma
        head = head_reduction_pattern(a, b, c, r)
        with_tail = Triple(head.s + (x,), head.t + (y,), head.r + (z,))
        rhs_vals = pattern_mhs_many(ctx, with_tail, _HEAD_N_MAX, merge=(True,) * c + (False,))
        for n in range(1, _HEAD_N_MAX + 1):
            lhs = lhs_vals[n] / ctx.q_int(n) ** c
            col.add(f"{cases[-1]} n={n}", lhs - rhs_vals[n])
    params = {"samples": samples, "cases": cases}
    return col.report("head-reduction", "kernel", params, str(q), [1, _HEAD_N_MAX], seed=seed)


# Largest n_max of the kernel parts of lemma_suite, checked before any part
# runs.  They compare O(n_max**2) integer pairs per q whose size grows with
# n: at the three default q they take about 1.4 s at n_max = 80, 4 s at
# 100 and 9 s at 120 on a 2-vCPU x86-64 host.
_MAX_KERNEL_LIMIT = 120
# The fixed sizes of the other parts: inverse-power checks c <= 4 at
# n <= 25, head-reduction each sample at n <= 15, kernel-step 0 <= a <= 3.
_INVERSE_C_MAX = 4
_INVERSE_N_MAX = 25
_HEAD_N_MAX = 15
_STEP_A_MAX = 3
# Most head-reduction samples, checked before any part runs: each takes
# about 1 ms and adds about 41 bytes to the report, so at the cap the part
# takes about 9 s on a 2-vCPU x86-64 host and writes about 0.4 MB.
_MAX_HEAD_SAMPLES = 10_000

LEMMA_PARTS = (
    "alternating-kernel-sum",
    "weighted-kernel-sum",
    "inverse-power-expansion",
    "head-reduction",
    "kernel-step",
)


def lemma_suite(
    n_max: int = 40,
    q_values: Sequence[QLike] = (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)),
    seed: int = DEFAULT_SEED,
    samples: int = 10,
) -> list[VerificationReport]:
    """Run the supporting-identity checks and return one report per part,
    in LEMMA_PARTS order.

    The three kernel parts run at every q of q_values up to n_max;
    inverse-power and head-reduction run at the first q only, at their
    fixed sizes.

    ValueError is raised before any part runs for a str q_values, an n_max
    outside 2.._MAX_KERNEL_LIMIT (below 2 the kernel sums would pass without
    a check), samples outside 1.._MAX_HEAD_SAMPLES, or a bool seed or
    samples; TypeError for a seed or samples that is not an int.
    """
    qs = _q_list(q_values)
    seed = as_int(seed, "seed")
    n_max = _upper_limit(n_max, _MAX_KERNEL_LIMIT, "the kernel lemmas")
    if n_max < 2:
        raise ValueError(f"n_max = {n_max} leaves alternating-kernel-sum with no checks (needs >= 2)")
    samples = as_int(samples, "samples")
    if samples < 1:
        raise ValueError(f"samples = {samples} leaves head-reduction with no checks (needs >= 1)")
    if samples > _MAX_HEAD_SAMPLES:
        raise ValueError(f"samples {samples} exceeds {_MAX_HEAD_SAMPLES} for head-reduction")
    return [
        _kernel_sum("alternating-kernel-sum", n_max, qs),
        _kernel_sum("weighted-kernel-sum", n_max, qs),
        _inverse_power(qs[0]),
        _head_reduction(samples, seed, qs[0]),
        _kernel_sum("kernel-step", n_max, qs),
    ]


def symmetric_pair_check(
    a: int,
    b: int,
    q: QLike = Fraction(1, 2),
    eps: QLike = Fraction(1, 10**25),
) -> VerificationReport:
    """Certified check of the symmetrized product identity.

    The sum of the two mirror-image weak zeta values equals the product of
    two plain weak zeta values plus a (1-q)-weighted mollified series; the
    product's error is propagated explicitly.  The four weak zeta values
    and the depth-1 mollified series are balls at one binary point, finer
    on each rung until they decide, as in :func:`verify_qmzsv` (see
    :func:`_decide`).

    Raises ValueError, before any sum, unless a and b are ints >= 0, or
    when a truncation is over its cap; and after the last rung when no
    ball decides.
    """
    t0 = time.perf_counter()
    for name, value in (("a", a), ("b", b)):
        if not is_int(value) or value < 0:
            raise ValueError(f"{name} must be an int >= 0, got {value!r}")
    q = as_q(q)
    epsv = as_eps(eps)
    budget = epsv / 12
    strings = (
        (2,) * a + (3,) + (2,) * b + (1,), (2,) * b + (3,) + (2,) * a + (1,),
        (2,) * (a + 1), (2,) * (b + 1),
    )
    pattern = Triple((idx(2 * a + 2 * b + 3),), (a + b + 2,), (2,))

    def report(z_ab, z_ba, u, v, w):
        lhs = z_ab.value + z_ba.value
        rhs = u.value * v.value + (1 - q) * w.value
        product_tail = abs(u.value) * v.tail_bound + abs(v.value) * u.tail_bound
        product_tail += u.tail_bound * v.tail_bound
        tail_total = (
            z_ab.tail_bound + z_ba.tail_bound + product_tail + (1 - q) * w.tail_bound
        )
        return _numeric_report(
            t0, f"symmetric-pair a={a} b={b}", "symmetric-pair",
            {"a": a, "b": b, "eps": str(epsv)}, q, epsv, abs(lhs - rhs), tail_total,
        )

    return _decide(q, budget, strings, (pattern,), report)


def qmzsv_battery(
    q: QLike = Fraction(1, 2),
    eps: QLike = Fraction(1, 10**25),
    small: bool = False,
) -> list[VerificationReport]:
    """Certified numeric checks of the headline infinite-sum identities."""
    reports: list[VerificationReport] = []
    span = range(2) if small else range(3)
    for a, b in itertools.product(span, span):
        comp = (2,) * b + (3,) + (2,) * a + (1,)
        case = f"two-term a={a} b={b}"
        reports.append(verify_qmzsv(comp, q=q, eps=eps, case=case, family="2c21"))
    display = [(1, 0, 0), (1, 1, 0), (1, 0, 1)] + ([] if small else [(1, 1, 1)])
    for a0, b, a1 in display:
        comp = (2,) * a0 + (1,) + (2,) * b + (3,) + (2,) * a1 + (1,)
        case = f"leading-ones display a0={a0} b={b} a1={a1}"
        reports.append(verify_qmzsv(comp, q=q, eps=eps, case=case, family="212c21"))
    for a, b in itertools.product(span, span):
        reports.append(symmetric_pair_check(a, b, q=q, eps=eps))
    key_span = [(1, b, c, d) for b in range(2) for c in range(2) for d in range(2)]
    if small:
        key_span = key_span[:4]
    for a, b, c, d in key_span:
        comp = (2,) * a + (1,) + (2,) * b + (1,) + (2,) * c + (3,) + (2,) * d + (1,)
        case = f"key-expansion a={a} b={b} c={c} d={d}"
        reports.append(verify_qmzsv(comp, q=q, eps=eps, case=case, family="key"))
    return reports


def classical_battery() -> list[VerificationReport]:
    """Floating-point checks of the limit identities at fixed truncations."""
    return [
        verify_classical((2, 1), K=10**6, tol=1e-5, case="depth-two limit"),
        verify_classical((2, 1, 1, 3, 1), K=10**7, tol=1e-4, case="key limit"),
        verify_classical((2, 2), K=10**6, tol=1e-6, case="double-two limit"),
    ]


# Deepest composition sample_compositions draws.
_MAX_SAMPLE_DEPTH = 6
# Most compositions sample_compositions draws, checked before the first:
# drawing 10**6 takes about 3.6 s, and `qzeta verify random --count 10000`
# at its other defaults about 6 s on a 2-vCPU x86-64 host.
_MAX_SAMPLE_COUNT = 10_000


def sample_compositions(
    count: int = 200,
    max_weight: int = 12,
    seed: int = DEFAULT_SEED,
) -> list[Composition]:
    """Deterministic fuzz corpus of nonempty compositions of depth at most
    _MAX_SAMPLE_DEPTH and weight at most max_weight.

    count, max_weight and seed are read by :func:`~qzeta.qarith.as_int`: a
    bool raises ValueError and any other non-int TypeError.  Raises
    ValueError unless max_weight >= 1 and 0 <= count <= _MAX_SAMPLE_COUNT.
    """
    count = as_int(count, "count")
    max_weight = as_int(max_weight, "max_weight")
    seed = as_int(seed, "seed")
    if max_weight < 1:
        raise ValueError(f"max_weight must be >= 1, got {max_weight}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > _MAX_SAMPLE_COUNT:
        raise ValueError(f"count {count} exceeds {_MAX_SAMPLE_COUNT} for a random corpus")
    rng = random.Random(seed)
    out: list[Composition] = []
    for _ in range(count):
        # a depth past the weight would leave no room for its entries
        depth = rng.randint(1, min(_MAX_SAMPLE_DEPTH, max_weight))
        remaining = max_weight
        entries: list[int] = []
        for i in range(depth):
            # leave at least 1 for each later entry
            e = rng.randint(1, remaining - (depth - i - 1))
            entries.append(e)
            remaining -= e
        out.append(tuple(entries))
    return out


def _group_seqs(budget: int):
    """(b, c, a)-group sequences with total weight <= budget (incl. empty)."""
    yield (), (), (), 0
    if budget < 4:
        return
    for b in range((budget - 4) // 2 + 1):
        for c in range(3, budget - 2 * b):
            for a in range((budget - 2 * b - c - 1) // 2 + 1):
                w = 2 * b + c + 2 * a + 1
                for bs, cs, as_, w2 in _group_seqs(budget - w):
                    yield (b,) + bs, (c,) + cs, (a,) + as_, w + w2


def _instances_2c2(budget: int):
    def pairs(rem: int):
        yield (), (), 0
        if rem < 3:
            return
        for a in range((rem - 3) // 2 + 1):
            for c in range(3, rem - 2 * a + 1):
                w = 2 * a + c
                for as_, cs, w2 in pairs(rem - w):
                    yield (a,) + as_, (c,) + cs, w + w2

    for a in range(1, budget // 2 + 1):
        yield ((a,), ())
    for as_, cs, w in pairs(budget):
        if cs:
            for a_last in range((budget - w) // 2 + 1):
                yield (as_ + (a_last,), cs)


# Largest max_weight of family_instances, checked before the first
# instance: the count of a family grows about 7 times for each +4 of
# weight, and family_equivalence("2c2", 24) checks 75,024 instances in
# 5-7 s on a 2-vCPU x86-64 host.
_MAX_FAMILY_WEIGHT = 24


def family_instances(family: str, max_weight: int = 12):
    """All parameter tuples of a closed family with weight <= max_weight.

    Raises, at the first instance asked for, ValueError for a max_weight
    above _MAX_FAMILY_WEIGHT or an unknown family, and as
    :func:`~qzeta.qarith.as_int` for a max_weight that is not an int.
    """
    max_weight = as_int(max_weight, "max_weight")
    if max_weight > _MAX_FAMILY_WEIGHT:
        raise ValueError(f"max_weight {max_weight} exceeds {_MAX_FAMILY_WEIGHT} for a closed family")
    W = max_weight
    if family == "twos":
        for a in range(1, W // 2 + 1):
            yield (a,)
    elif family == "twos-ones":
        for a in range(W // 2 + 1):
            for l in range(1, W - 2 * a + 1):
                yield (a, l)
    elif family == "c-ones":
        for c in range(3, W):
            for l in range(1, W - c + 1):
                yield (c, l)
    elif family == "2c2":
        yield from _instances_2c2(W)
    elif family == "2c21":
        for bs, cs, as_, _ in _group_seqs(W):
            if bs:
                yield (bs, cs, as_)
    elif family == "212c21":
        for bs, cs, as_, w in _group_seqs(W - 1):
            for a0 in range((W - 1 - w) // 2 + 1):
                yield (a0, bs, cs, as_)
    elif family == "2c212":
        for bs, cs, as_, w in _group_seqs(W - 2):
            if bs:
                for a_last in range(1, (W - w) // 2 + 1):
                    yield (bs, cs, as_, a_last)
    elif family == "212c212":
        for bs, cs, as_, w in _group_seqs(W - 3):
            for a0 in range((W - 3 - w) // 2 + 1):
                rem = W - 1 - 2 * a0 - w
                for a_last in range(1, rem // 2 + 1):
                    yield (a0, bs, cs, as_, a_last)
    else:
        known = ", ".join(sorted(CLOSED_FAMILIES))
        raise ValueError(f"unknown family {family!r} (known: {known})")


def family_equivalence(family: str, max_weight: int = 12) -> VerificationReport:
    """Closed-form patterns must match the general composer exactly.  A family
    with no instance of weight <= max_weight raises ValueError, as its report
    would pass without a check; max_weight is read as in
    :func:`family_instances`."""
    t0 = time.perf_counter()
    max_weight = as_int(max_weight, "max_weight")
    mismatches: list[str] = []
    checks = 0
    for args in family_instances(family, max_weight):
        comp, closed = closed_pattern(family, *args)
        direct = compose(comp)
        checks += 1
        if (closed != direct or closed.delta != sign_of(comp)) and len(mismatches) < _RESIDUAL_CAP:
            mismatches.append(
                f"{family}{args}: closed=({closed.delta}, {closed.pattern})"
                f" direct=({direct.delta}, {direct.pattern})"
            )
    if not checks:
        raise ValueError(f"family {family} has no instance of weight <= {max_weight}")
    return VerificationReport(
        case=f"closed-form match {family}",
        family=family,
        params={"max_weight": max_weight, "checks": checks},
        status="fail" if mismatches else "exact-pass",
        residuals=mismatches,
        elapsed_ms=_ms(t0),
    )


def run_family(
    family: str,
    max_weight: int = 10,
    n_max: int = 8,
    q_values: Sequence[QLike] = (Fraction(1, 2),),
) -> list[VerificationReport]:
    """Structural equivalence plus exact evaluations of the first five
    instances of a family."""
    q_values = _q_list(q_values)
    reports = [family_equivalence(family, max_weight)]
    for args in itertools.islice(family_instances(family, max_weight), 5):
        comp, _ = closed_pattern(family, *args)
        reports.append(
            verify_mhs(
                comp,
                n_max=n_max,
                q_values=q_values,
                case=f"weak-sum {family}{args}",
                family=family,
            )
        )
    return reports
