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
    MAX_PATTERN_LIMIT,
    SeriesValue,
    _RESOLVED,
    _check_depth,
    _check_mhs_work,
    _check_series_depth,
    _default_prec,
    _frakz_truncation,
    _harmonic_truncation,
    _mhs_rows,
    _pattern_rows,
    _row_residual,
    _upper_limit,
    classical_zeta,
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
    Composition,
    as_composition,
    closed_pattern,
    compose,
    family_instances,
    pattern_depth,
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
    digits, s, exact = _rounded(abs(num), den)
    if not exact:
        return _decimal_text(num < 0, digits, s)
    # An exact quotient takes the Decimal path, whose result follows the
    # ideal-exponent rule rather than showing 12 digits.
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(num) / Decimal(den))


def _rounded(a: int, den: int) -> tuple[int, int, bool]:
    """(digits, s, exact) for a / den > 0: digits * 10**-s is its 12-digit
    rounding, 10**11 <= digits < 10**12, and exact says that no remainder
    was rounded off, the value being digits * 10**-s itself.

    The 12 digits come from one integer division of a * 10**s by den,
    rounded half to even as a Decimal division would: turning a numerator
    of tens of thousands of bits into a Decimal costs milliseconds.  The
    result depends only on the value a / den, not on its terms."""
    # first guess from the bit lengths (log10(2) ~ 0.30103), off by at most one
    s = 11 - (a.bit_length() - den.bit_length()) * 30103 // 100000
    while True:
        scaled, divisor = (a * 10**s, den) if s >= 0 else (a, den * 10**-s)
        digits, rest = divmod(scaled, divisor)
        if 10**11 <= digits < 10**12:
            break
        s += 1 if digits < 10**11 else -1
    if 2 * rest > divisor or (2 * rest == divisor and digits % 2):
        digits += 1
        if digits == 10**12:
            digits //= 10
            s -= 1
    return digits, s, not rest


def _decimal_text(negative: bool, digits: int, s: int) -> str:
    """The text of the decimal (-1)**negative * digits * 10**-s."""
    return str(Decimal((negative, tuple(map(int, str(digits))), -s)))


def _holds_compact(mid: int, rad: int, prec: int) -> bool:
    """Whether [mid - rad, mid + rad] / 2**prec holds a rational whose
    denominator is below _EXACT_DIGITS, as every compact rational's is.

    The ball is symmetric about its centre, so it holds one exactly when it
    holds the one nearest the centre, which ``Fraction.limit_denominator``
    would return: the centre itself when its denominator is below the
    bound, else the nearer of the last convergent p1/q1 of its continued
    fraction below the bound and the semiconvergent (p0 + k p1) /
    (q0 + k q1) with the largest k below it.  Both are tested, which is the
    same as testing the nearer, with the continued fraction taken in
    integers off mid and 2**prec: its quotients do not depend on a common
    factor, so nothing is reduced."""
    bound = _EXACT_DIGITS - 1
    n, d = mid, 1 << prec
    p0, q0, p1, q1 = 0, 1, 1, 0
    while d:
        a, rest = divmod(n, d)
        if q0 + a * q1 > bound:
            k = (bound - q0) // q1
            return any(
                abs((p << prec) - mid * q) <= rad * q
                for p, q in ((p1, q1), (p0 + k * p1, q0 + k * q1))
            )
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, rest
    return True


def _ball_repr(x: Ball) -> Optional[str]:
    """The text :func:`rational_repr` gives every value in a positive Ball
    when they all give the same, else None, decided on the ball's integers.

    They do when the ball holds no compact rational (:func:`_holds_compact`),
    both ends give the same text, and the grid point that text reads lies
    outside the ball: 12-digit rounding is monotone, so every value inside
    rounds to that point and is written as its rounding, being neither
    compact nor the point itself.  Past the first test no rational of
    denominator below _EXACT_DIGITS lies in the ball, so neither end is
    compact and both take the 12-digit path, and neither is an exact
    quotient: a dyadic exact quotient d * 10**-s with d < 10**12 is an
    integer or has a denominator 2**j <= 2**17.
    """
    mid, rad, prec = x.mid, x.rad, x.prec
    lo, hi = mid - rad, mid + rad
    if lo <= 0 or _holds_compact(mid, rad, prec):
        return None
    digits, s, _ = _rounded(lo, 1 << prec)
    if _rounded(hi, 1 << prec)[:2] != (digits, s):
        return None
    # the grid point digits * 10**-s against the ends, times 2**prec * 10**max(s, 0)
    point, scale = (digits << prec, 10**s) if s >= 0 else ((digits * 10**-s) << prec, 1)
    if lo * scale <= point <= hi * scale:
        return None
    return _decimal_text(False, digits, s)


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
    :func:`_ball_repr`).  Both are decided on the balls' integers: disc's
    ends against eps by cross-multiplying with its numerator and
    denominator, and no text is written unless disc decides.
    """
    limit = eps.numerator << disc.prec
    lo, hi = (disc.mid - disc.rad) * eps.denominator, (disc.mid + disc.rad) * eps.denominator
    if lo <= limit < hi:
        return None
    discrepancy = _ball_repr(disc)
    tail_bound = _ball_repr(tail) if isinstance(tail, Ball) else rational_repr(tail)
    if discrepancy is None or tail_bound is None:
        return None
    return VerificationReport(
        case=case,
        family=family,
        params=params,
        status="numeric-pass" if hi <= limit else "fail",
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
# far below the exact sum.  Three doublings decide the deep strings met so
# far whose discrepancy lies far below the first ball's reach, such as
# (2,)*300, decided at 4P, while the last rung stays within about a second
# (README "Performance notes" has the timings).
_BALL_DOUBLINGS = 3


def _decide(
    q: Fraction, eps: Fraction, strings: Sequence[tuple], patterns: Sequence[Triple],
    report: Callable[..., Optional[VerificationReport]],
) -> VerificationReport:
    """The report of a certified q-series check at q, decided from balls alone.

    The series are the weak zeta star values of strings, then the mollified
    series of patterns, every resolution summed as one series
    (``merge=True``), each summed until its tail bound is at most eps.
    Every truncation search runs first, the strings' in order and then the
    patterns', so a cap on a series length refuses before any series sums.
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


def verify_mhs(
    composition: Sequence[int],
    n_max: int = 10,
    q_values: Sequence[QLike] = (Fraction(1, 2),),
    case: Optional[str] = None,
    family: str = "composition",
) -> VerificationReport:
    """Exact check of the finite weak-sum identity at every n <= n_max.

    Both sides come as unreduced rows of one shape, the left side's from
    :func:`~qzeta.evaluators._mhs_rows` and the right side's from
    :func:`~qzeta.evaluators._pattern_rows`, and each pair is compared by
    :func:`~qzeta.evaluators._row_residual`, which reduces the residual of
    a failing n only; only a failing n formats its label.

    Both engines are generators that raise every refusal of theirs before
    their first row, and whose row 0 needs no term.  The two streams are
    read in step, so row 0 of both, and with it every refusal of both
    sides, comes before the first term of either.  No list of rows is
    built.  The right side is read first only so that, where both sides
    would refuse, its refusal is the one reported: its caps
    (MAX_PATTERN_LIMIT, MAX_PATTERN_DEPTH) are the tighter ones, so
    ``verify 2^5000 --n-max 200`` names the upper limit of 160 rather than
    the left side's work estimate.

    Raises ValueError, before any sum, for a composition entry that is a
    bool, not an int or below 1 (see :func:`~qzeta.rules.as_composition`),
    an empty or str q_values (see :func:`_q_list`), a bool n_max, or any
    refusal of either engine; TypeError when n_max is not an int.  The
    right side's n_max cap, then its depth cap, the depth read off the
    composition (:func:`~qzeta.rules.pattern_depth`), and then the left
    side's work estimate at each q, read off the composition's length and
    sum (:func:`~qzeta.evaluators._check_mhs_work`), are checked before the
    string or the pattern is built, so ``verify 3^1000000`` is refused
    without compiling its 1,000,001 slots and ``verify 2^1000000`` without
    building its string.
    """
    comp = as_composition(composition)
    col = _Residuals()
    qs = _q_list(q_values)
    # the right side's refusals, in its order, then the left side's work
    # estimate, all before the string or the pattern is built
    n_max = _upper_limit(n_max, MAX_PATTERN_LIMIT, "a finite mollified sum")
    _check_depth(pattern_depth(comp), "a finite mollified sum")
    l_w = sum(comp)
    for q in qs:
        _check_mhs_work(len(comp), l_w, n_max, q.denominator)
    entries = signed_string(comp)
    d, pattern = compose(comp)
    r_w = pattern.weight
    for q in qs:
        ctx = QContext(q)
        rhs = _pattern_rows(ctx, pattern, n_max)
        lhs = _mhs_rows(ctx, entries, n_max, star=True)
        for n, (r_row, l_row) in enumerate(zip(rhs, lhs)):
            res = _row_residual(ctx, n, r_row, r_w, l_row, l_w, d)
            col.add(f"q={q} n={n}" if res else "", res)
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
    9/10.

    What does not depend on the composition is memoized in
    :mod:`~qzeta.evaluators` and shared by every check at the same q and
    eps: the two truncation searches, keyed by (q, depth, eps, cap) and
    (q, pattern depth, merge, eps, cap), and the floored tables both balls
    read (:func:`~qzeta.evaluators._magnitude_table` and
    :func:`~qzeta.evaluators._power_table`).  Each magnitude table holds
    the columns of one group of 8 magnitudes per (q, binary point,
    length), (lead + q**k) / [k]**s read off one fixed-point sequence of
    [k], q**k and 1/[k]: a term costs a product and a shift of integers of
    about its binary point, where an exact floor toward q -> 1 divides
    integers of k s log2(b) bits.  The left ball reads q**k / [k]**s at the
    binary point its level sets, from a table built to a power-of-two
    length that the truncations of nearby depths read as a prefix; the
    right ball reads (1 + q**k) / [k]**s and the powers q**e, e >= 0, from
    tables at the power of two at least its run's binary point, so one
    table serves every binary point up to it, and the dampings of its
    levels from the same power table; its one power above 1, 1/q, is
    divided out.  Both balls run the one
    sweep (:func:`~qzeta.evaluators._ball_sweep`) over these, with one
    error bound for every floored term.  The memos are bounded lru_caches
    of immutable values (64 searches each and 16 tables of each kind; see
    _TABLE_CACHE_SIZE for their sizes), so a check reads the same values
    warm or cold and from any thread.
    What depends on the composition goes through the level memo
    (:mod:`~qzeta.levels`), bounded by the bits it holds: the left ball's
    levels 1..m-1 per (q, K, binary point) and suffix, and the right
    ball's run columns per q and (K, s, P_j, beta, j == m, binary point),
    each kept from the second check at a q on.  The report is decided on
    the balls' integers (:func:`_numeric_report`).

    Raises ValueError, before either side sums, for a composition entry
    that is a bool, not an int or below 1, a composition that is not
    zeta-admissible, a pattern over MAX_PATTERN_DEPTH, or a truncation over
    either side's cap; the pattern's depth is read off the composition
    (:func:`~qzeta.rules.pattern_depth`) and checked first, then the left
    side's truncation search runs from the composition's length, both
    before the pattern is built, so ``verify 2^1000000 --qmzsv`` compiles
    none of its slots, and the left side's cap is checked before the right
    side's.
    Raises ValueError after the last rung when no ball decides.
    """
    t0 = time.perf_counter()
    comp = zeta_composition(composition)
    q = as_q(q)
    epsv = as_eps(eps)
    budget = epsv / 4
    _check_depth(pattern_depth(comp), "a q-series")  # before the pattern is built
    _harmonic_truncation(q, len(comp), budget)  # the left side's cap, likewise
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
    resolved descent of :func:`~qzeta.evaluators.classical_zeta`, which
    never lists the resolutions.  So a check makes two calls of
    :func:`~qzeta.evaluators.classical_zeta`, the composition's weak series
    and then that one, each read from the engine's bounded ``lru_cache``
    when an earlier check summed it; the report is the same warm or cold.

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
    composition of more than MAX_PATTERN_DEPTH entries, and then a pattern
    of more slots, is refused with the engine's message before the pattern
    is built, its depth read off the composition
    (:func:`~qzeta.rules.pattern_depth`), so ``verify 3^1000000
    --classical`` compiles none of its 1,000,001 slots.
    """
    t0 = time.perf_counter()
    comp = zeta_composition(composition)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    # the engine's depth refusals, in its order, before the pattern is built
    for depth in (len(comp), pattern_depth(comp)):
        _check_series_depth(depth)
    d, pattern = compose(comp)
    lhs = classical_zeta(comp, K=K, star=True)
    resolved = classical_zeta(pattern.s, K=K, star=_RESOLVED)
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
# n, so their time grows steeply with n_max; at this limit the three
# default q take seconds (README "Performance notes" has the timings).
_MAX_KERNEL_LIMIT = 120
# The fixed sizes of the other parts: inverse-power checks c <= 4 at
# n <= 25, head-reduction each sample at n <= 15, kernel-step 0 <= a <= 3.
_INVERSE_C_MAX = 4
_INVERSE_N_MAX = 25
_HEAD_N_MAX = 15
_STEP_A_MAX = 3
# Most head-reduction samples, checked before any part runs: the part's
# time and its report's size grow linearly with the samples, and this cap
# keeps them to seconds and under a megabyte (README "Performance notes").
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
# the draw and the checks of `qzeta verify random` grow linearly with the
# count, and this cap keeps the command to seconds (README "Performance
# notes").
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
