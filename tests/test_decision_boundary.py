"""Decision-boundary harness of the certified q-series reports.

A q-series report is decided on balls: ``verify._numeric_report`` refuses
a discrepancy ball that straddles eps, and ``verify._ball_repr`` writes a
text only when every value in its ball has it.  A true identity puts its
discrepancy far below eps, so here every check runs with
``_numeric_report`` wrapped to decide the discrepancy ball plus an exact
offset, chosen from the exact discrepancy that the oracles give at the
searches' truncations.  The offsets put the shifted value at
eps (1 +- 2**-j), within a relative 2**-j of a 12-digit print boundary or
on it, or put an end of the ball exactly on eps.

Every check must either give the report of the shifted exact value
(status, discrepancy text and tail text) or be refused.  A decided report
must also be the one of each end of its ball: the ball holds both ends, so
as far as it can tell either may be the exact value.  That is what catches
a ball whose low end sits on eps decided as a fail.
"""

import collections
import itertools
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import oracles
import qzeta.verify
from qzeta import THETA, Triple, compose, evaluators, idx, symmetric_pair_check, verify_qmzsv

_numeric_report = qzeta.verify._numeric_report  # the rule under test, unwrapped
QS = (Fraction(1, 2), Fraction(2, 9))
# a decimal eps, whose shifts eps (1 +- 2**-j) are compact rationals for
# j <= 16, and a dyadic one, on which a ball's end can sit exactly
EPSS = (Fraction(1, 10**25), Fraction(1, 2**110))
# j from 1 past the point, near 300 - log2(1/eps) bits, where the first
# rung (2**-300) stops telling eps (1 +- 2**-j) from eps and a second rung
# decides, at about j = 212 for eps = 1e-25 and 188 for 2**-110
JS = (1, 2, 3, 4, 6, 8, 12, 16, 17, 24, 32, 48, 64, 96, 128, 160, 176, 184, 192, 200, 208,
      216, 224, 240)


def _compact(x: Fraction) -> bool:
    """Whether a report prints x as the rational "p/q" (see oracles.report_text)."""
    return abs(x.numerator) < 10**30 and x.denominator < 10**30


def _print_boundaries(eps: Fraction):
    """The 12-digit print boundaries next to eps, one below and one above,
    with the distance between two 12-digit values there: the midpoint of
    the 12-significant-digit value at or below x and the next one up, at
    x = eps (1 - 2**-60) and eps (1 + 2**-30).  For eps = 1e-25 the first
    is 9.999999999995E-26, where the exponent changes."""
    for x in (eps * (1 - Fraction(1, 2**60)), eps * (1 + Fraction(1, 2**30))):
        with localcontext() as ctx:
            ctx.prec = 60
            exponent = (Decimal(x.numerator) / Decimal(x.denominator)).adjusted()
        unit = Fraction(10) ** (exponent - 11)
        yield (x // unit) * unit + unit / 2, unit


def _shifts(eps: Fraction):
    """(kind, j, target) for every shift to an exact value: eps (1 +- 2**-j),
    a print boundary +- 2**-j of the distance between the two 12-digit
    values it parts (from j = 2; j = 1 would be those values), and the
    boundaries themselves, with j None."""
    boundaries = list(_print_boundaries(eps))
    for j, sign in itertools.product(JS, (-1, 1)):
        yield "eps", j, eps * (1 + sign * Fraction(1, 2**j))
        for boundary, unit in boundaries:
            if j > 1:
                yield "print", j, boundary + sign * unit / 2**j
    for boundary, _ in boundaries:
        yield "print", None, boundary


def _compositions(weight):
    if weight == 0:
        yield ()
    for first in range(1, weight + 1):
        for rest in _compositions(weight - first):
            yield (first, *rest)


def _slots(pattern):
    return [((e.magnitude, e.sign), t, None if r is THETA else r)
            for e, t, r in zip(pattern.s, pattern.t, pattern.r)]


def _left(q, string, eps):
    """A weak zeta star value's partial sum at its search's K, and its tail bound."""
    K, tail = evaluators._harmonic_truncation(q, len(string), eps)
    return oracles.harmonic_series_nested(q, [(x, 1) for x in string], K, star=True), tail


def _right(q, pattern, eps):
    """The merged mollified series' partial sum at its search's K, and its tail bound."""
    K, tail = evaluators._frakz_truncation(q, pattern, eps, True)
    return oracles.mollified_series_merged(q, _slots(pattern), K), tail


def _qmzsv_exact(comp, q, eps):
    """verify_qmzsv's exact discrepancy and tail bound at the searches' K."""
    d, pattern = compose(comp)
    (lhs, left_tail), (rhs, right_tail) = _left(q, comp, eps / 4), _right(q, pattern, eps / 4)
    return abs(lhs - d * rhs), left_tail + right_tail


def _pair_exact(a, b, q, eps):
    """symmetric_pair_check's exact discrepancy and tail bound: the product
    u v propagates its factors' tails with their exact values."""
    budget = eps / 12
    (z_ab, t_ab), (z_ba, t_ba), (u, t_u), (v, t_v) = (
        _left(q, s, budget)
        for s in ((2,) * a + (3,) + (2,) * b + (1,), (2,) * b + (3,) + (2,) * a + (1,),
                  (2,) * (a + 1), (2,) * (b + 1))
    )
    w, t_w = _right(q, Triple((idx(2 * a + 2 * b + 3),), (a + b + 2,), (2,)), budget)
    disc = abs(z_ab + z_ba - u * v - (1 - q) * w)
    tail = t_ab + t_ba + abs(u) * t_v + abs(v) * t_u + t_u * t_v + (1 - q) * t_w
    return disc, tail


def _harness(monkeypatch, check, exact, tail, eps) -> collections.Counter:
    """Run check() once per shift of its discrepancy ball; assert every
    decided report, and count the refusals by (kind, j)."""
    state = {}

    def shifted(t0, case, family, params, q, eps_, disc, tail_):
        state["offset"] = state["shift"](disc)
        state["ball"] = disc + state["offset"]
        return _numeric_report(t0, case, family, params, q, eps_, state["ball"], tail_)

    monkeypatch.setattr(qzeta.verify, "_numeric_report", shifted)
    tail_text = oracles.report_text(tail)

    def expected(value):
        return "numeric-pass" if value <= eps else "fail", oracles.report_text(value), tail_text

    shifts = [(kind, j, lambda ball, t=target: t - exact) for kind, j, target in _shifts(eps)]
    if eps.denominator & (eps.denominator - 1) == 0:  # dyadic: an end can sit on it
        shifts += [("end", "high", lambda ball: eps - ball.bounds()[1]),
                   ("end", "low", lambda ball: eps - ball.bounds()[0])]
    refused = collections.Counter()
    for kind, j, shift in shifts:
        state["shift"] = shift
        try:
            rep = check()
        except ValueError as exc:
            assert "decides the report" in str(exc)
            refused[kind, j] += 1
            continue
        got, value = (rep.status, rep.discrepancy, rep.tail_bound), exact + state["offset"]
        lo, hi = state["ball"].bounds()
        assert lo <= value <= hi
        for value in (value, lo, hi):
            assert got == expected(value), (kind, j, value)
    return refused


def _assert_refusals(refused, eps):
    # no ball decides a compact value's "p/q" text, and every other shift
    # of eps is decided by some rung, as is every value near a print
    # boundary but not on it; on the boundary and with the low end on eps
    # a refusal is allowed
    compact = collections.Counter(
        (kind, j) for kind, j, target in _shifts(eps) if kind == "eps" and _compact(target)
    )
    for (kind, j), count in refused.items():
        if kind == "eps":
            assert count <= compact[kind, j], (kind, j)
        else:
            assert kind == "end" and j == "low" or kind == "print" and j is None, (kind, j)


def test_qmzsv_reports_near_eps_and_print_boundaries_are_decided_right_or_refused(monkeypatch):
    rng = random.Random(2801)
    pool = [comp for weight in range(2, 9) for comp in _compositions(weight) if comp[0] >= 2]
    for q in QS:
        for comp in rng.sample(pool, 2):
            for eps in EPSS:
                exact, tail = _qmzsv_exact(comp, q, eps)
                refused = _harness(
                    monkeypatch, lambda: verify_qmzsv(comp, q=q, eps=eps), exact, tail, eps
                )
                _assert_refusals(refused, eps)


def test_symmetric_pair_reports_near_eps_are_decided_right_or_refused(monkeypatch):
    # (a, b) and (b, a) sum the same series, so a <= b; q and eps vary with
    # the pair, so that each is checked at both and the test stays near 2 s
    for a, b in itertools.combinations_with_replacement(range(3), 2):
        q, eps = QS[(a + b) % 2], EPSS[(a + b) // 2 % 2]
        exact, tail = _pair_exact(a, b, q, eps)
        refused = _harness(
            monkeypatch, lambda: symmetric_pair_check(a, b, q=q, eps=eps), exact, tail, eps
        )
        _assert_refusals(refused, eps)
